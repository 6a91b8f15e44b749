"""Rewrite the golden result files in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each file is named after its command and holds what test_golden.record
returns for it.  The commands are those of tests/test_package.COMMANDS, plus
the benchmark's values-n8, game-file-n8 (with its reference command) and
referee-n8 commands at --seed 1, pass 0 (perfbench/workloads.py), spelled
out here so that a change to the workloads leaves the corpus as it is, plus
values at every exact size and three eta, values --game on the kv-build
file of each size, and a slice of each formula command, the referee at the
edges of its block and local-content in both variants.
A change to a golden file is a test change: list its fields in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import record  # noqa: E402
from test_package import COMMANDS  # noqa: E402

GAME_ETA, GAME_SEED = "0.22195683774713632", "564575316"
REFEREE = ["referee-sim", "--l", "3", "--samples", "1000000", "--seed", "134670082"]
KV_BUILD_N8 = ["kv-build", "--l", "3", "--eta", GAME_ETA, "--out", "{dir}/game.json"]

# name -> (argv, commands run first in the same directory)
WORKLOADS = {
    "values-n8-0-values": (["values", "--l", "2", "--eta", "0.27349832233596744"], []),
    "values-n8-1-values": (["values", "--l", "3", "--seed", "230651773"], []),
    "values-n8-2-superactivation": (["superactivation", "--d", "2", "--k", "1:3"], []),
    "values-n8-3-superactivation": (["superactivation", "--d", "8", "--k", "1:8"], []),
    "game-file-n8-ref-values": (["values", "--l", "3", "--eta", GAME_ETA, "--seed", GAME_SEED], []),
    "game-file-n8-0-kv-build": (KV_BUILD_N8, []),
    "game-file-n8-1-values": (
        ["values", "--game", "{dir}/game.json", "--seed", GAME_SEED],
        [KV_BUILD_N8],
    ),
    "referee-n8-0-referee-sim": (REFEREE + ["--strategy", "mes"], []),
    "referee-n8-1-referee-sim": (REFEREE + ["--strategy", "rep"], []),
}


# values by size: l = 1-4 at three eta, and the eta = auto rule where it applies
VALUES = {
    f"values-l{l}-{eta}": (["values", "--l", str(l), "--eta", eta], [])
    for l in (1, 2, 3, 4)
    for eta in ("0.05", "0.25", "0.45") + (("auto",) if l >= 3 else ())
}
# values --game on the file kv-build writes at l = 1-3
GAME = {
    f"values-game-l{l}": (
        ["values", "--game", "{dir}/game.json"],
        [["kv-build", "--l", str(l), "--eta", eta, "--out", "{dir}/game.json"]],
    )
    for l, eta in ((1, "0.25"), (2, "0.25"), (3, "auto"))
}


# superactivation: --eta auto, --p, the default threshold, d = 10^300 written
# out in digits, the symbolic row and a crossing
SUPERACTIVATION = {
    f"superactivation-{name}": (["superactivation", "--d", *args], [])
    for name, args in {
        "d2-k3-auto": ["2", "--k", "3", "--eta", "auto"],
        "d3-p0.5": ["3", "--p", "0.5"],
        "d8-auto": ["8", "--eta", "auto"],
        "d16": ["16"],
        "d1e300-p0.001": [str(10**300), "--p", "0.001"],
        "d8-k300000": ["8", "--k", "300000"],
        "d2-k90-95-p0.9": ["2", "--k", "90:95", "--p", "0.9"],
    }.items()
}
ALMOST_ACTIVATION = {
    f"almost-activation-delta{delta}": (["almost-activation", "--delta", delta], [])
    for delta in ("1", "1e308")
}
# referee-sim one round short of a noise block, a whole block and one past it
REFEREE_EDGES = {
    f"referee-sim-l{l}-{strategy}-{samples}-s{seed}": (
        ["referee-sim", "--l", str(l), "--strategy", strategy]
        + ["--samples", str(samples), "--seed", str(seed)],
        [],
    )
    for l in (1, 2, 3)
    for strategy in ("mes", "rep")
    for samples in (32767, 32768, 32769)
    for seed in (0, 9)
}
LOCAL_CONTENT = {
    f"local-content-{dist}-{variant}": (
        ["local-content", "--dist", dist, "--variant", variant],
        [],
    )
    for dist in ("pr-box", "chsh-quantum")
    for variant in ("free", "local")
}


def commands() -> dict:
    package = {f"package-{i}-{argv[0]}": (argv, []) for i, argv in enumerate(COMMANDS)}
    return {
        **package,
        **WORKLOADS,
        **VALUES,
        **GAME,
        **SUPERACTIVATION,
        **ALMOST_ACTIVATION,
        **REFEREE_EDGES,
        **LOCAL_CONTENT,
    }


def main() -> None:
    for old in HERE.glob("*.json"):
        old.unlink()
    for name, (argv, before) in commands().items():
        with tempfile.TemporaryDirectory() as directory:
            doc = record(argv, before, Path(directory))
        (HERE / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(name)


if __name__ == "__main__":
    main()
