"""Rewrite the golden result files in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each file is named after its command and holds what test_golden.record
returns for it.  The commands are those of tests/test_package.COMMANDS, plus
the benchmark's values-n8, game-file-n8 (with its reference command) and
referee-n8 commands at --seed 1, pass 0 (perfbench/workloads.py), spelled
out here so that a change to the workloads leaves the corpus as it is, plus
values at every exact size and three eta, and values --game on the kv-build
file of each size.
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


def commands() -> dict:
    package = {f"package-{i}-{argv[0]}": (argv, []) for i, argv in enumerate(COMMANDS)}
    return {**package, **WORKLOADS, **VALUES, **GAME}


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
