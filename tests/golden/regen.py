"""Rewrite the golden result files in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Each file is named after its command and holds what test_golden.record
returns for it.  The commands are those of tests/test_package.COMMANDS, plus
the benchmark's values-n8, game-file-n8 (with its reference command) and
referee-n8 commands at --seed 1, pass 0 (perfbench/workloads.py), spelled
out here so that a change to the workloads leaves the corpus as it is, plus
values at every exact size and three eta, values --game on the kv-build
file of each size, and a slice of each formula command, the referee at the
edges of its block and local-content in both variants.  The commands that
read input files (a referee strategy, local-content distributions, a game
file rewritten with indent=2) carry the files' text, made here from seeds.
A change to a golden file is a test change: list its fields in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import record  # noqa: E402
from test_package import COMMANDS  # noqa: E402

from kvbell import Measurement, make_mes, pr_box_dist, quantum_prob  # noqa: E402
from kvbell.cli import main as cli_main  # noqa: E402

GAME_ETA, GAME_SEED = "0.22195683774713632", "564575316"
REFEREE = ["referee-sim", "--l", "3", "--samples", "1000000", "--seed", "134670082"]
KV_BUILD_N8 = ["kv-build", "--l", "3", "--eta", GAME_ETA, "--out", "{dir}/game.json"]

# name -> (argv, commands run first in the same directory[, input files by name])
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
    for l in (1, 2, 3, 4)
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


def strategy_text(l: int) -> str:
    """A deterministic strategy at n = 2**l: seeded answer positions per coset."""
    n = 1 << l
    rng = np.random.default_rng(l)
    alice, bob = (rng.integers(0, n, size=(1 << n) // n).tolist() for _ in range(2))
    return json.dumps({"alice": alice, "bob": bob})


def distribution_text(table: np.ndarray) -> str:
    return json.dumps({"N": table.shape[0], "K": table.shape[2], "table": table.tolist()})


def skewed_box() -> np.ndarray:
    """Half the PR box, half the uniform box, each (x, y) block's mass moved
    off 1 by a few 1e-9, inside the loader's 1e-8 tolerance."""
    table = 0.5 * pr_box_dist().table + 0.125
    return table * (1.0 + np.reshape([4e-9, -4e-9, -4e-9, 3e-9], (2, 2, 1, 1)))


def random_mes_box(seed: int) -> np.ndarray:
    """MES(3) measured in seeded random real orthonormal bases: (N, K) = (3, 3)."""
    rng = np.random.default_rng(seed)
    bases = [np.linalg.qr(rng.normal(size=(3, 3)))[0].T for _ in range(6)]
    alice, bob = ([Measurement(3, vectors=v) for v in half] for half in (bases[:3], bases[3:]))
    return quantum_prob(make_mes(3), alice, bob).table


def kv_build_text(l: int, eta: str) -> str:
    """The text of the game file kv-build writes."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "game.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["kv-build", "--l", str(l), "--eta", eta, "--out", str(path)]) == 0
        return path.read_text(encoding="utf-8")


REFEREE_FILE = {
    f"referee-sim-l{l}-file-s{seed}": (
        ["referee-sim", "--l", str(l), "--strategy", "{dir}/strategy.json"]
        + ["--samples", "40000", "--seed", str(seed)],
        [],
        {"strategy.json": strategy_text(l)},
    )
    for l in (2, 3, 4)
    for seed in (0, 9)
}
LOCAL_CONTENT_FILES = {
    f"local-content-{name}-{variant}": (
        ["local-content", "--dist", f"{{dir}}/{name}.json", "--variant", variant],
        [],
        {f"{name}.json": distribution_text(table)},
    )
    for name, table in (("skewed-box", skewed_box()), ("mes33-s5", random_mes_box(5)))
    for variant in ("free", "local")
}
KV_BUILD_TINY_ETA = ["kv-build", "--l", "3", "--eta", "1e-200", "--out", "{dir}/game.json"]
# the fallback reader on a rewritten file, and coefficients that underflow to 0
GAME_FILES = {
    "values-game-l2-indent": (
        ["values", "--game", "{dir}/game.json"],
        [],
        {"game.json": json.dumps(json.loads(kv_build_text(2, "0.25")), indent=2)},
    ),
    "kv-build-l3-eta1e-200": (KV_BUILD_TINY_ETA, []),
    "values-game-l3-eta1e-200": (["values", "--game", "{dir}/game.json"], [KV_BUILD_TINY_ETA]),
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
        **REFEREE_FILE,
        **LOCAL_CONTENT_FILES,
        **GAME_FILES,
    }


def main() -> None:
    for old in HERE.glob("*.json"):
        old.unlink()
    for name, (argv, before, *inputs) in commands().items():
        with tempfile.TemporaryDirectory() as directory:
            doc = record(argv, before, Path(directory), *inputs)
        (HERE / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(name)


if __name__ == "__main__":
    main()
