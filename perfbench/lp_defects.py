"""Reproduce the local-variant LP defects that keep random (N, K) = (4, 2)
inputs out of the local-content-lp workload (see NOTES.md).

    python3 perfbench/lp_defects.py [--seed N] [--draws 24]

Run it from the root of a checkout.  It draws random-measurement
distributions on MES(2) at (N, K) = (4, 2) the way gen.py draws its inputs,
runs local_content(dist, "local") on each, and sorts the outcomes:
certified, documented failure (the exit code the CLI would give), crash, or
a result whose decomposition misses the input (the local-content gate fails).
Exit status is 1 while any draw is not certified.
"""

from __future__ import annotations

import argparse
import collections
import re
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import gates  # noqa: E402
from gen import random_mes_table  # noqa: E402
from kvbell import ProbDist, local_content  # noqa: E402
from kvbell.errors import KvBellError  # noqa: E402


def outcome(table: np.ndarray) -> str:
    try:
        # the tolerances the CLI's distribution-file loader uses
        res = local_content(ProbDist(table, neg_tol=1e-9, norm_tol=1e-8), "local")
    except KvBellError as exc:
        return f"exit {exc.exit_code}: {re.split(r':| by | within ', str(exc))[0]}"
    except Exception as exc:  # the CLI would end in a traceback
        return f"crash: {type(exc).__name__}"
    doc = {"lambda": {"value": res.lam}, "reconstruction_error": res.reconstruction_error}
    return "gate fails: bad decomposition" if gates.local_content(doc) else "certified"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=24)
    args = parser.parse_args()
    census = collections.Counter()
    for i in range(args.draws):
        rng = np.random.default_rng([args.seed % 2**63, i])
        start = time.perf_counter()
        result = outcome(random_mes_table(rng, 4, 2))
        print(f"draw {i:3d}  {time.perf_counter() - start:7.2f} s  {result}")
        census[result] += 1
    for result, count in census.most_common():
        print(f"{count:4d}  {result}")
    return 0 if census["certified"] == args.draws else 1


if __name__ == "__main__":
    sys.exit(main())
