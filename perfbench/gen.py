"""Environment probe and input generator for the benchmark.

    python3 perfbench/gen.py --workload NAME --seed N --passes P --out DIR

Prints the environment block as one JSON line.  For local-content-lp it also
writes the distributions the program receives, made with library calls:

  kv34.json    the KV n = 4 maximally entangled distribution on the first
               3 of its 4 cosets, (N, K) = (3, 4)
  p<i>-33.json random-measurement distribution on MES(3), (N, K) = (3, 3),
               for passes i < P, drawn from (seed, i)

This runs in its own interpreter because the benchmark process must not
import numpy: a child's peak RSS includes the parent's.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

from kvbell import Measurement, build_hadamard_subgroup, kv_measurements, make_mes, quantum_prob
from kvbell.kernels import active_backend


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernels_active_backend": active_backend(),
    }


def _random_basis(rng: np.random.Generator, dim: int) -> Measurement:
    # Haar-random orthonormal basis: QR of a complex Gaussian matrix with the
    # phases of R's diagonal moved into Q
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Measurement(dim, vectors=q.T)


def random_mes_table(rng: np.random.Generator, N: int, K: int) -> np.ndarray:
    alice = [_random_basis(rng, K) for _ in range(N)]
    bob = [_random_basis(rng, K) for _ in range(N)]
    return quantum_prob(make_mes(K), alice, bob).table


def kv34_table() -> np.ndarray:
    table = build_hadamard_subgroup(2)
    meas = kv_measurements(table)
    return quantum_prob(make_mes(table.n), meas, meas).table[:3, :3]


def _write(path: Path, table: np.ndarray) -> None:
    N, K = table.shape[0], table.shape[2]
    path.write_text(json.dumps({"N": N, "K": K, "table": table.tolist()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    if args.workload == "local-content-lp":
        _write(out / "kv34.json", kv34_table())
        for i in range(args.passes):
            rng = np.random.default_rng([args.seed % 2**63, i])
            _write(out / f"p{i}-33.json", random_mes_table(rng, 3, 3))
    print(json.dumps(environment()))


if __name__ == "__main__":
    main()
