"""Both kernel backends must agree bit for bit; the numpy path is the
reference the jit path is checked against, and a pure-python loop is the
oracle for the numpy path."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from kvbell import kernels
from kvbell.kvgame import build_hadamard_subgroup, noise_weights


def _python_coefficient_table(elems, coset_of, probs):
    N, K = elems.shape
    out = np.zeros((N, N, K, K))
    size = N * K
    for z in range(size):
        pz = probs[z]
        if pz == 0.0:
            continue
        for x in range(N):
            for pa in range(K):
                val = elems[x, pa] ^ z
                y = coset_of[val]
                pb = int(np.where(elems[y] == val)[0][0])
                out[x, y, pa, pb] += pz
    return out / N


def test_coefficient_table_numpy_matches_python_oracle():
    table = build_hadamard_subgroup(2)
    probs = noise_weights(4, 0.3)[np.array([bin(v).count("1") for v in range(16)])]
    got = kernels.direct_coefficient_table_numpy(table.elems, table.coset_of, probs)
    want = _python_coefficient_table(table.elems, table.coset_of, probs)
    assert np.array_equal(got, want) or np.max(np.abs(got - want)) < 1e-15


def test_coefficient_table_backends_identical():
    table = build_hadamard_subgroup(3)
    probs = noise_weights(8, 0.17)[
        np.array([bin(v).count("1") for v in range(256)])
    ]
    a = kernels.direct_coefficient_table_numpy(table.elems, table.coset_of, probs)
    b = kernels.direct_coefficient_table(table.elems, table.coset_of, probs)
    assert np.array_equal(a, b)


def _python_assignment_max(reward):
    N, K = reward.shape[0], reward.shape[1]
    best = -np.inf
    for f in itertools.product(range(K), repeat=N):
        for g in itertools.product(range(K), repeat=N):
            v = sum(reward[x, f[x], y, g[y]] for x in range(N) for y in range(N))
            best = max(best, v)
    return best


def test_enumerate_assignments_numpy_matches_python_oracle(rng):
    reward = rng.normal(size=(2, 3, 2, 3))
    got = kernels.enumerate_assignments_max_numpy(reward)
    want = _python_assignment_max(reward)
    assert abs(got - want) < 1e-12


def test_enumerate_assignments_backends_bit_identical(rng):
    for _ in range(5):
        reward = rng.normal(size=(3, 2, 3, 2))
        a = kernels.enumerate_assignments_max_numpy(reward)
        b = kernels.enumerate_assignments_max(reward)
        assert a == b


def test_env_flag_selects_numpy_backend():
    code = (
        "from kvbell.kernels import active_backend;"
        "print(active_backend())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "KVBELL_DISABLE_NUMBA": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


def test_backend_reports_a_known_name():
    assert kernels.active_backend() in ("numba", "numpy")
