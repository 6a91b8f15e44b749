"""Output gates: each command's `result` document is checked against a value
computed independently of the CLI.

Every gate takes the parsed `result` object plus the parameters the workload
recorded for the command, and returns a list of problems (empty when the
output is right).  The module uses the standard library only, so the
benchmark process never imports numpy.
"""

from __future__ import annotations

import json
import math

EXACT_GAME_SIZES = (2, 4, 8)
LAMBDA_SLACK = 1e-12


def kv_closed_form(n: int, eta: float) -> float:
    """Maximally entangled coset-game value (1 - 2 eta)^2 + 4 eta (1 - eta) / n,
    restated here so the check does not go through the program."""
    return (1.0 - 2.0 * eta) ** 2 + 4.0 * eta * (1.0 - eta) / n


def asymptotic_eta(n: int) -> float:
    """The CLI's default noise rate from n = 8 on: 1/2 - 1/ln(n)."""
    return 0.5 - 1.0 / math.log(n)


def _close(got: float, want: float, tol: float) -> bool:
    # written so that NaN fails
    return abs(got - want) <= tol


def values_exact(result: dict, n: int, eta: float) -> list[str]:
    """`values --l`: the exact quantum value equals the closed form."""
    quantum = result["quantum"]
    want = kv_closed_form(n, eta)
    problems = []
    if quantum["method"] != "exact":
        problems.append(f"quantum method {quantum['method']!r}, expected 'exact'")
    if not _close(quantum["value"], want, 1e-12):
        problems.append(f"quantum value {quantum['value']!r} != closed form {want!r}")
    return problems


def values_match(result: dict, classical: float, quantum: float) -> list[str]:
    """`values --game F`: same classical and quantum values as `values --l`."""
    problems = []
    if result["classical"]["value"] != classical:
        problems.append(f"classical {result['classical']['value']!r} != reference {classical!r}")
    if result["quantum"]["value"] != quantum:
        problems.append(f"quantum {result['quantum']['value']!r} != reference {quantum!r}")
    return problems


def superactivation(result: dict, d: int) -> list[str]:
    """exact_total >= mes_term >= 0 in every row that has exact columns."""
    problems = []
    for row in result["rows"]:
        k = row["k"]
        if d**k not in EXACT_GAME_SIZES:
            continue
        total, mes = row["exact_total"]["value"], row["mes_term"]["value"]
        if not total >= mes >= 0.0:
            problems.append(f"k={k}: exact_total {total!r}, mes_term {mes!r}")
    return problems


def kv_build(result: dict, n: int, entries: int) -> list[str]:
    problems = []
    if result["n"] != n:
        problems.append(f"n {result['n']!r} != {n}")
    if result["entries"] != entries:
        problems.append(f"{result['entries']!r} entries, expected {entries}")
    return problems


def game_file(path: str, n: int, entries: int) -> list[str]:
    """The file kv-build wrote has N^2 n^2 entries with the full key set."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if doc["n"] != n or doc["K"] != n or doc["N"] ** 2 * n**2 != entries:
        problems.append(f"game file shape n={doc['n']} N={doc['N']} K={doc['K']}")
    if len(doc["entries"]) != entries:
        problems.append(f"game file has {len(doc['entries'])} entries, expected {entries}")
    if any(set(e) != {"x", "y", "a", "b", "c"} for e in doc["entries"]):
        problems.append("game file entry with a wrong key set")
    return problems


def referee(result: dict, samples: int, closed_form: float | None) -> list[str]:
    """Monte Carlo within 4 sigma; for mes the exact value is the closed form."""
    problems = []
    if result["samples"] != samples:
        problems.append(f"{result['samples']!r} samples, expected {samples}")
    if result["consistent_4sigma"] is not True:
        problems.append(f"win rate {result['deviation_sigmas']['value']!r} sigma from exact")
    if closed_form is not None and not _close(result["exact_value"]["value"], closed_form, 1e-12):
        problems.append(
            f"exact value {result['exact_value']['value']!r} != closed form {closed_form!r}"
        )
    return problems


def local_content(result: dict) -> list[str]:
    """lambda in [0, 1] and the decomposition reproduces the input."""
    problems = []
    lam = result["lambda"]["value"]
    # lambda is a float sum of LP weights, so a true 1 can read 1 + 2 ulp
    if not -LAMBDA_SLACK <= lam <= 1.0 + LAMBDA_SLACK:
        problems.append(f"lambda {lam!r} outside [0, 1]")
    err = result["reconstruction_error"]
    if not err <= 1e-9:
        problems.append(f"reconstruction error {err!r} > 1e-9")
    return problems


GATES = {
    "values_exact": values_exact,
    "values_match": values_match,
    "superactivation": superactivation,
    "kv_build": kv_build,
    "referee": referee,
    "local_content": local_content,
}


def check(gate: str, params: dict, result) -> list[str]:
    """Run one gate; a result missing the checked fields is a problem too."""
    try:
        return GATES[gate](result, **params)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed result for gate {gate}: {exc!r}"]
