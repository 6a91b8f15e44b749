"""Command-line surface tying game construction, value computation, the
bound-chain experiments, Monte Carlo simulation, and the LP layer together.

All randomness flows through numpy's PCG64 generator seeded from --seed, so
every subcommand is reproducible run to run; JSON output puts timestamps in
a separate "meta" block so the "result" block is byte-stable.

Every computed number in JSON results is wrapped as {"value", "method"} with
method one of: exact, closed-form-validated, heuristic-lb, formula-ub,
formula-lb, formula-symbolic, empirical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GuardError, KvBellError, ValidationError
from .kvgame import (
    MAX_LOG,
    BellFunctional,
    CosetTable,
    asymptotic_eta,
    build_hadamard_subgroup,
    entangled_lower_bound_asymptotic,
    kv_classical_upper_bound,
    kv_functional,
    kv_game_to_json,
    kv_measurements,
    kv_question_marginal,
    referee_sample,
)
from .localpolytope import local_content, lv_from_pi
from .states import expand_tensor_power, locality_threshold, make_mes
from .values import (
    ENUMERATION_GUARD,
    EXACT_GAME_SIZES,
    ProbDist,
    almost_activation_exponent,
    almost_activation_lower_factor,
    almost_activation_mix_weight,
    almost_activation_upper_formula,
    chsh_functional,
    classical_value_exact,
    classical_value_heuristic,
    kv_value_for_expansion,
    pair,
    pr_box_dist,
    quantum_prob,
    quantum_value_kv_closed_form,
    seesaw_lower_bound,
    superactivation_crossing,
    superactivation_log_ratio_bound,
    superactivation_monotone_from,
    superactivation_ratio_bound,
    _check_restarts,
)

# game-file entries formatted per write (under 0.5 MB of text at n = 8)
GAME_FILE_BLOCK = 4096


def _tagged(value, method: str) -> dict:
    return {"value": value, "method": method}


def _fmt_tagged(entry: dict) -> str:
    value = entry["value"]
    if isinstance(value, float):
        return f"{value:.12g} [{entry['method']}]"
    return f"{value} [{entry['method']}]"


def _meta(command: str) -> dict:
    return {
        "command": command,
        "created_unix": time.time(),
        "tool": "kvbell",
        "version": __version__,
    }


def _write_file(path: str, pieces) -> None:
    """Write the strings of pieces to path, one after another."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args, command: str, result: dict, lines: list[str], write_out: bool = True) -> None:
    doc = {"meta": _meta(command), "result": result}
    if write_out and getattr(args, "out", None):
        _write_file(args.out, (json.dumps(doc, indent=2, sort_keys=True), "\n"))
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _resolve_block_length(args) -> int:
    """Block length from --l or --n, refused above n = 2**MAX_LOG before
    anything of that size is allocated."""
    if args.l is not None and args.n is not None:
        raise ValidationError("give either --l or --n, not both")
    if args.l is not None:
        if args.l < 1:
            raise ValidationError(f"--l must be >= 1, got {args.l}")
        if args.l > MAX_LOG:
            raise GuardError(f"block length is limited to --l <= {MAX_LOG}, got {args.l}")
        return 1 << args.l
    if args.n is not None:
        if args.n < 2 or args.n & (args.n - 1):
            raise ValidationError(f"--n must be a power of two >= 2, got {args.n}")
        if args.n > 1 << MAX_LOG:
            raise GuardError(f"block length is limited to --n <= {1 << MAX_LOG}, got {args.n}")
        return args.n
    raise ValidationError("one of --l or --n is required")


def _resolve_eta(token, n: int) -> float:
    """Explicit number, the rule token "auto", or the documented default:
    0.25 below n = 8, the 1/2 - 1/ln(n) rule from n = 8 on."""
    if token is None:
        return 0.25 if n < 8 else asymptotic_eta(n)
    if token == "auto":
        return asymptotic_eta(n)
    try:
        eta = float(token)
    except ValueError:
        raise ValidationError(f"--eta must be a number or 'auto', got {token!r}") from None
    return eta


def _resolve_p(token, d: int) -> tuple[float, str]:
    if token is None or token == "threshold":
        return locality_threshold(d), "threshold"
    try:
        p = float(token)
    except ValueError:
        raise ValidationError(f"--p must be a number or 'threshold', got {token!r}") from None
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"--p must lie in (0, 1], got {p}")
    return p, "explicit"


def _parse_int(piece: str, option: str) -> int:
    try:
        return int(piece)
    except ValueError:
        raise ValidationError(f"{option} expects integers, got {piece!r}") from None


def _parse_k_values(token: str) -> list[int]:
    if ":" in token:
        lo_s, hi_s = token.split(":", 1)
        lo, hi = _parse_int(lo_s, "--k"), _parse_int(hi_s, "--k")
        if lo < 1 or hi < lo:
            raise ValidationError(f"bad copy-count range {token!r}")
        if hi - lo >= 10000:
            raise GuardError("copy-count range too wide to tabulate")
        return list(range(lo, hi + 1))
    k = _parse_int(token, "--k")
    if k < 1:
        raise ValidationError(f"--k must be >= 1, got {k}")
    return [k]


def _parse_d_grid(token: str) -> list[int]:
    out = []
    for piece in token.split(","):
        d = _parse_int(piece, "--d-grid")
        if d < 2:
            raise ValidationError(f"dimensions must be >= 2, got {d}")
        out.append(d)
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return doc


def _header(doc: dict, key: str, types: tuple, what: str):
    """doc[key] if it is a JSON value of one of types (booleans excluded)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(f"{key!r} must be {what}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# kv-build


def _game_file_pieces(doc: dict):
    """The text of json.dumps(doc, sort_keys=True) + "\\n" for a kv_game_to_json
    dict, in pieces of GAME_FILE_BLOCK entries so the whole text is never held
    at once.

    A coefficient depends only on the noise weight, so it takes at most n + 1
    values; each is formatted once.
    """
    entries = doc["entries"]
    coef_text = {c: json.dumps(c) for c in set(map(itemgetter("c"), entries))}
    fields = itemgetter("a", "b", "c", "x", "y")
    row = '{"a": %d, "b": %d, "c": %s, "x": %d, "y": %d}'
    yield '{"K": %s, "N": %s, "entries": [' % (json.dumps(doc["K"]), json.dumps(doc["N"]))
    for lo in range(0, len(entries), GAME_FILE_BLOCK):
        block = map(fields, entries[lo : lo + GAME_FILE_BLOCK])
        rows = ", ".join([row % (a, b, coef_text[c], x, y) for a, b, c, x, y in block])
        yield ", " + rows if lo else rows
    yield '], "eta": %s, "n": %s}\n' % (json.dumps(doc["eta"]), json.dumps(doc["n"]))


def cmd_kv_build(args) -> int:
    n = _resolve_block_length(args)
    eta = _resolve_eta(args.eta, n)
    table = build_hadamard_subgroup(n.bit_length() - 1)
    game = kv_functional(table, eta)
    if args.out is None:
        raise ValidationError("kv-build writes a game file; --out is required")
    doc = kv_game_to_json(game)
    _write_file(args.out, _game_file_pieces(doc))
    marginal_total = float(kv_question_marginal(game).sum())
    mass = game.total()
    result = {
        "n": n,
        "eta": eta,
        "cosets": table.num_cosets,
        "entries": len(doc["entries"]),
        "coefficient_mass": _tagged(mass, "exact"),
        "question_marginal_total": _tagged(marginal_total, "exact"),
        "game_file": Path(args.out).name,
    }
    lines = [
        f"coset game n={n} eta={eta:.6g}",
        f"  cosets                  {table.num_cosets}",
        f"  nonzero entries         {len(doc['entries'])}",
        f"  coefficient mass        {_fmt_tagged(result['coefficient_mass'])}",
        f"  question marginal total {_fmt_tagged(result['question_marginal_total'])}",
        f"  game file               {args.out}",
    ]
    _emit(args, "kv-build", result, lines, write_out=False)
    return 0


# ---------------------------------------------------------------------------
# values


def _reject_entries(entries, bad: np.ndarray, problem: str) -> None:
    if bad.any():
        raise ValidationError(f"game entry {entries[int(np.argmax(bad))]!r} {problem}")


def _entry_column(entries, key: str, types: set, what: str) -> list:
    """Every entry's value under key, each of a type in types; type() rather
    than isinstance, so JSON booleans (bool subclasses int) are refused."""
    values = list(map(itemgetter(key), entries))
    if not set(map(type, values)) <= types:
        bad = next(e for e, v in zip(entries, values) if type(v) not in types)
        raise ValidationError(f"game entry {bad!r} needs {what} under {key!r}")
    return values


def _load_game(path: str) -> tuple[BellFunctional, CosetTable, float]:
    doc = _load_json(path)
    for key in ("n", "eta", "N", "K", "entries"):
        if key not in doc:
            raise ValidationError(f"game file missing key {key!r}")
    n = _header(doc, "n", (int,), "an integer")
    if n not in EXACT_GAME_SIZES:
        raise ValidationError(f"game files support n in {EXACT_GAME_SIZES}, got {n}")
    table = build_hadamard_subgroup(n.bit_length() - 1)
    N, K = (_header(doc, key, (int,), "an integer") for key in "NK")
    if (N, K) != (table.num_cosets, n):
        raise ValidationError(f"game file shape ({N}, {K}) does not match n = {n}")
    entries = doc["entries"]
    shape = (N, N, K, K)
    try:
        # one array per key, so every check below runs on whole columns
        index = [
            np.fromiter(_entry_column(entries, key, {int}, "an integer index"), np.int64)
            for key in "xyab"
        ]
        # null (how JavaScript writes NaN and infinities) becomes NaN, refused below
        numbers = {int, float, type(None)}
        coef = np.fromiter(_entry_column(entries, "c", numbers, "a number"), np.float64)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"bad game entry: {exc!r}") from None
    outside = np.zeros(len(entries), dtype=bool)
    for col, size in zip(index, shape):
        outside |= (col < 0) | (col >= size)
    _reject_entries(entries, outside, f"has an index outside {shape}")
    _reject_entries(entries, ~np.isfinite(coef), "has a non-finite coefficient")
    flat = np.ravel_multi_index(index, shape)
    _reject_entries(entries, np.bincount(flat)[flat] > 1, "appears more than once")
    dense = np.zeros(shape)
    dense.flat[flat] = coef
    eta = float(_header(doc, "eta", (int, float), "a number"))
    return BellFunctional(N, K, table=dense), table, eta


def cmd_values(args) -> int:
    if args.game:
        functional, table, eta = _load_game(args.game)
        n = table.n
        label = f"game file {Path(args.game).name}"
        # the coset-game formulas describe a file only when its entries are that game
        coset_game = np.array_equal(functional.dense(), kv_functional(table, eta).dense())
    else:
        coset_game = True
        n = _resolve_block_length(args)
        eta = _resolve_eta(args.eta, n)
        label = f"coset game n={n} eta={eta:.6g}"
        functional = None
        if n in EXACT_GAME_SIZES:
            table = build_hadamard_subgroup(n.bit_length() - 1)
            functional = kv_functional(table, eta)
    closed = quantum_value_kv_closed_form(n, eta)
    notes = []
    if not coset_game:
        notes.append(
            f"the entries are not the coset game at eta={eta:.6g}; "
            "its formula values are left out"
        )
    if functional is None:
        # n = 16 has no dense game table: both values come from the formulas
        classical = None
        classical_method = "formula-ub"
        notes.append(
            "classical search needs a dense table; at this size only the "
            "upper bound is reported"
        )
        quantum = closed
        quantum_method = "closed-form-validated"
    else:
        N, K = functional.num_inputs, functional.num_outputs
        if K**N <= ENUMERATION_GUARD:
            classical = classical_value_exact(functional)
            classical_method = "exact"
        else:
            classical = classical_value_heuristic(
                functional, restarts=args.restarts, seed=args.seed
            )
            classical_method = "heuristic-lb"
            notes.append("classical value is a heuristic lower bound; see the upper bound")
        measurements = kv_measurements(table)
        quantum = pair(functional, quantum_prob(make_mes(n), measurements, measurements))
        quantum_method = "exact"
    classical_ub = kv_classical_upper_bound(n, eta)
    bounds = {"classical_upper_bound": _tagged(classical_ub, "formula-ub")} if coset_game else {}
    quantum_lb = None
    if coset_game and n >= 8 and abs(eta - asymptotic_eta(n)) <= 1e-12:
        quantum_lb = entangled_lower_bound_asymptotic(n)
        bounds["quantum_lower_bound"] = _tagged(quantum_lb, "formula-lb")
    if classical_method == "exact" and classical > 0:
        ratio = quantum / classical
    else:
        ratio = None
        if classical_method == "exact":
            notes.append("ratio undefined: classical value is 0")
        else:
            notes.append("ratio omitted: classical value is not exact")
    result = {
        "functional": label,
        "classical": _tagged(classical, classical_method),
        "quantum": _tagged(quantum, quantum_method),
        "ratio": ratio,
        "bounds": bounds,
        "notes": notes,
    }
    if coset_game:
        result["closed_form"] = _tagged(closed, "closed-form-validated")
    if coset_game and classical_method != "exact" and classical_ub > 0:
        result["lv_lower_bound"] = _tagged(quantum / classical_ub, "formula-lb")
    classical_text = "not computed" if classical is None else f"{classical:.12g}"
    lines = [label, f"  classical value   {classical_text} [{classical_method}]"]
    if coset_game:
        lines.append(f"  classical upper   {classical_ub:.12g} [formula-ub]")
    lines.append(f"  quantum (MES strategy) {quantum:.12g} [{quantum_method}]")
    if coset_game:
        lines.append(f"  closed form       {_fmt_tagged(result['closed_form'])}")
    if quantum_lb is not None:
        lines.append(f"  quantum lower     {quantum_lb:.12g} [formula-lb]")
    lines.append(f"  ratio (MES / classical) {ratio if ratio is not None else 'undefined'}")
    if "lv_lower_bound" in result:
        lines.append(f"  violation >=      {_fmt_tagged(result['lv_lower_bound'])}")
    for note in notes:
        lines.append(f"  note: {note}")
    _emit(args, "values", result, lines)
    return 0


# ---------------------------------------------------------------------------
# superactivation


def cmd_superactivation(args) -> int:
    d = int(args.d)
    if d < 2:
        raise ValidationError(f"--d must be >= 2, got {d}")
    p, p_source = _resolve_p(args.p, d)
    alpha = d * p
    ks = _parse_k_values(args.k)
    rows = []
    lines = [
        f"superactivation scan d={d} p={p:.10g} ({p_source}) alpha={alpha:.10g}",
        f"  {'k':>6}  {'bound':>14}  {'mes term':>14}  {'exact total':>14}",
    ]
    for k in ks:
        bound = superactivation_ratio_bound(d, k, alpha)
        if math.isinf(bound):  # past float range: kept as exp(log of the bound)
            symbolic = f"exp({superactivation_log_ratio_bound(d, k, alpha):.6g})"
            ratio_bound, bound_text = _tagged(symbolic, "formula-symbolic"), f"{symbolic:>14}"
        else:
            ratio_bound, bound_text = _tagged(bound, "formula-lb"), f"{bound:>14.6e}"
        row = {"k": k, "alpha": _tagged(alpha, "exact"), "ratio_bound": ratio_bound}
        mes_text = total_text = f"{'-':>14}"
        if d**k in EXACT_GAME_SIZES:
            n = d**k
            eta = _resolve_eta(args.eta, n)
            value = kv_value_for_expansion(expand_tensor_power(d, p, k), eta)
            row["eta"] = eta
            row["mes_term"] = _tagged(value.mes_term, "exact")
            row["exact_total"] = _tagged(value.total, "exact")
            mes_text = f"{value.mes_term:>14.8g}"
            total_text = f"{value.total:>14.8g}"
        rows.append(row)
        lines.append(f"  {k:>6}  {bound_text}  {mes_text}  {total_text}")
    result = {"d": d, "p": _tagged(p, "exact"), "p_source": p_source, "rows": rows}
    if alpha > 1.0:
        k_star = superactivation_crossing(d, alpha)
        result["crossing"] = {
            "k_star": _tagged(k_star, "exact"),
            "bound_at_k_star": _tagged(
                superactivation_ratio_bound(d, k_star, alpha), "formula-lb"
            ),
            "bound_before": _tagged(
                superactivation_ratio_bound(d, k_star - 1, alpha), "formula-lb"
            )
            if k_star > 1
            else None,
            "monotone_from_k": _tagged(superactivation_monotone_from(d, alpha), "exact"),
        }
        lines.append(
            f"  crossing: bound first exceeds 1 at k* = {k_star} "
            f"(bound {result['crossing']['bound_at_k_star']['value']:.6g})"
        )
    else:
        result["crossing"] = None
        result["note"] = "no crossing (alpha <= 1)"
        lines.append("  no crossing (alpha <= 1)")
    _emit(args, "superactivation", result, lines)
    return 0


# ---------------------------------------------------------------------------
# almost-activation


def cmd_almost_activation(args) -> int:
    try:
        frac = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"--alpha must be a rational like 1/11, got {args.alpha!r}") from None
    exponent = almost_activation_exponent(frac)
    ds = _parse_d_grid(args.d_grid)
    rows = []
    lines = [
        f"almost-activation table alpha={frac} exponent={exponent} (~{float(exponent):.8g})",
        f"  {'d':>10}  {'mix weight p':>16}  {'lower factor':>14}",
    ]
    for d in ds:
        p = almost_activation_mix_weight(d, frac)
        factor = almost_activation_lower_factor(d, frac)
        rows.append(
            {
                "d": d,
                "mix_weight": _tagged(p, "exact"),
                "lower_factor": _tagged(factor, "formula-lb"),
            }
        )
        lines.append(f"  {d:>10}  {p:>16.10g}  {factor:>14.8g}")
    result = {
        "alpha": str(frac),
        "exponent": {"value": float(exponent), "fraction": str(exponent), "method": "exact"},
        "upper_bound": _tagged(almost_activation_upper_formula(frac), "formula-symbolic"),
        "rows": rows,
    }
    lines.append(f"  upper bound: {result['upper_bound']['value']} [formula-symbolic]")
    if args.delta is not None:
        delta = args.delta
        if not (math.isfinite(delta) and delta > 0):
            raise ValidationError(f"--delta must be a positive finite number, got {delta}")
        if almost_activation_lower_factor(2, frac) > delta:
            # d = 2 is the smallest dimension, so there is no d where the factor crosses delta
            raise ValidationError(
                f"the lower factor already exceeds delta={delta:g} at d = 2, "
                "the smallest dimension; no crossing"
            )
        if exponent <= 0:
            ln_d_required = d_required = _tagged("never", "exact")
            text = f"never exceeds delta={delta:g} (exponent {exponent} <= 0: no growth in d)"
        else:
            # Solve C''*(ln d)^exponent > delta for ln d, in log space.
            c2 = almost_activation_lower_factor(3, frac) / math.log(3) ** float(exponent)
            log_ln_d = math.log(delta / c2) / float(exponent)
            if log_ln_d > 700.0:
                ln_d_required = _tagged(f"exp({log_ln_d:.6g})", "formula-symbolic")
                d_required = _tagged(f"exp(exp({log_ln_d:.6g}))", "formula-symbolic")
            else:
                ln_d = math.exp(log_ln_d)
                ln_d_required = _tagged(ln_d, "exact")
                d_required = _tagged(f"exp({ln_d:.6g})", "formula-symbolic")
            text = f"exceeds delta={delta:g} once ln d > {ln_d_required['value']}"
        result["delta_crossing"] = {
            "delta": delta,
            "ln_d_required": ln_d_required,
            "d_required": d_required,
        }
        lines.append(f"  factor {text}")
    _emit(args, "almost-activation", result, lines)
    return 0


# ---------------------------------------------------------------------------
# referee-sim


def _load_strategy_file(path: str, N: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    doc = _load_json(path)
    if "alice" not in doc or "bob" not in doc:
        raise ValidationError("strategy file must be an object with 'alice' and 'bob'")
    for key in ("alice", "bob"):
        values = doc[key]
        if not isinstance(values, list) or len(values) != N:
            raise ValidationError(f"strategy lists must have one entry per coset ({N})")
        # JSON integers only: type() also refuses booleans, which subclass int
        if not all(type(v) is int and 0 <= v < K for v in values):
            raise ValidationError(f"strategy {key!r} must hold integers in [0, {K}), got {values}")
    return np.asarray(doc["alice"], dtype=np.int64), np.asarray(doc["bob"], dtype=np.int64)


def _draw_answers(probs: np.ndarray, draws, rng) -> tuple[np.ndarray, np.ndarray]:
    """Answer positions (pa, pb) per round from probs[x, y], an (N, N, K, K) table, with
    one uniform per round in round order; rounds are grouped by question pair."""
    N, _, K, _ = probs.shape
    u = rng.random(len(draws))
    key = draws.pair_key(N)
    order = np.argsort(key, kind="stable")  # numpy radix-sorts 8- and 16-bit keys
    cum = np.cumsum(probs.reshape(N * N, K * K), axis=1)
    cum[:, -1] = 1.0  # u < 1, so every flat index stays below K * K
    flat = np.empty(len(draws), dtype=np.min_scalar_type(K * K - 1))
    groups = np.split(order, np.cumsum(np.bincount(key, minlength=N * N))[:-1])
    for xy, rounds in enumerate(groups):
        if rounds.size:
            flat[rounds] = np.searchsorted(cum[xy], u[rounds], side="right")
    return np.divmod(flat, K)


def cmd_referee_sim(args) -> int:
    n = _resolve_block_length(args)
    eta = _resolve_eta(args.eta, n)
    table = build_hadamard_subgroup(n.bit_length() - 1)
    game = kv_functional(table, eta)
    samples = int(args.samples)
    if samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {samples}")
    draws = referee_sample(table, eta, args.seed, count=samples)
    N, K = table.num_cosets, n
    strategy = args.strategy
    if strategy == "mes":
        measurements = kv_measurements(table)
        dist = quantum_prob(make_mes(n), measurements, measurements)
        exact = pair(game, dist)
        outcome_rng = np.random.Generator(np.random.PCG64([args.seed, 1]))
        pa, pb = _draw_answers(dist.table, draws, outcome_rng)
        answers_a, answers_b = table.elems[draws.x, pa], table.elems[draws.y, pb]
    else:
        if strategy == "rep":
            alice = bob = np.zeros(N, dtype=np.int64)
        else:
            alice, bob = _load_strategy_file(strategy, N, K)
            strategy = Path(strategy).name
        dist = ProbDist.from_assignments(alice, bob, N, K)
        exact = pair(game, dist)
        xs = np.arange(N)  # a deterministic strategy gives each coset one answer string
        answers_a, answers_b = table.elems[xs, alice][draws.x], table.elems[xs, bob][draws.y]
    wins = (answers_a ^ answers_b) == draws.z
    rate = float(wins.mean())
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / samples)
    # a run that wins every round (or none) has no spread of its own: measure
    # it by the spread of the exact value, which is 0 only when every round
    # must end the same way
    scale = stderr or math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
    sigmas = (rate - exact) / scale if scale > 0 else 0.0
    result = {
        "n": n,
        "eta": eta,
        "strategy": strategy,
        "seed": args.seed,
        "samples": samples,
        "wins": int(wins.sum()),
        "win_rate": _tagged(rate, "empirical"),
        "std_error": _tagged(stderr, "empirical"),
        "exact_value": _tagged(exact, "exact"),
        "deviation_sigmas": _tagged(sigmas, "empirical"),
        "consistent_4sigma": bool(abs(sigmas) <= 4.0),
    }
    lines = [
        f"referee simulation n={n} eta={eta:.6g} strategy={strategy} seed={args.seed}",
        f"  samples        {samples}",
        f"  wins           {int(wins.sum())}",
        f"  win rate       {rate:.8g} [empirical]",
        f"  std error      {stderr:.4g} [empirical]",
        f"  exact value    {exact:.12g} [exact]",
        f"  deviation      {sigmas:+.3f} sigma",
        f"  within 4 sigma {result['consistent_4sigma']}",
    ]
    _emit(args, "referee-sim", result, lines)
    return 0


# ---------------------------------------------------------------------------
# local-content


def _load_distribution(path: str) -> ProbDist:
    doc = _load_json(path)
    for key in ("N", "K", "table"):
        if key not in doc:
            raise ValidationError(f"distribution file missing key {key!r}")
    N, K = (_header(doc, key, (int,), "an integer") for key in "NK")
    try:
        table = np.asarray(doc["table"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError("distribution 'table' must be a nested list of numbers") from None
    if table.shape != (N, N, K, K):
        raise ValidationError(
            f"distribution table shape {table.shape} != (N, N, K, K) = {(N, N, K, K)}"
        )
    return ProbDist(table, neg_tol=1e-9, norm_tol=1e-8)


def _weights_json(weights) -> list[dict]:
    return [{"alice": list(a), "bob": list(b), "weight": w} for a, b, w in weights]


def cmd_local_content(args) -> int:
    if args.dist == "pr-box":
        dist = pr_box_dist()
        label = "pr-box"
    elif args.dist == "chsh-quantum":
        strategy = seesaw_lower_bound(
            chsh_functional(), dim=2, seed=args.seed, iters=30, restarts=args.restarts
        )
        dist = quantum_prob(make_mes(2), strategy.alice, strategy.bob)
        label = "chsh-quantum"
    else:
        dist = _load_distribution(args.dist)
        label = Path(args.dist).name
    outcome = local_content(dist, args.variant)
    if outcome.lam > 1e-9:
        lv = _tagged(lv_from_pi(outcome.lam), "exact")
        lv_note = "per-distribution quantity for this input, not a state invariant"
    else:
        lv = None
        lv_note = "undefined (local weight 0)"
    residual = outcome.residual_weights
    result = {
        "distribution": label,
        "lambda": _tagged(outcome.lam, "exact"),
        "variant": outcome.variant,
        "weights": _weights_json(outcome.weights),
        "residual_weights": None if residual is None else _weights_json(residual),
        "reconstruction_error": outcome.reconstruction_error,
        "lv": lv,
        "lv_note": lv_note,
    }
    if outcome.residual_distribution is not None:
        result["residual_distribution"] = outcome.residual_distribution.table.tolist()
    lines = [
        f"local content of {label} ({outcome.variant})",
        f"  lambda               {outcome.lam:.10g} [exact]",
        f"  reconstruction error {outcome.reconstruction_error:.3e}",
        f"  local terms          {len(outcome.weights)}",
        f"  lv                   " + (f"{lv['value']:.10g} [exact]" if lv else "undefined"),
        f"  note: {lv_note}",
    ]
    _emit(args, "local-content", result, lines)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvbell",
        description="coset games, game values, bound chains, and local-polytope tools",
    )
    parser.add_argument("--version", action="version", version=f"kvbell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the JSON document to this path")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="stdout rendering"
        )

    p = sub.add_parser("kv-build", help="construct a coset game and write its JSON table")
    p.add_argument("--l", type=int, help="log2 of the block length n")
    p.add_argument("--n", type=int, help="block length n (power of two)")
    p.add_argument("--eta", help="noise rate in (0, 1/2], or 'auto' for 1/2 - 1/ln(n)")
    add_common(p)
    p.set_defaults(func=cmd_kv_build)

    p = sub.add_parser("values", help="classical and quantum values with method labels")
    p.add_argument("--l", type=int, help="log2 of the block length n")
    p.add_argument("--n", type=int, help="block length n (power of two)")
    p.add_argument("--eta", help="noise rate in (0, 1/2], or 'auto'")
    p.add_argument("--game", help="evaluate a game file written by kv-build instead")
    p.add_argument("--seed", type=int, default=0, help="seed for the heuristic path")
    p.add_argument("--restarts", type=int, default=50, help="heuristic restarts")
    add_common(p)
    p.set_defaults(func=cmd_values)

    p = sub.add_parser("superactivation", help="per-copy ratio bounds and crossing scan")
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--k", default="1:8", help="copy count or range lo:hi to tabulate")
    p.add_argument("--p", help="mixing weight in (0, 1], or 'threshold' (default)")
    p.add_argument("--eta", help="noise rate for the exact columns, or 'auto'")
    add_common(p)
    p.set_defaults(func=cmd_superactivation)

    p = sub.add_parser("almost-activation", help="mixing-weight and bound table over d")
    p.add_argument("--alpha", default="1/11", help="exponent parameter in (0, 1/2), e.g. 1/11")
    p.add_argument(
        "--d-grid",
        default="4,8,16,64,256,1024,4096,16384,100000,1000000",
        help="comma-separated local dimensions",
    )
    p.add_argument(
        "--delta", type=float, help="also report where the lower factor exceeds delta"
    )
    add_common(p)
    p.set_defaults(func=cmd_almost_activation)

    p = sub.add_parser("referee-sim", help="Monte Carlo run of the game protocol")
    p.add_argument("--l", type=int, help="log2 of the block length n")
    p.add_argument("--n", type=int, help="block length n (power of two)")
    p.add_argument("--eta", help="noise rate in (0, 1/2], or 'auto'")
    p.add_argument(
        "--strategy",
        default="mes",
        help="'mes', 'rep', or a JSON file with per-coset answer positions",
    )
    p.add_argument("--samples", type=int, default=100000, help="number of rounds")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    add_common(p)
    p.set_defaults(func=cmd_referee_sim)

    p = sub.add_parser("local-content", help="local weight of a distribution via LP")
    p.add_argument(
        "--dist",
        required=True,
        help="'pr-box', 'chsh-quantum', or a JSON distribution file",
    )
    p.add_argument(
        "--variant", choices=("free", "local"), default="free", help="lambda definition"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for chsh-quantum")
    p.add_argument("--restarts", type=int, default=20, help="seesaw restarts for chsh-quantum")
    add_common(p)
    p.set_defaults(func=cmd_local_content)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        if hasattr(args, "restarts"):  # checked here: only some routes reach the heuristics
            _check_restarts(args.restarts)
        return args.func(args)
    except KvBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
