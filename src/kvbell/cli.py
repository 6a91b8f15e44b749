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
    ViolationReport,
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
    superactivation_monotone_from,
    superactivation_ratio_bound,
)

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


def _emit(args, command: str, result: dict, lines: list[str], write_out: bool = True) -> None:
    doc = {"meta": _meta(command), "result": result}
    if write_out and getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"--p must lie in [0, 1], got {p}")
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
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}") from None
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


def cmd_kv_build(args) -> int:
    n = _resolve_block_length(args)
    if n > 8:
        raise GuardError(
            "full materialization supports n <= 8; larger games are served by "
            "the closed-form paths in the values subcommand"
        )
    eta = _resolve_eta(args.eta, n)
    if args.out is None:
        raise ValidationError("kv-build writes a game file; --out is required")
    table = build_hadamard_subgroup(n.bit_length() - 1)
    game = kv_functional(table, eta)
    doc = kv_game_to_json(game)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    marginal_total = float(kv_question_marginal(game).sum())
    mass = game.total()
    result = {
        "n": n,
        "eta": eta,
        "cosets": table.num_cosets,
        "entries": len(doc["entries"]),
        "coefficient_mass": _tagged(mass, "exact"),
        "question_marginal_total": _tagged(marginal_total, "exact"),
        "game_file": str(args.out),
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
        index = [np.array(list(map(itemgetter(key), entries))) for key in "xyab"]
        coef = np.fromiter(map(itemgetter("c"), entries), dtype=np.float64, count=len(entries))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad game entry: {exc!r}") from None
    if entries and any(col.dtype.kind not in "iu" for col in index):
        raise ValidationError("every game entry index must be an integer")
    outside = np.zeros(len(entries), dtype=bool)
    for col, size in zip(index, shape):
        outside |= (col < 0) | (col >= size)
    _reject_entries(entries, outside, f"has an index outside {shape}")
    _reject_entries(entries, ~np.isfinite(coef), "has a non-finite coefficient")
    flat = np.ravel_multi_index([col.astype(np.int64) for col in index], shape)
    _reject_entries(entries, np.bincount(flat)[flat] > 1, "appears more than once")
    dense = np.zeros(shape)
    dense.flat[flat] = coef
    eta = float(_header(doc, "eta", (int, float), "a number"))
    meta = {"kind": "coset-game", "n": n, "eta": eta, "coset_table": table}
    return BellFunctional(N, K, table=dense, meta=meta), table, eta


def cmd_values(args) -> int:
    if args.game:
        functional, table, eta = _load_game(args.game)
        n = table.n
        label = f"game file {Path(args.game).name}"
    else:
        n = _resolve_block_length(args)
        eta = _resolve_eta(args.eta, n)
        label = f"coset game n={n} eta={eta:.6g}"
        functional = None
        if n in EXACT_GAME_SIZES:
            table = build_hadamard_subgroup(n.bit_length() - 1)
            functional = kv_functional(table, eta)
    closed = quantum_value_kv_closed_form(n, eta)
    notes = []
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
    quantum_lb = None
    if n >= 8 and abs(eta - asymptotic_eta(n)) <= 1e-12:
        quantum_lb = entangled_lower_bound_asymptotic(n)
    if classical_method == "exact" and classical > 0:
        ratio = quantum / classical
    else:
        ratio = None
        if classical_method == "exact":
            notes.append("ratio undefined: classical value is 0")
        else:
            notes.append("ratio omitted: classical value is not exact")
    report = ViolationReport(
        label=label,
        classical_value=classical,
        classical_method=classical_method,
        quantum_value=quantum,
        quantum_method=quantum_method,
        ratio=ratio,
        classical_upper_bound=classical_ub,
        quantum_lower_bound=quantum_lb,
        notes=tuple(notes),
    )
    result = report.to_json_dict()
    result["closed_form"] = _tagged(closed, "closed-form-validated")
    if classical_method != "exact" and classical_ub > 0:
        result["lv_lower_bound"] = _tagged(quantum / classical_ub, "formula-lb")
    classical_text = "not computed" if classical is None else f"{classical:.12g}"
    lines = [
        label,
        f"  classical value   {classical_text} [{classical_method}]",
        f"  classical upper   {classical_ub:.12g} [formula-ub]",
        f"  quantum value     {quantum:.12g} [{quantum_method}]",
        f"  closed form       {_fmt_tagged(result['closed_form'])}",
    ]
    if quantum_lb is not None:
        lines.append(f"  quantum lower     {quantum_lb:.12g} [formula-lb]")
    lines.append(f"  ratio             {ratio if ratio is not None else 'undefined'}")
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
        row = {
            "k": k,
            "alpha": _tagged(alpha, "exact"),
            "ratio_bound": _tagged(bound, "formula-lb"),
        }
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
        lines.append(f"  {k:>6}  {bound:>14.6e}  {mes_text}  {total_text}")
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
        if exponent <= 0:
            # The factor does not grow with d, so d = 2 gives its largest value.
            if almost_activation_lower_factor(2, frac) > delta:
                raise ValidationError(
                    f"the lower factor already exceeds delta={delta:g} at d = 2 and "
                    f"does not grow with d (exponent {exponent} <= 0); no crossing"
                )
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
    try:
        alice = np.asarray([int(v) for v in doc["alice"]], dtype=np.int64)
        bob = np.asarray([int(v) for v in doc["bob"]], dtype=np.int64)
    except (TypeError, ValueError):
        raise ValidationError("strategy lists must contain integers") from None
    if alice.shape != (N,) or bob.shape != (N,):
        raise ValidationError(f"strategy lists must have one entry per coset ({N})")
    for arr in (alice, bob):
        if arr.size and (arr.min() < 0 or arr.max() >= K):
            raise ValidationError(f"strategy outputs must lie in [0, {K})")
    return alice, bob


def cmd_referee_sim(args) -> int:
    n = _resolve_block_length(args)
    if n > 8:
        raise GuardError("referee simulation supports n <= 8")
    eta = _resolve_eta(args.eta, n)
    samples = int(args.samples)
    if samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {samples}")
    table = build_hadamard_subgroup(n.bit_length() - 1)
    game = kv_functional(table, eta)
    draws = referee_sample(table, eta, args.seed, count=samples)
    N, K = table.num_cosets, n
    if args.strategy == "mes":
        measurements = kv_measurements(table)
        dist = quantum_prob(make_mes(n), measurements, measurements)
        exact = pair(game, dist)
        outcome_rng = np.random.Generator(np.random.PCG64([args.seed, 1]))
        u = outcome_rng.random(samples)
        pa = np.empty(samples, dtype=np.int64)
        pb = np.empty(samples, dtype=np.int64)
        for x in range(N):
            for y in range(N):
                mask = (draws.x == x) & (draws.y == y)
                if not mask.any():
                    continue
                cum = np.cumsum(dist.table[x, y].reshape(-1))
                cum[-1] = 1.0
                flat = np.searchsorted(cum, u[mask], side="right")
                flat = np.minimum(flat, K * K - 1)
                pa[mask] = flat // K
                pb[mask] = flat % K
        strategy_label = "mes"
    else:
        if args.strategy == "rep":
            alice = np.zeros(N, dtype=np.int64)
            bob = np.zeros(N, dtype=np.int64)
        else:
            alice, bob = _load_strategy_file(args.strategy, N, K)
        dist = ProbDist.from_assignments(alice, bob, N, K)
        exact = pair(game, dist)
        pa = alice[draws.x]
        pb = bob[draws.y]
        strategy_label = "rep" if args.strategy == "rep" else args.strategy
    answers_a = table.elems[draws.x, pa]
    answers_b = table.elems[draws.y, pb]
    wins = (answers_a ^ answers_b) == draws.z
    rate = float(wins.mean())
    stderr = math.sqrt(max(rate * (1.0 - rate), 0.0) / samples)
    if stderr > 0:
        sigmas = (rate - exact) / stderr
    else:
        sigmas = 0.0 if rate == exact else math.inf
    result = {
        "n": n,
        "eta": eta,
        "strategy": strategy_label,
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
        f"referee simulation n={n} eta={eta:.6g} strategy={strategy_label} seed={args.seed}",
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
        label = args.dist
    outcome = local_content(dist, args.variant)
    result = outcome.to_json_dict()
    result["distribution"] = label
    result["lambda"] = _tagged(outcome.lam, "exact")
    lam = min(max(outcome.lam, 0.0), 1.0)
    if lam > 1e-9:
        result["lv"] = _tagged(lv_from_pi(lam), "exact")
        result["lv_note"] = "per-distribution quantity for this input, not a state invariant"
    else:
        result["lv"] = None
        result["lv_note"] = "undefined (local weight 0)"
    if outcome.residual_distribution is not None:
        result["residual_distribution"] = outcome.residual_distribution.table.tolist()
    lines = [
        f"local content of {label} ({outcome.variant})",
        f"  lambda               {outcome.lam:.10g} [exact]",
        f"  reconstruction error {outcome.reconstruction_error:.3e}",
        f"  local terms          {len(outcome.weights)}",
        f"  lv                   "
        + (f"{result['lv']['value']:.10g} [exact]" if result["lv"] else "undefined"),
        f"  note: {result['lv_note']}",
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
    p.add_argument("--p", help="mixing weight in [0, 1], or 'threshold' (default)")
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
        return args.func(args)
    except KvBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
