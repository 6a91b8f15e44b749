"""Command-line surface tying game construction, value computation, the
bound-chain experiments, Monte Carlo simulation, and the LP layer together.

Every random draw is seeded from --seed (numpy's PCG64 in referee-sim, the
stdlib random.Random for the starts of the classical search in values), so
every subcommand is reproducible run to run; JSON output puts timestamps in
a separate "meta" block so the "result" block is byte-stable.

Every computed number in JSON results is wrapped as {"value", "method"} with
method one of: exact, heuristic-lb, formula-ub, formula-lb, formula-symbolic,
empirical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from ._numpy import np
from .errors import GuardError, KvBellError, ValidationError
from .kvgame import (
    EXACT_GAME_SIZES,
    MAX_LOG,
    BellFunctional,
    CosetTable,
    asymptotic_eta,
    build_hadamard_subgroup,
    deterministic_value,
    entangled_lower_bound_asymptotic,
    kv_classical_upper_bound,
    kv_functional,
    kv_measurements,
    kv_question_marginal,
    referee_sample,
    _check_eta,
)
from .localpolytope import local_content, lv_from_pi
from .states import locality_threshold, make_mes
from .values import (
    ALMOST_ACTIVATION_CONSTANT,
    ENUMERATION_GUARD,
    ProbDist,
    almost_activation_exponent,
    almost_activation_lower_factor,
    almost_activation_mix_weight,
    almost_activation_upper_formula,
    classical_value_exact,
    classical_value_heuristic,
    isotropic_power_value,
    pair,
    pr_box_dist,
    quantum_prob,
    quantum_value_kv_closed_form,
    superactivation_crossing,
    superactivation_log_ratio_bound,
    superactivation_monotone_from,
    superactivation_ratio_bound,
    tsirelson_box_dist,
    _check_restarts,
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


def _write_file(path: str, pieces) -> None:
    """Write the strings of pieces to path, one after another."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _emit(args, command: str, result: dict, lines: list[str]) -> None:
    doc = {"meta": _meta(command), "result": result}
    if getattr(args, "out", None):
        _write_file(args.out, (json.dumps(doc, indent=2, sort_keys=True), "\n"))
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _resolve_block_length(args) -> int:
    """Block length n = 2**--l, refused above n = 2**MAX_LOG before anything
    of that size is allocated."""
    if args.l is None:
        raise ValidationError("--l is required")
    if args.l < 1:
        raise ValidationError(f"--l must be >= 1, got {args.l}")
    if args.l > MAX_LOG:
        raise GuardError(f"block length is limited to --l <= {MAX_LOG}, got {args.l}")
    return 1 << args.l


def _eta_number(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"--eta must be a number or 'auto', got {token!r}") from None


def _resolve_eta(token, n: int) -> float:
    """Explicit number, the rule token "auto", or the documented default:
    0.25 below n = 8, the 1/2 - 1/ln(n) rule from n = 8 on."""
    if token is None:
        return 0.25 if n < 8 else asymptotic_eta(n)
    if token == "auto":
        return asymptotic_eta(n)
    return _eta_number(token)


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


def _check_dimension(d: int, option: str) -> int:
    """d >= 2 (else exit 2) and within float range, as the bound formulas need (else exit 3)."""
    if d < 2:
        raise ValidationError(f"{option} must be >= 2, got {d}")
    if d > sys.float_info.max:
        raise GuardError(f"{option} must not exceed {sys.float_info.max:.6g}, the float range")
    return d


def _parse_d_grid(token: str) -> list[int]:
    return [_check_dimension(_parse_int(p, "--d-grid"), "--d-grid") for p in token.split(",")]


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
    except (ValueError, RecursionError) as exc:
        # an integer literal past the digit limit, or nesting past the recursion limit
        raise ValidationError(f"cannot read {path}: {exc}") from None
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


def _game_file_pieces(game: BellFunctional, n: int, eta: float):
    """The text of json.dumps(kv_game_to_json(game), sort_keys=True) + "\\n" for
    the coset game at (n, eta), one question x at a time from the nonzero
    entries of game.dense()[x], so no list of every entry is ever held.

    A coefficient depends only on the noise weight, so it takes at most n + 1
    values; each is formatted once per question, keyed by the float itself (a
    Python set finds them: numpy's unique loads numpy.ma).  Those that
    underflow at tiny eta are left out, but never a question's entries with
    y = x and a = b, of weight 0, so no question is empty.
    """
    row = '{"a": %d, "b": %d, "c": %s, "x": %d, "y": %d}'
    yield '{"K": %d, "N": %d, "entries": [' % (game.num_outputs, game.num_inputs)
    for x, plane in enumerate(game.dense()):
        nz = np.nonzero(plane)  # walks the plane in C order
        coefs = plane[nz].tolist()
        coef_text = {c: json.dumps(c) for c in set(coefs)}
        rows = zip(*(col.tolist() for col in nz), coefs)
        text = ", ".join([row % (a, b, coef_text[c], x, y) for y, a, b, c in rows])
        yield ", " + text if x else text
    yield '], "eta": %s, "n": %d}\n' % (json.dumps(eta), n)


def cmd_kv_build(args) -> int:
    n = _resolve_block_length(args)
    eta = _resolve_eta(args.eta, n)
    table = build_hadamard_subgroup(n.bit_length() - 1)
    game = kv_functional(table, eta)
    if args.game_file is None:
        raise ValidationError("kv-build writes a game file; --out is required")
    _write_file(args.game_file, _game_file_pieces(game, n, eta))
    entries = int(np.count_nonzero(game.dense()))
    marginal_total = float(kv_question_marginal(game).sum())
    mass = game.total()
    result = {
        "n": n,
        "eta": eta,
        "cosets": table.num_cosets,
        "entries": entries,
        "coefficient_mass": _tagged(mass, "exact"),
        "question_marginal_total": _tagged(marginal_total, "exact"),
        "game_file": Path(args.game_file).name,
    }
    lines = [
        f"coset game n={n} eta={eta:.6g}",
        f"  cosets                  {table.num_cosets}",
        f"  nonzero entries         {entries}",
        f"  coefficient mass        {_fmt_tagged(result['coefficient_mass'])}",
        f"  question marginal total {_fmt_tagged(result['question_marginal_total'])}",
        f"  game file               {args.game_file}",
    ]
    _emit(args, "kv-build", result, lines)
    return 0


# ---------------------------------------------------------------------------
# values


ENTRY_KEYS = "xyabc"
# per key of an entry: the JSON types it may hold (type(), so JSON booleans,
# a bool subclass of int, are refused), what the message calls them, its column
_ENTRY_TYPES = [({int}, "an integer index", "int64")] * 4 + [
    # null (how JavaScript writes NaN and infinities) becomes NaN, refused later
    ({int, float, type(None)}, "a number", "float64")
]


def _entry_columns(entries: list) -> list[np.ndarray]:
    """The x, y, a, b and c of entries, decoded JSON, as numpy columns, or the
    first problem in file order, the entry shown as written: an entry that is
    not an object with keys x, y, a, b and c; then, key by key, a value of the
    wrong JSON type and a value the column cannot hold."""
    for entry in entries:
        if type(entry) is not dict or not entry.keys() >= set(ENTRY_KEYS):
            problem = "is not an object with keys x, y, a, b and c"
            raise ValidationError(f"game entry {entry!r} {problem}")
    columns = []
    for key, (types, what, dtype) in zip(ENTRY_KEYS, _ENTRY_TYPES):
        col = [entry[key] for entry in entries]
        if not set(map(type, col)) <= types:
            entry = next(e for e in entries if type(e[key]) not in types)
            raise ValidationError(f"game entry {entry!r} needs {what} under {key!r}")
        try:
            columns.append(np.fromiter(col, dtype, count=len(col)))
        except OverflowError as exc:
            raise ValidationError(f"bad game entry: {exc!r}") from None
    return columns


def _kv_build_game(path: str) -> tuple[BellFunctional, CosetTable, float] | None:
    """The game of a file that kv-build wrote, or None for any other file and
    for one that cannot be read: n and eta from the file's tail, '], "eta":
    E, "n": N}\\n', then the file compared piece by piece with the text
    kv-build writes for that game.  A file that matches to the last byte is
    json.dumps of the game's kv_game_to_json, and floats round-trip through
    json, so json.load would read exactly this game from it."""
    try:
        with open(path, "rb") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 64, 0))
            tail = json.loads(b"{" + fh.read().rpartition(b"], ")[2])
            n, eta = tail.get("n"), tail.get("eta")
            if type(n) is not int or n not in EXACT_GAME_SIZES:
                return None
            if type(eta) is not float or not 0.0 < eta <= 0.5:
                return None
            table = build_hadamard_subgroup(n.bit_length() - 1)
            game = kv_functional(table, eta)
            fh.seek(0)
            for piece in _game_file_pieces(game, n, eta):
                text = piece.encode()
                if fh.read(len(text)) != text:
                    return None
            if fh.read(1):
                return None
    except (OSError, ValueError):
        return None
    return game, table, eta


def _load_game(path: str) -> tuple[BellFunctional, CosetTable, float]:
    """The game in a game file; the coset game comes as kv_functional builds
    it, coset table in meta.  A kv-build file is recognised by its text
    (_kv_build_game).  Any other file is read by json.load and checked: the
    header, the entries' shape and types, indices, coefficients, uniqueness,
    then eta; it is the coset game if eta is in (0, 1/2] and the tables match."""
    game = _kv_build_game(path)
    if game is not None:
        return game
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
    entries = _header(doc, "entries", (list,), "a list")
    columns = _entry_columns(entries)
    index, coef = columns[:4], columns[4]

    def reject(bad: np.ndarray, problem: str) -> None:
        if bad.any():
            raise ValidationError(f"game entry {entries[int(np.argmax(bad))]!r} {problem}")

    shape = (N, N, K, K)
    outside = np.zeros(len(coef), dtype=bool)
    for col, size in zip(index, shape):
        outside |= (col < 0) | (col >= size)
    reject(outside, f"has an index outside {shape}")
    reject(~np.isfinite(coef), "has a non-finite coefficient")
    flat = np.ravel_multi_index(index, shape)
    reject(np.bincount(flat)[flat] > 1, "appears more than once")
    dense = np.zeros(shape)
    dense.flat[flat] = coef
    try:
        eta = float(_header(doc, "eta", (int, float), "a number"))
    except OverflowError:
        raise ValidationError("'eta' must be a number within float range") from None
    if 0.0 < eta <= 0.5:
        game = kv_functional(table, eta)
        if np.array_equal(game.dense(), dense):
            return game, table, eta
    return BellFunctional(N, K, table=dense), table, eta


def cmd_values(args) -> int:
    if args.game:
        if args.l is not None or args.eta is not None:
            raise ValidationError("--game takes n and eta from the file; drop --l and --eta")
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
    # the coset-game formulas describe a game file only if _load_game gave the coset game
    coset_game = functional is None or "coset_table" in functional.meta
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
        "quantum": _tagged(quantum, "exact"),
        "ratio": ratio,
        "bounds": bounds,
        "notes": notes,
    }
    if coset_game:
        result["closed_form"] = _tagged(closed, "exact")
    if coset_game and classical_method != "exact" and classical_ub > 0:
        result["lv_lower_bound"] = _tagged(quantum / classical_ub, "formula-lb")
    classical_text = "not computed" if classical is None else f"{classical:.12g}"
    lines = [label, f"  classical value   {classical_text} [{classical_method}]"]
    if coset_game:
        lines.append(f"  classical upper   {classical_ub:.12g} [formula-ub]")
    lines.append(f"  quantum (MES strategy) {quantum:.12g} [exact]")
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
    d = _check_dimension(args.d, "--d")
    p, p_source = _resolve_p(args.p, d)
    alpha = d * p
    ks = _parse_k_values(args.k)
    if args.eta not in (None, "auto"):  # checked here: only rows with exact columns read it
        _check_eta(_eta_number(args.eta))
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
        # d >= 2, so d**k passes the largest exact size 8 = 2**3 once k > 3
        n = d**k if k <= 3 else None
        if n in EXACT_GAME_SIZES:
            eta = _resolve_eta(args.eta, n)
            total, mes_term = isotropic_power_value(d, k, p, eta)
            row["eta"] = eta
            row["mes_term"] = _tagged(mes_term, "exact")
            row["exact_total"] = _tagged(total, "exact")
            mes_text = f"{mes_term:>14.8g}"
            total_text = f"{total:>14.8g}"
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
            "monotone_from_k": _tagged(superactivation_monotone_from(alpha), "exact"),
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
    from fractions import Fraction  # imported here: only this command parses a rational

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
            # Solve C''*(ln d)^exponent > delta for ln d, in log space.  delta / C''
            # overflows from about 5.3e305 on; only there are the logs subtracted,
            # since near delta = C'' their difference loses digits to cancellation
            ratio = delta / ALMOST_ACTIVATION_CONSTANT
            if math.isinf(ratio):
                log_ratio = math.log(delta) - math.log(ALMOST_ACTIVATION_CONSTANT)
            else:
                log_ratio = math.log(ratio)
            log_ln_d = log_ratio / float(exponent)
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


def cmd_referee_sim(args) -> int:
    n = _resolve_block_length(args)
    eta = _resolve_eta(args.eta, n)
    strategy = args.strategy
    samples = int(args.samples)
    if samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {samples}")
    table = build_hadamard_subgroup(n.bit_length() - 1)
    draws = referee_sample(table, eta, args.seed, count=samples)
    if strategy == "mes":
        # a round with noise z is won with probability (1 - 2|z|/n)**2, a float
        # with at most 2*log2(n) + 1 bits, and a uniform k/2**53 falls below it
        # with exactly that probability (quantum_value_kv_closed_form)
        exact = quantum_value_kv_closed_form(n, eta)
        win_prob = (1.0 - 2.0 * np.arange(n + 1) / n) ** 2
        outcome_rng = np.random.Generator(np.random.PCG64([args.seed, 1]))

        def won(d):  # one uniform per round, in round order
            return outcome_rng.random(len(d)) < win_prob[np.bitwise_count(d.z)]

    else:
        xs = np.arange(table.num_cosets)  # one answer string per coset and party
        if strategy == "rep":
            alice = bob = np.zeros_like(xs)
        else:
            alice, bob = _load_strategy_file(strategy, table.num_cosets, n)
            strategy = Path(strategy).name
        string_a, string_b = table.elems[xs, alice], table.elems[xs, bob]
        exact = deterministic_value(table, eta, string_a, string_b)

        def won(d):
            return (string_a[d.x] ^ string_b[d.y]) == d.z

    wins = 0
    for d in draws:  # each block is played as it is drawn, so no round is kept
        wins += int(np.count_nonzero(won(d)))
    rate = wins / samples
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
        "wins": wins,
        "win_rate": _tagged(rate, "empirical"),
        "std_error": _tagged(stderr, "empirical"),
        "exact_value": _tagged(exact, "exact"),
        "deviation_sigmas": _tagged(sigmas, "empirical"),
        "consistent_4sigma": bool(abs(sigmas) <= 4.0),
    }
    lines = [
        f"referee simulation n={n} eta={eta:.6g} strategy={strategy} seed={args.seed}",
        f"  samples        {samples}",
        f"  wins           {wins}",
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
        table = np.asarray(doc["table"], dtype=object)
        # type() as in _ENTRY_TYPES: JSON booleans and strings are not numbers
        if not set(map(type, table.flat)) <= {int, float}:
            raise TypeError
        table = table.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
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
        dist = tsirelson_box_dist()
        label = "chsh-quantum"
    else:
        dist = _load_distribution(args.dist)
        label = Path(args.dist).name
    outcome = local_content(dist, args.variant)
    lv, lv_note = None, "undefined (local weight 0)"
    if args.variant == "free":
        lv_note = "LV = 2/lambda - 1 takes the local reading of lambda: use --variant local"
    elif outcome.lam > 1e-9:
        lv = _tagged(lv_from_pi(outcome.lam), "exact")
        lv_note = "per-distribution quantity for this input, not a state invariant"
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

    def add_common(p, out=True):
        if out:
            p.add_argument("--out", help="write the JSON document to this path")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="stdout rendering"
        )

    p = sub.add_parser("kv-build", help="construct a coset game and write its JSON table")
    p.add_argument("--l", type=int, help="log2 of the block length n")
    p.add_argument("--eta", help="noise rate in (0, 1/2], or 'auto' for 1/2 - 1/ln(n)")
    p.add_argument("--out", dest="game_file", help="write the game file to this path (required)")
    add_common(p, out=False)
    p.set_defaults(func=cmd_kv_build)

    p = sub.add_parser("values", help="classical and quantum values with method labels")
    p.add_argument("--l", type=int, help="log2 of the block length n")
    p.add_argument("--eta", help="noise rate in (0, 1/2], or 'auto'")
    p.add_argument("--game", help="evaluate a kv-build game file instead of --l and --eta")
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
        help="'pr-box', 'chsh-quantum' (Tsirelson's box), or a JSON distribution file",
    )
    p.add_argument(
        "--variant", choices=("free", "local"), default="free", help="lambda definition"
    )
    p.add_argument("--seed", type=int, default=0, help="accepted, but changes no output")
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except KvBellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # reader gone (`| head`): the Python docs' recipe, so the exit flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
