"""Traced in-process runs of kvbell commands through kvbell.cli.main(argv).

Timing wrappers are installed from this file, never from the program: each
wrapper replaces a layer function under every name a caller looks it up by
(for example both kvbell.values.quantum_prob and kvbell.cli.quantum_prob),
and the originals are put back afterwards.  Spans (name, start, end, parent,
counts) are kept in memory; a layer's self time is its span minus the spans
directly inside it.  Each command is one root span named "cli", so the root's
self time is the CLI's own work outside every wrapped layer.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import sys
import time
import traceback
from collections import defaultdict

import kvbell.cli


def _pairs(args, kwargs, result):
    return {"pairs": len(args[1]) * len(args[2])}


def _lp_shape(args, kwargs, result):
    rows = args[0].rows
    return {"rows": rows.shape[0], "cols": rows.shape[1]}


def _assignments(args, kwargs, result):
    reward = args[0]
    return {"assignments": reward.shape[1] ** reward.shape[0]}


def _rounds(args, kwargs, result):
    return {"rounds": kwargs.get("count", args[3] if len(args) > 3 else 1)}


def _entries(args, kwargs, result):
    return {"entries": len(result["entries"]) if result is not None else 0}


# "module.function" under kvbell -> counter of the work one call did
LAYERS = {
    "kvgame.kv_game_to_json": _entries,
    "kvgame.referee_sample": _rounds,
    "kvgame.build_hadamard_subgroup": None,
    "kvgame.kv_functional": None,
    "kvgame.kv_measurements": None,
    "values.quantum_prob": _pairs,
    "values.pair": None,
    "values.classical_value_exact": None,
    "values.classical_value_heuristic": None,
    "values.seesaw_lower_bound": None,
    "values.kv_value_for_expansion": None,
    "states.realize_term": None,
    "states.expand_tensor_power": None,
    "localpolytope.solve_lp": _lp_shape,
    "localpolytope.vertex_matrix": None,
    "localpolytope.local_content": None,
    "kernels.enumerate_assignments_max": _assignments,
    "cli._emit": None,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict = {}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.counts["failed"] = 1
                raise
            finally:
                self._close(span)
                if counter is not None:
                    span.counts.update(counter(args, kwargs, result))

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "kvbell"]
        patched = []
        try:
            for layer, counter in LAYERS.items():
                module, func = layer.split(".")
                original = getattr(sys.modules[f"kvbell.{module}"], func)
                wrapper = self._wrap(layer, original, counter)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def run(self, argv: list[str]) -> tuple[int, str, str]:
        """One command as a root span, counting it, its failure, and the
        size of the game file kv-build writes."""
        span = self._open("cli")
        try:
            code, out, err = run_command(argv)
        finally:
            self._close(span)
        span.counts["commands"] = 1
        span.counts["failed"] = int(code != 0)
        if argv[0] == "kv-build" and code == 0:
            span.counts["kv_build.file_bytes"] = os.path.getsize(argv[argv.index("--out") + 1])
        return code, out, err


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """kvbell.cli.main(argv) with stdout and stderr captured; a Python
    exception escaping main is exit code 1, as the console script gives."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kvbell.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def layer_totals(spans: list[Span]) -> dict:
    """Per-layer self time ("<layer>.s", root: "cli.self_s"), call counts
    ("<layer>.calls") and summed counters ("<layer>.<counter>")."""
    inner = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            inner[span.parent] += span.end - span.start
    totals = defaultdict(float)
    for span, nested in zip(spans, inner):
        own = span.end - span.start - nested
        totals["cli.self_s" if span.name == "cli" else f"{span.name}.s"] += own
        totals[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            totals[f"{span.name}.{key}"] += value
    return dict(totals)
