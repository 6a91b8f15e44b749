"""The four workloads: the kvbell commands each pass runs, and their gates.

A workload turns the benchmark's --seed into commands with the standard
library's string-seeded generator, so the same seed gives the same commands.
Where a workload's cost depends on its random draws (the heuristic seed, the
random LP inputs), every pass of a run draws afresh from (seed, pass), so a
run's median covers the spread of inputs instead of one draw.  Input files
for local-content are written by gen.py from the same (seed, pass).

See NOTES.md for why each workload exists and which layer it isolates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import gates

ETA_RANGE = (0.05, 0.45)
REFEREE_SAMPLES = 1_000_000
N8_ENTRIES = 32**2 * 8**2  # N^2 n^2 with N = 2^8 / 8 cosets


@dataclass
class Cmd:
    """One kvbell invocation (without --format) and the gate for its result."""

    argv: list[str]
    gate: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # per-layer metrics whose sum should be most of the in-process time
    targets: tuple[str, ...]
    # (seed, pass index, work dir, reference results) -> commands of the pass
    commands: Callable[[int, int, str, list], list[Cmd]]
    # (seed, work dir) -> untimed commands whose results the gates compare to
    references: Callable[[int, str], list[Cmd]] = lambda seed, work: []
    # (seed, work dir) -> (gate function, kwargs) run once after the passes
    post: Callable[[int, str], list] = lambda seed, work: []


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _values_n8(seed: int, i: int, work: str, refs: list) -> list[Cmd]:
    r = _rng("values-n8", seed, i)
    heuristic_seed, eta = r.randrange(2**31), r.uniform(*ETA_RANGE)
    return [
        # n = 4 takes the exact classical route (enumeration kernel)
        Cmd(["values", "--l", "2", "--eta", repr(eta)], "values_exact", {"n": 4, "eta": eta}),
        Cmd(
            ["values", "--l", "3", "--seed", str(heuristic_seed)],
            "values_exact",
            {"n": 8, "eta": gates.asymptotic_eta(8)},
        ),
        Cmd(["superactivation", "--d", "2", "--k", "1:3"], "superactivation", {"d": 2}),
        Cmd(["superactivation", "--d", "8", "--k", "1:8"], "superactivation", {"d": 8}),
    ]


def _game_draw(seed: int) -> tuple[float, int]:
    r = _rng("game-file-n8", seed)
    return r.uniform(*ETA_RANGE), r.randrange(2**31)


def _game_references(seed: int, work: str) -> list[Cmd]:
    eta, s = _game_draw(seed)
    return [
        Cmd(
            ["values", "--l", "3", "--eta", repr(eta), "--seed", str(s)],
            "values_exact",
            {"n": 8, "eta": eta},
        )
    ]


def _game_commands(seed: int, i: int, work: str, refs: list) -> list[Cmd]:
    eta, s = _game_draw(seed)
    game = f"{work}/game.json"
    ref = refs[0]
    return [
        Cmd(
            ["kv-build", "--l", "3", "--eta", repr(eta), "--out", game],
            "kv_build",
            {"n": 8, "entries": N8_ENTRIES},
        ),
        Cmd(
            ["values", "--game", game, "--seed", str(s)],
            "values_match",
            {"classical": ref["classical"]["value"], "quantum": ref["quantum"]["value"]},
        ),
    ]


def _game_post(seed: int, work: str) -> list:
    # read only after the passes: loading 6.8 MB of JSON would grow the
    # benchmark process, and a child's peak RSS includes its parent's
    return [(gates.game_file, {"path": f"{work}/game.json", "n": 8, "entries": N8_ENTRIES})]


def _referee(seed: int, i: int, work: str, refs: list) -> list[Cmd]:
    # one seed per run, not per pass: the 4-sigma gate is a statistical test,
    # and fewer independent draws keep its false-alarm rate low
    s = str(_rng("referee-n8", seed).randrange(2**31))
    base = ["referee-sim", "--l", "3", "--samples", str(REFEREE_SAMPLES), "--seed", s]
    closed = gates.kv_closed_form(8, gates.asymptotic_eta(8))
    return [
        Cmd(base + ["--strategy", "mes"], "referee",
            {"samples": REFEREE_SAMPLES, "closed_form": closed}),
        Cmd(base + ["--strategy", "rep"], "referee",
            {"samples": REFEREE_SAMPLES, "closed_form": None}),
    ]


def _local_content(seed: int, i: int, work: str, refs: list) -> list[Cmd]:
    s = str(_rng("local-content-lp", seed, i).randrange(2**31))
    return [
        Cmd(["local-content", "--dist", f"{work}/kv34.json", "--variant", "free"],
            "local_content"),
        Cmd(["local-content", "--dist", f"{work}/p{i}-33.json", "--variant", "free"],
            "local_content"),
        Cmd(["local-content", "--dist", "chsh-quantum", "--variant", "local", "--seed", s],
            "local_content"),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("values-n8", ("values.quantum_prob.s",), _values_n8),
        Workload(
            "game-file-n8",
            ("cli.self_s", "kvgame.kv_game_to_json.s"),
            _game_commands,
            references=_game_references,
            post=_game_post,
        ),
        Workload("referee-n8", ("cli.self_s",), _referee),
        Workload(
            "local-content-lp",
            ("localpolytope.solve_lp.s",),
            _local_content,
        ),
    )
}
