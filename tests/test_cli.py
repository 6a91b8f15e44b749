"""Command-line behaviour: exit codes, JSON schemas, reproducibility, and
method tags on every computed number."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    dist_from_assignments,
    kv_game_to_json_per_entry,
    load_game_per_entry,
    referee_sample_whole_x,
)

import kvbell
from kvbell.cli import (
    _game_file_pieces,
    _kv_build_game,
    _load_game,
    main,
)
from kvbell.errors import KvBellError
from kvbell.kvgame import (
    NOISE_ROW_BLOCK,
    asymptotic_eta,
    build_hadamard_subgroup,
    kv_functional,
    kv_game_to_json,
    stream_key,
    stream_words,
)
from kvbell.values import (
    ALMOST_ACTIVATION_CONSTANT,
    pr_box_dist,
    quantum_value_kv_closed_form,
    superactivation_log_ratio_bound,
    tsirelson_box_dist,
)

METHOD_TAGS = {
    "exact",
    "heuristic-lb",
    "formula-ub",
    "formula-lb",
    "formula-symbolic",
    "empirical",
}


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def walk_tags(node, found):
    if isinstance(node, dict):
        if "value" in node and "method" in node:
            found.append(node["method"])
        for v in node.values():
            walk_tags(v, found)
    elif isinstance(node, list):
        for v in node:
            walk_tags(v, found)


def test_kv_build_and_values_roundtrip(tmp_path, capsys):
    game_file = tmp_path / "game.json"
    doc = run_json(capsys, ["kv-build", "--l", "2", "--eta", "0.25", "--out", str(game_file)])
    assert doc["result"]["n"] == 4
    assert abs(doc["result"]["coefficient_mass"]["value"] - 4.0) < 1e-12
    text = game_file.read_text()
    assert text.count("\n") == 1  # written compactly, on one line
    game = json.loads(text)
    assert game["n"] == 4 and game["K"] == 4 and game["N"] == 4
    assert len(game["entries"]) == 256
    assert all(set(entry) == {"x", "y", "a", "b", "c"} for entry in game["entries"])

    direct = run_json(capsys, ["values", "--l", "2", "--eta", "0.25"])
    loaded = run_json(capsys, ["values", "--game", str(game_file)])
    for key in ("classical", "quantum", "ratio", "closed_form"):
        assert direct["result"][key] == loaded["result"][key]
    assert direct["result"]["classical"]["value"] == 0.5625
    assert direct["result"]["classical"]["method"] == "exact"
    assert direct["result"]["quantum"]["value"] == 0.4375


def test_values_json_is_reproducible(capsys):
    a = run_json(capsys, ["values", "--l", "3", "--eta", "auto", "--seed", "5"])
    b = run_json(capsys, ["values", "--l", "3", "--eta", "auto", "--seed", "5"])
    assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
    assert a["result"]["classical"]["method"] == "heuristic-lb"
    assert a["result"]["quantum"]["method"] == "exact"
    assert "quantum_lower_bound" in a["result"]["bounds"]


def test_values_tags_are_from_the_vocabulary(capsys):
    doc = run_json(capsys, ["values", "--l", "2", "--eta", "0.3"])
    found = []
    walk_tags(doc["result"], found)
    assert found
    assert set(found) <= METHOD_TAGS


def test_superactivation_output(capsys):
    doc = run_json(capsys, ["superactivation", "--d", "8", "--k", "1:4"])
    rows = doc["result"]["rows"]
    assert [r["k"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["exact_total"]["method"] == "exact"
    crossing = doc["result"]["crossing"]
    assert crossing["k_star"]["value"] == 6056
    assert crossing["bound_at_k_star"]["value"] > 1.0
    assert crossing["bound_before"]["value"] <= 1.0
    found = []
    walk_tags(doc["result"], found)
    assert set(found) <= METHOD_TAGS


def test_superactivation_no_crossing_below_threshold(capsys):
    doc = run_json(capsys, ["superactivation", "--d", "7", "--k", "2"])
    assert doc["result"]["crossing"] is None


def test_almost_activation_output(capsys):
    doc = run_json(capsys, ["almost-activation", "--alpha", "1/11", "--delta", "1"])
    res = doc["result"]
    assert res["exponent"]["fraction"] == "1/22"
    assert res["upper_bound"]["method"] == "formula-symbolic"
    assert "1/11" in res["upper_bound"]["value"]
    lower = [row["lower_factor"]["value"] for row in res["rows"]]
    assert all(a < b for a, b in zip(lower, lower[1:]))
    assert res["delta_crossing"]["ln_d_required"]["value"] > 1e50


def test_referee_sim_reproducible_and_consistent(capsys):
    argv = ["referee-sim", "--l", "2", "--strategy", "mes", "--samples", "30000", "--seed", "9"]
    a = run_json(capsys, argv)
    b = run_json(capsys, argv)
    assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
    res = a["result"]
    assert res["consistent_4sigma"] is True
    assert abs(res["exact_value"]["value"] - 0.4375) < 1e-12
    assert res["win_rate"]["method"] == "empirical"


def test_referee_sim_rep_strategy(capsys):
    doc = run_json(
        capsys,
        ["referee-sim", "--l", "2", "--strategy", "rep", "--samples", "30000", "--seed", "2"],
    )
    res = doc["result"]
    assert abs(res["exact_value"]["value"] - 0.5625) < 1e-12
    assert res["consistent_4sigma"] is True


def test_referee_sim_strategy_file(tmp_path, capsys):
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"alice": [0, 1, 2, 3], "bob": [0, 1, 2, 3]}))
    doc = run_json(
        capsys,
        ["referee-sim", "--l", "2", "--strategy", str(strat), "--samples", "5000", "--seed", "1"],
    )
    assert doc["result"]["samples"] == 5000
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alice": [0, 1], "bob": [0, 1, 2, 3]}))
    assert main(["referee-sim", "--l", "2", "--strategy", str(bad), "--samples", "10"]) == 2
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"alice": [0, 1, 2, 9], "bob": [0, 1, 2, 3]}))
    assert main(["referee-sim", "--l", "2", "--strategy", str(worse), "--samples", "10"]) == 2
    capsys.readouterr()
    # only JSON integers count as answer positions: no floats, strings or booleans
    for entry in (1.7, "3", True):
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({"alice": [0, 1, 2, 3], "bob": [0, 1, entry, 3]}))
        argv = ["referee-sim", "--l", "2", "--strategy", str(loose), "--samples", "10"]
        assert main(argv) == 2, entry
        assert "must hold integers in [0, 4)" in capsys.readouterr().err


def test_referee_sim_strategy_file_names_the_first_bad_entry(tmp_path, capsys):
    # n = 16: 4,096 entries per party; the message names one entry, not the list
    bob = [0] * 4096
    bob[1234] = 16
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alice": [0] * 4096, "bob": bob}))
    assert main(["referee-sim", "--l", "4", "--strategy", str(bad), "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "error: strategy 'bob' must hold integers in [0, 16), got 16 at index 1234\n"


def test_referee_sim_mes_pinned(capsys):
    argv = ["referee-sim", "--l", "3", "--samples", "200000", "--seed", "5", "--strategy", "mes"]
    res = run_json(capsys, argv)["result"]
    assert res["wins"] == 186851
    assert res["win_rate"] == {"value": 0.934255, "method": "empirical"}
    assert res["deviation_sigmas"] == {"value": -0.3000307971167815, "method": "empirical"}


@pytest.mark.parametrize("samples", [10**7 + 1, 10**12])
def test_referee_sim_samples_guard(capsys, samples):
    assert main(["referee-sim", "--l", "2", "--samples", str(samples)]) == 3
    assert "referee guard" in capsys.readouterr().err


def _uniforms(seed, count):
    # mes's uniform for round i: word i of the seed's stream 2, top 53 bits
    return (stream_words(stream_key(seed, 2), 0, count) >> 11) * 2.0**-53


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("strategy", ["mes", "rep"])
@pytest.mark.parametrize(
    "samples",
    [
        1,
        4,
        NOISE_ROW_BLOCK - 1,
        NOISE_ROW_BLOCK,
        NOISE_ROW_BLOCK + 1,
        2 * NOISE_ROW_BLOCK,
        2 * NOISE_ROW_BLOCK + 1,
        4 * NOISE_ROW_BLOCK + 7,
    ],
)
def test_referee_sim_counts_match_whole_length_draws(capsys, l, strategy, samples):
    # rounds drawn and played block by block win the rounds that one
    # whole-length draw wins, mes by its win law (1 - 2|z|/n)**2 against one
    # whole-length read of the uniform stream
    argv = ["referee-sim", "--l", str(l), "--eta", "0.3", "--strategy", strategy]
    doc = run_json(capsys, argv + ["--samples", str(samples), "--seed", "3"])["result"]
    table = build_hadamard_subgroup(l)
    draws = referee_sample_whole_x(table, 0.3, 3, samples)
    if strategy == "mes":
        law = (1.0 - 2.0 * np.bitwise_count(draws.z) / table.n) ** 2
        wins = _uniforms(3, samples) < law
    else:
        wins = (table.elems[draws.x, 0] ^ table.elems[draws.y, 0]) == draws.z
    assert doc["wins"] == int(wins.sum()) and doc["win_rate"]["value"] == float(wins.mean())


@pytest.mark.parametrize(("strategy", "wins"), [("mes", 934596), ("rep", 943696)])
def test_referee_sim_golden_wins(capsys, strategy, wins):
    # the counts of the whole-length draw of seed 12345's streams; mes plays
    # its win law
    argv = ["referee-sim", "--l", "3", "--samples", "1000000", "--seed", "12345", "--strategy", strategy]
    assert run_json(capsys, argv)["result"]["wins"] == wins


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_referee_sim_mes_consistent_at_every_size(capsys, l):
    # mes needs no game table, so it plays at n = 16 as well
    for seed in range(10):
        argv = ["referee-sim", "--l", str(l), "--samples", "100000", "--seed", str(seed)]
        res = run_json(capsys, argv)["result"]
        assert res["consistent_4sigma"] is True, (seed, res["deviation_sigmas"])
        assert res["exact_value"]["value"] == quantum_value_kv_closed_form(1 << l, res["eta"])


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_referee_sim_rep_value_is_correctly_rounded(capsys, l):
    # rep answers each coset's first member and wins (1 - eta)**l, rounded once
    for eta in ("0.05", "0.25", "0.3", "0.5", "5e-324") + (("auto",) if l >= 3 else ()):
        argv = ["referee-sim", "--l", str(l), "--eta", eta, "--strategy", "rep", "--samples", "1"]
        res = run_json(capsys, argv)["result"]
        assert res["exact_value"]["value"] == float((1 - Fraction(res["eta"])) ** l), eta


@pytest.mark.parametrize("strategy", ["rep", "file"])
def test_referee_sim_consistent_at_n16(tmp_path, capsys, strategy):
    # rep and strategy files are valued from their answer strings, so they
    # play at n = 16; the file moves a quarter of rep's answers at random
    if strategy == "file":
        rng = np.random.default_rng(16)
        moved = {
            key: np.where(rng.random(4096) < 0.25, rng.integers(0, 16, 4096), 0).tolist()
            for key in ("alice", "bob")
        }
        strategy = tmp_path / "strategy.json"
        strategy.write_text(json.dumps(moved))
    for seed in range(10):
        argv = ["referee-sim", "--l", "4", "--strategy", str(strategy), "--samples", "100000"]
        res = run_json(capsys, argv + ["--seed", str(seed)])["result"]
        assert res["consistent_4sigma"] is True, (seed, res["deviation_sigmas"])


# the dense MES route: sign-basis measurements, the MES density matrix, its
# Born-rule table and the pairing with that table
DENSE_MES = ("kv_measurements", "make_mes", "quantum_prob", "pair")


def _count_calls(monkeypatch, calls, names, modules=None) -> None:
    """Append to calls the name of each call to the named kvbell functions,
    patched by default in the module that defines each one and in every
    kvbell module that imports it."""
    for module in modules or (kvbell.kvgame, kvbell.states, kvbell.values, kvbell.cli):
        for name in names:
            if not hasattr(module, name):
                continue

            def counted(*args, name=name, function=getattr(module, name)):
                calls.append(name)
                return function(*args)

            monkeypatch.setattr(module, name, counted)


def test_referee_sim_mes_builds_no_game_table(tmp_path, capsys, monkeypatch):
    # mes plays each round by its win law, and rep and strategy files are
    # valued from their answer strings: no game table, measurement or
    # Born-rule table
    strat = tmp_path / "strategy.json"
    strat.write_text(json.dumps({"alice": [x % 8 for x in range(32)], "bob": [7] * 32}))
    calls = []
    _count_calls(monkeypatch, calls, DENSE_MES)
    _count_calls(monkeypatch, calls, ["kv_functional"], [kvbell.cli])
    argv = ["referee-sim", "--l", "3", "--samples", "1000", "--strategy"]
    for strategy in ("mes", "rep", str(strat)):
        run_json(capsys, argv + [strategy])
        assert calls == [], strategy


def _referee_sim_peak(strategy, samples):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["referee-sim", "--l", "3", "--samples", str(samples), "--strategy", strategy])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("strategy", ["mes", "rep"])
def test_referee_sim_memory_stays_per_block(strategy):
    # no round is kept: the peak is one block of rounds and the fixed tables,
    # measured at 0.8 MiB for both mes and rep with numpy 2.4 (two 0.25 MiB
    # uint64 arrays inside stream_words); the bound leaves 3.2 MiB for other
    # numpy builds' temporaries
    _referee_sim_peak(strategy, 1)  # the first run's imports are not per round
    small = _referee_sim_peak(strategy, 100_000)
    large = _referee_sim_peak(strategy, 3_000_000)
    assert large < 4 * 2**20, f"peak {large / 2**20:.2f} MiB"
    assert abs(large - small) < 2**19, f"peaks {small / 2**20:.2f} and {large / 2**20:.2f} MiB"


def test_local_content_subcommand(tmp_path, capsys):
    doc = run_json(capsys, ["local-content", "--dist", "pr-box"])
    assert doc["result"]["lambda"]["value"] <= 1e-9
    assert doc["result"]["lv"] is None
    doc2 = run_json(capsys, ["local-content", "--dist", "chsh-quantum", "--seed", "0"])
    lam = doc2["result"]["lambda"]["value"]
    assert abs(lam - (2.0 - math.sqrt(2.0))) <= 1e-12
    # LV = 2/lambda - 1 needs the local reading: the free one would give 1 + sqrt 2
    assert doc2["result"]["lv"] is None
    assert "--variant local" in doc2["result"]["lv_note"]
    argv = ["local-content", "--dist", "chsh-quantum", "--seed", "0", "--variant", "local"]
    local = run_json(capsys, argv)["result"]
    assert abs(local["lambda"]["value"] - 2.0 * (math.sqrt(2.0) - 1.0)) < 1e-12
    assert abs(local["lv"]["value"] - math.sqrt(2.0)) < 1e-12
    # file-based distribution
    dist_file = tmp_path / "dist.json"
    table = np.full((2, 2, 2, 2), 0.25).tolist()
    dist_file.write_text(json.dumps({"N": 2, "K": 2, "table": table}))
    doc3 = run_json(capsys, ["local-content", "--dist", str(dist_file)])
    assert abs(doc3["result"]["lambda"]["value"] - 1.0) <= 1e-9


def test_local_content_dense_guard_counts_pairs_inside_the_support(tmp_path, capsys):
    # (N, K) = (5, 4): 400 entries and 1,048,576 deterministic pairs, past the
    # dense guard as a whole; a mixture of three pairs keeps only a few of them
    N, K = 5, 4
    mixture = sum(
        dist_from_assignments(f, g, N, K).table / 3.0
        for f, g in (([0, 1, 2, 3, 0], [1, 1, 2, 2, 3]), ([3, 2, 1, 0, 0], [0] * 5), ([1] * 5, [2] * 5))
    )
    path = tmp_path / "mix54.json"
    path.write_text(json.dumps({"N": N, "K": K, "table": mixture.tolist()}))
    res = run_json(capsys, ["local-content", "--dist", str(path)])["result"]
    assert abs(res["lambda"]["value"] - 1.0) <= 1e-9
    assert res["reconstruction_error"] <= 1e-9
    path.write_text(json.dumps({"N": N, "K": K, "table": np.full((N, N, K, K), 1 / 16).tolist()}))
    assert main(["local-content", "--dist", str(path)]) == 3
    assert "memory guard" in capsys.readouterr().err


def test_local_variant_dense_guard_counts_the_lp_it_builds(tmp_path, capsys):
    # (N, K) = (4, 4): D has 256 x 65,536 = 2^24 entries, but the local LP
    # [[D, -D], [1, -1]] has 257 x 131,072; it is refused before D is built
    path = tmp_path / "uniform44.json"
    path.write_text(json.dumps({"N": 4, "K": 4, "table": np.full((4, 4, 4, 4), 1 / 16).tolist()}))
    start = time.perf_counter()
    assert main(["local-content", "--dist", str(path), "--variant", "local"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "memory guard" in capsys.readouterr().err


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6, 1e-8, 1e-9, 5e-10, 2e-10, 1e-12])
def test_local_variant_on_signalling_inputs(tmp_path, capsys, eps):
    # (1 - eps) B + eps S with S a box in which Bob answers Alice's question x:
    # P signals by eps.  Its exact local weight is 0; below the drift the
    # solver can tell from rounding the LP fits P within the 1e-9 gate.
    det = dist_from_assignments([0, 0], [0, 0], 2, 2).table
    signal = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        signal[x, y, 0, x] = 1.0
    path = tmp_path / "signalling.json"
    argv = ["local-content", "--dist", str(path), "--variant", "local"]
    for base in (det, pr_box_dist().table, np.full((2, 2, 2, 2), 0.25)):
        table = (1.0 - eps) * base + eps * signal
        path.write_text(json.dumps({"N": 2, "K": 2, "table": table.tolist()}))
        res = run_json(capsys, argv)["result"]
        assert res["reconstruction_error"] <= 1e-9
        if eps >= 1e-9:
            assert res["lambda"]["value"] == 0.0 and res["lv"] is None
            assert res["weights"] == res["residual_weights"] == []
            assert "residual_distribution" not in res


@pytest.mark.parametrize("delta", [1e-9, -5e-9, 5e-9, 1e-8])
def test_local_variant_on_tables_of_mass_one_plus_delta(tmp_path, capsys, delta):
    # the loader lets every block weigh 1 + delta; the LP's last row asks for
    # weight 1, so P is solved at its own weight scaled to 1
    path = tmp_path / "mass.json"
    argv = ["local-content", "--dist", str(path), "--variant", "local"]
    det = dist_from_assignments([0, 0], [0, 0], 2, 2).table
    for base in (det, np.full((2, 2, 2, 2), 0.25), pr_box_dist().table):
        lams = []
        for scale in (1.0, 1.0 + delta):
            path.write_text(json.dumps({"N": 2, "K": 2, "table": (scale * base).tolist()}))
            res = run_json(capsys, argv)["result"]
            assert res["reconstruction_error"] <= 1e-9
            lams.append(res["lambda"]["value"])
        assert abs(lams[1] - lams[0]) <= 1e-12


@pytest.mark.parametrize("variant", ["free", "local"])
def test_local_tables_of_mass_just_below_one_leave_no_residual(tmp_path, capsys, variant):
    # (1 - 5e-9) times a local table: the free lambda falls short of 1 by the
    # table's own mass, so the leftover P - D q holds nothing to normalize
    path = tmp_path / "short.json"
    argv = ["local-content", "--dist", str(path), "--variant", variant]
    det = dist_from_assignments([0, 0], [0, 0], 2, 2).table
    for base in (det, np.full((2, 2, 2, 2), 0.25)):
        path.write_text(json.dumps({"N": 2, "K": 2, "table": ((1.0 - 5e-9) * base).tolist()}))
        res = run_json(capsys, argv)["result"]
        want = 1.0 - 5e-9 if variant == "free" else 1.0
        assert abs(res["lambda"]["value"] - want) <= 1e-12
        assert res["reconstruction_error"] <= 1e-9
        assert "residual_distribution" not in res


def _skewable_boxes():
    det = dist_from_assignments([0, 0], [0, 0], 2, 2).table
    uniform = np.full((2, 2, 2, 2), 0.25)
    return {
        "deterministic": det,
        "uniform": uniform,
        "half-pr": 0.5 * pr_box_dist().table + 0.5 * uniform,
        "tsirelson": tsirelson_box_dist().table,
    }


@settings(max_examples=40, deadline=None)
@given(
    base=st.sampled_from(sorted(_skewable_boxes())),
    skew=st.lists(st.floats(-9.99e-9, 9.99e-9), min_size=4, max_size=4),
)
@example(base="deterministic", skew=[4e-9, -4e-9, -4e-9, -4e-9])
def test_tables_with_skewed_block_masses_solve_in_both_variants(base, skew):
    # the loader lets each block weigh 1 within 1e-8; a leftover of that size
    # carries the skew between blocks and is reported as no residual
    table = _skewable_boxes()[base] * (1.0 + np.reshape(skew, (2, 2, 1, 1)))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "skewed.json")
        with open(path, "w") as f:
            json.dump({"N": 2, "K": 2, "table": table.tolist()}, f)
        for variant in ("free", "local"):
            argv = ["local-content", "--dist", path, "--variant", variant, "--format", "json"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code == 0, (variant, out.getvalue())
            res = json.loads(out.getvalue())["result"]
            assert res["reconstruction_error"] <= 1e-9
            if "residual_distribution" in res:
                sums = np.sum(res["residual_distribution"], axis=(2, 3))
                assert np.max(np.abs(sums - 1.0)) <= 1e-7


def test_input_files_are_labelled_by_file_name(tmp_path, capsys, monkeypatch):
    # the same file named three ways gives one result document
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text(json.dumps({"alice": [0, 1, 2, 3], "bob": [0, 1, 2, 3]}))
    table = np.full((2, 2, 2, 2), 0.25).tolist()
    (tmp_path / "d.json").write_text(json.dumps({"N": 2, "K": 2, "table": table}))
    for argv, key, name in (
        (["referee-sim", "--l", "2", "--samples", "500", "--strategy"], "strategy", "s.json"),
        (["local-content", "--dist"], "distribution", "d.json"),
    ):
        spellings = (name, f"./{name}", str(tmp_path / name))
        results = [run_json(capsys, argv + [path])["result"] for path in spellings]
        assert results[0][key] == name
        assert results[0] == results[1] == results[2]


def test_game_file_is_labelled_by_file_name(tmp_path, capsys, monkeypatch):
    # one game written under three spellings of one path gives one result document
    monkeypatch.chdir(tmp_path)
    argv = ["kv-build", "--l", "2", "--eta", "0.25", "--out"]
    spellings = ("g.json", "./g.json", str(tmp_path / "g.json"))
    results = [run_json(capsys, argv + [path])["result"] for path in spellings]
    assert results[0]["game_file"] == "g.json"
    assert results[0] == results[1] == results[2]


def test_exit_codes(tmp_path, capsys):
    assert main(["kv-build", "--l", "4", "--out", str(tmp_path / "g.json")]) == 3
    assert main(["kv-build", "--l", "2"]) == 2  # missing --out
    assert main(["values", "--l", "2", "--eta", "0.6"]) == 2
    assert main(["values", "--l", "2", "--eta", "bogus"]) == 2
    assert main(["referee-sim", "--l", "2", "--samples", "0"]) == 2
    assert main(["referee-sim", "--l", "4", "--strategy", "rep", "--samples", "10"]) == 0
    assert main(["values", "--game", str(tmp_path / "missing.json")]) == 2
    assert main(["local-content", "--dist", str(tmp_path / "nope.json")]) == 2
    assert main(["almost-activation", "--alpha", "2/3"]) == 2
    assert main(["superactivation", "--d", "8", "--p", "1.5"]) == 2
    game = str(tmp_path / "g2.json")
    assert main(["kv-build", "--l", "2", "--eta", "0.25", "--out", game]) == 0
    capsys.readouterr()
    for extra in (["--l", "3"], ["--eta", "0.3"]):  # the file fixes n and eta
        assert main(["values", "--game", game] + extra) == 2
        assert "drop --l and --eta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kv-build", "--l", "2", "--out", "{missing}/g.json"],
        ["values", "--l", "2", "--out", "{missing}/v.json"],
        ["superactivation", "--d", "2", "--k", "1:3", "--out", "{dir}"],
        ["local-content", "--dist", "{dir}"],
        ["values", "--game", "{dir}"],
        ["referee-sim", "--l", "2", "--strategy", "{dir}"],
        ["local-content", "--dist", "{not_utf8}"],
    ],
)
def test_unusable_file_paths_exit_2(tmp_path, capsys, argv):
    # a missing directory, a directory in place of a file, or bytes that are
    # not UTF-8 end in a message and exit code 2, not a traceback
    not_utf8 = tmp_path / "dist.json"
    not_utf8.write_bytes(b"\xff" + json.dumps({"N": 2, "K": 2, "table": _uniform_table()}).encode())
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "not_utf8": not_utf8}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_game_file_not_utf8_after_a_syntax_error(tmp_path, capsys):
    # json.load decodes the whole text before it parses, so a byte that is
    # not UTF-8 is reported ahead of an earlier syntax error
    path = tmp_path / "game.json"
    path.write_bytes(b'{"n": 4,, "entries": [' + b"0, " * 30000 + b'"\xff"]}')
    assert main(["values", "--game", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text\n"


@pytest.mark.parametrize(
    "argv",
    [["values", "--game"], ["referee-sim", "--l", "2", "--strategy"], ["local-content", "--dist"]],
)
@pytest.mark.parametrize("value", ["[" * 10**5 + "]" * 10**5, "1" * 5000], ids=["deep", "long-int"])
def test_json_past_the_interpreter_limits_exit_2(tmp_path, capsys, argv, value):
    # json raises RecursionError for deep nesting and ValueError for an integer
    # literal past sys.get_int_max_str_digits(), neither a JSONDecodeError
    path = tmp_path / "doc.json"
    path.write_text('{"entries": [' + value + "]}")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_corrupt_game_file_rejected(tmp_path, capsys):
    f = tmp_path / "corrupt.json"
    f.write_text(json.dumps({"n": 4, "eta": 0.25, "N": 4, "K": 4}))
    assert main(["values", "--game", str(f)]) == 2
    f.write_text("{not json")
    assert main(["values", "--game", str(f)]) == 2
    f.write_text(json.dumps({"n": 6, "eta": 0.25, "N": 4, "K": 4, "entries": []}))
    assert main(["values", "--game", str(f)]) == 2
    capsys.readouterr()


def test_out_file_contains_meta_and_result(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["values", "--l", "2", "--eta", "0.25", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc.keys()) == {"meta", "result"}
    assert doc["meta"]["tool"] == "kvbell"
    capsys.readouterr()


def test_eta_auto_needs_large_n(capsys):
    assert main(["values", "--l", "2", "--eta", "auto"]) == 2
    capsys.readouterr()


def test_text_format_mentions_methods(capsys):
    code = main(["values", "--l", "2", "--eta", "0.25"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[exact]" in out and "[formula-ub]" in out


def test_values_rejects_negative_seed(capsys):
    assert main(["values", "--l", "3", "--seed", "-5"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_referee_sim_rejects_negative_seed(capsys):
    assert main(["referee-sim", "--l", "2", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["free", "local"])
def test_chsh_quantum_document_ignores_the_seed(capsys, variant):
    argv = ["local-content", "--dist", "chsh-quantum", "--variant", variant]
    docs = [run_json(capsys, argv + ["--seed", seed])["result"] for seed in ("0", "1", "7")]
    assert docs[0] == docs[1] == docs[2]


def test_local_content_rejects_negative_seed(capsys):
    assert main(["local-content", "--dist", "chsh-quantum", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("alpha,exponent", [("1/10", "0"), ("1/8", "-1/8")])
def test_almost_activation_delta_without_growth(capsys, alpha, exponent):
    doc = run_json(capsys, ["almost-activation", "--alpha", alpha, "--delta", "2"])
    res = doc["result"]
    assert res["exponent"]["fraction"] == exponent
    crossing = res["delta_crossing"]
    assert crossing["ln_d_required"] == {"value": "never", "method": "exact"}
    assert crossing["d_required"] == {"value": "never", "method": "exact"}
    assert main(["almost-activation", "--alpha", alpha, "--delta", "2"]) == 0
    text = capsys.readouterr().out
    assert "never exceeds delta=2" in text and "once ln d" not in text


@pytest.mark.parametrize(
    "alpha,delta", [("1/11", "1e-3"), ("1/11", "1e-300"), ("1/10", "1e-3")]
)
def test_almost_activation_delta_below_the_factor_at_d2(capsys, alpha, delta):
    # a growing factor would otherwise report a crossing below ln 2
    assert main(["almost-activation", "--alpha", alpha, "--delta", delta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "already exceeds delta" in captured.err and "at d = 2" in captured.err


@pytest.mark.parametrize("delta", ["1e300", "6e305", "1e308", "1.7976931348623157e308"])
def test_almost_activation_delta_near_the_float_limit(capsys, delta):
    # delta / C'' overflows from about 5.3e305 on; the crossing stays finite
    res = run_json(capsys, ["almost-activation", "--alpha", "1/11", "--delta", delta])["result"]
    log_ln_d = 22 * (math.log(float(delta)) - math.log(ALMOST_ACTIVATION_CONSTANT))
    assert res["delta_crossing"]["ln_d_required"] == {
        "value": f"exp({log_ln_d:.6g})",
        "method": "formula-symbolic",
    }
    assert res["delta_crossing"]["d_required"]["value"] == f"exp(exp({log_ln_d:.6g}))"


def _game_file(tmp_path, capsys, edit):
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", "2", "--eta", "0.25", "--out", str(path)])
    doc = json.loads(path.read_text())
    edit(doc["entries"])
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("key,value", [("x", -1), ("y", 4), ("a", -4), ("b", 4), ("a", 1.5)])
def test_game_file_index_outside_range_rejected(tmp_path, capsys, key, value):
    path = _game_file(tmp_path, capsys, lambda entries: entries[7].update({key: value}))
    assert main(["values", "--game", path]) == 2
    assert "index" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, None])
def test_game_file_non_finite_coefficient_rejected(tmp_path, capsys, value):
    path = _game_file(tmp_path, capsys, lambda entries: entries[3].update({"c": value}))
    assert main(["values", "--game", path]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_game_file_duplicate_entry_rejected(tmp_path, capsys):
    def duplicate(entries):
        entries[5] = dict(entries[9], c=0.0)

    path = _game_file(tmp_path, capsys, duplicate)
    assert main(["values", "--game", path]) == 2
    assert "more than once" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["values", "--l", "5"],
        ["values", "--l", "1000000000000"],
        ["kv-build", "--l", "5", "--out", "never-written.json"],
        ["kv-build", "--l", "1000000000000", "--out", "never-written.json"],
        ["referee-sim", "--l", "1000000000000"],
        ["referee-sim", "--l", "5"],
    ],
)
def test_block_length_refused_before_allocation(capsys, argv):
    assert main(argv) == 3
    assert "block length is limited" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kv-build", "--l", "4"],
        ["kv-build", "--l", "4", "--eta", "0.9", "--out", "never-written.json"],
    ],
)
def test_dense_size_refused_by_the_game_table(capsys, argv):
    # kv_functional's guard is the one refusal, ahead of the eta range and --out
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "n in (2, 4, 8), got 16" in err
    assert "use quantum_value_kv_closed_form" in err


def test_values_text_names_the_mes_strategy(capsys):
    assert main(["values", "--l", "2", "--eta", "0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  quantum (MES strategy) 0.4375 [exact]" in lines
    assert "  ratio (MES / classical) 0.7777777777777778" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["superactivation", "--d", "8", "--k", "abc"],
        ["superactivation", "--d", "8", "--k", "1:"],
        ["almost-activation", "--d-grid", "4,x"],
        ["almost-activation", "--d-grid", ""],
    ],
)
def test_integer_lists_rejected(capsys, argv):
    assert main(argv) == 2
    assert "expects integers" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_almost_activation_rejects_non_finite_delta(capsys, delta):
    assert main(["almost-activation", "--delta", delta, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--delta" in captured.err


@pytest.mark.parametrize(
    "key,value",
    [("n", "x"), ("n", 4.5), ("N", "4"), ("K", None), ("eta", "x"), ("eta", None), ("eta", [0.25])]
    # an integer literal past the float range, where JSON's 1e400 is a float infinity
    + [pytest.param("eta", 10**400, id="eta-10**400")],
)
def test_game_file_header_rejected(tmp_path, capsys, key, value):
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", "2", "--eta", "0.25", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    assert main(["values", "--game", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


def _uniform_table():
    return np.full((2, 2, 2, 2), 0.25).tolist()


def _ragged_table():
    table = _uniform_table()
    table[1][1] = [[0.25, 0.25]]
    return table


def _table_with(entry):
    table = _uniform_table()
    table[0][1][1][0] = entry
    return table


def _deterministic_table(one, zero):
    # both parties answer 0: a distribution once one and zero read as 1 and 0
    return [[[[one, zero], [zero, zero]] for _ in range(2)] for _ in range(2)]


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 2, "K": 2, "table": _ragged_table()},
        {"N": 2, "K": 2, "table": _table_with("x")},
        {"N": 2, "K": 2, "table": _table_with(None)},
        {"N": 2, "K": 2, "table": "x"},
        {"N": "x", "K": 2, "table": _uniform_table()},
        {"N": 2, "K": 2.5, "table": _uniform_table()},
        [2, 2],
        # JSON strings and booleans are not numbers, even where numpy would read them as one
        {"N": 2, "K": 2, "table": _table_with("0.25")},
        {"N": 2, "K": 2, "table": _deterministic_table(True, 0)},
        {"N": 2, "K": 2, "table": _deterministic_table(1, False)},
    ],
)
def test_distribution_file_header_rejected(tmp_path, capsys, doc):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    assert main(["local-content", "--dist", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_values_n16_is_formula_only(capsys):
    res = run_json(capsys, ["values", "--l", "4"])["result"]
    assert res["classical"] == {"value": None, "method": "formula-ub"}
    assert res["quantum"] == res["closed_form"]
    assert res["quantum"] == {"value": 0.5503208549231893, "method": "exact"}
    assert res["ratio"] is None
    assert res["notes"] == [
        "classical search needs a dense table; at this size only the upper bound is reported",
        "ratio omitted: classical value is not exact",
    ]
    assert res["bounds"] == {
        "classical_upper_bound": {"value": 0.6383759798993083, "method": "formula-ub"},
        "quantum_lower_bound": {"value": 0.5203422452514019, "method": "formula-lb"},
    }
    assert res["lv_lower_bound"] == {"value": 0.8620638499117589, "method": "formula-lb"}


def test_values_result_pinned(capsys):
    res = run_json(capsys, ["values", "--l", "2", "--eta", "0.25"])["result"]
    assert res == {
        "functional": "coset game n=4 eta=0.25",
        "classical": {"value": 0.5625, "method": "exact"},
        "quantum": {"value": 0.4375, "method": "exact"},
        "ratio": 0.7777777777777778,
        "bounds": {"classical_upper_bound": {"value": 0.6299605249474366, "method": "formula-ub"}},
        "notes": [],
        "closed_form": {"value": 0.4375, "method": "exact"},
    }


def test_local_content_result_pinned(capsys):
    argv = ["local-content", "--dist", "pr-box", "--variant", "local"]
    res = run_json(capsys, argv)["result"]
    assert res == {
        "distribution": "pr-box",
        "lambda": {"value": 0.6666666666666666, "method": "exact"},
        "variant": "remainder-local",
        "weights": [
            {"alice": [0, 0], "bob": [0, 0], "weight": 0.3333333333333333},
            {"alice": [0, 1], "bob": [1, 0], "weight": 0.3333333333333333},
            {"alice": [1, 0], "bob": [1, 1], "weight": 0.3333333333333333},
        ],
        "residual_weights": [{"alice": [0, 0], "bob": [1, 0], "weight": 0.3333333333333333}],
        "reconstruction_error": 0.0,
        "lv": {"value": 2.0, "method": "exact"},
        "lv_note": "per-distribution quantity for this input, not a state invariant",
        "residual_distribution": [
            [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        ],
    }


def test_local_content_free_result_pinned(capsys):
    res = run_json(capsys, ["local-content", "--dist", "pr-box", "--variant", "free"])["result"]
    assert res == {
        "distribution": "pr-box",
        "lambda": {"value": 0.0, "method": "exact"},
        "variant": "remainder-free",
        "weights": [],
        "residual_weights": None,
        "reconstruction_error": 0.0,
        "lv": None,
        "lv_note": "LV = 2/lambda - 1 takes the local reading of lambda: use --variant local",
        "residual_distribution": [
            [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.5]]],
            [[[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]]],
        ],
    }


@pytest.mark.parametrize("d", ["100001", "1000000"])
def test_superactivation_threshold_guard(capsys, d):
    assert main(["superactivation", "--d", d]) == 3
    assert "locality threshold" in capsys.readouterr().err


def test_superactivation_explicit_p_skips_threshold_guard(capsys):
    res = run_json(capsys, ["superactivation", "--d", "1000000", "--p", "0.1", "--k", "1:2"])
    assert res["result"]["p_source"] == "explicit"
    assert res["result"]["crossing"]["k_star"]["value"] >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["values", "--l", "3", "--restarts", "1000000000"],
        ["values", "--game", "game.json", "--restarts", "1000000000"],
    ],
)
def test_restarts_guard(capsys, argv):
    assert main(argv) == 3
    assert "restarts exceed the guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "l,eta",
    [(l, eta) for l in (1, 2, 3) for eta in (0.05, 0.25, 0.45, 0.5)]
    + [(3, asymptotic_eta(8)), (3, 1e-200)],
)
def test_game_file_bytes_match_json_dumps(tmp_path, capsys, l, eta):
    # the streaming writer gives exactly the bytes of one json.dumps call;
    # at eta = 1/2 every coefficient is the same number, and at eta = 1e-200
    # those of weight 2 and more underflow to 0 and are left out
    path = tmp_path / "game.json"
    res = run_json(capsys, ["kv-build", "--l", str(l), "--eta", repr(eta), "--out", str(path)])
    game = kv_functional(build_hadamard_subgroup(l), eta)
    doc = kv_game_to_json_per_entry(game)
    assert path.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode()
    assert res["result"]["entries"] == len(doc["entries"])
    if eta == 1e-200:
        assert len(doc["entries"]) == 2304


@settings(max_examples=25, deadline=None)
@given(
    l=st.sampled_from([1, 2]),
    eta=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
)
def test_game_file_pieces_match_json_dumps(l, eta):
    game = kv_functional(build_hadamard_subgroup(l), eta)
    want = json.dumps(kv_game_to_json(game), sort_keys=True) + "\n"
    pieces = list(_game_file_pieces(game, 1 << l, eta))
    assert "".join(pieces) == want
    # the header, one piece per question x, and the tail
    assert len(pieces) == game.num_inputs + 2


def _game_file_layout(text: str, layout: str) -> str:
    """A kv-build file's text in layout: "kv-build" as written, "indent" as
    json.dump writes it with indent=2 and every object's keys reversed,
    "list-first" with a list ahead of entries."""
    if layout == "indent":
        reversed_keys = json.loads(text, object_hook=lambda o: dict(reversed(o.items())))
        return json.dumps(reversed_keys, indent=2)
    if layout == "list-first":
        return json.dumps({"notes": ["rewritten"], **json.loads(text)})
    return text


@pytest.mark.parametrize(
    "l,eta,layout",
    [
        # the kv-build layout keeps the test's ids from before layouts were added
        pytest.param(l, eta, layout, id="-".join([str(l), eta] + [layout] * (layout != "kv-build")))
        for l, eta in [(1, "0.25"), (2, "0.1"), (3, "auto"), (3, "0.05")]
        for layout in ("kv-build", "indent", "list-first")
    ],
)
def test_values_of_a_game_file_match_values_by_size(tmp_path, capsys, l, eta, layout):
    # the kv-build file is recognised by its text; the two rewrites are read whole
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", str(l), "--eta", eta, "--out", str(path)])
    path.write_text(_game_file_layout(path.read_text(), layout))
    loaded = run_json(capsys, ["values", "--game", str(path), "--seed", "3"])["result"]
    direct = run_json(capsys, ["values", "--l", str(l), "--eta", eta, "--seed", "3"])["result"]
    assert loaded["classical"] == direct["classical"]
    assert loaded["quantum"] == direct["quantum"]


@pytest.mark.parametrize("l,eta", [(2, "0.25"), (3, "auto")])
def test_coset_game_formulas_only_for_the_coset_game(tmp_path, capsys, l, eta):
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", str(l), "--eta", eta, "--out", str(path)])
    direct = run_json(capsys, ["values", "--l", str(l), "--eta", eta, "--seed", "3"])["result"]
    loaded = run_json(capsys, ["values", "--game", str(path), "--seed", "3"])["result"]
    formulas = ("bounds", "closed_form", "lv_lower_bound")
    assert [loaded.get(key) for key in formulas] == [direct.get(key) for key in formulas]
    # every coefficient tripled: a valid file, but not the coset game at its eta
    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        entry["c"] *= 3
    path.write_text(json.dumps(doc))
    tripled = run_json(capsys, ["values", "--game", str(path), "--seed", "3"])["result"]
    upper = direct["bounds"]["classical_upper_bound"]["value"]
    assert tripled["classical"]["value"] > upper
    assert tripled["bounds"] == {}
    assert "closed_form" not in tripled and "lv_lower_bound" not in tripled
    assert any("entries are not the coset game" in note for note in tripled["notes"])


@pytest.mark.parametrize("key,value", [("x", True), ("a", True), ("c", True), ("c", "0.5")])
def test_game_file_entry_of_wrong_json_type_rejected(tmp_path, capsys, key, value):
    # json loads true as True, which numpy would take for 1, a valid x and a here
    def edit(entries):
        assert entries[71]["x"] == entries[71]["a"] == 1
        entries[71][key] = value

    path = _game_file(tmp_path, capsys, edit)
    assert main(["values", "--game", path]) == 2
    assert f"under {key!r}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def kv_build_docs(tmp_path_factory):
    """The kv-build game files at n = 2 and 4, parsed, and a path to write to."""
    work = tmp_path_factory.mktemp("games")
    docs = {}
    for l in (1, 2):
        path = work / f"game{l}.json"
        assert main(["kv-build", "--l", str(l), "--eta", "0.25", "--out", str(path)]) == 0
        docs[l] = json.loads(path.read_text())
    return work / "mutated.json", docs


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.integers(-2, 40),
    st.integers(2**63 - 1, 2**64),
    st.floats(),
)
_MUTATIONS = ("drop", "add", "value", "float index", "nest", "list", "entries", "top", "duplicate")


@st.composite
def _mutated_game_file(draw, doc: dict) -> dict:
    """A copy of a parsed game file after 1-3 edits, each one of the ways an
    entry, the entries list or the document can go wrong."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        rows = doc["entries"]
        if not isinstance(rows, list) or not rows:
            break
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        entry, other, kind = rows[i], rows[j], draw(st.sampled_from(_MUTATIONS))
        if not isinstance(entry, dict) or not isinstance(other, dict):
            continue
        if kind == "drop":
            entry.pop(draw(st.sampled_from("xyabc")), None)
        elif kind == "add":
            name = draw(st.one_of(st.text(max_size=2), st.sampled_from(["entries", "n", "x"])))
            entry[name] = draw(_JSON_VALUES)
        elif kind == "value":
            entry[draw(st.sampled_from("xyabc"))] = draw(_JSON_VALUES)
        elif kind == "float index":
            key = draw(st.sampled_from("xyab"))
            entry[key] = draw(st.integers(-1, 4)) + draw(st.sampled_from([0.0, 0.5]))
        elif kind == "nest":
            entry["c"] = dict(other)
        elif kind == "list":
            rows[i] = list(entry.values())
        elif kind == "entries":
            not_lists = [{}, "", 0, None, entry, dict.fromkeys("xyabc", entry)]
            doc["entries"] = draw(st.sampled_from(not_lists))
        elif kind == "top":
            doc.update(entry)
        else:
            rows[i] = dict(other, c=draw(st.sampled_from([other.get("c"), 0.0, 1.5])))
    return doc


@settings(max_examples=200, deadline=None)
@given(data=st.data(), l=st.sampled_from([1, 2]))
def test_game_file_reader_matches_per_entry_oracle(kv_build_docs, data, l):
    # on every file the reader must give what the per-entry oracle gives:
    # the same table or exit 2
    path, docs = kv_build_docs
    path.write_text(json.dumps(data.draw(_mutated_game_file(docs[l]))))
    outcomes = []
    for load in (_load_game, load_game_per_entry):
        try:
            functional, table, eta = load(str(path))
            outcomes.append((functional.dense(), table.n, eta))
        except KvBellError as exc:
            assert exc.exit_code == 2 and str(exc)
            outcomes.append(None)
    got, want = outcomes
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


class _Pairs(list):
    """A JSON object as a list of (key, value) pairs, so a key may repeat."""


def _json_text(value, rnd) -> str:
    """value as JSON text that json.loads reads back as value, but not as
    json.dumps writes it: whitespace from rnd around every token, and some
    characters of strings and keys written as \\u escapes."""
    ws = lambda: rnd.choice(["", "", " ", "\n", "\t ", "\r\n  "])
    if isinstance(value, dict):
        value = _Pairs(value.items())
    if isinstance(value, _Pairs):
        items = [
            f"{ws()}{_json_text(k, rnd)}{ws()}:{ws()}{_json_text(v, rnd)}{ws()}" for k, v in value
        ]
        return "{" + (",".join(items) or ws()) + "}"
    if isinstance(value, list):
        return "[" + (",".join(ws() + _json_text(v, rnd) + ws() for v in value) or ws()) + "]"
    if isinstance(value, str):
        chars = (
            f"\\u{ord(ch):04x}" if " " <= ch <= "~" and rnd.random() < 0.2 else json.dumps(ch)[1:-1]
            for ch in value
        )
        return '"' + "".join(chars) + '"'
    return json.dumps(value)


@st.composite
def _game_file_text(draw, doc: dict) -> str:
    """doc as JSON text written in one of many ways, some of them broken: any
    whitespace, top-level keys reordered and repeated, escaped key names,
    entries with extra keys whose strings hold "}", "]" and ",", and the text
    cut short, followed by more data or led by a UTF-8 byte order mark."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # st.randoms draws each call: slow
    doc = json.loads(json.dumps(doc))
    rows = doc["entries"] if isinstance(doc["entries"], list) else []
    for entry in rows:
        if isinstance(entry, dict) and rnd.random() < 0.1:
            note = lambda: "".join(rnd.choice('}],{["\\ x') for _ in range(rnd.randint(0, 5)))
            entry[note()] = rnd.choice([note(), [note()], {note(): note()}])
    pairs = _Pairs(doc.items())
    rnd.shuffle(pairs)
    if rnd.random() < 0.3:
        key, value = rnd.choice(pairs)
        again = rnd.choice([value, 4, 0.25, [], {}, "}", rows[:2]])
        pairs.insert(rnd.randrange(len(pairs) + 1), (key, again))
    text = _json_text(pairs, rnd)
    if rnd.random() < 0.1:
        text = text[: rnd.randrange(len(text))]
    if rnd.random() < 0.1:
        text += rnd.choice([" ", "\n", "x", " }", "]", ", {}", "{}", " 1"])
    if rnd.random() < 0.05:
        text = "\ufeff" + text
    return text


@settings(max_examples=150, deadline=None)
@given(data=st.data(), l=st.sampled_from([1, 2]))
def test_game_file_reader_on_raw_text_matches_per_entry_oracle(kv_build_docs, data, l):
    # on every text, broken or not, the reader must give what json.load and
    # one dict per entry give, and json's own syntax errors
    path, docs = kv_build_docs
    doc = data.draw(st.one_of(st.just(docs[l]), _mutated_game_file(docs[l])))
    path.write_text(data.draw(_game_file_text(doc)), encoding="utf-8")
    outcomes = []
    for load in (_load_game, load_game_per_entry):
        try:
            functional, table, eta = load(str(path))
            outcomes.append((functional.dense(), table.n, eta))
        except KvBellError as exc:
            assert exc.exit_code == 2 and str(exc)
            outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str) or isinstance(got, str):
        assert isinstance(got, str) and isinstance(want, str), (got, want)
        if want.startswith(f"invalid JSON in {path}"):
            assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


def _refuse_json_load(fh):
    raise AssertionError("json.load read a kv-build file")


@pytest.mark.parametrize(
    "l,eta", [(1, "0.25"), (2, "0.25"), (3, "auto"), (2, "0.5"), (3, "1e-200")]
)
def test_kv_build_files_never_reach_json_load(tmp_path, capsys, monkeypatch, l, eta):
    # any file may be read whole; this pins that kv-build files are not, since
    # otherwise only the n = 8 memory bound would notice the recognised path unused
    path = str(tmp_path / "game.json")
    res = run_json(capsys, ["kv-build", "--l", str(l), "--eta", eta, "--out", path])
    assert res["result"]["entries"] == len(json.loads(Path(path).read_text())["entries"])
    want = load_game_per_entry(path)
    monkeypatch.setattr(json, "load", _refuse_json_load)
    got = _load_game(path)
    assert np.array_equal(got[0].dense(), want[0].dense())
    assert (got[1].n, got[2]) == (want[1].n, want[2])
    assert main(["values", "--game", path]) == 0
    capsys.readouterr()


def test_values_of_a_kv_build_file_builds_the_coset_game_once(tmp_path, capsys, monkeypatch):
    # the recognised file already is the coset game, so its formulas need no second build
    path = str(tmp_path / "game.json")
    run_json(capsys, ["kv-build", "--l", "2", "--eta", "0.25", "--out", path])
    calls = []

    def counted(table, eta):
        calls.append(eta)
        return kv_functional(table, eta)

    monkeypatch.setattr(kvbell.cli, "kv_functional", counted)
    res = run_json(capsys, ["values", "--game", path])["result"]
    assert calls == [0.25]
    assert "closed_form" in res and res["bounds"]


def _edit_first_coefficient(text: str) -> str:
    cut = text.index(", ", text.index('"c": '))
    return text[: cut - 1] + str((int(text[cut - 1]) + 1) % 10) + text[cut:]


@pytest.mark.parametrize(
    "edit",
    [
        _edit_first_coefficient,
        lambda text: text[:-1],  # the final newline dropped
        lambda text: text.replace(", ", ",  ", 1),
        lambda text: text.replace('"eta": 0.25,', '"eta": 0.250,'),
        lambda text: "\ufeff" + text,
        lambda text: text + "x",
        lambda text: text + "\n",
        # an eta kv-build refuses: the file is read, not rebuilt
        lambda text: text.replace('"eta": 0.25,', '"eta": 0.75,'),
    ],
    ids=[
        "coefficient", "newline", "space", "eta-0.250", "bom", "extra-data", "extra-newline",
        "eta-0.75",
    ],
)
def test_game_file_near_misses_are_read_as_json(tmp_path, capsys, edit):
    # one byte off kv-build's text sends the file to json.load, which reads it
    # as the per-entry oracle does
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", "2", "--eta", "0.25", "--out", str(path)])
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    assert _kv_build_game(str(path)) is None
    outcomes = []
    for load in (_load_game, load_game_per_entry):
        try:
            functional, table, eta = load(str(path))
            outcomes.append((functional.dense().tolist(), table.n, eta))
        except KvBellError as exc:
            outcomes.append((exc.exit_code, str(exc)))
    assert outcomes[0] == outcomes[1]


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_game_file_memory_holds_no_text_or_object_per_entry(tmp_path, capsys):
    # the n = 8 file has 65,536 entries in 4.2 MB of text: one dict each would
    # take 11.5 MiB, and the text alone 4.2 MiB; the kv-build file is compared
    # with kv-build's own text a question at a time
    path = str(tmp_path / "game.json")
    build = _traced_peak(["kv-build", "--l", "3", "--out", path])
    values = _traced_peak(["values", "--game", path])
    capsys.readouterr()
    assert build <= 3.5 * 2**20, f"kv-build peak {build / 2**20:.1f} MiB"
    assert values <= 3 * 2**20, f"values --game peak {values / 2**20:.1f} MiB"


def test_values_builds_no_state_or_outcome_table(tmp_path, capsys, monkeypatch):
    # values pairs the MES strategy by its win law, for the coset game and for
    # a game file that is not it
    game = str(tmp_path / "game.json")
    run_json(capsys, ["kv-build", "--l", "3", "--out", game])
    doubled = str(tmp_path / "doubled.json")
    doc = json.loads(Path(game).read_text())
    for entry in doc["entries"]:
        entry["c"] *= 2
    Path(doubled).write_text(json.dumps(doc))
    calls = []
    _count_calls(monkeypatch, calls, DENSE_MES)
    for argv in (["--l", "1"], ["--l", "2"], ["--l", "3"], ["--game", game], ["--game", doubled]):
        result = run_json(capsys, ["values", *argv])["result"]
        assert result["quantum"]["method"] == "exact"
        assert calls == [], argv
    assert any("not the coset game" in note for note in result["notes"])


def test_values_memory_holds_one_question_plane():
    # the n = 8 game table is 0.5 MiB and one question plane of weights 16 KiB:
    # measured at 0.74 MiB with numpy 2.4.6, where the dense route (the 64 x 64
    # MES, the Born-rule table and its ProbDist copy) read 2.07 MiB
    with contextlib.redirect_stdout(io.StringIO()):
        _traced_peak(["values", "--l", "3"])  # the first run's imports are not the command's
        peak = _traced_peak(["values", "--l", "3"])
    assert peak <= 1.25 * 2**20, f"values --l 3 peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["values", "--l", "2", "--restarts", "0"], 2, "restarts must be >= 1"),
        (["values", "--l", "2", "--restarts", "1000000000"], 3, "restarts exceed the guard"),
        (["values", "--l", "4", "--restarts", "1001"], 3, "restarts exceed the guard"),
        (["values", "--l", "4", "--restarts", "-5"], 2, "restarts must be >= 1"),
        (["values", "--game", "game.json", "--restarts", "1001"], 3, "restarts exceed the guard"),
    ],
)
def test_restarts_checked_on_every_route(capsys, argv, code, message):
    # the heuristics check --restarts too, but only some routes reach them;
    # the check comes before a game file is read, so game.json need not exist
    assert main(argv) == code
    assert message in capsys.readouterr().err


def test_local_content_takes_no_restarts(capsys):
    # chsh-quantum is a closed form, so no local-content route searches
    with pytest.raises(SystemExit) as exit_info:
        main(["local-content", "--dist", "chsh-quantum", "--restarts", "2"])
    assert exit_info.value.code == 2
    assert "--restarts" in capsys.readouterr().err


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON document")


@pytest.mark.parametrize(
    "argv",
    [
        ["kv-build", "--l", "2", "--eta", "0.25", "--out", "GAME"],
        ["values", "--game", "GAME"],
        ["values", "--l", "2", "--eta", "0.25"],
        ["values", "--l", "3", "--restarts", "2"],
        ["values", "--l", "4", "--eta", "0.25"],
        ["superactivation", "--d", "8", "--k", "1:3"],
        ["superactivation", "--d", "8", "--k", "300000"],
        ["superactivation", "--d", "2", "--k", "1:2", "--p", "1"],
        ["almost-activation", "--alpha", "1/11", "--d-grid", "8,64", "--delta", "1"],
        ["almost-activation", "--alpha", "1/10", "--delta", "1"],
        ["referee-sim", "--l", "2", "--strategy", "rep", "--samples", "1000"],
        ["referee-sim", "--l", "1", "--eta", "0.001", "--samples", "200", "--seed", "0"],
        ["local-content", "--dist", "pr-box", "--variant", "local"],
        ["local-content", "--dist", "chsh-quantum", "--seed", "2"],
    ],
)
def test_json_output_holds_no_infinity_or_nan(tmp_path, capsys, argv):
    # json.dumps writes inf and nan as Infinity and NaN, which are not JSON;
    # parse_constant sees exactly those tokens
    game = str(tmp_path / "game.json")
    if "GAME" in argv and argv[0] != "kv-build":
        assert main(["kv-build", "--l", "2", "--eta", "0.25", "--out", game]) == 0
        capsys.readouterr()
    argv = [game if a == "GAME" else a for a in argv]
    assert main(argv + ["--format", "json"]) == 0
    json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    if argv[0] == "kv-build":
        json.loads((tmp_path / "game.json").read_text(), parse_constant=_refuse_constant)


def test_referee_sim_winning_every_round(capsys):
    # 200 wins of 200 (seed 0 wins them all) has no empirical spread; the
    # deviation is measured by the spread of the exact value instead of
    # reading infinite
    res = run_json(
        capsys,
        ["referee-sim", "--l", "1", "--eta", "0.001", "--samples", "200", "--seed", "0"],
    )["result"]
    exact = res["exact_value"]["value"]
    assert res["wins"] == 200 and res["std_error"]["value"] == 0.0
    want = (1.0 - exact) / math.sqrt(exact * (1.0 - exact) / 200)
    assert res["deviation_sigmas"]["value"] == pytest.approx(want, rel=1e-12)
    assert res["consistent_4sigma"] is True


def test_superactivation_bound_past_float_range_is_symbolic(capsys):
    res = run_json(capsys, ["superactivation", "--d", "8", "--k", "299999:300000"])["result"]
    alpha = res["rows"][0]["alpha"]["value"]
    for row in res["rows"]:
        log_bound = superactivation_log_ratio_bound(8, row["k"], alpha)
        assert log_bound > 700.0
        assert row["ratio_bound"] == {"value": f"exp({log_bound:.6g})", "method": "formula-symbolic"}
    # below float range the same row stays a number
    low = run_json(capsys, ["superactivation", "--d", "8", "--k", "150000"])["result"]
    assert low["rows"][0]["ratio_bound"]["method"] == "formula-lb"
    assert math.isfinite(low["rows"][0]["ratio_bound"]["value"])


@pytest.mark.parametrize("p", ["0", "-0.5", "0.0"])
def test_superactivation_refuses_p_outside_its_range(capsys, p):
    assert main(["superactivation", "--d", "3", "--p", p]) == 2
    assert "--p must lie in (0, 1]" in capsys.readouterr().err


BEYOND_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ["superactivation", "--d", BEYOND_FLOAT, "--p", "0.5"],
        ["almost-activation", "--d-grid", f"8,{BEYOND_FLOAT}"],
    ],
)
def test_dimension_past_float_range_refused(capsys, argv):
    assert main(argv) == 3
    assert "float range" in capsys.readouterr().err


def test_superactivation_wide_k_at_huge_d_stays_fast(capsys):
    # only k <= 3 can give an exact size, so the rows past it never form d**k
    start = time.perf_counter()
    assert main(["superactivation", "--d", str(10**300), "--p", "0.5", "--k", "1:2000"]) == 0
    assert time.perf_counter() - start < 10.0
    capsys.readouterr()


@pytest.mark.parametrize("eta", ["banana", "0.9"])
@pytest.mark.parametrize("d", ["8", "2"])  # d**2 = 64 has no exact columns, d**2 = 4 has
def test_superactivation_checks_an_explicit_eta_on_every_route(capsys, d, eta):
    assert main(["superactivation", "--d", d, "--k", "2", "--eta", eta]) == 2
    assert "eta" in capsys.readouterr().err


def test_superactivation_eta_auto_is_resolved_per_row(capsys):
    # 1/2 - 1/ln(n) needs n >= 8: no row reads it at d**2 = 64, the exact row does at d = 2
    assert main(["superactivation", "--d", "8", "--k", "2", "--eta", "auto"]) == 0
    assert main(["superactivation", "--d", "2", "--k", "2", "--eta", "auto"]) == 2
    capsys.readouterr()


def test_closed_pipe_ends_without_traceback():
    # the document is far larger than a pipe buffer, so the writer meets the closed end
    env = {**os.environ, "PYTHONPATH": str(Path(kvbell.__file__).parents[1])}
    argv = ["superactivation", "--d", "8", "--k", "1:2000", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "kvbell.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_superactivation_crossing_result_pinned(capsys):
    res = run_json(capsys, ["superactivation", "--d", "8", "--k", "6055:6057"])["result"]
    alpha = {"method": "exact", "value": 1.0035561985439725}
    assert res == {
        "crossing": {
            "bound_at_k_star": {"method": "formula-lb", "value": 1.0026246531225722},
            "bound_before": {"method": "formula-lb", "value": 0.9994017817784566},
            "k_star": {"method": "exact", "value": 6056},
            "monotone_from_k": {"method": "exact", "value": 564},
        },
        "d": 8,
        "p": {"method": "exact", "value": 0.12544452481799656},
        "p_source": "threshold",
        "rows": [
            {
                "alpha": alpha,
                "k": 6055,
                "ratio_bound": {"method": "formula-lb", "value": 0.9994017817784566},
            },
            {
                "alpha": alpha,
                "k": 6056,
                "ratio_bound": {"method": "formula-lb", "value": 1.0026246531225722},
            },
            {
                "alpha": alpha,
                "k": 6057,
                "ratio_bound": {"method": "formula-lb", "value": 1.0058579724360492},
            },
        ],
    }


def test_almost_activation_delta_result_pinned(capsys):
    res = run_json(capsys, ["almost-activation", "--alpha", "1/11", "--delta", "1"])["result"]
    rows = [
        (4, 0.0029743360185660005, 0.2857404908388747),
        (8, 0.0030296619911954594, 0.16864719568244588),
        (16, 0.0030695393978717967, 0.09485504396735792),
        (64, 0.0031266362597097462, 0.02799224764132315),
        (256, 0.003167790073574054, 0.007872072435056958),
        (1024, 0.00320008411628104, 0.002156125796381778),
        (4096, 0.0032267145077376587, 0.0005807730191142462),
        (16384, 0.0032494030039358786, 0.00015464424546225524),
        (100000, 0.003274747116185355, 2.7171988360219586e-05),
        (1000000, 0.003301998836595379, 2.9276135449580495e-06),
    ]
    assert res == {
        "alpha": "1/11",
        "delta_crossing": {
            "d_required": {"method": "formula-symbolic", "value": "exp(5.33672e+55)"},
            "delta": 1.0,
            "ln_d_required": {"method": "exact", "value": 5.336724566877755e55},
        },
        "exponent": {"fraction": "1/22", "method": "exact", "value": 0.045454545454545456},
        "rows": [
            {
                "d": d,
                "lower_factor": {"method": "formula-lb", "value": factor},
                "mix_weight": {"method": "exact", "value": weight},
            }
            for d, factor, weight in rows
        ],
        "upper_bound": {"method": "formula-symbolic", "value": "D*(ln d)^(-1/11) + 1"},
    }
