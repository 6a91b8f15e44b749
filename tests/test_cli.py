"""Command-line behaviour: exit codes, JSON schemas, reproducibility, and
method tags on every computed number."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kv_game_to_json_per_entry, per_pair_answers

from kvbell.cli import _draw_answers, _game_file_pieces, main
from kvbell.kvgame import (
    RefereeSamples,
    asymptotic_eta,
    build_hadamard_subgroup,
    kv_functional,
    kv_game_to_json,
    kv_measurements,
    referee_sample,
)
from kvbell.states import make_mes
from kvbell.values import ProbDist, quantum_prob, superactivation_log_ratio_bound

METHOD_TAGS = {
    "exact",
    "closed-form-validated",
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


def test_referee_sim_mes_pinned(capsys):
    argv = ["referee-sim", "--l", "3", "--samples", "200000", "--seed", "5", "--strategy", "mes"]
    res = run_json(capsys, argv)["result"]
    assert res["wins"] == 186735
    assert res["win_rate"] == {"value": 0.933675, "method": "empirical"}
    assert res["deviation_sigmas"] == {"value": -1.3411418484957525, "method": "empirical"}


@pytest.mark.parametrize("samples", [10**7 + 1, 10**12])
def test_referee_sim_samples_guard(capsys, samples):
    assert main(["referee-sim", "--l", "2", "--samples", str(samples)]) == 3
    assert "referee guard" in capsys.readouterr().err


def _outcome_rng(seed):
    return np.random.Generator(np.random.PCG64([seed, 1]))


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("seed", [0, 5, 777])
@pytest.mark.parametrize("samples", [40, 20000])
def test_draw_answers_matches_per_pair_loop(l, seed, samples):
    table = build_hadamard_subgroup(l)
    meas = kv_measurements(table)
    probs = quantum_prob(make_mes(table.n), meas, meas).table
    draws = referee_sample(table, 0.2, seed, count=samples)
    got = _draw_answers(probs, draws, _outcome_rng(seed))
    want = per_pair_answers(probs, draws, _outcome_rng(seed).random(samples))
    for g, w in zip(got, want):
        assert g.dtype == np.uint8 and np.array_equal(g, w)  # n <= 8 answers fit in 8 bits
    if samples == 40:  # too few rounds to reach every question pair
        assert len(set(zip(draws.x.tolist(), draws.y.tolist()))) < table.num_cosets**2


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 6),
    K=st.integers(1, 4),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 0.9, 1.0 - 2**-52, 1.0 + 2**-52]),
)
def test_draw_answers_matches_per_pair_loop_on_random_tables(N, K, count, seed, scale):
    rng = np.random.Generator(np.random.PCG64(seed))
    probs = rng.random((N, N, K, K)) * (rng.random((N, N, K, K)) < 0.7)
    probs[..., 0, 0] += 1e-3  # no all-zero row
    probs /= probs.sum(axis=(2, 3), keepdims=True)
    probs *= scale  # rows whose float cumsum ends below (or above) 1
    xs = rng.integers(0, N, size=count)
    draws = RefereeSamples(x=xs, y=rng.integers(0, N, size=count), z=np.zeros_like(xs))
    got = _draw_answers(probs, draws, _outcome_rng(seed))
    want = per_pair_answers(probs, draws, _outcome_rng(seed).random(count))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_local_content_subcommand(tmp_path, capsys):
    doc = run_json(capsys, ["local-content", "--dist", "pr-box"])
    assert doc["result"]["lambda"]["value"] <= 1e-9
    assert doc["result"]["lv"] is None
    doc2 = run_json(capsys, ["local-content", "--dist", "chsh-quantum", "--seed", "0"])
    lam = doc2["result"]["lambda"]["value"]
    assert abs(lam - (2.0 - math.sqrt(2.0))) < 1e-6
    assert abs(doc2["result"]["lv"]["value"] - (2.0 / lam - 1.0)) < 1e-12
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
        ProbDist.from_assignments(f, g, N, K).table / 3.0
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
    assert main(["values", "--l", "2", "--n", "4"]) == 2
    assert main(["values", "--n", "5"]) == 2
    assert main(["referee-sim", "--l", "2", "--samples", "0"]) == 2
    assert main(["referee-sim", "--l", "4", "--samples", "10"]) == 3
    assert main(["values", "--game", str(tmp_path / "missing.json")]) == 2
    assert main(["local-content", "--dist", str(tmp_path / "nope.json")]) == 2
    assert main(["almost-activation", "--alpha", "2/3"]) == 2
    assert main(["superactivation", "--d", "8", "--p", "1.5"]) == 2
    capsys.readouterr()


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
        ["values", "--n", str(1 << 40)],
        ["kv-build", "--l", "1000000000000", "--out", "never-written.json"],
        ["referee-sim", "--l", "1000000000000"],
        ["referee-sim", "--n", "32"],
    ],
)
def test_block_length_refused_before_allocation(capsys, argv):
    assert main(argv) == 3
    assert "block length is limited" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kv-build", "--l", "4"],
        ["kv-build", "--n", "16", "--eta", "0.9", "--out", "never-written.json"],
        ["referee-sim", "--l", "4", "--samples", "0"],
        ["referee-sim", "--l", "4", "--eta", "auto"],
    ],
)
def test_dense_size_refused_by_the_game_table(capsys, argv):
    # kv_functional's guard is the one refusal, ahead of the eta range, --out and --samples
    assert main(argv) == 3
    assert "use quantum_value_kv_closed_form" in capsys.readouterr().err


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
    [("n", "x"), ("n", 4.5), ("N", "4"), ("K", None), ("eta", "x"), ("eta", None), ("eta", [0.25])],
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
    assert res["quantum"] == {"value": 0.5503208549231893, "method": "closed-form-validated"}
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
        "closed_form": {"value": 0.4375, "method": "closed-form-validated"},
    }


def test_local_content_result_pinned(capsys):
    argv = ["local-content", "--dist", "pr-box", "--variant", "local"]
    res = run_json(capsys, argv)["result"]
    assert res == {
        "distribution": "pr-box",
        "lambda": {"value": 0.6666666666666666, "method": "exact"},
        "variant": "remainder-local",
        "weights": [
            {"alice": [0, 0], "bob": [0, 0], "weight": 0.33333333333333326},
            {"alice": [0, 1], "bob": [1, 0], "weight": 0.3333333333333334},
            {"alice": [1, 0], "bob": [1, 1], "weight": 0.3333333333333334},
        ],
        "residual_weights": [{"alice": [0, 0], "bob": [1, 0], "weight": 0.33333333333333337}],
        "reconstruction_error": 1.1102230246251565e-16,
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
        "lv_note": "undefined (local weight 0)",
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
        ["local-content", "--dist", "chsh-quantum", "--restarts", "1000000000"],
    ],
)
def test_restarts_guard(capsys, argv):
    assert main(argv) == 3
    assert "restarts exceed the guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "l,eta",
    [(l, eta) for l in (1, 2, 3) for eta in (0.05, 0.25, 0.45, 0.5)] + [(3, asymptotic_eta(8))],
)
def test_game_file_bytes_match_json_dumps(tmp_path, capsys, l, eta):
    # the streaming writer gives exactly the bytes of one json.dumps call;
    # at eta = 1/2 every coefficient is the same number
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", str(l), "--eta", repr(eta), "--out", str(path)])
    game = kv_functional(build_hadamard_subgroup(l), eta)
    want = json.dumps(kv_game_to_json_per_entry(game), sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


@settings(max_examples=25, deadline=None)
@given(
    l=st.sampled_from([1, 2]),
    eta=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
)
def test_game_file_pieces_match_json_dumps(l, eta):
    doc = kv_game_to_json(kv_functional(build_hadamard_subgroup(l), eta))
    assert "".join(_game_file_pieces(doc)) == json.dumps(doc, sort_keys=True) + "\n"


@pytest.mark.parametrize("l,eta", [(1, "0.25"), (2, "0.1"), (3, "auto")])
def test_values_of_a_game_file_match_values_by_size(tmp_path, capsys, l, eta):
    path = tmp_path / "game.json"
    run_json(capsys, ["kv-build", "--l", str(l), "--eta", eta, "--out", str(path)])
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


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["values", "--l", "2", "--restarts", "0"], 2, "restarts must be >= 1"),
        (["values", "--l", "2", "--restarts", "1000000000"], 3, "restarts exceed the guard"),
        (["values", "--l", "4", "--restarts", "1001"], 3, "restarts exceed the guard"),
        (["local-content", "--dist", "pr-box", "--restarts", "-5"], 2, "restarts must be >= 1"),
        (["local-content", "--dist", "pr-box", "--restarts", "1001"], 3, "restarts exceed the guard"),
    ],
)
def test_restarts_checked_on_every_route(capsys, argv, code, message):
    # the heuristics check --restarts too, but only some routes reach them
    assert main(argv) == code
    assert message in capsys.readouterr().err


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
        ["referee-sim", "--l", "1", "--eta", "0.001", "--samples", "200", "--seed", "3"],
        ["local-content", "--dist", "pr-box", "--variant", "local"],
        ["local-content", "--dist", "chsh-quantum", "--restarts", "2"],
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
    # 200 wins of 200 has no empirical spread; the deviation is measured by
    # the spread of the exact value instead of reading infinite
    res = run_json(
        capsys,
        ["referee-sim", "--l", "1", "--eta", "0.001", "--samples", "200", "--seed", "3"],
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
