"""Command-line behaviour: exit codes, JSON schemas, reproducibility, and
method tags on every computed number."""

import json
import math

import numpy as np
import pytest

from kvbell.cli import main

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
    game = json.loads(game_file.read_text())
    assert game["n"] == 4 and game["K"] == 4 and game["N"] == 4
    assert len(game["entries"]) == 256

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
