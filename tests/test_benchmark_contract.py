"""What the benchmark under perfbench/ needs from the package.

perfbench/gen.py builds the benchmark's inputs with library calls, and
perfbench/tracing.py wraps the layer functions named in its LAYERS table to
time them.  A package change that removes or renames one of those names
breaks `perfbench/run.py --trace 1`; these tests catch it first.
"""

import importlib
import inspect

import gen
import numpy as np
import tracing

import kvbell.kvgame


def test_gen_imports_and_builds_its_inputs():
    env = gen.environment()
    assert env["kernels_active_backend"] == "numpy"
    assert gen.kv34_table().shape == (3, 3, 4, 4)
    table = gen.random_mes_table(np.random.default_rng([0, 0]), 3, 3)
    assert table.shape == (3, 3, 3, 3)


def _resolve(layer):
    module, name = layer.split(".")
    return getattr(importlib.import_module(f"kvbell.{module}"), name, None)


def test_every_traced_layer_is_a_kvbell_function():
    for layer in tracing.LAYERS:
        assert inspect.isfunction(_resolve(layer)), layer


def test_traced_commands_fill_the_layer_counters(tmp_path):
    # the counters read call arguments (solve_lp's rows, for one) and return
    # values (kv_game_to_json's entries), so a signature change breaks them
    # even when every name still resolves; kv-build writes its file from the
    # table's columns and superactivation evaluates the closed form, so
    # kv_game_to_json and kv_value_for_expansion are called here directly
    game = tmp_path / "game.json"
    commands = (
        ["superactivation", "--d", "2", "--k", "1:2"],
        ["local-content", "--dist", "pr-box"],
        ["kv-build", "--l", "2", "--out", str(game)],
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        for argv in commands:
            code, out, err = tracer.run(argv)
            assert code == 0, err
        table = kvbell.kvgame.build_hadamard_subgroup(2)
        kvbell.kvgame.kv_game_to_json(kvbell.kvgame.kv_functional(table, 0.25))
        for k in (1, 2):
            kvbell.values.kv_value_for_expansion(kvbell.states.expand_tensor_power(2, 0.5, k), 0.25)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["cli.commands"] == 3
    assert totals["kvgame.kv_game_to_json.entries"] == 256
    assert totals["cli.kv_build.file_bytes"] == game.stat().st_size
    assert totals["values.kv_value_for_expansion.calls"] == 2
    # the PR box fits no deterministic pair, so its free LP has no columns
    assert totals["localpolytope.solve_lp.rows"] == 16
    assert totals["localpolytope.solve_lp.cols"] == 0
