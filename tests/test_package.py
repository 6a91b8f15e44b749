"""The package's public name list, what importing it loads, and that the
commands run every public function."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvbell
from kvbell.cli import main
from kvbell.kvgame import BoundConstants, RefereeSamples
from kvbell.localpolytope import LinearProgram, LocalContentResult, LPResult
from kvbell.states import StateExpansion
from kvbell.values import ExpansionValue, SeesawResult

# small runs of every command that together reach each public function
COMMANDS = [
    ["kv-build", "--l", "2", "--out", "{dir}/game.json"],
    ["values", "--l", "2"],
    ["values", "--l", "3", "--restarts", "2"],
    ["superactivation", "--d", "2", "--k", "1:2"],
    ["superactivation", "--d", "8", "--k", "2"],
    ["almost-activation", "--d-grid", "4,8"],
    ["referee-sim", "--l", "2", "--samples", "1000"],
    ["local-content", "--dist", "pr-box"],
    ["local-content", "--dist", "chsh-quantum", "--variant", "local"],
]


def test_all_names_resolve_without_duplicates():
    assert len(kvbell.__all__) == len(set(kvbell.__all__))
    missing = [name for name in kvbell.__all__ if not hasattr(kvbell, name)]
    assert missing == []


def _fresh_python(code: str) -> str:
    """stdout of code run by a new interpreter that imports kvbell from this tree."""
    src = str(Path(kvbell.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # kvbell solves its own LPs; importing scipy.optimize adds about 0.7 s and 48 MiB per command
    code = "import sys, kvbell.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _fresh_python(code) == "[]"


def test_cli_import_leaves_unused_stdlib_unloaded():
    # dataclasses brings inspect, ast, dis and tokenize; fractions brings decimal.
    # Only the commands that do rational arithmetic import fractions
    unused = ["dataclasses", "inspect", "fractions", "decimal"]
    code = f"import sys, kvbell.cli; print([m for m in {unused!r} if m in sys.modules])"
    assert _fresh_python(code) == "[]"


# prints, after each command, whether a module whose name starts with {prefix!r}
# has been loaded
MODULE_PROBE = """
import contextlib, io, sys
from kvbell.cli import main

for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(any(m.startswith({prefix!r}) for m in sys.modules))
"""


def test_formula_commands_never_load_numpy():
    # numpy's import was most of `import kvbell.cli`; kvbell._numpy defers it to first use.
    # values does load it, which shows the probe sees a load
    commands = [
        ["superactivation", "--d", "8", "--k", "1:8"],
        ["superactivation", "--d", "2", "--k", "1:3"],
        ["almost-activation", "--d-grid", "4,8"],
        ["values", "--l", "2"],
    ]
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="numpy.")).split()
    assert loaded == ["False", "False", "False", "True"]


def test_local_content_never_loads_numpy_random(tmp_path):
    # chsh-quantum is Tsirelson's box from its formula, so no local-content route
    # seeds a generator; referee-sim does, which shows a load
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"N": 2, "K": 2, "table": np.full((2, 2, 2, 2), 0.25).tolist()}))
    commands = [
        ["local-content", "--dist", "pr-box"],
        ["local-content", "--dist", "chsh-quantum", "--variant", "free"],
        ["local-content", "--dist", "chsh-quantum", "--variant", "local"],
        ["local-content", "--dist", str(dist), "--variant", "local"],
        ["referee-sim", "--l", "2", "--samples", "10"],
    ]
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="numpy.random")).split()
    assert loaded == ["False", "False", "False", "False", "True"]


def test_values_never_loads_numpy_random(tmp_path):
    # the classical search draws its starts from the stdlib random.Random, which the
    # interpreter has already imported; numpy's generators are left unloaded
    game = str(tmp_path / "game.json")
    commands = [
        ["values", "--l", "2"],
        ["values", "--l", "3", "--restarts", "2"],
        ["kv-build", "--l", "3", "--out", game],
        ["values", "--game", game],
    ]
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="numpy.random")).split()
    assert loaded == ["False", "False", "False", "False"]


def test_no_command_loads_dataclasses(tmp_path):
    commands = [[part.format(dir=tmp_path) for part in argv] for argv in COMMANDS]
    commands.append(["values", "--game", str(tmp_path / "game.json")])
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="dataclasses")).split()
    assert loaded == ["False"] * len(commands)


def test_formula_commands_never_load_inspect():
    commands = [
        ["superactivation", "--d", "8", "--k", "1:8"],
        ["superactivation", "--d", "2", "--k", "1:3"],
        ["almost-activation", "--d-grid", "4,8", "--delta", "2"],
    ]
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="inspect")).split()
    assert loaded == ["False"] * len(commands)


def test_fractions_load_only_for_rational_arithmetic(tmp_path):
    # the exact columns of superactivation at d**k <= 8 are rational, which shows a load
    game = str(tmp_path / "game.json")
    commands = [
        ["values", "--l", "2"],
        ["kv-build", "--l", "2", "--out", game],
        ["values", "--game", game],
        ["referee-sim", "--l", "2", "--samples", "10"],
        ["local-content", "--dist", "pr-box"],
        ["local-content", "--dist", "chsh-quantum", "--variant", "local"],
        ["superactivation", "--d", "8", "--k", "1:8"],
    ]
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="fractions")).split()
    assert loaded == ["False"] * 6 + ["True"]


def test_game_file_commands_never_load_numpy_ma(tmp_path):
    # np.unique loads numpy.ma (numpy 2.4); the trailing dot keeps numpy.matrixlib out
    game = str(tmp_path / "game.json")
    commands = [["kv-build", "--l", "3", "--out", game], ["values", "--game", game]]
    loaded = _fresh_python(MODULE_PROBE.format(commands=commands, prefix="numpy.ma.")).split()
    assert loaded == ["False", "False"]


# the result records are plain classes with __slots__ that take their fields by
# keyword or by position, in this order
RECORDS = [
    (BoundConstants, {"classical": 2.0, "entangled": 3.0}),
    (RefereeSamples, {"x": np.arange(3), "y": np.arange(3), "z": np.zeros(3)}),
    (
        LinearProgram,
        {"objective": np.ones(2), "rows": np.ones((1, 2)), "rhs": np.ones(1), "equality": False},
    ),
    (LPResult, {"value": 1.0, "x": np.ones(2), "dual": np.ones(1)}),
    (
        LocalContentResult,
        {
            "lam": 0.5,
            "variant": "remainder-free",
            "weights": [],
            "residual_weights": None,
            "residual_distribution": None,
            "reconstruction_error": 0.0,
        },
    ),
    (StateExpansion, {"d": 2, "k": 1, "p": 0.5, "terms": ((0.5, ("MES",)), (0.5, ("MIX",)))}),
    (ExpansionValue, {"total": 0.5, "mes_term": 0.25}),
    (SeesawResult, {"value": 0.75, "alice": [], "bob": []}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_take_fields_by_keyword_and_position(cls, fields):
    assert cls.__slots__ == tuple(fields)
    for record in (cls(**fields), cls(*fields.values())):
        assert not hasattr(record, "__dict__")
        # float64 arrays pass LinearProgram's conversion as they are
        assert all(getattr(record, name) is value for name, value in fields.items())


def test_referee_samples_length_counts_rounds():
    assert len(RefereeSamples(x=np.arange(5), y=np.arange(5), z=np.zeros(5))) == 5


def test_an_imported_numpy_is_used_as_it_is():
    import numpy

    from kvbell import cli, kernels, kvgame, localpolytope, states, values

    for module in (cli, kernels, kvgame, localpolytope, states, values):
        assert module.np is numpy


def test_commands_run_every_public_function(tmp_path, capsys):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main([part.format(dir=tmp_path) for part in argv]) for argv in COMMANDS]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)
    public = [getattr(kvbell, name) for name in kvbell.__all__]
    assert [f.__name__ for f in public if inspect.isfunction(f) and f.__code__ not in called] == []
