"""The package's public name list and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import kvbell


def test_all_names_resolve_without_duplicates():
    assert len(kvbell.__all__) == len(set(kvbell.__all__))
    missing = [name for name in kvbell.__all__ if not hasattr(kvbell, name)]
    assert missing == []


def test_cli_import_leaves_scipy_unloaded():
    # kvbell solves its own LPs; importing scipy.optimize adds about 0.7 s and 48 MiB per command
    src = str(Path(kvbell.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, kvbell.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
