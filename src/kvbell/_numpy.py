"""numpy, imported on first use: every kvbell module takes `from ._numpy import np`.

Unless numpy is already imported, np is a stdlib LazyLoader module registered
as "numpy", whose __init__ runs on the first attribute access.  So commands
that never touch an array (superactivation, almost-activation) never pay for
numpy's import, most of a bare `import kvbell.cli`.  Keep that import form:
in Python 3.11 `import numpy` reads the lazy module's __spec__, which loads it.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
