import sys
from pathlib import Path

import numpy as np
import pytest

# perfbench/ is a directory of scripts, not a package; tests that check what the
# benchmark relies on import its modules (gen, tracing) by their file names.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.PCG64(20240817))
