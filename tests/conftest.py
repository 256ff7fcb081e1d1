import os
from pathlib import Path

import numpy as np
import pytest

# the CLI tests run `python -m modkit` in child processes, which do not see
# pytest's `pythonpath` setting; export the source tree to them
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
