from __future__ import annotations

import numpy as np
import pytest

from deeptherm.dual_tensors import build_w


@pytest.fixture(scope="session")
def w2():
    """Unit-isometry W tensor at the workhorse n_a=2, as the thermodynamic-limit routes build it."""
    return build_w(2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240808)
