import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flowrisk.linalg import Spectrum, attach_response, design_decompose


@pytest.fixture
def small_instance():
    """A well-conditioned 40x6 instance with its response attached."""
    rng = np.random.default_rng(314)
    x = rng.standard_normal((40, 6))
    beta0 = rng.standard_normal(6)
    y = x @ beta0 + 0.5 * rng.standard_normal(40)
    design = attach_response(design_decompose(x), x, y)
    return design, x, y, beta0


@pytest.fixture
def rank_deficient_instance():
    """A 6 x 10 instance (four null eigenvalues) with its response attached."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 10))
    y = rng.standard_normal(6)
    design = attach_response(design_decompose(x), x, y)
    return design, x, y, rng.standard_normal(10)


@pytest.fixture
def simple_spectrum():
    return Spectrum(np.array([0.25, 0.5, 1.0, 2.0]))
