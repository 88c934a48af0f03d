"""Shared fixtures.

The half-plane checks share one large grid (spacing 1/16 in space, 2**-17
in frequency) because its box is wide enough to hold the slowly decaying
Poisson witness.  Building the spectra costs a few seconds, so everything
here is session scoped.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from abelharm import (
    KernelSpec,
    SupportSpec,
    hardy_split,
    inverse_ft,
    make_grid,
    sample_function,
    sample_kernel,
    sample_spectrum,
)

# property tests draw the same examples on every run, like the package's
# own computations; some examples build lattices, so no per-example deadline
settings.register_profile("abelharm", derandomize=True, deadline=None)
# the same examples and more of them, for kernels that must keep every bit:
# pytest --hypothesis-profile=abelharm-heavy
settings.register_profile("abelharm-heavy", settings.get_profile("abelharm"), max_examples=2000)
settings.load_profile("abelharm")


@pytest.fixture(scope="session")
def big_space_grid():
    return make_grid(1, 65536.0, 2 ** 21)


@pytest.fixture(scope="session")
def big_freq_grid(big_space_grid):
    return big_space_grid.reciprocal()


@pytest.fixture(scope="session")
def exp_spectrum(big_freq_grid):
    """One-sided exponential spectrum, the canonical upper half-plane witness."""
    return sample_spectrum(
        big_freq_grid, lambda xi: np.exp(-2.0 * math.pi * xi), SupportSpec.nonneg())


@pytest.fixture(scope="session")
def exp_boundary(exp_spectrum):
    return inverse_ft(exp_spectrum)


@pytest.fixture(scope="session")
def poisson_big(big_space_grid):
    return sample_kernel(big_space_grid, KernelSpec("poisson", 1.0, 1))


@pytest.fixture(scope="session")
def poisson_split(poisson_big):
    return hardy_split(poisson_big)


@pytest.fixture(scope="session")
def gauss_big(big_space_grid):
    return sample_function(big_space_grid, lambda x: np.exp(-math.pi * x * x))


@pytest.fixture(scope="session")
def gauss_split(gauss_big):
    return hardy_split(gauss_big)
