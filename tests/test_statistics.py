import tracemalloc

import numpy as np
import pytest

from conftest import read_only, reference_gaussian_kde_on_grid
from meanfield_hmc import (gaussian_kde_on_grid, kde_relative_error,
                           silverman_bandwidth, wasserstein1_1d)
from meanfield_hmc.statistics import KDE_MIN_SAMPLES


def test_w1_hand_computed_pair():
    # sorted: (0, 1, 3) against (-1, 0.5, 2), so |diffs| = 1, 0.5, 1
    a, b = [3.0, 0.0, 1.0], [0.5, -1.0, 2.0]
    assert wasserstein1_1d(a, b) == 2.5 / 3
    assert wasserstein1_1d(b, a) == 2.5 / 3


def test_w1_refuses_ensembles_of_unequal_size():
    with pytest.raises(ValueError, match="ensembles must be of one size, got 6 and 3"):
        wasserstein1_1d(np.arange(6.0), np.arange(3.0))
    with pytest.raises(ValueError, match="got 3 and 6"):
        wasserstein1_1d(np.arange(3.0), np.arange(6.0))


@pytest.mark.parametrize("bad", [[], [1.0, np.nan], [np.inf, 0.0],
                                 np.zeros((3, 1)), np.zeros((3, 2))])
def test_w1_rejects_empty_non_finite_and_2d_input(bad):
    with pytest.raises(ValueError):
        wasserstein1_1d(bad, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        wasserstein1_1d([0.0, 1.0, 2.0], bad)


GRID_401 = np.linspace(-4.0, 4.0, 401)
GRID_ODD = np.linspace(-3.0, 5.0, 37)


# 40 samples fill less than one block of kernel rows, 3 * 64 + 17 several
# blocks and a ragged tail; 16383 to 40,000 straddle the 16384-sample chunks
# whose partial sums fix the rounding
@pytest.mark.parametrize("grid", [GRID_401, GRID_ODD], ids=["grid401", "grid37"])
@pytest.mark.parametrize("n", [40, 3 * 64 + 17, 16383, 16384, 16385, 40000])
def test_kde_is_bit_identical_to_its_expression_form(n, grid):
    x = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(gaussian_kde_on_grid(x, grid),
                          reference_gaussian_kde_on_grid(x, grid))


def test_kde_accepts_read_only_inputs_and_leaves_them_unchanged():
    x0 = np.random.default_rng(5).standard_normal(300)
    x, grid = read_only(x0, GRID_ODD)
    assert np.array_equal(gaussian_kde_on_grid(x, grid),
                          reference_gaussian_kde_on_grid(x0, GRID_ODD))
    assert np.array_equal(x, x0) and np.array_equal(grid, GRID_ODD)


def test_kde_memory_stays_flat_in_the_sample_count():
    # the expression form peaks at about 150 MB here: three (16384, 401)
    # float temporaries at once
    x = np.random.default_rng(6).standard_normal(40000)
    tracemalloc.start()
    try:
        gaussian_kde_on_grid(x, GRID_401)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("samples", [[0.5], [2.0, 2.0, 2.0]], ids=["one", "constant"])
def test_degenerate_samples_have_no_bandwidth(samples):
    with pytest.raises(ValueError, match="zero variance or fewer than two samples"):
        silverman_bandwidth(samples)
    with pytest.raises(ValueError, match="zero variance or fewer than two samples"):
        gaussian_kde_on_grid(samples, GRID_ODD)


@pytest.mark.parametrize("grid, message", [
    (np.zeros((3, 4)), "one-dimensional grid"),
    (np.zeros((401, 1)), "one-dimensional grid"),
    ([], "empty grid"),
])
def test_kde_rejects_bad_grids(grid, message):
    with pytest.raises(ValueError, match=message):
        gaussian_kde_on_grid([0.0, 1.0, 3.0], grid)


def test_kde_relative_error_needs_enough_samples():
    x = np.random.default_rng(7).standard_normal(KDE_MIN_SAMPLES)
    assert 0.0 < kde_relative_error(x) < 1.0
    with pytest.raises(ValueError, match=f"at least {KDE_MIN_SAMPLES} samples"):
        kde_relative_error(x[:-1])
