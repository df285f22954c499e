import numpy as np
import pytest

from meanfield_hmc import wasserstein1_1d


def test_w1_hand_computed_pair():
    # sorted: (0, 1, 3) against (-1, 0.5, 2), so |diffs| = 1, 0.5, 1
    a, b = [3.0, 0.0, 1.0], [0.5, -1.0, 2.0]
    assert wasserstein1_1d(a, b) == 2.5 / 3
    assert wasserstein1_1d(b, a) == 2.5 / 3


def test_w1_unequal_counts_take_a_stride_subsample_of_the_larger():
    # six against three: the larger keeps entries 0, 2 and 4 in its given
    # order, here (10, 20, 30), against (11, 19, 33)
    big = [10.0, 99.0, 20.0, 99.0, 30.0, 99.0]
    small = [33.0, 11.0, 19.0]
    assert wasserstein1_1d(big, small) == 5.0 / 3
    assert wasserstein1_1d(small, big) == 5.0 / 3


@pytest.mark.parametrize("bad", [[], [1.0, np.nan], [np.inf, 0.0],
                                 np.zeros((3, 1)), np.zeros((3, 2))])
def test_w1_rejects_empty_non_finite_and_2d_input(bad):
    with pytest.raises(ValueError):
        wasserstein1_1d(bad, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        wasserstein1_1d([0.0, 1.0, 2.0], bad)
