"""The sweep's plane-axis maxima and widest gaps against the numpy calls they replace.

A maximum and a difference are exact, so each must give the bytes
of the numpy call along the last axis, whatever its order or the layout it
reads.  The one freedom is the sign of a maximum that ties -0.0 with +0.0;
the volumes that check bytes hold zeros of one sign only, and a separate
case checks values there.
"""

import numpy as np
import pytest

from terraslope.simulate import _widest_gaps

#: Odd and even counts, and the default schedule's 64, 32 and 8.
PLANE_COUNTS = (2, 3, 5, 7, 8, 9, 17, 31, 32, 33, 64)

#: Few distinct values, so ties are common; infinities of both signs.
POOLS = {
    "negative-zero": np.array([-np.inf, -3.0, -1.0, -0.0, 2.0, np.inf]),
    "positive-zero": np.array([-np.inf, -1.0, 0.0, 0.5, np.inf]),
    "finite": np.array([-7.25, -1.0, -0.0, 1e-300, 3.0, 1e300]),
}


def volume(pool, m, seed):
    return np.random.default_rng(seed).choice(POOLS[pool], size=(7, 11, m))


def plane_major(values):
    """``values`` copied to an (M, rows, cols) buffer, as the sweep lays out a tile."""
    return np.ascontiguousarray(values.transpose(2, 0, 1))


def plane_major_max(values):
    """The largest logit as ``_oracle_probs`` takes it: a maximum over the outer axis."""
    return np.maximum.reduce(plane_major(values), axis=0)


@pytest.mark.parametrize("pool", list(POOLS))
@pytest.mark.parametrize("m", PLANE_COUNTS)
def test_plane_max_gives_the_reduction_bytes(pool, m):
    for seed in range(4):
        values = volume(pool, m, seed)
        got = plane_major_max(values)
        assert got.tobytes() == values.max(axis=2).tobytes()
        assert got.shape == (7, 11)


@pytest.mark.parametrize("m", PLANE_COUNTS)
def test_plane_max_of_mixed_signed_zeros_is_a_zero(m):
    values = np.random.default_rng(m).choice([-0.0, 0.0, -1.0], size=(7, 11, m))
    np.testing.assert_array_equal(plane_major_max(values), values.max(axis=2))


@pytest.mark.parametrize("order", ["as-drawn", "sorted"])
@pytest.mark.parametrize("m", PLANE_COUNTS)
def test_widest_gaps_give_the_diff_max_bytes(order, m):
    # planes are finite: equal infinities would give NaN gaps, whose sign
    # bit is not the same from one numpy loop to another
    for seed in range(4):
        planes = volume("finite", m, seed)
        if order == "sorted":
            planes.sort(axis=-1)
        want = np.diff(planes, axis=-1).max(axis=-1)
        for layout in (planes, plane_major(planes).transpose(1, 2, 0)):
            assert _widest_gaps(layout).tobytes() == want.tobytes()


def test_widest_gap_of_one_shared_vector():
    planes = np.array([0.0, 1.0, 3.5, 4.0])
    assert _widest_gaps(planes).shape == ()
    assert float(_widest_gaps(planes)) == 2.5
