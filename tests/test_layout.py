"""Plane-major tile volumes: the layout the kernels build and the bytes it must keep.

The plane kernels build (M, rows, cols) buffers and hand out (rows, cols, M)
views, and the matcher's softmax takes its logits plane-major.  Elementwise
steps and maxima are exact, so every result must keep the bytes of the
(rows, cols, M) code: the softmax those of ``reference_oracle_probs``, and
the public whole-volume partitions the digests recorded before the layout
changed.
"""

import hashlib

import numpy as np
import pytest

from terraslope import HeightGrid, PixelRanges, SlopeFactors
from terraslope import equal_partition, slope_guided_partition
from terraslope.partition import _equal_planes, _guided_planes, _split_counts
from terraslope.simulate import _oracle_probs

from oracles import reference_oracle_probs

PLANE_COUNTS = (2, 3, 5, 8, 9, 33, 64)
SHAPE = (6, 13)
NODATA = -9999.0

#: sha256 of the public volumes' ``planes.tobytes()`` for :func:`public_volumes`,
#: recorded with the (rows, cols, M) kernels.
VOLUME_DIGESTS = {
    2: (
        "4cf20536fe5699968d581cf80859d0ae5a3127b56581bb256d70ba910147500a",
        "ca9a57779b6f86663c676c5a5d8efd1cee3b0f7c13c2a0b009bc12afd4b013ed",
    ),
    3: (
        "b27d7c4c9bffecc03547cba4d7b707122cff8ae811a9554b4a67e7298f53e4f8",
        "006f442d7f83b483ae9e34efed77c62a99414161cebd098c2e065634af929134",
    ),
    5: (
        "18bfa0fd235853316ae1bd4c1663abfe4bf973bae7cb4f8812f470317b057531",
        "b33b513451787b0be61fc455789ba9e1e94614763dfa68499e9fd0c1470f02f5",
    ),
    8: (
        "1d57339ff50ecb1edee8bb882cfa1a4920d8323165ae1b09440b4f65625543e7",
        "1ffddc726ce1b30153741740d7f649e4d36980aac65d8da48a48938c9b81f272",
    ),
    9: (
        "8b9f7f5ee6c1be5bf382c754aec0e844d82dc685569bbca38be766d83ad99301",
        "715d0a96b568a204d7a2a6cadc143fed749b0048b3f82fa4d564ef74a483050d",
    ),
    33: (
        "c0db31137e5f1d0867ff85e3bc0743a80115fbcae63a5bf50c17dd9798f8c67d",
        "1fe167e99e1c50c14f936cc24339fc172b15c487689666957bb58f36dc8da36c",
    ),
    64: (
        "f4a495b5fb15945d448af964a3fbc943c3fc3f4b06ba5c8ce801c4bfc36c0949",
        "522d1486158cbc1c4b2088fc16c1f0ad83262249a53923109474f414a82b077d",
    ),
}


def tile_inputs(m, seed):
    """Center, low, high and lower-subrange count of a tile, some ranges degenerate."""
    rng = np.random.default_rng(seed)
    center = rng.uniform(-50.0, 150.0, SHAPE)
    spread = rng.uniform(0.0, 40.0, SHAPE)
    spread[0, :3] = 0.0
    rise = rng.uniform(0.0, 5.0, SHAPE) * (rng.random(SHAPE) > 0.2)
    drop = rng.uniform(0.0, 5.0, SHAPE) * (rng.random(SHAPE) > 0.2)
    return center, center - spread, center + spread, _split_counts(m, drop, rise), rise, drop


@pytest.mark.parametrize("temperature", [2.0, 0.05])
@pytest.mark.parametrize("m", PLANE_COUNTS)
def test_oracle_probs_give_the_reference_bytes(m, temperature):
    center, low, high, n_below, _, _ = tile_inputs(m, m)
    rng = np.random.default_rng(m + 1)
    valid = rng.random(SHAPE) > 0.15
    target = np.where(valid, center, NODATA) + rng.normal(0.0, 5.0, SHAPE)
    guided = _guided_planes(center, low, high, n_below, m)
    layouts = {
        "shared vector": _equal_planes(low.min(), high.max(), m),
        "plane-major view": guided,
        "C-order": np.ascontiguousarray(guided),
    }
    for name, planes in layouts.items():
        before = planes.tobytes()
        got = _oracle_probs(planes, target, temperature, valid)
        want = reference_oracle_probs(planes, target, temperature, valid)
        assert got.shape == SHAPE + (m,), name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
        assert planes.tobytes() == before, name  # the planes are left alone


@pytest.mark.parametrize("m", PLANE_COUNTS)
def test_kernel_plane_slices_are_contiguous(m):
    center, low, high, n_below, _, _ = tile_inputs(m, 0)
    for planes in (_guided_planes(center, low, high, n_below, m), _equal_planes(low, high, m)):
        assert planes.shape == SHAPE + (m,)
        for k in range(m):
            assert planes[:, :, k].flags.c_contiguous


def public_volumes(m):
    """``equal_partition`` and ``slope_guided_partition`` of one grid, some pixels invalid."""
    center, low, high, _, rise, drop = tile_inputs(m, 100 + m)
    mask = np.random.default_rng(m).random(SHAPE) > 0.2
    ranges = PixelRanges(low=low, high=high, mask=mask)
    height = HeightGrid(np.where(mask, center, NODATA), nodata=NODATA)
    factors = SlopeFactors(rise=rise, drop=drop)
    return equal_partition(ranges, m), slope_guided_partition(height, ranges, factors, m)


@pytest.mark.parametrize("m", PLANE_COUNTS)
def test_public_volumes_keep_their_layout_and_bytes(m):
    volumes = public_volumes(m)
    for volume in volumes:
        assert volume.planes.shape == SHAPE + (m,)
        assert volume.planes.flags.c_contiguous
    digests = tuple(hashlib.sha256(v.planes.tobytes()).hexdigest() for v in volumes)
    assert digests == VOLUME_DIGESTS[m]
