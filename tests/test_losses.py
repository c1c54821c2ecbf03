"""Height-map and direction-code losses on constructed stage bundles."""

import numpy as np
import pytest

from terraslope import HeightGrid, direction_loss, height_loss, overall_loss
from terraslope.losses import (
    loss_report,
    stage_direction_loss,
    stage_height_loss,
    stage_weights,
)
from terraslope.raster import SlopeDirectionGrid
from terraslope.slope import slope_direction_map

from conftest import NODATA, random_grid


def const_grid(value, shape=(3, 3)):
    return HeightGrid(np.full(shape, float(value)))


def const_dirs(code, shape=(3, 3)):
    return SlopeDirectionGrid(
        codes=np.full(shape, code, dtype=int), mask=np.ones(shape, bool)
    )


class TestHeightLoss:
    def test_zero_when_equal(self):
        stages = [const_grid(5), const_grid(7), const_grid(9)]
        assert height_loss(stages, stages) == 0.0

    def test_single_stage_constant_error(self):
        pred = [const_grid(12)]
        gt = [const_grid(10)]
        assert height_loss(pred, gt, weights=(1.0,)) == 2.0

    def test_weighted_sum_over_stages(self):
        pred = [const_grid(1), const_grid(1), const_grid(1)]
        gt = [const_grid(0), const_grid(0), const_grid(0)]
        assert height_loss(pred, gt, weights=(0.5, 1.0, 2.0)) == 3.5

    def test_zero_iff_exact_match(self, rng):
        gt = [random_grid(rng, 4, 4) for _ in range(3)]
        assert height_loss(gt, gt) == 0.0
        bumped = [gt[0], gt[1].with_values(gt[1].values + 1e-9), gt[2]]
        assert height_loss(bumped, gt) > 0.0

    def test_translation_detecting(self, rng):
        gt = [random_grid(rng, 4, 4) for _ in range(3)]
        base = height_loss(gt, gt, weights=(0.5, 1.0, 2.0))
        shifted = [gt[0], gt[1].with_values(gt[1].values + 3.0), gt[2]]
        assert height_loss(shifted, gt, weights=(0.5, 1.0, 2.0)) == pytest.approx(
            base + 1.0 * 3.0
        )

    def test_mean_over_joint_valid_only(self):
        pred = HeightGrid(np.array([[1.0, 100.0]]), nodata=NODATA)
        gt = HeightGrid(np.array([[0.0, NODATA]]), nodata=NODATA)
        assert stage_height_loss(pred, gt) == 1.0

    def test_empty_stage_rejected(self):
        pred = [HeightGrid(np.array([[NODATA, 1.0]]), nodata=NODATA)]
        gt = [HeightGrid(np.array([[1.0, NODATA]]), nodata=NODATA)]
        with pytest.raises(ValueError, match="jointly valid"):
            height_loss(pred, gt, weights=(1.0,))

    def test_non_positive_weight_rejected(self):
        g = [const_grid(1)]
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                height_loss(g, g, weights=(weight,))

    def test_smooth_variant_below_transition(self):
        pred = [const_grid(0.5)]
        gt = [const_grid(0.0)]
        # |e| = 0.5 < 1 m: smooth form gives e^2 / 2
        assert height_loss(pred, gt, weights=(1.0,), smooth=True) == 0.125
        # above the transition the smooth form is |e| - 0.5
        pred2 = [const_grid(3.0)]
        assert height_loss(pred2, gt, weights=(1.0,), smooth=True) == 2.5

    @pytest.mark.parametrize(
        "loss",
        [lambda p, g: height_loss([p], [g]), lambda p, g: loss_report([p], g)],
        ids=["height_loss", "loss_report"],
    )
    def test_overflowing_error_raises_without_a_warning(self, loss):
        pred = HeightGrid(np.array([[1.7e308, 0.0]]))
        gt = HeightGrid(np.array([[-1.7e308, 0.0]]))
        message = "^mean absolute height error is beyond the float64 range$"
        with pytest.raises(ValueError, match=message):
            loss(pred, gt)

    def test_smooth_large_error_stays_finite_without_a_warning(self):
        # the unused quadratic branch of a 1e200 error overflows
        assert height_loss([const_grid(1e200)], [const_grid(0.0)], smooth=True) == 2e200


class TestDirectionLoss:
    def test_zero_when_identical(self):
        d = [const_dirs(3)] * 3
        assert direction_loss(d, d) == 0.0

    def test_constant_code_gap(self):
        pred = [const_dirs(4)]
        gt = [const_dirs(0)]
        assert direction_loss(pred, gt, weights=(1.0,)) == 16.0

    def test_single_differing_pixel(self):
        codes = np.full((2, 2), 3)
        pred = SlopeDirectionGrid(codes=codes, mask=np.ones((2, 2), bool))
        gt_codes = codes.copy()
        gt_codes[0, 0] = 5
        gt = SlopeDirectionGrid(codes=gt_codes, mask=np.ones((2, 2), bool))
        assert direction_loss([pred], [gt], weights=(1.0,)) == 1.0

    @pytest.mark.parametrize(
        "a,b,cost",
        [(7, 1, 36.0), (5, 3, 4.0), (0, 8, 64.0), (2, 6, 16.0)],
        ids=["up-down", "left-right", "lower-right-upper-left", "lower-left-upper-right"],
    )
    def test_opposite_flips_cost_by_code_distance(self, a, b, cost):
        # (3 * d_dr + d_dc) ** 2: the loss is anisotropic
        assert stage_direction_loss(const_dirs(a, (1, 1)), const_dirs(b, (1, 1))) == cost

    def test_translation_invariance_through_directions(self, rng):
        h = random_grid(rng, 5, 5)
        shifted = h.with_values(h.values + 42.0)
        pred = [slope_direction_map(h)] * 3
        pred_shifted = [slope_direction_map(shifted)] * 3
        gt = [slope_direction_map(random_grid(rng, 5, 5))] * 3
        assert direction_loss(pred, gt) == direction_loss(pred_shifted, gt)

    def test_non_negative(self, rng):
        for _ in range(10):
            a = [slope_direction_map(random_grid(rng, 4, 4))] * 3
            b = [slope_direction_map(random_grid(rng, 4, 4))] * 3
            assert direction_loss(a, b) >= 0.0

    def test_integer_mean_has_the_bits_of_the_float_mean(self, rng):
        # random codes under masks with holes, some sharing one mask, some
        # uint8: the integer sum over the count rounds as numpy's float mean
        for i in range(300):
            shape = tuple(int(n) for n in rng.integers(1, 40, size=2))
            masks = [rng.random(shape) >= rng.uniform(0.0, 0.7) for _ in range(2)]
            for m in masks:
                m.flat[0] = True
            if i % 3 == 0:
                masks[1] = masks[0]
            codes = [rng.integers(0, 9, size=shape) for _ in range(2)]
            if i % 4 == 0:
                codes[0] = codes[0].astype(np.uint8)
            pred, gt = (SlopeDirectionGrid(codes=c, mask=m) for c, m in zip(codes, masks))
            joint = masks[0] & masks[1]
            diff = codes[0][joint].astype(np.float64) - codes[1][joint]
            want = float((diff * diff).mean())
            assert stage_direction_loss(pred, gt).hex() == want.hex(), i


@pytest.mark.parametrize(
    "stage_loss,make",
    [(stage_height_loss, const_grid), (stage_direction_loss, const_dirs)],
    ids=["height", "direction"],
)
def test_mismatched_stages_read_like_evaluate(stage_loss, make):
    message = r"^estimate \(3, 3\) and ground truth \(2, 2\) differ$"
    with pytest.raises(ValueError, match=message):
        stage_loss(make(1), make(1, shape=(2, 2)))


class TestStageWeights:
    def test_default_three_stage_weights(self):
        assert stage_weights(3) == (0.5, 1.0, 2.0)

    def test_finest_weighs_two_and_each_coarser_half(self):
        assert stage_weights(1) == (2.0,)
        assert stage_weights(4) == (0.25, 0.5, 1.0, 2.0)

    def test_defaults_follow_the_stage_count(self):
        pred = [const_grid(1), const_grid(1)]
        gt = [const_grid(0), const_grid(0)]
        assert height_loss(pred, gt) == 1.0 + 2.0
        assert direction_loss([const_dirs(2)] * 2, [const_dirs(0)] * 2) == 4.0 * 3.0


class TestLossReport:
    def test_totals_match_default_weighted_losses(self, rng):
        pred = [random_grid(rng, 4, 4) for _ in range(4)]
        gt = random_grid(rng, 4, 4)
        pred_dirs = [slope_direction_map(g) for g in pred]
        gt_dir = slope_direction_map(gt)
        per_stage = [
            (stage_height_loss(p, gt), stage_direction_loss(pd, gt_dir))
            for p, pd in zip(pred, pred_dirs)
        ]
        report = loss_report(pred, gt)
        assert report.height_loss == height_loss(pred, [gt] * 4)
        assert report.direction_loss == direction_loss(pred_dirs, [gt_dir] * 4)
        assert report.overall == overall_loss(report.height_loss, report.direction_loss)
        assert report.per_stage == tuple(per_stage)


class TestOverallLoss:
    def test_zero(self):
        assert overall_loss(0.0, 0.0) == 0.0

    def test_default_weights(self):
        assert overall_loss(2.0, 4.0) == 3.0

    def test_projection(self):
        assert overall_loss(2.0, 4.0, l1=1.0, l2=0.0) == 2.0
