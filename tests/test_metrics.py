"""DSM metric suite vs a scalar transcription."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraslope import HeightGrid, evaluate, format_report, mvs3d_report
from terraslope.metrics import report_items, write_report_csv

from conftest import NODATA, random_grid
from oracles import scalar_metrics


def grid(values):
    return HeightGrid(np.asarray(values, dtype=float), nodata=NODATA)


class TestEvaluate:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_threshold(self, rng, bad):
        g = random_grid(rng, 3, 3)
        with pytest.raises(ValueError, match=f"^threshold {bad} is not finite$"):
            evaluate(g, g, thresholds=(1.0, bad))

    def test_perfect_estimate(self, rng):
        g = random_grid(rng, 5, 5)
        r = evaluate(g, g, thresholds=(2.5, 7.5))
        assert r.mae == 0.0 and r.rmse == 0.0 and r.median_abs == 0.0
        assert r.pct_below == {2.5: 100.0, 7.5: 100.0}
        assert r.completeness == 100.0

    def test_hand_computed_2x2(self):
        est = grid([[1.0, 2.0], [3.0, 4.0]])
        gt = grid([[1.0, 1.0], [3.0, 5.0]])
        r = evaluate(est, gt, thresholds=(2.5,))
        assert r.mae == 0.5
        assert r.rmse == pytest.approx(np.sqrt(0.5), abs=1e-15)
        assert r.pct_below[2.5] == 100.0
        assert r.median_abs == 0.5
        assert r.joint_valid_count == 4

    def test_strict_threshold_inequality(self):
        est = grid([[0.0, 3.0]])
        gt = grid([[0.0, 0.0]])
        r = evaluate(est, gt, thresholds=(2.5, 7.5, 3.0))
        assert r.pct_below[2.5] == 50.0
        assert r.pct_below[7.5] == 100.0
        # |error| == threshold does not count (strict <)
        assert r.pct_below[3.0] == 50.0

    def test_completeness_counts_estimate_only(self):
        est = grid([[1.0, NODATA], [3.0, 4.0]])
        gt = grid([[1.0, 1.0], [NODATA, 4.0]])
        r = evaluate(est, gt)
        assert r.completeness == 75.0
        assert r.joint_valid_count == 2

    def test_translation_case(self, rng):
        g = random_grid(rng, 6, 6)
        shifted = g.with_values(g.values + 3.25)
        r = evaluate(shifted, g)
        assert r.mae == pytest.approx(3.25, abs=1e-12)
        assert r.rmse == pytest.approx(3.25, abs=1e-12)
        assert r.median_abs == pytest.approx(3.25, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(grid([[1.0]]), grid([[1.0, 2.0]]))

    def test_empty_joint_set(self):
        est = grid([[NODATA, 1.0]])
        gt = grid([[1.0, NODATA]])
        with pytest.raises(ValueError, match="jointly valid"):
            evaluate(est, gt)

    def test_mae_le_rmse_random(self, rng):
        for _ in range(30):
            est = random_grid(rng, 5, 7, nodata_fraction=0.2)
            gt = random_grid(rng, 5, 7, nodata_fraction=0.2)
            if not (est.mask & gt.mask).any():
                continue
            r = evaluate(est, gt)
            assert r.mae <= r.rmse + 1e-12

    def test_permutation_invariance(self, rng):
        est = random_grid(rng, 4, 4)
        gt = random_grid(rng, 4, 4)
        r1 = evaluate(est, gt)
        perm = rng.permutation(16)
        est2 = HeightGrid(est.values.ravel()[perm].reshape(4, 4), nodata=NODATA)
        gt2 = HeightGrid(gt.values.ravel()[perm].reshape(4, 4), nodata=NODATA)
        r2 = evaluate(est2, gt2)
        assert r1.mae == pytest.approx(r2.mae, rel=1e-12)
        assert r1.rmse == pytest.approx(r2.rmse, rel=1e-12)
        assert r1.median_abs == r2.median_abs

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_threshold_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        est = HeightGrid(rng.uniform(-20, 20, (6, 6)))
        gt = HeightGrid(rng.uniform(-20, 20, (6, 6)))
        ts = sorted(rng.uniform(0, 30, 5))
        r = evaluate(est, gt, thresholds=ts)
        pcts = [r.pct_below[t] for t in ts]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))

    def test_oracle_equivalence_masked_grids(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            est = random_grid(rng, 16, 16, nodata_fraction=0.25)
            gt = random_grid(rng, 16, 16, nodata_fraction=0.25)
            if not (est.mask & gt.mask).any():
                continue
            thresholds = (1.0, 2.5, 7.5)
            r = evaluate(est, gt, thresholds=thresholds)
            mae, rmse, pct, median, comp, n = scalar_metrics(
                est.values.tolist(), gt.values.tolist(), NODATA, NODATA, thresholds
            )
            assert r.mae == pytest.approx(mae, abs=1e-12)
            assert r.rmse == pytest.approx(rmse, abs=1e-12)
            assert r.median_abs == pytest.approx(median, abs=1e-12)
            assert r.completeness == pytest.approx(comp, abs=1e-12)
            assert r.joint_valid_count == n
            for t in thresholds:
                assert r.pct_below[t] == pytest.approx(pct[t], abs=1e-12)


    @pytest.mark.parametrize(
        "est, gt, what",
        [
            ([[1.7e308, -1.7e308]], [[-1.7e308, 1.7e308]], "absolute"),
            ([[1.7e308, 1.7e308]], [[0.0, 0.0]], "absolute"),
            ([[1e200, 1e200]], [[0.0, 0.0]], "squared"),
        ],
        ids=["difference", "sum", "square"],
    )
    def test_overflow_names_the_statistic(self, est, gt, what):
        with pytest.raises(ValueError, match=f"^mean {what} height error is beyond the float64"):
            evaluate(grid(est), grid(gt))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestOneBuffer:
    """``evaluate`` reuses one error buffer; its numbers keep the bits of fresh arrays."""

    # 117 and 76755 cells are odd counts, 130 and 76800 even; 7 holes flip the
    # parity and 8 keep it
    @pytest.mark.parametrize("holes", [0, 7, 8])
    @pytest.mark.parametrize("shape", [(9, 13), (10, 13), (255, 301), (256, 300)])
    def test_bits_match_the_direct_formulas(self, rng, shape, holes):
        est = random_grid(rng, *shape)
        values = rng.uniform(-50.0, 50.0, size=shape)
        values.flat[rng.choice(values.size, holes, replace=False)] = NODATA
        gt = HeightGrid(values, nodata=NODATA)
        joint = est.mask & gt.mask
        err = np.abs(est.values[joint] - gt.values[joint])
        assert err.size == values.size - holes
        thresholds = (1.0, 2.5, 7.5)
        r = evaluate(est, gt, thresholds=thresholds)
        assert bits(r.mae) == bits(err.mean())
        assert bits(r.rmse) == bits(np.sqrt(float(np.mean(err * err))))
        assert bits(r.median_abs) == bits(np.median(err))
        assert r.pct_below == {t: 100.0 * float((err < t).sum()) / err.size for t in thresholds}
        assert r.joint_valid_count == err.size

    def test_all_valid_peak_is_one_error_buffer(self, rng):
        est = random_grid(rng, 1024, 1024)
        gt = random_grid(rng, 1024, 1024)
        tracemalloc.start()
        try:
            evaluate(est, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the errors and the joint mask; gathering both grids' cells takes two more
        assert peak < 1.2 * est.values.nbytes


class TestMvs3dReport:
    def test_perfect(self, rng):
        g = random_grid(rng, 4, 4)
        r = mvs3d_report(g, g)
        assert (r.rmse, r.pct_below_1m, r.median_abs) == (0.0, 100.0, 0.0)

    def test_half_meter_and_one_and_a_half(self):
        est = grid([[0.5, 1.5]])
        gt = grid([[0.0, 0.0]])
        r = mvs3d_report(est, gt)
        assert r.pct_below_1m == 50.0
        assert r.median_abs == 1.0
        assert r.rmse == pytest.approx(np.sqrt(1.25), abs=1e-15)

    def test_joint_count_with_nodata(self):
        est = grid([[1.0, 2.0], [3.0, 4.0]])
        gt = grid([[1.0, 2.0], [NODATA, 4.0]])
        assert mvs3d_report(est, gt).joint_valid_count == 3


class TestSerialization:
    def test_key_order_and_names(self, rng):
        g = random_grid(rng, 3, 3)
        r = evaluate(g, g, thresholds=(2.5, 7.5))
        keys = [k for k, _ in report_items(r)]
        assert keys == ["mae", "rmse", "lt_2.5", "lt_7.5", "median", "comp"]

    def test_text_form(self, rng):
        g = random_grid(rng, 3, 3)
        text = format_report(evaluate(g, g))
        assert text.splitlines()[0] == "mae=0.000000"

    def test_csv_form(self, tmp_path, rng):
        g = random_grid(rng, 3, 3)
        path = tmp_path / "report.csv"
        write_report_csv(evaluate(g, g), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1] == "mae,0.000000"
