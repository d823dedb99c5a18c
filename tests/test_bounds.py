import math
import warnings

import numpy as np
import pytest

from ustattails import (
    FieldSamples,
    TailCurve,
    calibrate_log_power,
    compare_curves,
    empirical_moments,
    empirical_tail,
    log_power_exponent,
    log_power_tail,
    make_kernel,
    rademacher_sampler,
    report_text,
    simulate_panel,
    tail_bound,
    uniform_tail_report,
)
from ustattails.bounds import Geometry, sup_attainment


def make_field(values, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(f"t{j}" for j in range(values.shape[1]))
    return FieldSamples(labels, values)


class TestClosedFormTail:
    def test_log_power_value_and_void(self):
        got = log_power_tail(3.0, coef=0.4, beta=2.0)
        assert got == pytest.approx(math.exp(-0.4 * math.log(4.0) ** 3.0), rel=1e-12)
        assert log_power_tail(0.0, coef=0.4, beta=2.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="coef"):
            log_power_tail(5.0, coef=0.0, beta=1.0)
        with pytest.raises(ValueError, match="beta"):
            log_power_tail(5.0, coef=1.0, beta=0.0)
        with pytest.raises(ValueError, match="beta"):
            log_power_tail(5.0, coef=1.0, beta=math.inf)


class TestLogPowerExponent:
    def test_conventions(self):
        # E = 1 + beta; the other published convention, 1 + 1/beta, is this one at 1/beta
        assert log_power_exponent(2.0) == 3.0
        assert log_power_exponent(0.5) == 1.0 + 1.0 / 2.0
        with pytest.raises(ValueError, match="positive"):
            log_power_exponent(0.0)


class TestCalibrateLogPower:
    def test_round_trip(self):
        u = np.geomspace(0.5, 30.0, 25)
        coef = 0.37
        probs = log_power_tail(u, coef=coef, beta=1.5)
        curve = TailCurve(u, probs, "empirical", sample_count=1000)
        got = calibrate_log_power(curve, beta=1.5)
        assert got == pytest.approx(coef, rel=1e-12)

    def test_lower_envelope_property(self):
        rng = np.random.default_rng(7)
        u = np.sort(rng.uniform(0.2, 8.0, 20))
        probs = np.sort(rng.uniform(0.01, 0.9, 20))[::-1]
        curve = TailCurve(u, probs, "empirical", sample_count=500)
        coef = calibrate_log_power(curve, beta=1.0)
        shape = log_power_tail(u, coef=coef, beta=1.0)
        assert np.all(shape <= probs + 1e-12)
        assert np.any(np.isclose(shape, probs, rtol=1e-9))

    def test_no_usable_points(self):
        curve = TailCurve(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]), "empirical", sample_count=10
        )
        with pytest.raises(ValueError, match="usable"):
            calibrate_log_power(curve, beta=1.0)

    def test_coefficient_past_a_double(self):
        # at beta = 1e308, ln(1+u)^E is 0 below u = e - 1 and inf above it: the coefficient
        # is inf, or 0, and the shape NaN, so the calibration refuses it without a warning
        curve = TailCurve(np.array([0.5, 1.0, 3.0]), np.array([0.4, 0.2, 0.1]), "empirical",
                          sample_count=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no positive finite coefficient"):
                calibrate_log_power(curve, beta=1e308)
            with pytest.raises(ValueError, match="no positive finite coefficient"):
                calibrate_log_power(TailCurve(curve.u_grid[2:], curve.probs[2:], "empirical",
                                              sample_count=10), beta=1e308)


class TestCompareCurves:
    def test_requires_empirical_first(self):
        u = np.array([1.0, 2.0])
        c = TailCurve(u, np.array([0.5, 0.2]), "upper_bound")
        with pytest.raises(ValueError, match="empirical"):
            compare_curves(c, c)
        emp = TailCurve(u, np.array([0.5, 0.2]), "empirical", sample_count=0)
        with pytest.raises(ValueError, match="sample count"):
            compare_curves(emp, c)

    def test_grid_mismatch(self):
        emp = TailCurve(
            np.array([1.0, 2.0]), np.array([0.5, 0.2]), "empirical", sample_count=100
        )
        up = TailCurve(np.array([1.0, 3.0]), np.array([0.9, 0.8]), "upper_bound")
        with pytest.raises(ValueError, match="grid"):
            compare_curves(emp, upper=up)

    def test_violations_counted(self):
        u = np.array([1.0, 2.0])
        emp = TailCurve(u, np.array([0.5, 0.3]), "empirical", sample_count=100)
        up = TailCurve(u, np.array([0.2, 0.2]), "upper_bound")
        lo = TailCurve(u, np.array([0.8, 0.1]), "lower_bound")
        rep = compare_curves(emp, upper=up, lower=lo)
        assert rep.upper_violations == 1
        assert rep.lower_violations == 1
        assert not rep.ok
        se0 = math.sqrt(0.5 * 0.5 / 100)
        assert rep.max_upper_excess == pytest.approx(0.5 - 0.2 - 3 * se0)

    def test_sigma_slack_rescues(self):
        # the slack is 3 standard errors of the empirical point, 0.15 at p = 0.5 and n = 100
        u = np.array([1.0, 2.0])
        emp = TailCurve(u, np.array([0.5, 0.3]), "empirical", sample_count=100)
        within = TailCurve(u, np.array([0.36, 0.31]), "upper_bound")
        beyond = TailCurve(u, np.array([0.34, 0.31]), "upper_bound")
        assert compare_curves(emp, upper=within).ok
        rep = compare_curves(emp, upper=beyond)
        assert not rep.ok and rep.upper_violations == 1


class TestUniformTailReport:
    def small_field(self, reps=800, seed=3):
        k = make_kernel("product")
        return simulate_panel(k, rademacher_sampler(), 12, reps, seed=seed)

    def test_scalar_field_reduces_to_moment_bound(self):
        rng = np.random.default_rng(11)
        fld = make_field(rng.standard_normal((2000, 1)))
        p_grid = np.geomspace(2, 10, 6)
        u_grid = np.quantile(np.abs(fld.values[:, 0]), [0.5, 0.9, 0.99])
        rep = uniform_tail_report(fld, p_grid, 1, u_grid)
        assert rep.scalar_degenerate
        assert rep.geometry.diameter == 0.0
        assert (rep.sup_columns, rep.sup_top_share) == (1, 1.0)
        assert rep.uniformity == pytest.approx(1.0, abs=1e-12)
        up = rep.curves["upper"]
        for u, prob in zip(up.u_grid, up.probs):
            assert prob == pytest.approx(
                tail_bound(rep.geometry.tau, rep.sup_norm, u), abs=1e-12
            )

    def test_sup_attainment(self):
        # the rounding-level first row is left out; the tied third row credits two points;
        # each share weighs the rows' counts
        rows = [[1e-17, -1e-17, 0.0], [0.5, -2.0, 1.0], [3.0, -1.0, 3.0], [0.5, 2.0, 0.0]]
        fld = FieldSamples(("a", "b", "c"), rows, counts=[5, 2, 1, 1])
        assert sup_attainment(fld) == (3, 0.75)

    def test_natural_envelope_dominates_exactly(self):
        fld = self.small_field()
        p_grid = np.geomspace(2, 8, 6)
        sup = fld.sup_abs()
        u_grid = np.unique(np.quantile(sup, np.linspace(0.3, 0.98, 10)))
        rep = uniform_tail_report(fld, p_grid, 2, u_grid)
        emp = rep.curves["empirical"].probs
        up = rep.curves["upper"].probs
        assert np.all(emp <= up + 1e-12)
        assert rep.index_size == fld.size
        assert rep.replications == fld.replications

    def test_empirical_curves_count_replications(self):
        # the field folds to its distinct rows; the sup moments, the sup tail and the column
        # tail the lower curve is calibrated on still count every replication
        fld = self.small_field()
        p_grid = np.geomspace(2, 8, 6)
        sup = np.repeat(fld.sup_abs(), fld.counts.astype(int))
        col = np.repeat(fld.values[:, 0], fld.counts.astype(int))
        assert len(fld.values) < sup.size == 800
        u_grid = np.unique(np.quantile(sup, np.linspace(0.3, 0.98, 10)))
        rep = uniform_tail_report(fld, p_grid, 2, u_grid, lower={"beta": 1.0})
        emp = rep.curves["empirical"]
        assert emp.sample_count == rep.sup_moments.sample_count == 800
        assert emp.probs.tolist() == [max(np.sum(sup > u), np.sum(sup < -u)) / 800 for u in u_grid]
        assert rep.sup_moments.values.tolist() == empirical_moments(sup, p_grid).values.tolist()
        coef = calibrate_log_power(empirical_tail(col, u_grid), beta=1.0)
        assert rep.curves["lower"].meta["coef"] == coef

    def test_lower_curve_attached(self):
        fld = self.small_field()
        p_grid = np.geomspace(2, 8, 6)
        col = np.abs(fld.values[:, 0])
        u_grid = np.unique(np.quantile(col, np.linspace(0.5, 0.95, 8)))
        rep = uniform_tail_report(fld, p_grid, 2, u_grid, lower={"beta": 1.0})
        lo = rep.curves["lower"]
        assert lo.kind == "lower_bound"
        assert lo.meta["beta"] == 1.0
        comp = compare_curves(rep.curves["empirical"], upper=rep.curves["upper"], lower=lo)
        assert comp.ok

    def test_lower_curve_capped_by_its_column(self):
        # at the column's maximum its tail is 0 while the fitted shape is not: the curve
        # claims no more than the column it was calibrated on, at every level
        fld = self.small_field()
        p_grid = np.geomspace(2, 8, 6)
        col = np.abs(fld.values[:, 0])
        u_grid = np.unique(np.quantile(col, np.linspace(0.5, 1.0, 8)))
        assert u_grid[-1] == col.max()
        rep = uniform_tail_report(fld, p_grid, 2, u_grid, lower={"beta": 1.0})
        col_tail = empirical_tail(fld.values[:, 0], u_grid, fld.counts).probs
        assert col_tail[-1] == 0.0
        assert np.all(rep.curves["lower"].probs <= col_tail)

    def test_report_text_deterministic(self):
        fld = self.small_field(reps=300)
        p_grid = np.geomspace(2, 8, 5)
        u_grid = np.unique(np.quantile(fld.sup_abs(), [0.4, 0.7, 0.9]))
        rep = uniform_tail_report(fld, p_grid, 2, u_grid, lower={"beta": 1.0})
        text1 = report_text(rep)
        rep2 = uniform_tail_report(
            self.small_field(reps=300), p_grid, 2, u_grid, lower={"beta": 1.0}
        )
        text2 = report_text(rep2)
        assert text1 == text2
        for section in ("[envelope]", "[geometry]", "[calibration]", "[curves]", "[notes]"):
            assert section in text1


class TestGeometry:
    def test_certification_is_derived_from_the_record(self):
        # the flag is a function of the integral and its saturated share, so no record holds
        # a flag that contradicts them
        for integral, frac, want in ((1.0, 0.89, True), (1.0, 0.95, False), (0.0, 0.0, False)):
            assert Geometry(None, None, None, 0.0, integral, frac).certified is want
