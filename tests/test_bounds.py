import math

import numpy as np
import pytest

from ustattails import (
    FieldSamples,
    TailCurve,
    calibrate_log_power,
    closed_form_tail,
    compare_curves,
    constant_envelope,
    empirical_moments,
    empirical_tail,
    log_power_exponent,
    make_kernel,
    moment_growth_check,
    power_log_rate,
    rademacher_sampler,
    report_text,
    simulate_panel,
    tail_bound,
    uniform_tail_report,
)


def make_field(values, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(f"t{j}" for j in range(values.shape[1]))
    return FieldSamples(labels, values)


class TestClosedFormTail:
    def test_power_log_void_region(self):
        assert closed_form_tail("power_log", math.e, coef=1.0, m=2.0) == 1.0
        assert closed_form_tail("power_log", 0.5, coef=1.0, m=2.0) == 1.0

    def test_power_log_pure_power(self):
        # r = degree kills the log factor entirely
        u = 20.0
        got = closed_form_tail("power_log", u, coef=0.5, m=2.0, r=1.0, degree=1)
        assert got == pytest.approx(math.exp(-0.5 * u ** (2.0 / 3.0)), rel=1e-12)

    def test_power_log_regressor_recovery(self):
        # ln(-ln T) is linear in (1, ln u, ln ln u); recover all three weights
        coef, m, r, degree = 0.7, 2.0, 3.0, 1
        u = np.geomspace(5.0, 200.0, 40)
        t = closed_form_tail("power_log", u, coef=coef, m=m, r=r, degree=degree)
        y = np.log(-np.log(t))
        A = np.column_stack([np.ones_like(u), np.log(u), np.log(np.log(u))])
        w = np.linalg.lstsq(A, y, rcond=None)[0]
        l = power_log_rate(m, degree)
        assert w[0] == pytest.approx(math.log(coef), abs=1e-9)
        assert w[1] == pytest.approx(l, abs=1e-9)
        assert w[2] == pytest.approx(-l * (r - degree), abs=1e-9)

    def test_log_power_value_and_void(self):
        got = closed_form_tail("log_power", 3.0, coef=0.4, beta=2.0)
        assert got == pytest.approx(math.exp(-0.4 * math.log(4.0) ** 3.0), rel=1e-12)
        assert closed_form_tail("log_power", 0.0, coef=0.4, beta=2.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="coef"):
            closed_form_tail("power_log", 5.0, coef=0.0, m=1.0)
        with pytest.raises(ValueError, match="m > 0"):
            closed_form_tail("power_log", 5.0, coef=1.0)
        with pytest.raises(ValueError, match="beta"):
            closed_form_tail("log_power", 5.0, coef=1.0)
        with pytest.raises(ValueError, match="family"):
            closed_form_tail("gauss", 5.0, coef=1.0)

    def test_rate_values(self):
        assert power_log_rate(2.0, 1) == pytest.approx(2.0 / 3.0)
        assert power_log_rate(3.0, 2) == pytest.approx(3.0 / 7.0)
        with pytest.raises(ValueError):
            power_log_rate(0.0, 1)


class TestLogPowerExponent:
    def test_conventions(self):
        assert log_power_exponent(2.0) == 3.0
        assert log_power_exponent(2.0, "one_plus_inv_beta") == 1.5
        assert log_power_exponent(1.0) == log_power_exponent(1.0, "one_plus_inv_beta")
        with pytest.raises(ValueError, match="convention"):
            log_power_exponent(1.0, "twice")
        with pytest.raises(ValueError, match="positive"):
            log_power_exponent(0.0)


class TestCalibrateLogPower:
    def test_round_trip(self):
        u = np.geomspace(0.5, 30.0, 25)
        coef = 0.37
        probs = closed_form_tail("log_power", u, coef=coef, beta=1.5)
        curve = TailCurve(u, probs, "empirical", sample_count=1000)
        got = calibrate_log_power(curve, beta=1.5)
        assert got == pytest.approx(coef, rel=1e-12)

    def test_lower_envelope_property(self):
        rng = np.random.default_rng(7)
        u = np.sort(rng.uniform(0.2, 8.0, 20))
        probs = np.sort(rng.uniform(0.01, 0.9, 20))[::-1]
        curve = TailCurve(u, probs, "empirical", sample_count=500)
        coef = calibrate_log_power(curve, beta=1.0)
        shape = closed_form_tail("log_power", u, coef=coef, beta=1.0)
        assert np.all(shape <= probs + 1e-12)
        assert np.any(np.isclose(shape, probs, rtol=1e-9))

    def test_no_usable_points(self):
        curve = TailCurve(
            np.array([1.0, 2.0]), np.array([1.0, 0.0]), "empirical", sample_count=10
        )
        with pytest.raises(ValueError, match="usable"):
            calibrate_log_power(curve, beta=1.0)


class TestMomentGrowth:
    def grow_panels(self, scale_by_n=1.0):
        rng = np.random.default_rng(42)
        panels = {}
        for n in (16, 64):
            panels[n] = make_field(rng.standard_normal((4000, 2)) * scale_by_n)
        return panels

    def test_stable_panels_pass(self):
        panels = self.grow_panels()
        env = constant_envelope(1.0, 12.0)
        res = moment_growth_check(panels, env, 2, np.geomspace(2, 8, 5))
        assert res.passed
        assert res.ratio < 1.1

    def test_doubled_envelope_halves_constants(self):
        panels = self.grow_panels()
        p_grid = np.geomspace(2, 8, 5)
        res1 = moment_growth_check(panels, constant_envelope(1.0, 12.0), 2, p_grid)
        res2 = moment_growth_check(panels, constant_envelope(2.0, 12.0), 2, p_grid)
        for n in res1.constants:
            assert res2.constants[n] == pytest.approx(res1.constants[n] / 2.0, rel=1e-12)

    def test_vacuous_all_zero(self):
        panels = {8: make_field(np.zeros((50, 2))), 16: make_field(np.zeros((50, 2)))}
        res = moment_growth_check(panels, constant_envelope(1.0, 12.0), 2, [2.0, 4.0])
        assert res.passed and res.ratio == 1.0 and res.notes

    def test_mixed_zero_fails(self):
        panels = {
            8: make_field(np.zeros((50, 2))),
            16: make_field(np.ones((50, 2))),
        }
        res = moment_growth_check(panels, constant_envelope(1.0, 12.0), 2, [2.0, 4.0])
        assert not res.passed and math.isinf(res.ratio)


class TestCompareCurves:
    def test_requires_empirical_first(self):
        u = np.array([1.0, 2.0])
        c = TailCurve(u, np.array([0.5, 0.2]), "upper_bound")
        with pytest.raises(ValueError, match="empirical"):
            compare_curves(c)
        emp = TailCurve(u, np.array([0.5, 0.2]), "empirical", sample_count=0)
        with pytest.raises(ValueError, match="sample count"):
            compare_curves(emp)

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
        u = np.array([1.0, 2.0])
        emp = TailCurve(u, np.array([0.5, 0.3]), "empirical", sample_count=100)
        up = TailCurve(u, np.array([0.45, 0.31]), "upper_bound")
        assert not compare_curves(emp, upper=up, sigma=0.5).ok
        assert compare_curves(emp, upper=up, sigma=3.0).ok
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            compare_curves(emp, upper=up, sigma=-1.0)

    def test_no_bounds_noted(self):
        emp = TailCurve(
            np.array([1.0]), np.array([0.5]), "empirical", sample_count=100
        )
        rep = compare_curves(emp)
        assert rep.ok and rep.notes


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
        assert rep.diameter == 0.0
        up = rep.curves["upper"]
        for u, prob in zip(up.u_grid, up.probs):
            assert prob == pytest.approx(
                tail_bound(rep.tau, rep.sup_norm, u), abs=1e-12
            )

    def test_natural_envelope_dominates_exactly(self):
        fld = self.small_field()
        p_grid = np.geomspace(2, 8, 6)
        sup = fld.sup_abs()
        u_grid = np.unique(np.quantile(sup, np.linspace(0.3, 0.98, 10)))
        rep = uniform_tail_report(fld, p_grid, 2, u_grid)
        emp = rep.curves["empirical"].probs
        up = rep.curves["upper"].probs
        assert np.all(emp <= up + 1e-12)
        assert any("column moments" in note for note in rep.notes)
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
        coef = calibrate_log_power(empirical_tail(col, u_grid), beta=1.0, exponent="one_plus_beta")
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
        comp = compare_curves(rep.curves["empirical"], upper=rep.curves["upper"],
                              lower=lo, sigma=3.0)
        assert comp.ok

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
