import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustattails import (
    MomentEnvelope,
    MomentTable,
    constant_envelope,
    envelope_norm,
    exp_power_envelope,
    fenchel_exponent,
    log_maximum_bound,
    make_envelope,
    power_log_envelope,
    rosenthal_lift,
    tabulated_envelope,
    tail_bound,
)

TOL = 1e-9


def normal_abs_moment(p):
    # |Z|_p for standard normal Z, via the gamma function
    return math.sqrt(2.0) * math.exp((math.lgamma((p + 1.0) / 2.0) - math.lgamma(0.5)) / p)


class TestFamilies:
    def test_power_log_value(self):
        env = power_log_envelope(2.0, 0.0)
        assert abs(env(4.0) - 2.0) < TOL

    def test_power_log_with_log_factor(self):
        env = power_log_envelope(2.0, 1.5)
        p = 7.3
        assert abs(env(p) - p ** 0.5 * math.log(p) ** 1.5) < TOL

    def test_exp_power_value(self):
        env = exp_power_envelope(1.0, 1.0)
        assert abs(env(4.0) - math.exp(4.0)) < 1e-9 * math.exp(4.0)

    def test_exp_power_huge_stays_finite_in_log(self):
        env = exp_power_envelope(2.0, 1.0)
        assert env.log_value(400.0) == pytest.approx(800.0)

    def test_constant_value(self):
        env = constant_envelope(1.0, 5.0)
        assert env(3.0) == pytest.approx(1.0)
        assert env(5.0) == pytest.approx(1.0)  # closed at the top

    def test_constant_rejects_past_support(self):
        env = constant_envelope(1.0, 5.0)
        with pytest.raises(ValueError, match="support"):
            env(5.1)

    def test_below_two_rejected(self):
        env = power_log_envelope(2.0)
        with pytest.raises(ValueError, match="p = 2"):
            env(1.5)

    def test_tabulated_interpolates_loglinear(self):
        env = tabulated_envelope([2.0, 8.0], [1.0, 4.0])
        # log-linear in ln p: at p = 4, halfway in ln space
        want = math.exp(math.log(4.0) * math.log(2.0) / math.log(4.0))
        assert abs(env(4.0) - want) < TOL

    def test_tabulated_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            tabulated_envelope([2.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            tabulated_envelope([2.0, 4.0], [1.0, 0.0])

    def test_make_envelope_dispatch(self):
        assert make_envelope("power_log", m=2.0).family == "power_log"
        assert make_envelope("constant", value=2.0, p_sup=8.0).family == "constant"
        with pytest.raises(ValueError, match="unknown"):
            make_envelope("nope")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            power_log_envelope(0.0)
        with pytest.raises(ValueError):
            exp_power_envelope(-1.0, 1.0)
        with pytest.raises(ValueError):
            constant_envelope(2.0, 1.5)
        # NaN fails every range, and only m and p_sup may be infinite
        for family, params, name in [
            (power_log_envelope, (math.nan,), "m"),
            (power_log_envelope, (2.0, math.nan), "r"),
            (power_log_envelope, (2.0, math.inf), "r"),
            (exp_power_envelope, (math.inf, 1.0), "coef"),
            (exp_power_envelope, (1.0, math.nan), "expo"),
            (exp_power_envelope, (1.0, math.inf), "expo"),
            (constant_envelope, (math.inf, 8.0), "value"),
            (constant_envelope, (math.nan, 8.0), "value"),
            (constant_envelope, (1.0, math.nan), "p_sup"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be"):
                family(*params)

    def test_infinite_m_is_accepted(self):
        # psi(p) = (ln p)^r, the m -> inf limit of the power-log family
        env = power_log_envelope(math.inf, 1.0)
        assert env.log_value(4.0) == pytest.approx(math.log(math.log(4.0)))


class TestLift:
    def test_lift_value(self):
        env = rosenthal_lift(power_log_envelope(2.0, 0.0), 2)
        want = (4.0 / math.log(4.0)) ** 2 * 2.0
        assert abs(env(4.0) - want) < TOL * want

    def test_lift_composes_additively(self):
        env = power_log_envelope(3.0, 1.0)
        twice = rosenthal_lift(rosenthal_lift(env, 1), 2)
        once = rosenthal_lift(env, 3)
        p = np.geomspace(2.0, 50.0, 11)
        assert np.allclose(twice.log_value(p), once.log_value(p), atol=1e-12)

    def test_lift_rejects_negative(self):
        with pytest.raises(ValueError):
            rosenthal_lift(power_log_envelope(2.0), -1)


class TestFenchel:
    def test_power_log_interior(self):
        env = power_log_envelope(2.0, 0.0)
        assert abs(fenchel_exponent(env, 1.0) - math.e / 2.0) < 1e-9

    def test_power_log_boundary(self):
        # stationary point below 2, sup pinned at the left edge
        env = power_log_envelope(2.0, 0.0)
        want = 2 * 0.5 - math.log(2.0)
        assert abs(fenchel_exponent(env, 0.5) - want) < 1e-9

    def test_constant_is_linear(self):
        env = constant_envelope(1.0, 5.0)
        for u in (0.2, 1.0, 2.0):
            assert abs(fenchel_exponent(env, u) - 5.0 * u) < 1e-9

    def test_tabulated_optimizes_over_nodes_only(self):
        env = tabulated_envelope([2.0, 4.0, 8.0], [1.0, 1.0, 1.0])
        u = 0.7
        want = max(p * u for p in (2.0, 4.0, 8.0))
        assert fenchel_exponent(env, u) == pytest.approx(want, abs=1e-12)

    @given(st.floats(0.05, 4.0), st.floats(0.05, 4.0))
    def test_nondecreasing_in_u(self, u1, u2):
        env = power_log_envelope(1.5, 0.5)
        lo, hi = min(u1, u2), max(u1, u2)
        assert fenchel_exponent(env, lo) <= fenchel_exponent(env, hi) + 1e-12

    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_midpoint_convexity(self, u1, u2):
        env = power_log_envelope(2.0, 1.0)
        mid = 0.5 * (u1 + u2)
        lhs = fenchel_exponent(env, mid)
        rhs = 0.5 * (fenchel_exponent(env, u1) + fenchel_exponent(env, u2))
        assert lhs <= rhs + 1e-9


class TestLogMaximumBound:
    def test_power_log_interior(self):
        env = power_log_envelope(2.0, 0.0)
        want = 0.5 * (1.0 + math.log(8.0))
        assert abs(log_maximum_bound(env, 4.0) - want) < 1e-9

    def test_at_zero_is_min_log_envelope(self):
        env = power_log_envelope(2.0, 0.0)
        assert abs(log_maximum_bound(env, 0.0) - math.log(math.sqrt(2.0))) < 1e-9

    def test_constant_closed_form(self):
        env = constant_envelope(1.5, 6.0)
        x = 2.4
        assert abs(log_maximum_bound(env, x) - (x / 6.0 + math.log(1.5))) < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_maximum_bound(power_log_envelope(2.0), -0.1)

    def test_rejects_degenerate_optimisation_grid(self):
        env = power_log_envelope(2.0)
        with pytest.raises(ValueError, match="p_max must exceed 2"):
            log_maximum_bound(env, 1.0, p_max=2.0)
        with pytest.raises(ValueError, match="points must be at least 2"):
            log_maximum_bound(env, 1.0, points=1)

    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    def test_nondecreasing(self, x1, x2):
        env = power_log_envelope(2.0, 1.0)
        lo, hi = min(x1, x2), max(x1, x2)
        assert log_maximum_bound(env, lo) <= log_maximum_bound(env, hi) + 1e-12


class TestEnvelopeNorm:
    def test_constant_variable(self):
        table = MomentTable(np.array([2.0, 4.0, 9.0]), np.full(3, 3.0), 100)
        env = power_log_envelope(2.0, 0.0)
        assert abs(envelope_norm(table, env) - 3.0 / math.sqrt(2.0)) < TOL

    def test_exact_normal_moments(self):
        p = np.geomspace(2.0, 64.0, 33)
        table = MomentTable(p, np.array([normal_abs_moment(x) for x in p]), 10**6)
        env = power_log_envelope(2.0, 0.0)
        # the ratio peaks at p = 2 where |Z|_2 / sqrt(2) = 1/sqrt(2)
        assert abs(envelope_norm(table, env) - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_scaled_normal_distance_norm(self):
        # difference of two independent standard normals is sqrt(2) Z
        p = np.geomspace(2.0, 64.0, 33)
        vals = math.sqrt(2.0) * np.array([normal_abs_moment(x) for x in p])
        table = MomentTable(p, vals, 10**6)
        assert abs(envelope_norm(table, power_log_envelope(2.0, 0.0)) - 1.0) < 1e-9

    def test_zero_moments_give_zero(self):
        table = MomentTable(np.array([2.0, 4.0]), np.zeros(2), 50)
        assert envelope_norm(table, power_log_envelope(2.0)) == 0.0

    @given(st.floats(0.01, 100.0))
    def test_homogeneous(self, scale):
        p = np.array([2.0, 4.0, 8.0])
        base = np.array([1.0, 1.5, 2.5])
        env = power_log_envelope(2.0, 0.0)
        n1 = envelope_norm(MomentTable(p, base, 10), env)
        n2 = envelope_norm(MomentTable(p, scale * base, 10), env)
        assert n2 == pytest.approx(scale * n1, rel=1e-12)


class TestTailBound:
    def test_void_region_is_one(self):
        env = power_log_envelope(2.0, 0.0)
        assert tail_bound(env, 1.0, 0.5) == 1.0
        assert tail_bound(env, 1.0, math.e) == 1.0  # boundary included

    def test_drops_past_the_boundary(self):
        env = power_log_envelope(2.0, 0.0)
        y = math.nextafter(math.e, math.inf)
        val = tail_bound(env, 1.0, y)
        # just inside the live region the exponent is already e/2
        assert abs(val - math.exp(-math.e / 2.0)) < 1e-6
        assert val < 0.26

    def test_requires_positive_norm(self):
        with pytest.raises(ValueError):
            tail_bound(power_log_envelope(2.0), 0.0, 5.0)

    def test_norm_scaling_shifts_levels(self):
        env = power_log_envelope(2.0, 0.0)
        assert tail_bound(env, 2.0, 10.0) == pytest.approx(
            tail_bound(env, 1.0, 5.0), rel=1e-9
        )

    @given(st.floats(1.0, 40.0), st.floats(1.0, 40.0))
    def test_nonincreasing_in_level(self, y1, y2):
        env = power_log_envelope(2.0, 1.0)
        lo, hi = min(y1, y2), max(y1, y2)
        assert tail_bound(env, 1.0, hi) <= tail_bound(env, 1.0, lo) + 1e-12

    @given(st.integers(0, 3), st.floats(3.0, 60.0))
    def test_larger_envelope_weakens_bound_at_fixed_norm(self, extra, y):
        base = rosenthal_lift(power_log_envelope(2.0, 0.0), 1)
        bigger = rosenthal_lift(base, extra)
        assert tail_bound(bigger, 1.0, y) >= tail_bound(base, 1.0, y) - 1e-12


class TestSerialization:
    @pytest.mark.parametrize(
        "env",
        [
            power_log_envelope(2.0, 1.5),
            rosenthal_lift(power_log_envelope(3.0, 0.0), 2),
            exp_power_envelope(0.37, 1.25),
            constant_envelope(2.5, 9.0),
            rosenthal_lift(tabulated_envelope([2.0, 5.0, 11.0], [1.1, 2.2, 4.4]), 1),
        ],
    )
    def test_round_trip(self, env):
        back = MomentEnvelope.from_text(env.to_text())
        assert back.family == env.family
        assert back.lift == env.lift
        p = np.geomspace(2.0, min(env.b, 50.0), 9)
        assert np.allclose(back.log_value(p), env.log_value(p), atol=0, rtol=0)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            MomentEnvelope.from_text("")
        with pytest.raises(ValueError):
            MomentEnvelope.from_text("power_log m2")
        with pytest.raises(ValueError):
            MomentEnvelope.from_text("martian x=1")


class TestMomentTable:
    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            MomentTable(np.array([2.0, 4.0]), np.array([2.0, 1.0]), 10)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            MomentTable(np.array([4.0, 2.0]), np.array([1.0, 2.0]), 10)
        with pytest.raises(ValueError, match="p >= 2"):
            MomentTable(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 10)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MomentTable(np.array([2.0, 4.0]), np.array([-1.0, 2.0]), 10)
