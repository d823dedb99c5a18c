import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustattails import (
    FiniteMetricSpace,
    constant_envelope,
    covering_bounds,
    covering_number,
    entropy_dimension,
    entropy_integral,
    integral_trend,
    power_log_envelope,
    space_from_points,
)
from ustattails import entropy


def unit_grid(points=101):
    return space_from_points(np.linspace(0.0, 1.0, points))


class TestSpaceValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero"):
            FiniteMetricSpace(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_diameter(self):
        sp = space_from_points([[0.0], [3.0], [1.0]])
        assert sp.diameter == pytest.approx(3.0)


class TestCoveringNumbers:
    def test_unit_grid_quarter_radius(self):
        sp = unit_grid()
        lo, up, _ = covering_bounds(sp, 0.25, exact_threshold=0)
        assert lo == 2 and up == 2
        assert math.log(covering_number(sp, 0.25)) == pytest.approx(math.log(2.0))

    def test_four_point_line(self):
        sp = space_from_points([[0.0], [1.0], [2.0], [3.0]])
        lo, up, exact = covering_bounds(sp, 1.0)
        assert exact == 2
        assert lo <= exact <= up

    def test_radius_at_diameter_gives_one(self):
        sp = space_from_points([[0.0], [1.0], [0.5]])
        assert covering_number(sp, 1.0) == 1
        assert covering_number(sp, 1.0, estimator="exact") == 1

    def test_zero_radius_counts_distinct_points(self):
        sp = space_from_points([[0.0], [1.0], [1.0]])
        assert covering_number(sp, 0.0, estimator="exact") == 2

    def test_single_point(self):
        sp = space_from_points([[5.0]])
        assert covering_number(sp, 0.0) == 1

    def test_exact_threshold_enforced(self):
        sp = unit_grid(20)
        with pytest.raises(ValueError, match="exact covering"):
            covering_number(sp, 0.1, estimator="exact")

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="estimator"):
            covering_number(unit_grid(5), 0.1, estimator="magic")

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="nonnegative"):
            covering_bounds(unit_grid(5), -0.1)

    @given(st.integers(0, 500))
    def test_sandwich_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, dim)) * rng.uniform(0.2, 5.0)
        sp = space_from_points(pts)
        for q in (0.15, 0.4, 0.8):
            eps = q * sp.diameter / 2.0
            lo, up, exact = covering_bounds(sp, eps)
            assert lo <= exact <= up


def recomputed_greedy_cover(space, eps):
    """The greedy cover recounting every ball's uncovered points at each pick."""
    covers = entropy._cover_matrix(space, eps)
    uncovered = np.ones(space.size, dtype=bool)
    count = 0
    while uncovered.any():
        center = int(np.argmax(covers[:, uncovered].sum(axis=1)))  # ties: smallest index
        uncovered &= ~covers[center]
        count += 1
    return count


class TestGreedyCover:
    # the running gains and the early stop at gain 1 pick what the recount picks

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        for m in (1, 2, 17, int(rng.integers(50, 301))):
            pts = rng.normal(size=(m, int(rng.integers(1, 4))))
            sp = space_from_points(pts)
            for eps in (0.0, *rng.uniform(0.0, 1.2 * sp.diameter, 12)):
                assert covering_number(sp, eps) == recomputed_greedy_cover(sp, eps), (m, eps)

    def test_zero_off_diagonal_distances(self):
        # coincident points: balls of radius 0 hold whole clusters
        rng = np.random.default_rng(3)
        sp = space_from_points(rng.integers(0, 4, size=(60, 2)).astype(float))
        assert np.count_nonzero(sp.dist == 0.0) > 60
        for eps in (0.0, 0.5, 1.0, 1.5, 3.0, 5.0):
            assert covering_number(sp, eps) == recomputed_greedy_cover(sp, eps), eps

    def test_default_eps_grid(self):
        for sp in (unit_grid(), space_from_points(np.random.default_rng(5).uniform(size=(289, 2)))):
            for eps in entropy.default_eps_grid(sp):
                assert covering_number(sp, eps) == recomputed_greedy_cover(sp, eps), eps


class TestEntropyIntegral:
    def test_constant_envelope_integral_identity(self):
        env = constant_envelope(1.7, 6.0)
        eps = np.geomspace(0.01, 1.0, 48)
        for sp in (
            unit_grid(),
            space_from_points(np.random.default_rng(5).normal(size=(12, 2))),
            space_from_points(
                np.stack(
                    [np.cos(np.linspace(0, 2 * np.pi, 24, endpoint=False)),
                     np.sin(np.linspace(0, 2 * np.pi, 24, endpoint=False))],
                    axis=1,
                )
                * 0.4
            ),
        ):
            ent = entropy_integral(sp, env, eps)
            counts = np.array([covering_number(sp, e) for e in eps], dtype=float)
            direct = 1.7 * np.trapezoid(counts ** (1.0 / 6.0), eps)
            assert ent.value == pytest.approx(direct, rel=1e-12)

    def test_spread_space_certifies(self):
        ent = entropy_integral(unit_grid(), power_log_envelope(2.0))
        assert ent.finite
        assert ent.saturated_fraction < 0.5

    def test_blown_up_space_saturates(self):
        sp = space_from_points(100.0 * np.arange(8.0)[:, None])
        ent = entropy_integral(sp, power_log_envelope(2.0))
        assert not ent.finite
        assert ent.saturated_fraction == pytest.approx(1.0)

    def test_eps_grid_validation(self):
        sp = unit_grid(11)
        env = power_log_envelope(2.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            entropy_integral(sp, env, np.array([0.0, 0.5]))
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            entropy_integral(sp, env, np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="increasing"):
            entropy_integral(sp, env, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("fraction", [0.0, 1.5, float("nan")])
    def test_plateau_fraction_validation(self, fraction):
        with pytest.raises(ValueError, match=r"plateau fraction must lie in \(0, 1\]"):
            entropy_integral(unit_grid(11), power_log_envelope(2.0), plateau_fraction=fraction)

    def test_single_point_is_trivial(self):
        sp = space_from_points([[0.0]])
        ent = entropy_integral(sp, power_log_envelope(2.0))
        assert ent.finite
        assert ent.saturated_fraction == 0.0
        assert any("single-point" in note for note in ent.notes)

    def test_integrand_positive_and_entropy_monotone(self):
        sp = space_from_points(np.random.default_rng(6).normal(size=(10, 2)))
        ent = entropy_integral(sp, power_log_envelope(2.0, 1.0))
        assert np.all(ent.integrand > 0.0)
        assert np.all(np.diff(ent.entropies) <= 1e-12)


class TestIntegralTrend:
    def test_diverging(self):
        assert integral_trend([1.0, 1.6, 2.6, 4.2]) == "diverging"

    def test_stable(self):
        assert integral_trend([1.0, 1.2, 1.25]) == "stable"

    def test_needs_two(self):
        with pytest.raises(ValueError, match="two"):
            integral_trend([1.0])


class TestEntropyDimension:
    def test_unit_interval(self):
        sp = space_from_points(np.linspace(0.0, 1.0, 1001))
        dim, warns = entropy_dimension(sp, np.geomspace(0.002, 0.05, 20))
        assert abs(dim - 1.0) < 0.1
        assert not warns

    def test_holder_scaling(self):
        alpha = 0.6
        sp = space_from_points(np.linspace(0.0, 1.0, 1001), power=alpha)
        dim, _ = entropy_dimension(sp, np.geomspace(0.002, 0.05, 20) ** alpha)
        assert abs(dim - 1.0 / alpha) < 0.15

    def test_degenerate_window_warns(self):
        sp = space_from_points([[0.0], [1.0]])
        dim, warns = entropy_dimension(sp, np.array([0.9, 1.0]))
        assert dim == 0.0
        assert warns
