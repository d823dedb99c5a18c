import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spaces import exact_cover, packing_count, space_from_points
from ustattails import (
    FiniteMetricSpace,
    constant_envelope,
    covering_number,
    entropy_integral,
    exp_power_envelope,
    log_maximum_bound,
    power_log_envelope,
)
from ustattails import entropy
from ustattails.bounds import Geometry


def certified(ent):
    """The certification flag of the Geometry an integral ``ent`` is recorded in."""
    return Geometry(None, None, None, 0.0, ent.value, ent.saturated_fraction).certified


def unit_grid(points=101):
    return space_from_points(np.linspace(0.0, 1.0, points))


def sandwich(space, eps):
    """The packing lower bound, the exact count and the greedy upper bound at eps."""
    lower = int(entropy._packing_counts(space, eps))
    return lower, exact_cover(space, eps), covering_number(space, eps)


class TestSpaceValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="zero"):
            FiniteMetricSpace(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("cell", [math.inf, math.nan])
    def test_rejects_non_finite_off_diagonal(self, cell):
        # checked first, so an infinite distance never reaches the symmetry tolerance
        with pytest.raises(ValueError, match="2 distances are NaN or past the largest double"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, cell], [cell, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteMetricSpace(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_diameter(self):
        sp = space_from_points([[0.0], [3.0], [1.0]])
        assert sp.diameter == pytest.approx(3.0)


class TestCoveringNumbers:
    def test_unit_grid_quarter_radius(self):
        sp = unit_grid()
        lo = int(entropy._packing_counts(sp, 0.25))
        up = covering_number(sp, 0.25)
        assert lo == 2 and up == 2
        assert math.log(covering_number(sp, 0.25)) == pytest.approx(math.log(2.0))

    def test_four_point_line(self):
        sp = space_from_points([[0.0], [1.0], [2.0], [3.0]])
        lo, exact, up = sandwich(sp, 1.0)
        assert exact == 2
        assert lo <= exact <= up

    def test_radius_at_diameter_gives_one(self):
        sp = space_from_points([[0.0], [1.0], [0.5]])
        assert covering_number(sp, 1.0) == 1
        assert exact_cover(sp, 1.0) == 1

    def test_zero_radius_counts_distinct_points(self):
        sp = space_from_points([[0.0], [1.0], [1.0]])
        assert exact_cover(sp, 0.0) == 2

    def test_single_point(self):
        sp = space_from_points([[5.0]])
        assert covering_number(sp, 0.0) == 1

    def test_exact_threshold_enforced(self):
        sp = unit_grid(20)
        with pytest.raises(ValueError, match="exact covering"):
            exact_cover(sp, 0.1)

    def test_negative_radius(self):
        # the greedy cover would loop forever on it
        with pytest.raises(ValueError, match="nonnegative"):
            covering_number(unit_grid(5), -0.1)

    def test_nan_radius(self):
        with pytest.raises(ValueError, match="nonnegative"):
            covering_number(unit_grid(5), float("nan"))

    @given(st.integers(0, 500))
    def test_sandwich_on_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        dim = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, dim)) * rng.uniform(0.2, 5.0)
        sp = space_from_points(pts)
        for q in (0.15, 0.4, 0.8):
            eps = q * sp.diameter / 2.0
            lo, exact, up = sandwich(sp, eps)
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


def radii_counts(space, eps_grid):
    """The packing counts the farthest-point radii give at each radius of ``eps_grid``."""
    radii = entropy.farthest_point_radii(space)
    assert radii.shape == (space.size - 1,)
    assert np.all(np.diff(radii) <= 0)
    return entropy._packing_counts(space, np.asarray(eps_grid, dtype=float)).tolist()


def on_distances(space):
    """Radii eps at which 2eps plus the counts' tolerance is exactly a distance of ``space``:
    there a point at that distance is not separated."""
    tol = 1e-12 * max(1.0, space.diameter)
    near = [(d - tol) / 2.0 for d in np.unique(space.dist) if d > tol]
    found = [e for x in near for e in (np.nextafter(x, 0.0), x, np.nextafter(x, 1.0))
             if 2.0 * e + tol in space.dist]
    assert found
    return found


class TestFarthestPointRadii:
    # one traversal gives, at every radius, the count the per-radius search finds

    def check(self, space, eps_grid):
        want = [packing_count(space, eps) for eps in eps_grid]
        assert radii_counts(space, eps_grid) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        for m in (3, 17, int(rng.integers(50, 301))):
            sp = space_from_points(rng.normal(size=(m, int(rng.integers(1, 4)))))
            self.check(sp, [0.0, *rng.uniform(0.0, 0.7 * sp.diameter, 12)])
            self.check(sp, entropy.default_eps_grid(sp))

    def test_ties(self):
        # (-2, -1) and (-2, 1) are both farthest from (3, 0); taking the first, as the
        # per-radius search does, makes the next radius sqrt(5), where taking the second
        # would make it sqrt(13), and the count at eps = 1.5 three
        sp = space_from_points([[3, 0], [0, -1], [-2, -1], [2, -2], [-2, 1], [0, -2]])
        assert radii_counts(sp, [1.5]) == [2]
        # evenly spaced points and a regular polygon: many points at the farthest distance
        angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        for space in (sp, unit_grid(33),
                      space_from_points(np.column_stack([np.cos(angles), np.sin(angles)]))):
            self.check(space, np.concatenate([np.unique(space.dist), on_distances(space)]))

    def test_zero_off_diagonal_distances(self):
        rng = np.random.default_rng(3)
        sp = space_from_points(rng.integers(0, 4, size=(60, 2)).astype(float))
        assert np.count_nonzero(sp.dist == 0.0) > 60
        self.check(sp, [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0, 5.0])
        same = space_from_points(np.zeros((4, 1)))
        assert entropy.farthest_point_radii(same).tolist() == [0.0, 0.0, 0.0]
        self.check(same, [0.0, 0.5])

    def test_one_and_two_points(self):
        one = space_from_points([[5.0]])
        assert entropy.farthest_point_radii(one).shape == (0,)
        self.check(one, [0.0, 0.5, 1.0])
        two = space_from_points([[0.0], [1.0]])
        assert entropy.farthest_point_radii(two).tolist() == [1.0]
        self.check(two, [0.0, 0.25, 0.5 - 1e-9, 0.5, 0.75])

    def test_integral_lower_integrates_the_packing_counts(self):
        sp = space_from_points(np.random.default_rng(7).normal(size=(14, 2)))
        env = power_log_envelope(2.0, 1.0)
        ent = entropy_integral(sp, env)
        counts = [packing_count(sp, eps) for eps in ent.eps_grid]
        direct = np.trapezoid(np.exp(log_maximum_bound(env, np.log(counts))), ent.eps_grid)
        assert ent.lower == pytest.approx(direct, rel=1e-12)
        exact = [exact_cover(sp, eps) for eps in ent.eps_grid]
        bound = np.trapezoid(np.exp(log_maximum_bound(env, np.log(exact))), ent.eps_grid)
        assert ent.lower <= bound <= ent.value


class TestEntropyIntegral:
    def test_constant_envelope_integral_identity(self):
        env = constant_envelope(1.7, 6.0)
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
            ent = entropy_integral(sp, env)
            eps = ent.eps_grid
            counts = np.array([covering_number(sp, e) for e in eps], dtype=float)
            direct = 1.7 * np.trapezoid(counts ** (1.0 / 6.0), eps)
            assert ent.value == pytest.approx(direct, rel=1e-12)

    def test_spread_space_certifies(self):
        ent = entropy_integral(unit_grid(), power_log_envelope(2.0))
        assert certified(ent)
        assert ent.saturated_fraction < 0.5

    def test_blown_up_space_saturates(self):
        sp = space_from_points(100.0 * np.arange(8.0)[:, None])
        ent = entropy_integral(sp, power_log_envelope(2.0))
        assert not certified(ent)
        assert ent.saturated_fraction == pytest.approx(1.0)

    @pytest.mark.parametrize("coef", [400.0, 354.1])
    def test_overflow_raises_value_error(self, coef):
        # the integrand is at least psi(2) = exp(2 * coef), reached where one ball covers the
        # grid, and at most exp(ln(11) / 2 + 2 * coef) where the 11 points need 11: at 400 it
        # passes ln(DBL_MAX) ~ 709.78 and math.exp overflows; at 354.1 every integrand is
        # finite, but two neighbours past DBL_MAX / 2 overflow the trapezoid sum
        env = exp_power_envelope(coef, 1.0)
        with pytest.raises(ValueError, match="entropy integral overflows a double"):
            entropy_integral(unit_grid(11), env)

    def test_underflowing_integral_is_not_certified(self):
        # lifted by nothing, psi(64) ~ exp(-1424): every integrand underflows to 0, and an
        # integral of 0 measured nothing
        ent = entropy_integral(unit_grid(11), power_log_envelope(2.0, -1000.0))
        assert ent.value == 0.0
        assert certified(ent) is False

    def test_single_point_is_trivial(self):
        sp = space_from_points([[0.0]])
        ent = entropy_integral(sp, power_log_envelope(2.0))
        assert certified(ent)
        assert ent.saturated_fraction == 0.0

    def test_integrand_positive_and_entropy_monotone(self):
        sp = space_from_points(np.random.default_rng(6).normal(size=(10, 2)))
        ent = entropy_integral(sp, power_log_envelope(2.0, 1.0))
        assert np.all(ent.integrand > 0.0)
        assert np.all(np.diff(ent.counts) <= 0)

