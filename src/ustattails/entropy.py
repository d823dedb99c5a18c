"""Covering numbers and entropy integrals on finite semi-metric spaces.

Covering numbers are for closed balls with centers restricted to the space
itself.  Three estimators are provided: a greedy set-cover upper bound, a
2eps-separation packing lower bound, and exact minimum cover by subset
enumeration for spaces of at most 16 points.  The sandwich
packing <= exact <= greedy holds whenever the distance matrix is a true
semi-metric; the estimators themselves only require symmetry.

The entropy integral integrates exp(log_maximum_bound(env, H(eps))) over eps
by the trapezoid rule, where H = ln N is the metric entropy.  On a finite
space H saturates at ln |T| as eps -> 0, so the integral is always finite;
whether it has stabilised below the saturation plateau is reported as the
certification flag instead.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .envelopes import log_maximum_bound

EXACT_THRESHOLD = 16
# integrand mass on saturated eps above this fraction means the eps grid sees
# mostly the finite-space floor, not the geometry, and the integral cannot be
# trusted as a proxy for a continuous-index limit
DEFAULT_PLATEAU_FRACTION = 0.9


@dataclass
class FiniteMetricSpace:
    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        self.labels = tuple(self.labels)
        n = len(self.labels)
        if self.dist.shape != (n, n):
            raise ValueError("distance matrix shape must match the label count")
        if np.any(self.dist < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diagonal(self.dist)) > 1e-12 * max(1.0, self.dist.max())):
            raise ValueError("self-distances must be zero")
        if not np.allclose(self.dist, self.dist.T, rtol=0, atol=1e-12 * max(1.0, self.dist.max())):
            raise ValueError("distance matrix must be symmetric")
        self.dist = (self.dist + self.dist.T) / 2.0
        np.fill_diagonal(self.dist, 0.0)

    @property
    def size(self):
        return len(self.labels)

    @cached_property
    def diameter(self):
        return float(self.dist.max()) if self.size else 0.0


def _cover_matrix(space, eps):
    tol = 1e-12 * max(1.0, space.diameter)
    return space.dist <= eps + tol


def _greedy_cover(space, eps):
    """Size of the cover that picks, while points are uncovered, the center whose
    ball covers the most of them (ties: smallest index)."""
    covers = _cover_matrix(space, eps)
    gains = covers.sum(axis=1)  # uncovered points in each ball, kept as picks cover them
    uncovered = np.ones(space.size, dtype=bool)
    count, left = 0, space.size
    while left:
        center = int(np.argmax(gains))
        gain = int(gains[center])
        if gain == 1:  # each uncovered point covers itself and no other: one pick each
            return count + left
        newly = covers[center] & uncovered
        uncovered &= ~newly
        gains -= covers[:, newly].sum(axis=1)
        left -= gain
        count += 1
    return count


def _packing_count(space, eps):
    """Greedy 2eps-separated set, grown farthest-point from index 0."""
    if space.size == 0:
        return 0
    tol = 1e-12 * max(1.0, space.diameter)
    chosen = [0]
    mind = space.dist[0].copy()
    while True:
        k = int(np.argmax(mind))
        if mind[k] <= 2.0 * eps + tol:
            break
        chosen.append(k)
        mind = np.minimum(mind, space.dist[k])
    return len(chosen)


def check_estimator(estimator, points):
    """Raises ValueError unless ``estimator`` can count the covers of a space of ``points``
    points: ``exact`` enumerates at most EXACT_THRESHOLD."""
    if estimator == "exact" and points > EXACT_THRESHOLD:
        raise ValueError(f"exact covering is limited to {EXACT_THRESHOLD} points, got {points}")


def _exact_cover(space, eps):
    check_estimator("exact", space.size)
    covers = _cover_matrix(space, eps)
    n = space.size
    masks = [sum(1 << j for j in range(n) if covers[i, j]) for i in range(n)]
    full = (1 << n) - 1
    upper = _greedy_cover(space, eps)  # a cover of this size exists: look for a smaller one
    for k in range(1, upper):
        for combo in combinations(range(n), k):
            m = 0
            for i in combo:
                m |= masks[i]
            if m == full:
                return k
    return upper


def covering_number(space, eps, *, estimator="greedy"):
    """N(eps) by ``estimator``; a negative or NaN radius raises ValueError, as every
    estimator would loop forever on it."""
    if not eps >= 0:
        raise ValueError(f"radius must be nonnegative, got {eps!r}")
    if estimator == "greedy":
        return _greedy_cover(space, eps)
    if estimator == "packing":
        return _packing_count(space, eps)
    if estimator == "exact":
        return _exact_cover(space, eps)
    raise ValueError(f"unknown covering estimator {estimator!r}")


@dataclass
class EntropyIntegral:
    value: float
    finite: bool
    eps_grid: np.ndarray
    integrand: np.ndarray
    entropies: np.ndarray
    saturated_fraction: float
    points: int

    @property
    def notes(self):
        if self.points <= 1:
            return ["single-point index set; entropy integral is trivial"]
        return []


def default_eps_grid(space):
    hi = 1.0
    lo = min(space.diameter, 1.0) / 1024.0 if space.diameter > 0 else 1.0 / 1024.0
    return np.geomspace(lo, hi, 64)


def check_eps_grid(eps_grid):
    """The grid as a float array, after checking it lies in (0, 1] and increases strictly."""
    eps = np.asarray(eps_grid, dtype=float)
    if not np.all((eps > 0) & (eps <= 1.0 + 1e-12)):  # false for NaN too
        raise ValueError("eps grid must lie in (0, 1]")
    if np.any(np.diff(eps) <= 0):
        raise ValueError("eps grid must be strictly increasing")
    return eps


def entropy_integral(space, env, eps_grid=None, *, estimator="greedy"):
    """Trapezoid integral of exp(inf_p (H(eps)/p + ln psi(p))) d eps.

    ``finite`` certifies that the mass contributed by eps where the covering
    saturates at |T| stays below DEFAULT_PLATEAU_FRACTION of the integral:
    that is the regime where the finite index set is standing in for a richer
    one and the integral value is geometry-driven rather than floor-driven.
    An integrand or integral past the largest double raises ValueError.
    """
    if eps_grid is None:
        eps_grid = default_eps_grid(space)
    eps = check_eps_grid(eps_grid)
    counts = np.array([covering_number(space, e, estimator=estimator) for e in eps], dtype=float)
    entropies = np.log(counts)
    log_bounds = log_maximum_bound(env, entropies)
    try:
        integrand = np.array([math.exp(v) for v in log_bounds])  # libm's exp, as for one value
        with np.errstate(over="raise"):
            value = float(np.trapezoid(integrand, eps))
    except (OverflowError, FloatingPointError):
        raise ValueError("the entropy integral overflows a double: the lifted envelope's "
                         f"integrand reaches exp({float(log_bounds.max())!r})") from None
    saturated = (counts >= space.size) & (space.size > 1)
    if value > 0 and saturated.any():
        frac = float(np.trapezoid(np.where(saturated, integrand, 0.0), eps)) / value
    else:
        frac = 0.0
    finite = frac < DEFAULT_PLATEAU_FRACTION
    return EntropyIntegral(value, finite, eps, integrand, entropies, frac, space.size)
