"""Covering numbers and entropy integrals on finite semi-metric spaces.

Covering numbers are for closed balls with centers restricted to the space
itself.  Two counts are kept: the greedy set-cover count, an upper bound on
the minimum cover, which is integrated, and the 2eps-separation packing count
of one farthest-point traversal, a lower bound, which gives the integral's
``lower``.  The sandwich packing <= minimum <= greedy holds whenever the
distance matrix is a true semi-metric; the counts themselves only require
symmetry.

The entropy integral integrates exp(log_maximum_bound(env, H(eps))) over eps
by the trapezoid rule, H = ln N the greedy counts' metric entropy, beside the
same integral of the packing counts.  On a finite space H saturates at ln |T|
as eps -> 0, so the integral is always finite; the share of it contributed on
that saturation plateau is recorded, and ``bounds.Geometry`` certifies from it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .envelopes import log_maximum_bound


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
        bad = np.count_nonzero(~np.isfinite(self.dist))
        if bad:
            raise ValueError(f"{bad} distances are NaN or past the largest double")
        if np.any(self.dist < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diagonal(self.dist)) > 1e-12 * max(1.0, self.dist.max())):
            raise ValueError("self-distances must be zero")
        if not np.allclose(self.dist, self.dist.T, rtol=0, atol=1e-12 * max(1.0, self.dist.max())):
            raise ValueError("distance matrix must be symmetric")
        # (d + dT) / 2 would overflow for a distance past DBL_MAX / 2
        self.dist = self.dist + (self.dist.T - self.dist) / 2.0
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


def farthest_point_radii(space):
    """The m - 1 nonincreasing insertion radii of the farthest-point traversal from index 0
    (Gonzalez 1985): each point's distance to those before it, the farthest next (ties: first)."""
    radii = np.empty(space.size - 1)
    mind = space.dist[0].copy()
    for k in range(radii.size):
        far = int(np.argmax(mind))
        radii[k] = mind[far]
        mind = np.minimum(mind, space.dist[far])
    return radii


def _packing_counts(space, eps):
    """1 + #{k : r_k > 2eps} at each radius of ``eps``, r the farthest-point radii: the
    points the traversal inserts before its first radius within 2eps are 2eps-separated."""
    tol = 1e-12 * max(1.0, space.diameter)
    radii = farthest_point_radii(space)
    return 1 + np.count_nonzero(radii > 2.0 * np.asarray(eps)[..., None] + tol, axis=-1)


def covering_number(space, eps):
    """N(eps), the greedy cover's size: an upper bound on the minimum cover, as the packing
    count of ``_packing_counts`` is a lower one.  A negative or NaN radius raises
    ValueError, as the greedy cover would loop forever on it."""
    if not eps >= 0:
        raise ValueError(f"radius must be nonnegative, got {eps!r}")
    return _greedy_cover(space, eps)


@dataclass
class EntropyIntegral:
    """The integral ``value`` of the greedy covering ``counts`` at each radius of ``eps_grid``,
    whose metric entropies are their logs, with its ``integrand`` there; ``lower``, the same
    integral of the packing counts, a lower bound on the minimum cover's; and the
    ``saturated_fraction`` of ``value`` contributed where the counts saturate at |T|."""

    value: float
    lower: float
    eps_grid: np.ndarray
    integrand: np.ndarray
    counts: np.ndarray
    saturated_fraction: float


def default_eps_grid(space):
    lo = min(space.diameter, 1.0) / 1024.0 if space.diameter > 0 else 1.0 / 1024.0
    return np.geomspace(lo, 1.0, 64)


def entropy_integral(space, env):
    """Trapezoid integral of exp(inf_p (H(eps)/p + ln psi(p))) d eps over the radii of
    ``default_eps_grid``, H the log of the greedy counts, and as ``lower`` that of the
    packing counts, with the fraction of the integral contributed where the covering
    saturates at |T|.  An integrand or integral past the largest double raises ValueError.
    """
    eps = default_eps_grid(space)
    counts = np.array([covering_number(space, e) for e in eps])
    # one pass over p bounds both sides: the greedy entropies, then the packing ones
    entropies = np.log(np.concatenate([counts, _packing_counts(space, eps)]))
    log_bounds = log_maximum_bound(env, entropies)
    try:
        integrand, packed = np.array([math.exp(v) for v in log_bounds]).reshape(2, -1)  # libm's exp
        with np.errstate(over="raise"):
            value, lower = (float(np.trapezoid(y, eps)) for y in (integrand, packed))
    except (OverflowError, FloatingPointError):
        raise ValueError("the entropy integral overflows a double: the lifted envelope's "
                         f"integrand reaches exp({float(log_bounds.max())!r})") from None
    saturated = (counts >= space.size) & (space.size > 1)
    if value > 0 and saturated.any():
        frac = float(np.trapezoid(np.where(saturated, integrand, 0.0), eps)) / value
    else:
        frac = 0.0
    return EntropyIntegral(value, lower, eps, integrand, counts, frac)
