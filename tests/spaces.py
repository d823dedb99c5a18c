"""Finite metric spaces built from point clouds, and the covering-count oracles the covering
and entropy tests compare the library's counts against."""

from itertools import combinations

import numpy as np

from ustattails import FiniteMetricSpace, covering_number
from ustattails.entropy import _cover_matrix

EXACT_THRESHOLD = 16


def space_from_points(points):
    """Euclidean distances between the rows of a 2-d array, or the values of a 1-d one,
    labelled by position."""
    pts = np.asarray(points, dtype=float)
    pts = pts.reshape(len(pts), -1)
    diff = pts[:, None, :] - pts[None, :, :]
    return FiniteMetricSpace(range(len(pts)), np.sqrt(np.sum(diff * diff, axis=2)))


def packing_count(space, eps):
    """The greedy 2eps-separated set, grown farthest-point from index 0 and stopped at the
    first point within 2eps: the per-radius search that ``farthest_point_radii`` replaced,
    kept as its oracle."""
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


def exact_cover(space, eps):
    """The minimum cover, by enumerating subsets of at most EXACT_THRESHOLD points: the
    oracle between the packing and greedy counts of the covering sandwich."""
    n = space.size
    if n > EXACT_THRESHOLD:
        raise ValueError(f"exact covering is limited to {EXACT_THRESHOLD} points, got {n}")
    covers = _cover_matrix(space, eps)
    masks = [sum(1 << j for j in range(n) if covers[i, j]) for i in range(n)]
    full = (1 << n) - 1
    upper = covering_number(space, eps)  # a cover of this size exists: look for a smaller one
    for k in range(1, upper):
        for combo in combinations(range(n), k):
            m = 0
            for i in combo:
                m |= masks[i]
            if m == full:
                return k
    return upper
