"""Finite metric spaces built from point clouds, for the covering and entropy tests."""

import numpy as np

from ustattails import FiniteMetricSpace


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
