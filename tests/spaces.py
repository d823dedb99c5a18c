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
