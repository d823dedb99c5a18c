"""Empirical moment estimation and tail curves.

Moment tables are estimated in log space: ln |eta|_p = (logsumexp(p ln|x|) -
ln n) / p, which survives values like 1e200 at p = 64 without overflow.
Sampling noise can make the estimated p -> |eta|_p map locally decreasing,
which no true moment curve is, so estimates pass through a pool-adjacent-
violators step and the size of the repair is reported on the table.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .envelopes import MomentTable, envelope_norm, tabulated_envelope

# moment orders beyond kappa * ln(n) are dominated by the sample maximum and
# carry little information; tables flag them rather than refuse them
DEFAULT_KAPPA = 4.0


def _logsumexp_rows(a):
    """ln sum_j exp(a[i, j]) for each row of a finite 2-d array.

    Follows scipy.special.logsumexp: the m terms equal to the row maximum are
    counted rather than summed, and the result is log1p(s/m) + ln m + max,
    where s sums the remaining terms shifted by the maximum.
    """
    a_max = a.max(axis=1, keepdims=True)
    ties = a == a_max
    m = ties.sum(axis=1, keepdims=True)
    s = np.exp(np.where(ties, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max)[:, 0]


def _pava_nondecreasing(values):
    """Project onto nondecreasing sequences (L2, unit weights).

    Returns (projected, max_violation) where the violation is measured as
    max over j of (running max before j) - values[j] on the raw input.
    """
    v = np.asarray(values, dtype=float)
    run = np.maximum.accumulate(v)
    violation = float(np.max(run - v)) if v.size else 0.0
    # stack-based pool adjacent violators
    means = []
    counts = []
    for x in v:
        means.append(float(x))
        counts.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            m2, c2 = means.pop(), counts.pop()
            m1, c1 = means.pop(), counts.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            counts.append(c1 + c2)
    out = np.concatenate([np.full(c, m) for m, c in zip(means, counts)]) if v.size else v
    return out, violation


def empirical_moments(samples, p_grid, *, label=""):
    """MomentTable of |x|_p over p_grid from a 1-d sample."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 samples to estimate moments")
    p = np.asarray(p_grid, dtype=float)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(x))
    finite = log_abs > -np.inf
    if not finite.any():
        log_norms = np.full(p.size, -np.inf)
    else:
        la = log_abs[finite]
        # zeros contribute nothing to the p-th moment sum
        log_norms = (_logsumexp_rows(p[:, None] * la[None, :]) - math.log(x.size)) / p
    values = np.exp(log_norms)
    values, violation = _pava_nondecreasing(values)
    low = p > DEFAULT_KAPPA * math.log(x.size)
    return MomentTable(
        p_grid=p,
        values=values,
        sample_count=x.size,
        label=label,
        low_confidence=low,
        pava_violation=violation,
    )


@dataclass
class FieldSamples:
    """Replicated draws of a finite-index random field.

    ``values`` has shape (replications, index points); column t holds the
    draws of the field at index label ``labels[t]``.
    """

    labels: tuple
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.labels = tuple(self.labels)
        if self.values.ndim != 2:
            raise ValueError("field samples must be a 2-d array (reps, points)")
        if self.values.shape[1] != len(self.labels):
            raise ValueError("label count must match the number of columns")
        if self.values.shape[0] < 1:
            raise ValueError("need at least one replication")

    @property
    def replications(self):
        return self.values.shape[0]

    @property
    def size(self):
        return self.values.shape[1]

    def sup_abs(self):
        """Per-replication sup over the index of |field|."""
        return np.max(np.abs(self.values), axis=1)


def column_moments(field, p_grid):
    """One MomentTable per field column."""
    return [
        empirical_moments(field.values[:, t], p_grid, label=str(field.labels[t]))
        for t in range(field.size)
    ]


def natural_envelope(field, p_grid):
    """Tabulated envelope psi(p) = max over columns of |field_t|_p.

    This is the smallest envelope on the grid under which every column has
    norm at most 1, with equality at the argmax column at some node.
    """
    tables = column_moments(field, p_grid)
    values = np.max([t.values for t in tables], axis=0)
    if not np.all(values > 0):
        raise ValueError(
            "field is identically zero at some moment order; no natural envelope"
        )
    return tabulated_envelope(np.asarray(p_grid, dtype=float), values)


def envelope_distance(field, env, *, p_grid=None):
    """Matrix of envelope norms of pairwise column differences.

    Defaults to the envelope's own nodes for tabulated envelopes; other
    families need an explicit p_grid.
    """
    if p_grid is None:
        if env.family != "tabulated":
            raise ValueError("p_grid is required for non-tabulated envelopes")
        p_grid = env.params[0]
    p = np.asarray(p_grid, dtype=float)
    m = field.size
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            diff = field.values[:, i] - field.values[:, j]
            if not np.any(diff):
                continue
            table = empirical_moments(diff, p)
            dist[i, j] = dist[j, i] = envelope_norm(table, env)
    return dist


# -- tail curves -------------------------------------------------------


@dataclass
class TailCurve:
    """Tail probabilities over a grid of levels, empirical or bound.

    The empirical tail statistic is the larger of the two one-sided
    exceedance probabilities max(P(X > u), P(-X > u)); bound curves hold
    whatever the bound produces, clipped to [0, 1].
    """

    u_grid: np.ndarray
    probs: np.ndarray
    kind: str
    sample_count: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.u_grid = np.asarray(self.u_grid, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.u_grid.shape != self.probs.shape or self.u_grid.ndim != 1:
            raise ValueError("levels and probabilities must be matching 1-d arrays")
        if self.kind not in ("empirical", "upper_bound", "lower_bound"):
            raise ValueError(f"unknown tail curve kind {self.kind!r}")
        if np.any(np.diff(self.u_grid) <= 0):
            raise ValueError("levels must be strictly increasing")
        if np.any(self.probs < -1e-12) or np.any(self.probs > 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(self.probs) > 1e-12):
            raise ValueError("tail curves must be nonincreasing in the level")


def empirical_tail(samples, u_grid, *, kind="empirical"):
    """Larger one-sided empirical exceedance max(P(X > u), P(-X > u))."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    u = np.asarray(u_grid, dtype=float)
    above = x.size - np.searchsorted(x, u, side="right")  # count x > u
    below = np.searchsorted(x, -u, side="left")  # count x < -u
    probs = np.maximum(above, below) / x.size
    return TailCurve(u, probs, kind, sample_count=x.size)
