"""Empirical moment estimation and tail curves.

A sample is held as its empirical law: the distinct rows with their counts
(:func:`distinct_rows`; a field is folded to them once, when a
``FieldSamples`` is built).  Every empirical L_p norm is a weighted power
mean over them, which scales each column by its largest magnitude, top:
|eta|_p = top * (sum c (|x|/top)^p / sum c)^(1/p).  No term exceeds 1, so
values like 1e200 at p = 64 do not overflow.  A field under an alphabet law
has few distinct rows, so :func:`envelope_distance` costs
O(m^2 * rows * |p|); a sample with no repeated row is read as it is, with
unit counts.  Empirical tails count the same way.  The samples must be
finite: a NaN or inf raises ValueError.  Each estimate is a power mean of
the empirical law, so it is nondecreasing in p (the power-mean inequality)
up to rounding, which ``MomentTable`` checks.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .envelopes import MomentTable, envelope_norm_rows, tabulated_envelope


def distinct_rows(X, counts=None):
    """The distinct rows of the 2-d array X, in first-occurrence order, and their counts.

    Rows are compared bit for bit (``0.0`` and ``-0.0`` differ).  Integer rows
    keep their dtype; any other X is read as floats.  ``counts``, one per row
    of X (unit counts by default), are summed where rows merge.  Returns
    (rows, counts) with counts as floats; a matrix with no repeated row comes
    back in its own order with its own counts.
    """
    X = np.asarray(X)
    X = np.ascontiguousarray(X, dtype=X.dtype if X.dtype.kind in "iu" else float)
    keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.bincount(inverse, weights=counts, minlength=first.size).astype(float)
    order = np.argsort(first)
    return X[first[order]], counts[order]


def check_sample_count(count):
    """Raises ValueError unless ``count`` samples are enough to estimate a moment: two."""
    if not count >= 2:
        raise ValueError("need at least 2 samples to estimate moments")


def _power_means(A, counts, p_grid):
    """Weighted power means (sum c A^p / sum c)^(1/p) of the rows of A, magnitudes
    of shape (columns, atoms), with ``counts`` c the multiplicity of each atom.

    Each row is scaled by its largest entry, so no term exceeds 1 and an
    all-zero row comes out as 0.  A is overwritten.  Returns a
    (columns, len(p_grid)) matrix.
    """
    total = counts.sum()
    check_sample_count(total)
    p = np.asarray(p_grid, dtype=float)
    top = A.max(axis=1)
    if not np.all(np.isfinite(top)):
        raise ValueError("moments need finite samples")
    np.divide(A, top[:, None], out=A, where=top[:, None] > 0)
    with np.errstate(divide="ignore"):
        np.log(A, out=A)
    terms = np.empty_like(A)
    sums = np.empty((A.shape[0], p.size))
    for j, pj in enumerate(p.tolist()):
        np.exp(np.multiply(pj, A, out=terms), out=terms)
        sums[:, j] = np.multiply(terms, counts, out=terms).sum(axis=1)
    return top[:, None] * (sums / total) ** (1.0 / p)


def empirical_moments(samples, p_grid, counts=None):
    """MomentTable of |x|_p over p_grid from a 1-d sample, each value taken ``counts`` times."""
    law = FieldSamples(("",), np.reshape(samples, (-1, 1)), counts)
    return MomentTable(p_grid, column_moments(law, p_grid)[0], law.replications)


@dataclass(frozen=True)
class FieldSamples:
    """The empirical law of a finite-index random field.

    ``values`` holds the bitwise-distinct rows (:func:`distinct_rows`), shape
    (rows, index points), in first-occurrence order; column t holds the field
    at index label ``labels[t]``.  ``counts`` holds each row's multiplicity,
    a positive integer, as a float.  A replication matrix passed without
    counts is folded to this form once, here, and rows passed with counts
    are folded too, their counts summed.  ``decomposition`` holds the exact
    per-label Decompositions the field was centred and scaled by, when the
    simulation had them.  The dataclass is frozen, and ``values``, ``counts``
    and ``sup_abs()`` (computed on first use and kept) are read-only.
    """

    labels: tuple
    values: np.ndarray
    counts: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    decomposition: list | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "labels", tuple(self.labels))
        if values.ndim != 2:
            raise ValueError("field samples must be a 2-d array (reps, points)")
        if values.shape[1] != len(self.labels):
            raise ValueError("label count must match the number of columns")
        if values.shape[0] < 1:
            raise ValueError("need at least one replication")
        counts = None
        if self.counts is not None:
            counts = np.asarray(self.counts, dtype=float)
            if counts.shape != values.shape[:1]:
                raise ValueError(f"need one count per row: {values.shape[0]} rows, "
                                 f"{counts.size} counts")
            if not np.all(np.isfinite(counts) & (counts >= 1) & (counts == np.round(counts))):
                raise ValueError("counts must be positive integers")
        for name, kept in zip(("values", "counts"), distinct_rows(values, counts)):
            kept.flags.writeable = False
            object.__setattr__(self, name, kept)

    @property
    def replications(self):
        return int(self.counts.sum())

    @property
    def size(self):
        return self.values.shape[1]

    def sup_abs(self):
        """Sup over the index of |field|, one per row (read-only, computed once)."""
        return self._sup_abs

    @cached_property
    def _sup_abs(self):
        sup = np.max(np.abs(self.values), axis=1)
        sup.flags.writeable = False
        return sup


def column_moments(field, p_grid):
    """|field_t|_p of each column t over p_grid, as a (columns, len(p_grid)) matrix."""
    return _power_means(np.abs(field.values.T, order="C"), field.counts, p_grid)


def natural_envelope(field, p_grid):
    """Tabulated envelope psi(p) = max over columns of |field_t|_p.

    This is the smallest envelope on the grid under which every column has
    norm at most 1, with equality at the argmax column at some node.
    """
    values = column_moments(field, p_grid).max(axis=0)
    if not np.all(values > 0):
        raise ValueError(
            "field is identically zero at some moment order; no natural envelope"
        )
    return tabulated_envelope(np.asarray(p_grid, dtype=float), values)


# cells of column differences taken per ``_power_means`` call in ``envelope_distance``
_DISTANCE_BLOCK_CELLS = 2 ** 19


def envelope_distance(field, env, *, p_grid):
    """Matrix of envelope norms over ``p_grid`` of pairwise column differences, each
    read over the field's distinct rows weighted by their counts.

    The pairs i < j are differenced in row-major order, as many per block as
    fit in ``_DISTANCE_BLOCK_CELLS`` cells (at least one); each pair's power
    means reduce its own row, so the blocking does not move a bit.
    """
    p = np.asarray(p_grid, dtype=float)
    log_psi = env.log_value(p)
    cols = np.ascontiguousarray(field.values.T)
    upper = np.triu_indices(field.size, 1)
    pairs = np.empty(upper[0].size)
    step = max(1, _DISTANCE_BLOCK_CELLS // cols.shape[1])
    for start in range(0, pairs.size, step):
        i, j = (k[start:start + step] for k in upper)
        diff = cols[i] - cols[j]
        means = _power_means(np.abs(diff, out=diff), field.counts, p)
        pairs[start:start + step] = envelope_norm_rows(means, log_psi)
    dist = np.zeros((field.size, field.size))
    dist[upper] = dist[upper[::-1]] = pairs
    return dist


# -- tail curves -------------------------------------------------------


def check_levels(u_grid):
    """Raises ValueError unless the tail levels are finite and increase strictly."""
    if not np.all(np.isfinite(u_grid)) or np.any(np.diff(u_grid) <= 0):
        raise ValueError("levels must be finite and strictly increasing")


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
        check_levels(self.u_grid)
        if not np.all((self.probs >= -1e-12) & (self.probs <= 1 + 1e-12)):  # NaN fails too
            raise ValueError("probabilities must lie in [0, 1]")
        if np.any(np.diff(self.probs) > 1e-12):
            raise ValueError("tail curves must be nonincreasing in the level")


def law_quantiles(samples, q, counts=None):
    """Quantiles at the levels q of a 1-d sample, each value taken ``counts`` times (once by
    default): ``np.quantile(np.repeat(samples, counts), q)`` by numpy's default 'linear'
    method, read off the sorted values and their cumulative counts."""
    x = np.asarray(samples, dtype=float).ravel()
    c = np.ones(x.size) if counts is None else np.asarray(counts, dtype=float)
    order = np.argsort(x, kind="stable")
    x, ends = x[order], np.cumsum(c[order])  # x[j] fills the sorted positions below ends[j]
    last = ends[-1] - 1
    at = last * np.asarray(q, dtype=float)  # the virtual position (N - 1) q
    below = np.floor(at)
    lo, hi = (x[ends.searchsorted(np.minimum(k, last), "right")] for k in (below, below + 1))
    t = at - below
    return np.where(t >= 0.5, hi - (hi - lo) * (1 - t), lo + (hi - lo) * t)  # numpy's _lerp


def empirical_tail(samples, u_grid, counts=None):
    """Larger one-sided empirical exceedance max(P(X > u), P(-X > u)) of a 1-d sample,
    each value taken ``counts`` times (once by default)."""
    x = np.asarray(samples, dtype=float).ravel()
    c = np.ones(x.size) if counts is None else np.asarray(counts, dtype=float)
    order = np.argsort(x, kind="stable")
    x, below_at = x[order], np.concatenate(([0.0], np.cumsum(c[order])))  # count x[:k]
    total = below_at[-1]
    u = np.asarray(u_grid, dtype=float)
    above = total - below_at[np.searchsorted(x, u, side="right")]  # count x > u
    below = below_at[np.searchsorted(x, -u, side="left")]  # count x < -u
    probs = np.maximum(above, below) / total
    return TailCurve(u, probs, "empirical", sample_count=int(total))
