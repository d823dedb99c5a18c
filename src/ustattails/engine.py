"""U-statistic simulation engine.

Replication i of every experiment draws from its own counter-based stream
keyed by (seed, i), so results do not depend on chunk sizes or evaluation
order and any single replication can be reproduced in isolation.  Data draws
and subset draws for incomplete averaging use separately salted keys.
Samplers that map raw words to values (finite alphabets and the uniform law)
draw the panel from vectorized Philox4x64-10 passes over cache-sized chunks
of replications, bit for bit those streams; the others draw through one
generator per replication.

Built-in kernels average exactly in closed form whatever the number of
index subsets; other kernels enumerate all index subsets of size d, and
above the tuple budget switch to incomplete averaging with a note.  Exact
averaging reads each sample sorted ascending, so a field row is a function
of the sample's multiset: under an alphabet law, replications of one type
give bit-identical rows (Hoeffding 1948), and ``simulate_panel`` averages
each distinct sorted sample once, keying each chunk of raw words by type as
it is made rather than building the panel.  Incomplete averaging reads the
sample as drawn.  Decompositions into canonical (completely degenerate)
projection terms are available under samplers with a finite weighted
alphabet, and give exact means, variances, and ranks; built-in factor
kernels decompose in closed form at any degree.
"""

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations

import numpy as np

from .empirics import FieldSamples, distinct_rows

EXACT_TUPLE_BUDGET = 2_000_000
RANK_TOL = 1e-10
DECOMP_MAX_DEGREE = 4
_DECOMP_MAX_CELLS = 20_000_000

_LANE_SALTS = {"data": 0, "tuples": 0x9E3779B97F4A7C15}
_U64 = 0xFFFFFFFFFFFFFFFF


def _stream(seed, rep, lane="data"):
    """Independent generator for one replication of one lane."""
    key = np.array(
        [(int(seed) ^ _LANE_SALTS[lane]) & _U64, int(rep) & _U64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)  # Generator.random() makes the double (word >> 11) 2^-53 of a word


# 64-bit words per pass over a chunk of replications: its ten arrays (1.25 MiB) stay in L2
_PHILOX_CHUNK_WORDS = 1 << 14


def _mulhilo(m, x, lo, hi, a, b):
    """Writes to lo and hi the low and high words of m times each word of x (a, b: scratch)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=a)
    np.right_shift(np.multiply(a, m_lo, out=b), _SH32, out=b)
    np.right_shift(x, _SH32, out=hi)
    b += np.multiply(hi, m_lo, out=lo)  # t = x_hi m_lo + (x_lo m_lo >> 32), below 2^64
    a *= m_hi
    a += np.bitwise_and(b, _LO32, out=lo)
    a >>= _SH32  # carry of x_lo m_hi + (t mod 2^32)
    b >>= _SH32
    hi *= m_hi
    hi += b
    hi += a
    np.multiply(x, np.uint64(m), out=lo)


def _philox_chunks(seed, reps, words, lane="data"):
    """Yields (start, block) for each chunk of replications in turn: block is a new
    (rows, words) uint64 array, row r holding the first ``words`` outputs of
    ``_stream(seed, start + r, lane)``.

    numpy's Philox keys replication i by ((seed ^ salt) mod 2^64, i) and
    encrypts the counters 1, 2, ... in turn, each giving four words.
    """
    blocks = -(-words // 4)
    k0 = (int(seed) ^ _LANE_SALTS[lane]) & _U64
    # round 0 takes counter (b, 0, 0, 0), key (k0, i) to (k0, 0, hi(M0 b) ^ i, lo(M0 b))
    lo_first, hi_first = (np.array([(_PHILOX_M[0] * b >> s) & _U64 for b in range(1, blocks + 1)],
                                   dtype=np.uint64) for s in (0, 64))
    chunk = max(1, _PHILOX_CHUNK_WORDS // max(1, blocks))
    pool = [np.empty((min(chunk, reps), blocks), dtype=np.uint64) for _ in range(10)]
    for start in range(0, reps, chunk):
        c0, c1, c2, c3, lo0, hi0, lo1, hi1, a, b = (buf[: reps - start] for buf in pool)
        k1 = np.arange(start, start + c0.shape[0], dtype=np.uint64)[:, None]
        c0[...], c1[...], c3[...] = k0, 0, lo_first
        np.bitwise_xor(hi_first, k1, out=c2)
        for r in range(1, 10):
            k1 += np.uint64(_PHILOX_W[1])
            _mulhilo(_PHILOX_M[0], c0, lo0, hi0, a, b)
            _mulhilo(_PHILOX_M[1], c2, lo1, hi1, a, b)
            hi1 ^= c1
            hi1 ^= np.uint64((k0 + r * _PHILOX_W[0]) & _U64)
            hi0 ^= c3
            hi0 ^= k1
            c0, c1, c2, c3, lo0, hi0, lo1, hi1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
        yield start, np.stack((c0, c1, c2, c3), axis=2).reshape(c0.shape[0], 4 * blocks)[:, :words]


def _philox_raw(seed, reps, words, lane="data"):
    """(reps, words) uint64: the first ``words`` outputs of ``_stream(seed, i, lane)``
    for every replication i, gathered from ``_philox_chunks``."""
    out = np.empty((reps, words), dtype=np.uint64)
    for start, block in _philox_chunks(seed, reps, words, lane):
        out[start : start + block.shape[0]] = block
    return out


# -- samplers ----------------------------------------------------------


@dataclass
class Sampler:
    """A distribution for the i.i.d. inputs.

    ``alphabet`` is (values, weights) when the distribution is finitely
    supported; that is what makes exact decompositions available.
    ``from_words``, when set, maps an array of the generator's raw 64-bit
    words (which it may overwrite) to the values ``draw`` would return from
    the same stream, so ``draw_data`` draws a panel without a generator per
    replication.  ``cuts``, set with an alphabet, holds the uint64 cut of
    each symbol: a word draws symbol k of ``alphabet[0]`` when k cuts are at
    most ``word >> 11``.  ``from_words`` and the symbol counts of
    ``simulate_panel`` both read it; an alphabet without cuts is folded by
    ``simulate_panel`` only after its whole panel is drawn and sorted.
    """

    name: str
    draw: callable
    alphabet: tuple | None = None
    from_words: Callable | None = None
    cuts: np.ndarray | None = None


def alphabet_sampler(values, weights=None, *, name="alphabet"):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("alphabet needs a 1-d array of values")
    s = np.sort(v)
    if np.any(s[1:] == s[:-1]):
        raise ValueError("alphabet values must be distinct")
    if weights is None:
        w = np.full(v.size, 1.0 / v.size)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative and match the values")
        w = w / w.sum()
    cdf = w.cumsum()
    cdf /= cdf[-1]  # as Generator.choice normalizes p, then searches it from the right
    # a word's double u = (word >> 11) 2^-53 is at least c exactly when
    # word >> 11 >= ceil(c 2^53), since c 2^53 is exact
    cuts = np.ceil(cdf * 2.0**53).astype(np.uint64)

    def draw(rng, size):
        return rng.choice(v, size=size, p=w)

    def from_words(raw):
        return v.take(cuts.searchsorted(np.right_shift(raw, _SH11, out=raw), "right"))

    return Sampler(name, draw, (v, w), from_words, cuts)


def check_alphabet_law(values, weights=None):
    """Raises ValueError unless ``alphabet_sampler(values, weights)`` is a law with at least
    two values of positive weight: on one point every U-statistic is constant."""
    if np.count_nonzero(alphabet_sampler(values, weights).alphabet[1]) < 2:
        raise ValueError("an alphabet law needs at least two values of positive weight")


def rademacher_sampler():
    return alphabet_sampler([-1.0, 1.0], name="rademacher")


def normal_sampler():
    return Sampler("normal", lambda rng, size: rng.standard_normal(size))


def uniform_sampler(lo=0.0, hi=1.0):
    if not hi > lo:
        raise ValueError("need hi > lo")

    def draw(rng, size):
        return rng.uniform(lo, hi, size)

    return Sampler("uniform", draw, from_words=lambda w: lo + (hi - lo) * ((w >> _SH11) * 2.0**-53))


def pareto_sampler(a):
    """Symmetric heavy-tailed law: |X| is Pareto with index a, sign fair.

    Moments of order p >= a are infinite, so constant envelopes with
    p_sup < a are the only honest description of this law.
    """
    if not a > 0:
        raise ValueError("pareto index must be positive")

    def draw(rng, size):
        mag = 1.0 + rng.pareto(a, size)
        sign = rng.integers(0, 2, size) * 2.0 - 1.0
        return mag * sign

    return Sampler("pareto", draw)


def lognormal_sampler(sigma=1.0):
    """Signed lognormal: sign * exp(sigma Z).

    |X|_p = exp(sigma^2 p / 2) exactly, the cleanest law whose moment growth
    follows the exponential-power envelope with unit power.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")

    def draw(rng, size):
        mag = np.exp(sigma * rng.standard_normal(size))
        sign = rng.integers(0, 2, size) * 2.0 - 1.0
        return mag * sign

    return Sampler("lognormal", draw)


# -- kernels -----------------------------------------------------------


@dataclass
class Kernel:
    """Symmetric kernel of a given degree, evaluated over an index grid.

    ``fn(xs, t)`` takes a tuple of ``degree`` broadcastable arrays and an
    index label from ``t_grid``.  Scalar kernels use the single label "t0".

    ``closed_form(X, t)``, when set, returns for each row of the (reps, n)
    matrix X the exact mean of ``fn`` over all C(n, degree) index subsets;
    ``u_statistic_panel`` hands it rows sorted ascending.
    ``alphabet_decomposition(values, weights, t)``, when set, returns the
    mean of ``fn`` over i.i.d. arguments drawn from a finite weighted
    alphabet, the second moments of its canonical projections and the
    projections themselves, as ``hoeffding_decompose`` reads them.
    """

    name: str
    degree: int
    t_grid: tuple
    fn: callable
    closed_form: Callable | None = None
    alphabet_decomposition: Callable | None = None


GPROD_SHAPES = {"sin": np.sin, "tanh": np.tanh, "identity": lambda x: x}
# kernels of one degree; the others take any degree from 1, and 2 by default
_FIXED_DEGREES = {"half_sq_diff": 2, "table": 1}


def check_degree(degree, name):
    """Raises ValueError unless the kernel ``name`` takes ``degree`` arguments."""
    fixed = _FIXED_DEGREES.get(name)
    if fixed is not None and degree != fixed:
        raise ValueError(f"{name} has degree {fixed}")
    if not degree >= 1:
        raise ValueError("degree must be at least 1")


def check_table_law(values, sampler):
    """Raises ValueError unless ``sampler`` takes only ``values``, the alphabet a table
    kernel is defined on; the exact decomposition reads the table at every value of the law."""
    if sampler.alphabet is None:
        raise ValueError(f"a table kernel is defined on its values alone, and sampler "
                         f"{sampler.name!r} draws from a continuum")
    off = sorted(set(sampler.alphabet[0].tolist()) - set(values))
    if off:
        raise ValueError(f"a table kernel is defined on its values alone, and sampler "
                         f"{sampler.name!r} also takes {', '.join(map(repr, off))}")


def _alternating_order(n):
    """Positions 0, n-1, 1, n-2, ...: smallest, largest, second smallest, ... of a sorted row."""
    order = np.empty(n, dtype=np.intp)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n - 1) // 2, -1)
    return order


class _FactorTerms(Sequence):
    """The canonical projections ``scales[c-1] * g(x_1)...g(x_c)`` of a factor kernel, each
    built when it is read, since the order-c one holds len(g)^c cells."""

    def __init__(self, g, scales):
        self.g, self.scales = g, scales

    def __len__(self):
        return len(self.scales)

    def __getitem__(self, i):
        return self.scales[i] * reduce(np.multiply.outer, [self.g] * (range(len(self))[i] + 1))


def _factor_kernel(name, degree, t_grid, factor, combine):
    """Kernel folding ``combine(out, factor(x, t))`` left to right over its arguments."""
    d = 2 if degree is None else int(degree)

    def fn(xs, t):
        out = factor(xs[0], t)
        for x in xs[1:]:
            out = combine(out, factor(x, t))
        return out

    if combine is operator.add:
        # each observation sits in the fraction d/n of the subsets
        def closed_form(X, t):
            return d * factor(X, t).mean(axis=1)

    else:
        # the sum over subsets is the elementary symmetric polynomial e_d of the
        # factor values, built by e_k <- e_k + f_i e_(k-1) without cancellation.
        # It visits a sorted row smallest, largest, second smallest, ...: under a
        # zero-mean law the partial sums stay small, and so does the rounding of
        # cells whose exact value is 0.
        def closed_form(X, t):
            e = np.zeros((d + 1, X.shape[0]))
            e[0] = 1.0
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite cells are counted later
                for f in factor(X.T[_alternating_order(X.shape[1])], t):
                    e[1:] += f * e[:-1]
            return e[d] / math.comb(X.shape[1], d)

    def alphabet_decomposition(values, weights, t):
        f = factor(values, t)
        mu = float(weights @ f)
        g = f - mu
        if combine is operator.add:  # d mu + sum_i g(x_i): only the order-1 projection is g
            mean, scales = d * mu, np.eye(1, d)[0]
        else:  # prod_i (mu + g(x_i)): the order-c projection is mu^(d-c) g(x_1)...g(x_c)
            powers = np.cumprod(np.full(d, mu))  # mu, mu^2, ..., mu^d
            mean, scales = powers[-1], np.append(powers[-2::-1], 1.0)
        # the projections are orthogonal, so zeta_c = scale_c^2 sigma^(2c) (Hoeffding 1948)
        zetas = scales * scales * np.cumprod(np.full(d, float(weights @ (g * g))))
        return float(mean), zetas, _FactorTerms(g, scales)

    return Kernel(name, d, t_grid, fn, closed_form, alphabet_decomposition)


def make_kernel(name, degree=None, *, shift=0.0, g="sin", t_grid=None, values=None, table=None):
    if degree is not None:
        check_degree(degree, name)
    if name in ("product", "sum"):
        combine = operator.mul if name == "product" else operator.add
        return _factor_kernel(name, degree, ("t0",), lambda x, t: x - shift, combine)
    if name == "half_sq_diff":

        def fn(xs, t):
            diff = xs[0] - xs[1]
            return 0.5 * diff * diff

        return Kernel("half_sq_diff", 2, ("t0",), fn, lambda X, t: X.var(axis=1, ddof=1))
    if name == "gprod":
        if t_grid is None:
            raise ValueError("gprod needs a numeric t_grid")
        shape_fn = GPROD_SHAPES.get(g)
        if shape_fn is None:
            raise ValueError(f"unknown gprod shape {g!r}")
        grid = tuple(float(t) for t in t_grid)
        return _factor_kernel("gprod", degree, grid, lambda x, t: shape_fn(t * x), operator.mul)
    if name == "table":
        if values is None or table is None:
            raise ValueError("table kernels need alphabet values and a value table")
        v = np.asarray(values, dtype=float)
        tab = np.atleast_2d(np.asarray(table, dtype=float))
        if np.any(np.diff(v) <= 0):
            raise ValueError("table alphabet values must be strictly increasing")
        if tab.shape[0] != v.size:
            raise ValueError("table must have one row per alphabet value")
        grid = tuple(t_grid) if t_grid is not None else tuple(
            f"t{j}" for j in range(tab.shape[1])
        )
        if len(grid) != tab.shape[1]:
            raise ValueError("t_grid length must match the table column count")
        col = {t: j for j, t in enumerate(grid)}

        def lookup(x, t):
            idx = np.clip(np.searchsorted(v, x), 0, v.size - 1)
            if np.any(v[idx] != x):
                raise ValueError("a table kernel is defined on its values alone")
            return tab[idx, col[t]]

        return _factor_kernel("table", 1, grid, lookup, operator.mul)
    raise ValueError(f"unknown kernel {name!r}")

# -- averaging ---------------------------------------------------------


@lru_cache(maxsize=64)
def _index_tuples(n, d):
    return np.array(list(combinations(range(n), d)), dtype=np.intp)


def _sample_tuples(rng, n, d, count):
    """Random index tuples with distinct coordinates, vectorized rejection."""
    out = np.empty((count, d), dtype=np.intp)
    need = count
    filled = 0
    while need > 0:
        cand = rng.integers(0, n, size=(need, d))
        good = cand[np.all(np.diff(np.sort(cand, axis=1), axis=1) > 0, axis=1)]
        out[filled : filled + good.shape[0]] = good
        filled += good.shape[0]
        need = count - filled
    return out


def check_subsets(subsets):
    """Raises ValueError unless incomplete averaging draws at least one tuple per replication."""
    if not subsets >= 1:
        raise ValueError("incomplete averaging needs at least one subset")


def check_sample_size(n, degree):
    """Raises ValueError unless a sample of n observations holds a tuple of ``degree`` and more."""
    if not n > degree:
        raise ValueError(f"need more than degree = {degree} observations, got {n}")


def _resolve_mode(kernel, n, subsets):
    """Returns (kind, tuple_count, notes) for ``subsets`` random tuples per
    replication of n observations, or for exact averaging when ``subsets`` is None.

    The tuple budget limits only the gather path: a kernel with a closed form
    averages exactly at any C(n, d).
    """
    d = kernel.degree
    check_sample_size(n, d)
    total = math.comb(n, d)
    if subsets is None:
        if total > EXACT_TUPLE_BUDGET and kernel.closed_form is None:
            return "incomplete", EXACT_TUPLE_BUDGET, [
                f"exact averaging needs {total} tuples, over the budget of "
                f"{EXACT_TUPLE_BUDGET}; switched to incomplete averaging"
            ]
        return "exact", total, []
    check_subsets(subsets)
    if subsets >= total:
        return "exact", total, [
            f"requested {subsets} subsets but only {total} exist; using exact averaging"
        ]
    return "incomplete", subsets, []


def u_statistic_matrix(kernel, X, idx):
    """Averages over given index tuples for a batch of datasets.

    X has shape (batch, n), idx has shape (tuples, d); returns
    (batch, len(t_grid)).  The gathers are row-major, so each row is summed
    in the same order, and gives the same bits, whatever the batch.
    """
    X = np.asarray(X, dtype=float)
    gathers = tuple(X.take(idx[:, k], axis=1) for k in range(kernel.degree))
    out = np.empty((X.shape[0], len(kernel.t_grid)))
    for j, t in enumerate(kernel.t_grid):
        out[:, j] = np.mean(kernel.fn(gathers, t), axis=1)
    return out


# -- exact decomposition ------------------------------------------------


@dataclass
class Decomposition:
    """Canonical decomposition of one kernel component.

    ``zetas[c-1]`` is the second moment of the order-c canonical projection;
    ``rank`` is the smallest order with nonzero projection, and the variance
    of the corresponding U-statistic decays like n^(-rank).  ``terms[c-1]``
    holds the order-c projection on the alphabet grid, for diagnostics.
    """

    t: object
    mean: float
    zetas: np.ndarray
    rank: int
    degenerate: bool
    terms: Sequence


def _tensor_decomposition(kernel, values, probs, t):
    """(mean, zetas, terms) of one kernel component from its table on the alphabet grid:
    conditional means by contraction, then each projection by subtracting every
    lower-order one."""
    d = kernel.degree
    if d > DECOMP_MAX_DEGREE:
        raise ValueError(f"decomposition supports degree up to {DECOMP_MAX_DEGREE}")
    if values.size ** d > _DECOMP_MAX_CELLS:
        raise ValueError("alphabet too large for an exact degree-d table")
    grids = np.meshgrid(*([values] * d), indexing="ij")
    F = np.asarray(kernel.fn(tuple(grids), t), dtype=float)
    if F.shape != (values.size,) * d:
        F = np.broadcast_to(F, (values.size,) * d).copy()

    # conditional means h_c, contracting one trailing axis at a time
    h = [None] * (d + 1)
    h[d] = F
    for c in range(d - 1, -1, -1):
        h[c] = np.tensordot(h[c + 1], probs, axes=([c], [0]))
    mean = float(h[0])

    # canonical projections by subtracting all proper lower-order terms
    gs = [np.asarray(mean)]
    zetas = np.empty(d)
    for c in range(1, d + 1):
        g = h[c] - mean
        for k in range(1, c):
            for subset in combinations(range(c), k):
                shape = [1] * c
                for pos in subset:
                    shape[pos] = values.size
                g = g - gs[k].reshape(shape)
        z = g * g
        for _ in range(c):
            z = np.tensordot(z, probs, axes=([0], [0]))
        zetas[c - 1] = float(z)
        gs.append(g)
    return mean, zetas, gs[1:]


def hoeffding_decompose(kernel, sampler, t=None):
    """Exact canonical decomposition under the sampler's finite alphabet.

    A kernel's ``alphabet_decomposition`` gives it in closed form; any other
    kernel is tabulated on the alphabet grid, up to degree
    ``DECOMP_MAX_DEGREE``.  Projection moments at most ``RANK_TOL`` times
    the largest count as zero.  A degenerate (almost surely constant)
    component carries ``rank = degree``, so the rank of a field is the
    smallest rank of its components.  A mean or projection moment that is not
    finite raises ValueError.
    """
    if sampler.alphabet is None:
        raise ValueError(f"sampler {sampler.name!r} has no finite alphabet")
    if t is None:
        if len(kernel.t_grid) != 1:
            raise ValueError("pick an index label t for a multi-point kernel")
        t = kernel.t_grid[0]
    decompose = kernel.alphabet_decomposition or partial(_tensor_decomposition, kernel)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        mean, zetas, terms = decompose(*sampler.alphabet, t)
    if not (math.isfinite(mean) and np.isfinite(zetas).all()):
        raise ValueError(f"the decomposition at t = {t} is not finite (mean {mean!r}, zetas "
                         f"{zetas.tolist()!r}): the kernel overflows on this alphabet")
    scale = float(zetas.max(initial=0.0))
    if scale <= 0.0:
        return Decomposition(t, mean, np.zeros(kernel.degree), kernel.degree, True, terms)
    zetas[zetas <= RANK_TOL * scale] = 0.0
    rank = int(np.argmax(zetas > 0.0)) + 1
    return Decomposition(t, mean, zetas, rank, False, terms)


def decompose_field(kernel, sampler):
    """One Decomposition per index label."""
    return [hoeffding_decompose(kernel, sampler, t) for t in kernel.t_grid]


DEFAULT_SLOPE_GRID = (16, 32, 64, 128, 256)


@dataclass
class UVariance:
    var: float
    slope: float


def variance_value(decomp, n):
    """Exact Var(U_n) from the canonical projection second moments.

    The averaged statistic splits into uncorrelated order-c averages of the
    canonical terms, each entering comb(d, c) times and carrying variance
    zeta_c / comb(n, c), so the pieces add with squared multiplicities.
    """
    d = len(decomp.zetas)
    if n <= d:
        raise ValueError(f"need n > degree = {d}")
    acc = 0.0
    for c in range(1, d + 1):
        acc += math.comb(d, c) ** 2 * decomp.zetas[c - 1] / math.comb(n, c)
    return acc


def variance_u(decomp, n):
    """Exact variance at n plus the log-log decay slope over ``DEFAULT_SLOPE_GRID``."""
    var = variance_value(decomp, n)
    grid = np.asarray(DEFAULT_SLOPE_GRID)
    if decomp.degenerate:
        return UVariance(var, 0.0)
    vals = np.array([variance_value(decomp, int(m)) for m in grid])
    if np.any(vals <= 0):
        return UVariance(var, 0.0)
    slope = float(np.polyfit(np.log(grid.astype(float)), np.log(vals), 1)[0])
    return UVariance(var, slope)


# -- normalization and panels -------------------------------------------


def check_rank(rank):
    """Raises ValueError unless ``rank``, the power of sqrt(n) that scales the field, is an
    integer of at least 1: a rank is the first projection order with positive variance."""
    if not (float(rank).is_integer() and rank >= 1):
        raise ValueError(f"rank must be an integer of at least 1, got {rank!r}")


def deviation_scale(n, rank):
    """Scale n^(rank/2) applied to U_n minus its mean to form the deviation field."""
    return float(n) ** (rank / 2.0)


def draw_data(sampler, n, reps, seed):
    """(reps, n) matrix; row i comes from the stream keyed by (seed, i)."""
    if sampler.from_words is not None:
        return sampler.from_words(_philox_raw(seed, reps, n))
    X = np.empty((reps, n))
    for i in range(reps):
        X[i] = sampler.draw(_stream(seed, i, "data"), n)
    return X


def _symbol_counts(high, cuts):
    """(rows, len(cuts)) count of each symbol in each row of ``high``, words shifted
    right by 11.  A word draws the symbol whose index is the number of cuts at
    most it; one ``bincount`` over the row-offset symbol indices counts every row."""
    rows, a = high.shape[0], cuts.size
    code = cuts.searchsorted(high, "right")
    code += np.arange(0, rows * a, a)[:, None]
    return np.bincount(code.ravel(), minlength=rows * a).reshape(rows, a)


def _draw_types(sampler, n, reps, seed):
    """The distinct rows of ``draw_data(sampler, n, reps, seed)`` sorted along each row, in
    order of first occurrence, and their counts, for a sampler with ``cuts``.

    A sorted sample of an alphabet law is fixed by its type, the count of each
    symbol.  Each chunk of Philox words is counted as it is made, into one
    byte per symbol and replication when n < 256, so the (reps, n) panel is
    never built; the types are then folded once.
    """
    values = sampler.alphabet[0]
    order = np.argsort(values, kind="stable")
    key = np.empty((reps, values.size), dtype=np.min_scalar_type(n))
    for start, block in _philox_chunks(seed, reps, n):
        counts = _symbol_counts(np.right_shift(block, _SH11, out=block), sampler.cuts)
        # columns in ascending value order; "clip" writes into the key without the buffered
        # copy of ``out`` that take makes in its default mode
        np.take(counts, order, axis=1, out=key[start : start + len(counts)], mode="clip")
    types, counts = distinct_rows(key)
    held = np.flatnonzero(types != 0)  # row by row, ascending in value within each row
    samples = np.repeat(values[order].take(held % values.size), types.ravel()[held])
    return samples.reshape(len(types), n), counts


def _ascending_rows(X):
    """X itself when each of its rows is sorted ascending, else a row-sorted copy."""
    if np.all(X[:, 1:] >= X[:, :-1]):
        return X
    return np.sort(X, axis=1)


def _exact_rows(kernel, X):
    """Exact U-statistic matrix (rows of X, t_grid): the closed form, else a gather of
    every index subset.  Both compute each row from that row of X alone."""
    out = np.empty((X.shape[0], len(kernel.t_grid)))
    if kernel.closed_form is not None:
        for j, t in enumerate(kernel.t_grid):
            out[:, j] = kernel.closed_form(X, t)
        return out
    idx = _index_tuples(X.shape[1], kernel.degree)
    step = max(1, min(4096, 4_000_000 // idx.shape[0]))  # about 4e6 kernel evaluations
    for lo in range(0, X.shape[0], step):
        out[lo : lo + step] = u_statistic_matrix(kernel, X[lo : lo + step], idx)
    return out


def u_statistic_panel(kernel, X, subsets=None, *, seed=0):
    """U-statistic matrix (reps, t_grid) for a panel of datasets.

    ``subsets=None`` averages exactly: through the kernel's closed form when
    it has one, and by gathering every index subset otherwise.  Exact
    averaging reads each sample sorted ascending, so its row of the result is
    a function of the sample's multiset: permuting a sample leaves the row
    bit for bit unchanged, and equal samples give equal rows.  An integer
    averages that many index tuples per replication, drawn afresh from the
    tuple lane keyed by (seed, replication index); the tuples address the
    drawn positions, so X is read as drawn.
    """
    X = np.asarray(X, dtype=float)
    reps, n = X.shape
    d = kernel.degree
    kind, count, notes = _resolve_mode(kernel, n, subsets)
    if kind == "exact":
        return _exact_rows(kernel, _ascending_rows(X)), kind, count, notes
    out = np.empty((reps, len(kernel.t_grid)))
    for i in range(reps):
        idx = _sample_tuples(_stream(seed, i, "tuples"), n, d, count)
        out[i] = u_statistic_matrix(kernel, X[i : i + 1], idx)[0]
    return out, kind, count, notes


def simulate_panel(
    kernel,
    sampler,
    n,
    reps,
    seed,
    *,
    rank=None,
    mean_per_t=None,
    subsets=None,
):
    """Replicated draws of the normalized deviation field, as a ``FieldSamples``: the
    distinct rows of the panel and their counts.

    Under a finite alphabet, the rank and means not supplied come from the
    exact decomposition, which is returned with the field.  Without an
    alphabet the rank must be supplied, and missing means fall back to the
    grand Monte Carlo mean across the panel (flagged in the metadata, since
    that recentering removes part of the deviation).  ``subsets`` picks the
    averaging as in ``u_statistic_panel``, which exact averaging under an
    alphabet law hands each distinct sorted sample of the draw once.  With the
    sampler's ``cuts`` the draw is counted by symbol chunk by chunk and never
    built whole; an alphabet without them is drawn whole, sorted and folded.
    Fewer than one replication, or a rank not an integer of at least 1,
    raises ValueError; so does a field with a NaN or infinite cell, counting
    them, and a field that is identically zero.
    """
    if not reps >= 1:
        raise ValueError("need at least one replication")
    decomps = None
    if sampler.alphabet is not None and (rank is None or mean_per_t is None):
        decomps = decompose_field(kernel, sampler)
    if rank is None:
        if decomps is None:
            raise ValueError(
                "rank cannot be derived without a finite alphabet; pass rank="
            )
        # the slowest-decaying component sets the scale of the supremum
        rank = min(dec.rank for dec in decomps)
    check_rank(rank)
    mean_source = "given"
    if mean_per_t is None:
        if decomps is not None:
            mean_per_t = [dec.mean for dec in decomps]
            mean_source = "exact"
        else:
            mean_source = "grand_mc"
    exact = _resolve_mode(kernel, n, subsets)[0] == "exact"
    if exact and sampler.cuts is not None:  # its means are exact or given, not the panel's average
        X, counts = _draw_types(sampler, n, reps, seed)
    else:
        X, counts = draw_data(sampler, n, reps, seed), np.ones(reps)
        if exact:
            X.sort(axis=1)  # in place: exact averaging reads sorted rows and copies none
            if sampler.alphabet is not None:  # no cuts to count by: fold the sorted panel
                X, counts = distinct_rows(X)
    U, kind, count, notes = u_statistic_panel(kernel, X, subsets, seed=seed)
    del X  # freed before the field is folded to its distinct rows
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite cells are counted below
        if mean_source == "grand_mc":
            # a column with one value throughout is centred at that value, not at its
            # rounded average, so that it deviates by exactly 0
            mean_per_t = np.where((U == U[0]).all(axis=0), U[0], U.mean(axis=0))
        means = np.broadcast_to(np.asarray(mean_per_t, dtype=float), (len(kernel.t_grid),))
        dev = U  # centred and scaled in place
        dev -= means
        dev *= deviation_scale(n, rank)
    bad = int(counts @ np.count_nonzero(~np.isfinite(dev), axis=1))  # over the replications
    if bad:
        raise ValueError(f"{bad} of {reps * dev.shape[1]} field cells are not finite: the kernel "
                         "overflows or is undefined on this sampler's draws")
    if not dev.any():
        raise ValueError("the field is identically zero: every replication's statistic equals "
                         "the mean it is centred at, so there is no deviation to bound")
    meta = {
        "n": n,
        "reps": reps,
        "seed": seed,
        "rank": rank,
        "kernel": kernel.name,
        "degree": kernel.degree,
        "sampler": sampler.name,
        "mode": kind,
        "subsets": count,
        "mean_source": mean_source,
        "notes": list(notes),
    }
    return FieldSamples(kernel.t_grid, dev, counts, meta=meta, decomposition=decomps)
