"""Moment-envelope calculus.

A moment envelope is a positive function psi(p) defined for moment orders p
in [2, b), closed at a finite b (the constant and tabulated families), that is meant
to dominate the growth of the L_p norms of a random quantity.  Everything
downstream (tail bounds, entropy integrals, distance matrices) is built from
four primitives on envelopes:

* ``envelope_norm``      sup_p |eta|_p / psi(p), the norm of a moment table
                         relative to an envelope;
* ``fenchel_exponent``   the Young-Fenchel transform sup_p (u*p - p*ln psi(p)),
                         which converts an envelope into a tail exponent;
* ``tail_curve``         exp(-fenchel_exponent(ln(y/norm))) at each level
                         y > e * norm, and the void bound 1 at the others;
* ``log_maximum_bound``  inf_p (x/p + ln psi(p)), the log of the best moment
                         bound inf_p N^{1/p} psi(p) for a maximum of N
                         unit-norm variables evaluated at x = ln N.

The transforms take a scalar (and return a float) or a 1-d array of
arguments.  Suprema and infima over p are taken for all arguments at once on
a log-spaced grid (257 points on [2, min(b, p_max)]), followed by a
golden-section refinement of each one's bracketing cell, in lockstep.
Tabulated envelopes are optimised over their own nodes only: they carry no
information between nodes, and restricting the search to nodes keeps the
Markov-inequality dominance of empirically calibrated bounds exact.
Truncating an infinite support at p_max only weakens the resulting tail bound
(the sup is taken over a subset), so it is safe.  Grid argmax/argmin ties
resolve to the smallest index.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

DEFAULT_P_MAX = 64.0
DEFAULT_GRID_POINTS = 257

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# each parametric family's parameters, in the order its constructor takes them and its record
# spells them; the first scales the envelope
FAMILY_PARAMS = {
    "power_log": ("m", "r"), "exp_power": ("coef", "expo"), "constant": ("value", "p_sup")
}
FAMILIES = (*FAMILY_PARAMS, "tabulated")


def check_p_grid(p_grid):
    """The grid as a float array, after checking it is finite and increases strictly from
    p >= 2."""
    p = np.asarray(p_grid, dtype=float)
    if not np.all(np.isfinite(p)) or np.any(p < 2.0 - 1e-12) or np.any(np.diff(p) <= 0):
        raise ValueError("moment grid must be finite, strictly increasing and start at p >= 2")
    return p


@dataclass
class MomentEnvelope:
    """A moment envelope psi(p) on [2, b), closed at a finite b, optionally lifted.

    ``lift`` applies the degree-d moment inflation factor (p / ln p)^d on top
    of the base family; it is what turns the envelope of a kernel into the
    envelope of the corresponding degree-d deviation field.  Lift degrees are
    stored symbolically so composing lifts is exact.
    """

    family: str
    params: tuple
    b: float
    lift: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown envelope family {self.family!r}")
        if self.lift < 0:
            raise ValueError("lift degree must be nonnegative")

    # -- evaluation ----------------------------------------------------

    def _log_base(self, p):
        p = np.asarray(p, dtype=float)
        if self.family == "power_log":
            m, r = self.params
            return np.log(p) / m + r * np.log(np.log(p))
        if self.family == "exp_power":
            coef, expo = self.params
            return coef * p ** expo
        if self.family == "constant":
            return np.full_like(p, math.log(self.params[0]))
        nodes, log_values = self.params
        return np.interp(np.log(p), np.log(nodes), log_values)

    def log_value(self, p):
        """ln psi(p), the quantity every optimisation below uses; raises off the support."""
        p = np.asarray(p, dtype=float)
        if np.any(p < 2.0 - 1e-9):
            raise ValueError("envelope evaluated below the moment range start p = 2")
        closed = self.b < math.inf
        if np.any(p > self.b * (1.0 + 1e-12) if closed else p >= self.b):
            raise ValueError(f"envelope evaluated outside its support "
                             f"[2, {self.b}{']' if closed else ')'}")
        out = self._log_base(p)
        if self.lift:
            out = out + self.lift * (np.log(p) - np.log(np.log(p)))
        return out

    # -- optimisation grid ---------------------------------------------

    def opt_grid(self, p_max=DEFAULT_P_MAX):
        """Grid for sup/inf over p.

        Returns ``(grid, refine)``: the grid covers the support up to p_max, and
        ``refine`` says whether a golden-section pass between grid points is
        meaningful (it is not for tabulated envelopes, which are only defined
        at their nodes).
        """
        if not p_max > 2.0:  # every range starts at 2
            raise ValueError("p_max must exceed 2")
        if self.family == "tabulated":
            nodes = np.asarray(self.params[0], dtype=float)
            keep = nodes <= p_max * (1.0 + 1e-12)
            if not keep.any():
                raise ValueError("no tabulated nodes at or below p_max")
            return nodes[keep], False
        return np.geomspace(2.0, min(self.b, p_max), DEFAULT_GRID_POINTS), True

    # -- serialization -------------------------------------------------

    def to_text(self):
        if self.family == "tabulated":
            nodes, log_values = self.params
            ps = ",".join(repr(float(x)) for x in nodes)
            vs = ",".join(repr(float(math.exp(v))) for v in log_values)
            return f"tabulated lift={self.lift} p={ps} v={vs}"
        params = " ".join(f"{k}={v!r}" for k, v in zip(FAMILY_PARAMS[self.family], self.params))
        return f"{self.family} {params} lift={self.lift}"

    @classmethod
    def from_text(cls, text):
        """The envelope ``to_text`` spelled: its ``k=v`` tokens are ``make_envelope``'s."""
        tokens = text.split()
        if not tokens:
            raise ValueError("empty envelope record")
        family, kv = tokens[0], {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ValueError(f"malformed envelope token {tok!r}")
            k, v = tok.split("=", 1)
            kv[k] = v
        lift = int(kv.pop("lift", "0"))
        if family == "tabulated":
            kv = {"p_grid": kv["p"], "values": kv["v"]}
            params = {k: [float(x) for x in v.split(",")] for k, v in kv.items()}
        else:
            params = {k: float(v) for k, v in kv.items()}
        env = make_envelope(family, **params)
        return rosenthal_lift(env, lift) if lift else env


# -- constructors ------------------------------------------------------


# what each family parameter must be, checked by the constructors and the config reader
_PARAM_RANGES = {
    "m": ("positive", lambda x: x > 0),
    "r": ("finite", math.isfinite),
    "p_sup": ("above 2", lambda x: x > 2),
    **dict.fromkeys(("coef", "expo", "value"), ("positive and finite", lambda x: 0 < x < math.inf)),
}


def check_family_param(name, value):
    """Raises ValueError unless the envelope family parameter ``name`` is in range (NaN never is)."""
    what, ok = _PARAM_RANGES[name]
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def power_log_envelope(m, r=0.0):
    """psi(p) = p^(1/m) * (ln p)^r on [2, inf)."""
    check_family_param("m", m)
    check_family_param("r", r)
    return MomentEnvelope("power_log", (float(m), float(r)), math.inf)


def exp_power_envelope(coef, expo):
    """psi(p) = exp(coef * p^expo) on [2, inf)."""
    check_family_param("coef", coef)
    check_family_param("expo", expo)
    return MomentEnvelope("exp_power", (float(coef), float(expo)), math.inf)


def constant_envelope(value, p_sup):
    """psi(p) = value on [2, p_sup]; the finite-moment-range family."""
    check_family_param("value", value)
    check_family_param("p_sup", p_sup)
    return MomentEnvelope("constant", (float(value), float(p_sup)), float(p_sup))


def tabulated_envelope(p_grid, values):
    """Envelope given at nodes, interpolated log-linearly in ln p between them.

    The support is [2, last node]; the support supremum b is the last node.
    """
    p = np.asarray(p_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size < 1 or p.shape != v.shape:
        raise ValueError("invalid domain: need matching 1-d node and value arrays")
    check_p_grid(p)
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise ValueError("invalid value: tabulated envelope values must be positive")
    return MomentEnvelope("tabulated", (p.copy(), np.log(v)), float(p[-1]))


def make_envelope(family, **params):
    """The envelope that ``family``'s constructor, ``<family>_envelope``, builds from
    ``params``, passed by name."""
    if family not in FAMILIES:
        raise ValueError(f"unknown envelope family {family!r}")
    return globals()[f"{family}_envelope"](**params)


def check_lift_degree(degree):
    """The lift degree, after checking it is a nonnegative integer."""
    if int(degree) != degree or degree < 0:
        raise ValueError("lift degree must be a nonnegative integer")
    return degree


def rosenthal_lift(env, degree):
    """Multiply an envelope by (p / ln p)^degree.

    Lifting by a, then by b, equals lifting by a + b exactly, because the
    degree is stored and applied symbolically.
    """
    check_lift_degree(degree)
    return replace(env, lift=env.lift + int(degree))


# -- transforms --------------------------------------------------------


def _minimise_over_p(env, f, args, p_max):
    """min over p of f(a, p, ln psi(p)) for each a of ``args``, as a 1-d array.

    One (args x grid) pass takes each grid minimum (ties to the smallest
    index).  Unless the envelope is tabulated, a golden-section search then
    refines each over the cell bracketing it, all in lockstep: each member
    takes the steps a search of its own would take, at most 90, and leaves
    when its bracket closes.
    """
    args = np.asarray(args, dtype=float).reshape(-1)
    grid, refine = env.opt_grid(p_max)
    obj = f(args[:, None], grid, env.log_value(grid))
    k = np.argmin(obj, axis=1)
    best = obj[np.arange(args.size), k]
    if not refine:
        return best
    a = grid[np.maximum(k - 1, 0)]
    b = grid[np.minimum(k + 1, grid.size - 1)]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(args, x1, env.log_value(x1)), f(args, x2, env.log_value(x2))
    live = np.arange(args.size)
    for step in range(90):
        if not live.size:
            break
        left = f1 <= f2  # the minimum lies in [a, x2]: x2 moves to x1, a new x1 is probed
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(args[live], x, env.log_value(x))
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
        done = (b - a <= 1e-15 * np.maximum(1.0, np.abs(b))) | (step == 89)
        fd = np.where(f1[done] <= f2[done], f1[done], f2[done])
        best[live[done]] = np.where(fd < best[live[done]], fd, best[live[done]])
        live, a, b, x1, x2, f1, f2 = (v[~done] for v in (live, a, b, x1, x2, f1, f2))
    return best


def fenchel_exponent(env, u, *, p_max=DEFAULT_P_MAX):
    """sup over p of (u*p - p*ln psi(p)), for a scalar u or each u of a 1-d array.

    Convex and nondecreasing in u (a supremum of linear functions with
    positive slopes).  The value may be negative for small u; ``tail_curve``
    clamps it at zero where it is used as an exponent.
    """
    out = -_minimise_over_p(env, lambda u, p, log_psi: -p * (u - log_psi), u, p_max)
    return float(out[0]) if np.ndim(u) == 0 else out


def log_maximum_bound(env, x, *, p_max=DEFAULT_P_MAX):
    """inf over p of (x/p + ln psi(p)), for a scalar x >= 0 or each x of a 1-d array.

    exp of the result bounds the envelope norm of a maximum of exp(x)
    unit-norm variables; it is concave and nondecreasing in x (an infimum of
    affine functions with positive slopes).
    """
    if np.any(np.asarray(x) < 0):
        raise ValueError("x must be nonnegative")
    out = _minimise_over_p(env, lambda x, p, log_psi: x / p + log_psi, x, p_max)
    return float(out[0]) if np.ndim(x) == 0 else out


def envelope_norm(moments, env):
    """sup over the moment grid of |eta|_p / psi(p).

    Scales linearly with the moment values.  The ratio is computed in log
    space so envelopes with astronomically large values stay usable; zero
    moment values contribute ratio zero.
    """
    return float(envelope_norm_rows(moments.values, env.log_value(moments.p_grid)))


def envelope_norm_rows(values, log_psi):
    """envelope_norm of each row of moment values, given ln psi on their grid; inf past the
    largest double."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.max(np.log(values) - log_psi, axis=-1))


def tail_curve(env, norm, levels, *, p_max=DEFAULT_P_MAX):
    """Two-sided tail bounds at each level y for a variable of envelope norm ``norm``.

    exp(-max(0, fenchel_exponent(ln(y/norm)))) where y > e * norm, else the void bound 1.0
    (also at y = e * norm); ln(y/norm) is ln y - ln norm where y/norm passes the largest
    double.  The log and exp are ``math``'s, as libm's last bit differs from numpy's.
    """
    if norm <= 0:
        raise ValueError("envelope norm must be positive")
    levels = np.asarray(levels, dtype=float)
    out = np.ones(levels.shape)
    live = levels > math.e * norm
    ratios = ((y, y / float(norm)) for y in levels[live].tolist())  # inf, not a warning
    u = [math.log(r) if r < math.inf else math.log(y) - math.log(norm) for y, r in ratios]
    expo = fenchel_exponent(env, u, p_max=p_max)
    out[live] = [math.exp(-max(0.0, e)) for e in expo]
    return out


def tail_bound(env, norm, y, *, p_max=DEFAULT_P_MAX):
    """``tail_curve`` at the one level y, as a Python float.  No command runs it; it is kept
    because the benchmark's tracer (``perfbench/tracing.py``) wraps it by name."""
    return float(tail_curve(env, norm, [y], p_max=p_max)[0])


# -- moment tables -----------------------------------------------------

# moment orders beyond kappa * ln(n) are dominated by the sample maximum and
# carry little information; tables flag them rather than refuse them
DEFAULT_KAPPA = 4.0


@dataclass
class MomentTable:
    """L_p norms of one sample over a grid of moment orders."""

    p_grid: np.ndarray
    values: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.p_grid = np.asarray(self.p_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.p_grid.ndim != 1 or self.p_grid.shape != self.values.shape:
            raise ValueError("need matching 1-d moment grids and values")
        if self.p_grid.size == 0:
            raise ValueError("empty moment grid")
        check_p_grid(self.p_grid)
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ValueError("moment values must be finite and nonnegative")
        scale = max(1.0, float(self.values.max(initial=0.0)))
        if np.any(np.diff(self.values) < -1e-9 * scale):
            raise ValueError("moment values must be nondecreasing in p")

    @property
    def low_confidence(self):
        """The grid points beyond the usable moment range for the sample size:
        p > DEFAULT_KAPPA * ln(sample_count)."""
        return self.p_grid > DEFAULT_KAPPA * math.log(self.sample_count)
