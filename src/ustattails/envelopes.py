"""Moment-envelope calculus.

A moment envelope is a positive function psi(p) defined for moment orders p
in [2, b) (closed at b for the constant and tabulated families) that is meant
to dominate the growth of the L_p norms of a random quantity.  Everything
downstream (tail bounds, entropy integrals, distance matrices) is built from
four primitives on envelopes:

* ``envelope_norm``      sup_p |eta|_p / psi(p), the norm of a moment table
                         relative to an envelope;
* ``fenchel_exponent``   the Young-Fenchel transform sup_p (u*p - p*ln psi(p)),
                         which converts an envelope into a tail exponent;
* ``tail_bound``         exp(-fenchel_exponent(ln(y/norm))), valid for
                         y > e * norm, together with the void bound 1 below
                         that threshold;
* ``log_maximum_bound``  inf_p (x/p + ln psi(p)), the log of the best moment
                         bound inf_p N^{1/p} psi(p) for a maximum of N
                         unit-norm variables evaluated at x = ln N.

Suprema and infima over p are taken on a log-spaced grid (default 257 points
on [2, min(b, p_max)]) followed by one golden-section refinement of the
bracketing cell.  Tabulated envelopes are optimised over their own nodes
only: they carry no information between nodes, and restricting the search to
nodes keeps the Markov-inequality dominance of empirically calibrated bounds
exact.  Truncating an infinite support at p_max only weakens the resulting
tail bound (the sup is taken over a subset), so it is safe; operations report
the truncation through ``MomentEnvelope.opt_grid``.  Grid argmax/argmin ties
resolve to the smallest index.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_P_MAX = 64.0
DEFAULT_GRID_POINTS = 257

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

FAMILIES = ("power_log", "exp_power", "constant", "tabulated")


def check_p_grid(p_grid):
    """The grid as a float array, after checking it increases strictly from p >= 2."""
    p = np.asarray(p_grid, dtype=float)
    if np.any(p < 2.0 - 1e-12) or np.any(np.diff(p) <= 0):
        raise ValueError("moment grid must be strictly increasing and start at p >= 2")
    return p


def check_p_max(p_max):
    """The largest moment order, after checking it exceeds 2, where every range starts."""
    if not p_max > 2.0:
        raise ValueError("p_max must exceed 2")
    return p_max


def check_points(points):
    """The size of an optimisation grid, after checking it has both ends."""
    if not points >= 2:
        raise ValueError("points must be at least 2")
    return points


def _golden_min(f, lo, hi):
    """Golden-section minimisation of a scalar function on [lo, hi], in at most 90 steps."""
    a, b = float(lo), float(hi)
    if not b > a:
        return a, f(a)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if b - a <= 1e-15 * max(1.0, abs(b)):
            break
    return (x1, f1) if f1 <= f2 else (x2, f2)


@dataclass
class MomentEnvelope:
    """A moment envelope psi(p) on [2, b), optionally lifted.

    ``lift`` applies the degree-d moment inflation factor (p / ln p)^d on top
    of the base family; it is what turns the envelope of a kernel into the
    envelope of the corresponding degree-d deviation field.  Lift degrees are
    stored symbolically so composing lifts is exact.
    """

    family: str
    params: tuple
    b: float
    closed: bool
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
            (value,) = self.params
            return np.full_like(p, math.log(value))
        nodes, log_values = self.params
        return np.interp(np.log(p), np.log(nodes), log_values)

    def log_value(self, p):
        """ln psi(p), the quantity every optimisation below uses; raises off the support."""
        p = np.asarray(p, dtype=float)
        if np.any(p < 2.0 - 1e-9):
            raise ValueError("envelope evaluated below the moment range start p = 2")
        hi = self.b * (1.0 + 1e-12) if self.closed else self.b
        bad = p > hi if self.closed else p >= hi
        if np.any(bad):
            bracket = "]" if self.closed else ")"
            raise ValueError(
                f"envelope evaluated outside its support [2, {self.b}{bracket}"
            )
        out = self._log_base(p)
        if self.lift:
            out = out + self.lift * (np.log(p) - np.log(np.log(p)))
        return out

    def __call__(self, p):
        # may overflow to inf for extreme exp_power parameters; internal
        # consumers stay in log space
        return np.exp(self.log_value(p))

    # -- optimisation grid ---------------------------------------------

    def opt_grid(self, p_max=DEFAULT_P_MAX, points=DEFAULT_GRID_POINTS):
        """Grid for sup/inf over p.

        Returns ``(grid, truncated, refine)``.  ``truncated`` flags that the
        support reaches past p_max and was cut there; ``refine`` says whether
        a golden-section pass between grid points is meaningful (it is not
        for tabulated envelopes, which are only defined at their nodes).
        """
        check_p_max(p_max)
        check_points(points)
        if self.family == "tabulated":
            nodes = np.asarray(self.params[0], dtype=float)
            keep = nodes <= p_max * (1.0 + 1e-12)
            if not keep.any():
                raise ValueError("no tabulated nodes at or below p_max")
            return nodes[keep], bool((~keep).any()), False
        hi = min(self.b, p_max)
        truncated = self.b > p_max
        grid = np.geomspace(2.0, hi, int(points))
        return grid, truncated, True

    # -- serialization -------------------------------------------------

    def to_text(self):
        if self.family == "power_log":
            m, r = self.params
            return f"power_log m={m!r} r={r!r} lift={self.lift}"
        if self.family == "exp_power":
            coef, expo = self.params
            return f"exp_power coef={coef!r} expo={expo!r} lift={self.lift}"
        if self.family == "constant":
            (value,) = self.params
            return f"constant value={value!r} p_sup={self.b!r} lift={self.lift}"
        nodes, log_values = self.params
        ps = ",".join(repr(float(x)) for x in nodes)
        vs = ",".join(repr(float(math.exp(v))) for v in log_values)
        return f"tabulated lift={self.lift} p={ps} v={vs}"

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
_FAMILY_PARAMS = {
    "m": ("positive", lambda x: x > 0),
    "r": ("finite", math.isfinite),
    "p_sup": ("above 2", lambda x: x > 2),
    **dict.fromkeys(("coef", "expo", "value"), ("positive and finite", lambda x: 0 < x < math.inf)),
}


def check_family_param(name, value):
    """Raises ValueError unless the envelope family parameter ``name`` is in range (NaN never is)."""
    what, ok = _FAMILY_PARAMS[name]
    if not ok(value):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def power_log_envelope(m, r=0.0):
    """psi(p) = p^(1/m) * (ln p)^r on [2, inf)."""
    check_family_param("m", m)
    check_family_param("r", r)
    return MomentEnvelope("power_log", (float(m), float(r)), math.inf, False)


def exp_power_envelope(coef, expo):
    """psi(p) = exp(coef * p^expo) on [2, inf)."""
    check_family_param("coef", coef)
    check_family_param("expo", expo)
    return MomentEnvelope("exp_power", (float(coef), float(expo)), math.inf, False)


def constant_envelope(value, p_sup):
    """psi(p) = value on [2, p_sup]; the finite-moment-range family."""
    check_family_param("value", value)
    check_family_param("p_sup", p_sup)
    return MomentEnvelope("constant", (float(value),), float(p_sup), True)


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
    return MomentEnvelope(
        "tabulated", (p.copy(), np.log(v)), float(p[-1]), True
    )


def make_envelope(family, **params):
    """Single-entry constructor used by config parsing."""
    if family == "power_log":
        return power_log_envelope(params["m"], params.get("r", 0.0))
    if family == "exp_power":
        return exp_power_envelope(params["coef"], params["expo"])
    if family == "constant":
        return constant_envelope(params["value"], params["p_sup"])
    if family == "tabulated":
        return tabulated_envelope(params["p_grid"], params["values"])
    raise ValueError(f"unknown envelope family {family!r}")


def check_lift_degree(degree):
    """Raises ValueError unless the lift degree is a nonnegative integer."""
    if int(degree) != degree or degree < 0:
        raise ValueError("lift degree must be a nonnegative integer")


def rosenthal_lift(env, degree):
    """Multiply an envelope by (p / ln p)^degree.

    Lifting by a, then by b, equals lifting by a + b exactly, because the
    degree is stored and applied symbolically.
    """
    check_lift_degree(degree)
    return replace(env, lift=env.lift + int(degree))


# -- transforms --------------------------------------------------------


def _minimise_over_p(env, f, p_max, points):
    """min over p of f(p, ln psi(p)): the grid minimum (ties to the smallest
    index), then a golden-section pass over the cell bracketing it."""
    grid, _trunc, refine = env.opt_grid(p_max, points)
    obj = f(grid, env.log_value(grid))
    k = int(np.argmin(obj))
    best = float(obj[k])
    if refine and grid.size >= 2:
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
        _, fx = _golden_min(lambda p: f(p, float(env.log_value(p))), lo, hi)
        best = min(best, fx)
    return best


def fenchel_exponent(env, u, *, p_max=DEFAULT_P_MAX, points=DEFAULT_GRID_POINTS):
    """sup over p of (u*p - p*ln psi(p)).

    Convex and nondecreasing in u (a supremum of linear functions with
    positive slopes).  The value may be negative for small u; ``tail_bound``
    clamps it at zero where it is used as an exponent.
    """
    return -_minimise_over_p(env, lambda p, log_psi: -p * (u - log_psi), p_max, points)


def log_maximum_bound(env, x, *, p_max=DEFAULT_P_MAX, points=DEFAULT_GRID_POINTS):
    """inf over p of (x/p + ln psi(p)) for x >= 0.

    exp of the result bounds the envelope norm of a maximum of exp(x)
    unit-norm variables; it is concave and nondecreasing in x (an infimum of
    affine functions with positive slopes).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    return _minimise_over_p(env, lambda p, log_psi: x / p + log_psi, p_max, points)


def envelope_norm(moments, env):
    """sup over the moment grid of |eta|_p / psi(p).

    Scales linearly with the moment values.  The ratio is computed in log
    space so envelopes with astronomically large values stay usable; zero
    moment values contribute ratio zero.
    """
    return float(envelope_norm_rows(moments.values, env.log_value(moments.p_grid)))


def envelope_norm_rows(values, log_psi):
    """envelope_norm of each row of moment values, given ln psi on their grid."""
    with np.errstate(divide="ignore"):
        return np.exp(np.max(np.log(values) - log_psi, axis=-1))


def tail_bound(env, norm, y, *, p_max=DEFAULT_P_MAX, points=DEFAULT_GRID_POINTS):
    """Two-sided tail bound at level y for a variable of envelope norm ``norm``.

    Returns exp(-max(0, fenchel_exponent(ln(y/norm)))) when y > e * norm and
    the void bound 1.0 otherwise (including exactly at y = e * norm).
    """
    if norm <= 0:
        raise ValueError("envelope norm must be positive")
    if y <= math.e * norm:
        return 1.0
    expo = fenchel_exponent(env, math.log(y / norm), p_max=p_max, points=points)
    return math.exp(-max(0.0, expo))


# -- moment tables -----------------------------------------------------


@dataclass
class MomentTable:
    """L_p norms of one sample over a grid of moment orders.

    ``low_confidence`` marks grid points beyond the usable moment range for
    the sample size (p > kappa * ln(count)).
    """

    p_grid: np.ndarray
    values: np.ndarray
    sample_count: int
    low_confidence: np.ndarray | None = None

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
        if self.low_confidence is None:
            self.low_confidence = np.zeros(self.p_grid.size, dtype=bool)
