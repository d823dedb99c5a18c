"""Uniform tail bounds for normalized deviation fields.

The pipeline: estimate a natural envelope for the field columns, lift it by
the kernel degree, measure the field's index set with the envelope distance,
integrate the covering entropy against the lifted envelope's maximum bound,
calibrate the envelope norm of the per-replication supremum, and emit an
upper tail curve together with the empirical curve it must dominate.  An
optional lower curve with the logarithmic-power shape is calibrated from a
single column, which the supremum dominates pathwise.

Certification means the entropy integral is driven by the geometry of the
index set rather than by the finite-set saturation floor; uncertified
reports still carry valid same-sample dominance, they just say nothing
about a richer index set.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .empirics import (
    FieldSamples,
    TailCurve,
    column_moments,
    empirical_moments,
    empirical_tail,
    natural_envelope,
    envelope_distance,
)
from .entropy import EntropyIntegral, FiniteMetricSpace, entropy_integral
from .envelopes import (
    DEFAULT_GRID_POINTS,
    DEFAULT_P_MAX,
    envelope_norm,
    rosenthal_lift,
    tail_bound,
)

def check_beta(beta):
    """Raises ValueError unless the lower-shape parameter beta is positive."""
    if not beta > 0:
        raise ValueError("beta must be positive")


def log_power_exponent(beta, convention="one_plus_beta"):
    """Exponent E of (ln(1+u))^E for the heavy-log-tail shape.

    Both published conventions are supported; the default adds beta itself,
    the alternate adds its reciprocal.  They agree only at beta = 1.
    """
    check_beta(beta)
    if convention == "one_plus_beta":
        return 1.0 + beta
    if convention == "one_plus_inv_beta":
        return 1.0 + 1.0 / beta
    raise ValueError(f"unknown exponent convention {convention!r}")


def closed_form_tail(family, u, *, coef, m=None, r=0.0, degree=1, beta=None,
                     exponent="one_plus_beta"):
    """Reference tail shapes for the two closed-form envelope families.

    power_log: exp(-coef * u^l * (ln u)^(-l*(r-degree))) with
    l = m / (1 + degree*m), void (value 1) for u <= e.
    log_power: exp(-coef * ln(1+u)^E), void for u <= 0.
    """
    if coef <= 0:
        raise ValueError("coef must be positive")
    u = np.asarray(u, dtype=float)
    if family == "power_log":
        if m is None or m <= 0:
            raise ValueError("power_log shape needs m > 0")
        l = m / (1.0 + degree * m)
        g = r - degree
        out = np.ones_like(u)
        live = u > math.e
        lu = np.log(u[live])
        out[live] = np.exp(-coef * u[live] ** l * lu ** (-l * g))
        return out if out.ndim else float(out)
    if family == "log_power":
        if beta is None:
            raise ValueError("log_power shape needs beta")
        E = log_power_exponent(beta, exponent)
        out = np.ones_like(u)
        live = u > 0
        out[live] = np.exp(-coef * np.log1p(u[live]) ** E)
        return out if out.ndim else float(out)
    raise ValueError(f"unknown closed-form family {family!r}")


def power_log_rate(m, degree):
    """The u-power l = m / (1 + degree*m) of the power_log tail shape."""
    if m <= 0 or degree < 1:
        raise ValueError("need m > 0 and degree >= 1")
    return m / (1.0 + degree * m)


def calibrate_log_power(curve, *, beta, exponent="one_plus_beta"):
    """Largest coef with exp(-coef ln(1+u)^E) <= curve at every usable point.

    Usable points have level u > 0 and probability strictly inside (0, 1).
    The returned coefficient makes the log_power shape a pathwise lower
    envelope of the curve at those points.
    """
    E = log_power_exponent(beta, exponent)
    u = curve.u_grid
    p = curve.probs
    usable = (u > 0) & (p > 0.0) & (p < 1.0)
    if not usable.any():
        raise ValueError("no usable points to calibrate a lower tail shape")
    coefs = -np.log(p[usable]) / np.log1p(u[usable]) ** E
    return float(np.max(coefs))


# -- moment growth audit -------------------------------------------------


@dataclass
class MomentGrowth:
    constants: dict
    ratio: float
    passed: bool
    notes: list = field(default_factory=list)


def moment_growth_check(panels, env, degree, p_grid, *, factor=2.0):
    """Fit the degree-lifted envelope constant across sample sizes.

    For each panel of normalized deviations, the constant is the largest
    ratio of a column moment to the lifted envelope over the moment grid.
    The check passes when the constants stay within ``factor`` of each other
    across n, which is what a correct normalization order looks like.
    """
    tau = rosenthal_lift(env, degree)
    constants = {}
    notes = []
    for n in sorted(panels):
        norms = [envelope_norm(tab, tau) for tab in column_moments(panels[n], p_grid)]
        constants[n] = max([0.0] + norms)
    vals = np.array([constants[n] for n in sorted(constants)])
    if np.all(vals == 0.0):
        notes.append("all panels are identically zero; growth check is vacuous")
        return MomentGrowth(constants, 1.0, True, notes)
    if np.any(vals == 0.0):
        notes.append("some panels are identically zero while others are not")
        return MomentGrowth(constants, math.inf, False, notes)
    ratio = float(vals.max() / vals.min())
    return MomentGrowth(constants, ratio, ratio < factor, notes)


# -- curve comparison ----------------------------------------------------


@dataclass
class ComparisonReport:
    u_grid: np.ndarray
    upper_violations: int
    lower_violations: int
    max_upper_excess: float
    max_lower_excess: float
    ok: bool
    sigma: float
    notes: list = field(default_factory=list)


def check_sigma(sigma):
    """Raises ValueError unless the binomial slack sigma is nonnegative."""
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")


def compare_curves(empirical, *, upper=None, lower=None, sigma=3.0):
    """Check bound ordering against an empirical curve with binomial slack.

    Violations are counted where the empirical probability exceeds the upper
    bound, or falls below the lower bound, by more than sigma binomial
    standard errors of the empirical point.
    """
    check_sigma(sigma)
    if empirical.kind != "empirical":
        raise ValueError("first curve must be empirical")
    if empirical.sample_count < 1:
        raise ValueError("empirical curve must record its sample count")
    u = empirical.u_grid
    p = empirical.probs
    se = np.sqrt(p * (1.0 - p) / empirical.sample_count)
    up_viol, up_excess = 0, 0.0
    lo_viol, lo_excess = 0, 0.0
    notes = []
    if upper is not None:
        if not np.array_equal(upper.u_grid, u):
            raise ValueError("upper bound curve is on a different level grid")
        excess = p - (upper.probs + sigma * se)
        up_viol = int(np.sum(excess > 0))
        up_excess = float(max(0.0, excess.max()))
    if lower is not None:
        if not np.array_equal(lower.u_grid, u):
            raise ValueError("lower bound curve is on a different level grid")
        excess = lower.probs - (p + sigma * se)
        lo_viol = int(np.sum(excess > 0))
        lo_excess = float(max(0.0, excess.max()))
    if upper is None and lower is None:
        notes.append("no bound curves supplied; nothing to compare")
    ok = up_viol == 0 and lo_viol == 0
    return ComparisonReport(u, up_viol, lo_viol, up_excess, lo_excess, ok, sigma, notes)


# -- the full pipeline ---------------------------------------------------


@dataclass
class Geometry:
    """The index-set geometry a bound is calibrated against.

    ``psi_used`` is the envelope of the field columns and ``tau`` its degree
    lift; ``space`` holds the envelope distances between index points and
    ``entropy`` the covering entropy integral of that space against ``tau``.
    ``p_grid`` is the moment grid they were measured on, and ``p_max`` and
    ``points`` set the grid of every optimisation over p.
    """

    psi_used: object
    tau: object
    space: FiniteMetricSpace
    entropy: EntropyIntegral
    p_grid: np.ndarray
    p_max: float
    points: int
    notes: list = field(default_factory=list)


@dataclass
class BoundReport:
    psi_used: object
    tau: object
    entropy: object
    diameter: float
    sup_moments: object
    sup_norm: float
    curves: dict
    certified: bool
    scalar_degenerate: bool
    replications: int
    index_size: int = 0
    notes: list = field(default_factory=list)


def index_geometry(
    field_samples,
    p_grid,
    degree,
    *,
    env=None,
    p_max=DEFAULT_P_MAX,
    points=DEFAULT_GRID_POINTS,
    **integral,
):
    """Envelope, envelope distances and entropy integral of a field's index set.

    Without ``env`` the natural envelope of the columns is estimated.
    ``integral`` holds the other keyword options of :func:`entropy_integral`.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    notes = []
    if env is None:
        env = natural_envelope(field_samples, p_grid)
        notes.append("envelope estimated from column moments")
    tau = rosenthal_lift(env, degree)
    dist = envelope_distance(field_samples, env, p_grid=p_grid)
    space = FiniteMetricSpace(field_samples.labels, dist)
    ent = entropy_integral(space, tau, p_max=p_max, points=points, **integral)
    return Geometry(env, tau, space, ent, p_grid, p_max, points, notes)


def calibrate_tails(field_samples, geometry, u_grid, *, lower=None):
    """Tail curves of the field supremum, calibrated against a Geometry and on its p grids.

    ``lower``, when given, is a dict with keys ``beta``, optional
    ``exponent`` convention, and optional calibration ``column`` (default 0).
    When that column has no usable point the lower curve is omitted with a note.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    tau = geometry.tau
    notes = geometry.notes + geometry.entropy.notes
    sup_stat, counts = field_samples.sup_abs(), field_samples.counts
    sup_table = empirical_moments(sup_stat, geometry.p_grid, counts)
    sup_norm = envelope_norm(sup_table, tau)
    upper = TailCurve(
        u_grid,
        np.array([
            tail_bound(tau, sup_norm, y, p_max=geometry.p_max, points=geometry.points)
            for y in u_grid
        ]),
        "upper_bound",
        meta={"norm": sup_norm},
    )
    empirical = empirical_tail(sup_stat, u_grid, counts)
    curves = {"empirical": empirical, "upper": upper}
    if lower is not None:
        col = int(lower.get("column", 0))
        conv = lower.get("exponent", "one_plus_beta")
        beta = float(lower["beta"])
        log_power_exponent(beta, conv)  # a bad shape is an error; an unusable column is not
        col_curve = empirical_tail(field_samples.values[:, col], u_grid, counts)
        try:
            coef = calibrate_log_power(col_curve, beta=beta, exponent=conv)
        except ValueError as exc:
            notes.append(f"lower shape omitted: column {col} has {exc}")
        else:
            curves["lower"] = TailCurve(
                u_grid,
                closed_form_tail("log_power", u_grid, coef=coef, beta=beta, exponent=conv),
                "lower_bound",
                meta={"coef": coef, "beta": beta, "exponent": conv, "column": col},
            )
            notes.append(f"lower shape calibrated on column {col} with coef {coef!r}")
    diameter = geometry.space.diameter
    scalar_degenerate = field_samples.size == 1 or diameter == 0.0
    if scalar_degenerate:
        notes.append("single effective index point; report reduces to the moment tail bound")
    return BoundReport(
        psi_used=geometry.psi_used,
        tau=tau,
        entropy=geometry.entropy,
        diameter=diameter,
        sup_moments=sup_table,
        sup_norm=sup_norm,
        curves=curves,
        certified=geometry.entropy.finite,
        scalar_degenerate=scalar_degenerate,
        replications=field_samples.replications,
        index_size=field_samples.size,
        notes=notes,
    )


def uniform_tail_report(field_samples, p_grid, degree, u_grid, *, lower=None, **geometry):
    """Full bound pipeline for a panel of normalized deviations:
    :func:`index_geometry`, given the keyword options in ``geometry``, followed
    by :func:`calibrate_tails`.
    """
    geometry = index_geometry(field_samples, p_grid, degree, **geometry)
    return calibrate_tails(field_samples, geometry, u_grid, lower=lower)


def report_text(report):
    """Deterministic text rendering of a BoundReport."""
    lines = []
    lines.append("[envelope]")
    lines.append(f"psi = {report.psi_used.to_text()}")
    lines.append(f"tau = {report.tau.to_text()}")
    lines.append("")
    lines.append("[geometry]")
    lines.append(f"index_points = {report.index_size}")
    lines.append(f"diameter = {report.diameter!r}")
    lines.append(f"entropy_integral = {report.entropy.value!r}")
    lines.append(f"saturated_fraction = {report.entropy.saturated_fraction!r}")
    lines.append(f"certified = {'true' if report.certified else 'false'}")
    lines.append(f"scalar_degenerate = {'true' if report.scalar_degenerate else 'false'}")
    lines.append("")
    lines.append("[calibration]")
    lines.append(f"sup_norm = {report.sup_norm!r}")
    lines.append(f"replications = {report.replications}")
    lines.append("")
    lines.append("[curves]")
    names = ["empirical", "upper"] + (["lower"] if "lower" in report.curves else [])
    lines.append("u," + ",".join(names))
    emp = report.curves["empirical"]
    for i, u in enumerate(emp.u_grid):
        row = [repr(float(u))] + [repr(float(report.curves[k].probs[i])) for k in names]
        lines.append(",".join(row))
    if report.notes:
        lines.append("")
        lines.append("[notes]")
        for note in report.notes:
            lines.append(f"- {note}")
    return "\n".join(lines) + "\n"
