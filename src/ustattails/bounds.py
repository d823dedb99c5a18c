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
from dataclasses import dataclass

import numpy as np

from .empirics import (
    TailCurve,
    column_moments,
    empirical_moments,
    empirical_tail,
    natural_envelope,
    envelope_distance,
)
from .envelopes import envelope_norm, envelope_norm_rows, rosenthal_lift, tail_curve

# the binomial standard errors of slack an empirical point has against a bound curve
SIGMA = 3.0
# the relative slack, for rounding, of the invariants verify re-derives from the artifacts: the
# recorded sup_norm, the Markov floor of the upper curve and the natural psi, then the reverse
# triangle, which a rank-one field meets with equality
REDERIVE_RTOL = 1e-12
TRIANGLE_RTOL = 1e-9
# integrand mass on saturated eps above this fraction means the eps grid sees
# mostly the finite-space floor, not the geometry, and the integral cannot be
# trusted as a proxy for a continuous-index limit
PLATEAU_FRACTION = 0.9


def check_beta(beta):
    """Raises ValueError unless the lower-shape parameter beta is positive and finite: at
    beta = inf the shape is NaN at every level, which no ordering check can fail."""
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")


def log_power_exponent(beta):
    """Exponent E = 1 + beta of (ln(1+u))^E for the heavy-log-tail shape.

    The other published convention, E = 1 + 1/beta, is this one at 1/beta.
    """
    check_beta(beta)
    return 1.0 + beta


def log_power_tail(u, *, coef, beta):
    """The heavy-log-tail shape exp(-coef * ln(1+u)^E), E = log_power_exponent(beta), at each
    level u; void (value 1) for u <= 0."""
    if coef <= 0:
        raise ValueError("coef must be positive")
    E = log_power_exponent(beta)
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    live = u > 0
    out[live] = np.exp(-coef * np.log1p(u[live]) ** E)
    return out if out.ndim else float(out)


def calibrate_log_power(curve, *, beta):
    """Smallest coef with exp(-coef ln(1+u)^E) <= curve at every usable point.

    Usable points have level u > 0 and probability strictly inside (0, 1).
    The returned coefficient, and any larger one, makes the log_power shape a
    pathwise lower envelope of the curve at those points.  Raises ValueError
    when no point is usable, or when the coefficient is 0 or infinite, as a
    huge beta makes it: the shape is then NaN where 0 * inf is taken.
    """
    E = log_power_exponent(beta)
    u = curve.u_grid
    p = curve.probs
    usable = (u > 0) & (p > 0.0) & (p < 1.0)
    if not usable.any():
        raise ValueError("no usable points to calibrate a lower tail shape")
    with np.errstate(divide="ignore", over="ignore"):  # a huge E sends log1p(u)^E to 0 or inf
        coef = float(np.max(-np.log(p[usable]) / np.log1p(u[usable]) ** E))
    if not 0 < coef < math.inf:
        raise ValueError(f"no positive finite coefficient at beta = {beta!r}")
    return coef


# -- curve comparison ----------------------------------------------------


@dataclass
class ComparisonReport:
    u_grid: np.ndarray
    upper_violations: int
    lower_violations: int
    max_upper_excess: float
    max_lower_excess: float
    ok: bool


def compare_curves(empirical, upper, *, lower=None):
    """Check bound ordering against an empirical curve with binomial slack.

    Violations are counted where the empirical probability exceeds the upper
    bound, or falls below the lower bound, by more than SIGMA binomial
    standard errors of the empirical point.
    """
    if empirical.kind != "empirical":
        raise ValueError("first curve must be empirical")
    if empirical.sample_count < 1:
        raise ValueError("empirical curve must record its sample count")
    u = empirical.u_grid
    p = empirical.probs
    se = np.sqrt(p * (1.0 - p) / empirical.sample_count)
    if not np.array_equal(upper.u_grid, u):
        raise ValueError("upper bound curve is on a different level grid")
    excess = p - (upper.probs + SIGMA * se)
    up_viol = int(np.sum(excess > 0))
    up_excess = float(max(0.0, excess.max()))
    lo_viol, lo_excess = 0, 0.0
    if lower is not None:
        if not np.array_equal(lower.u_grid, u):
            raise ValueError("lower bound curve is on a different level grid")
        excess = lower.probs - (p + SIGMA * se)
        lo_viol = int(np.sum(excess > 0))
        lo_excess = float(max(0.0, excess.max()))
    ok = up_viol == 0 and lo_viol == 0
    return ComparisonReport(u, up_viol, lo_viol, up_excess, lo_excess, ok)


def markov_bound(p_grid, moments, u_grid):
    """min(1, min_p (|Y|_p / u)^p) at each level u of ``u_grid``, from the L_p norms
    ``moments`` of Y over ``p_grid``: plain Markov, the sharpest tail bound those moments
    give alone; 1 at u <= 0."""
    with np.errstate(divide="ignore"):  # a level of 0 gives the exponent inf
        logs = np.log(moments) - np.log(np.maximum(u_grid, 0.0))[:, None]
    return np.exp(np.minimum(np.min(p_grid * logs, axis=1), 0.0))


def rederived_invariants(geometry, sup_moments, sup_norm, upper, field_samples, dist):
    """``PASS``, ``FAIL`` or ``n/a`` for each invariant that verify re-derives from the
    artifacts a Geometry gave, by name.

    * ``sup_norm_rederived``: ``sup_norm`` is the envelope norm of the supremum's moments
      ``sup_moments`` (on the geometry's p grid) under ``geometry.tau``.
    * ``markov``: no probability of the ``upper`` curve lies below the plain Markov bound of
      ``sup_moments``; ``n/a`` under a configured envelope, whose Fenchel supremum runs
      between the nodes.
    * ``reverse_triangle``: each distance of ``dist`` is at least max_p |‖X_s‖_p -
      ‖X_t‖_p| / psi(p), from the moments of the columns of ``field_samples``.
    * ``psi_rederived``: the natural envelope psi is, on the p grid, the largest of those
      column moments; ``n/a`` under a configured envelope.
    """
    p_grid, psi = geometry.p_grid, geometry.psi_used
    log_psi = psi.log_value(p_grid)
    norm = float(envelope_norm_rows(sup_moments, geometry.tau.log_value(p_grid)))
    columns = column_moments(field_samples, p_grid)
    i, j = np.triu_indices(field_samples.size, 1)
    floor = envelope_norm_rows(np.abs(columns[i] - columns[j]), log_psi)
    checks = {"sup_norm_rederived": math.isclose(sup_norm, norm, rel_tol=REDERIVE_RTOL),
              "markov": None,
              "reverse_triangle": bool(np.all(dist[i, j] >= floor * (1.0 - TRIANGLE_RTOL))),
              "psi_rederived": None}
    if psi.family == "tabulated":
        floor = markov_bound(p_grid, sup_moments, upper.u_grid)
        checks["markov"] = bool(np.all(upper.probs >= floor * (1.0 - REDERIVE_RTOL)))
        checks["psi_rederived"] = bool(np.allclose(np.exp(log_psi), columns.max(axis=0),
                                                   rtol=REDERIVE_RTOL, atol=0.0))
    return {name: {True: "PASS", False: "FAIL", None: "n/a"}[ok] for name, ok in checks.items()}


# -- the full pipeline ---------------------------------------------------


@dataclass
class Geometry:
    """The index-set geometry a bound is calibrated against, as psi_used.txt and
    entropy_summary.txt record it: ``psi_used``, the envelope of the field columns, the
    integer kernel ``degree`` it is lifted by and their moment grid ``p_grid``; the largest
    envelope distance between index points, ``diameter``; and the covering entropy
    ``integral`` against ``tau``, with its ``saturated_fraction`` from eps where the covering
    saturates at |T|.
    """

    psi_used: object
    degree: int
    p_grid: np.ndarray
    diameter: float
    integral: float
    saturated_fraction: float

    @property
    def tau(self):
        """``psi_used`` lifted by ``degree``: the envelope of the degree-d deviation field."""
        return rosenthal_lift(self.psi_used, self.degree)

    @property
    def certified(self):
        """The integral is positive (one of 0 measured nothing) and its saturated share
        stays below PLATEAU_FRACTION: the regime where the finite index set stands in for
        a richer one and the integral is geometry-driven rather than floor-driven."""
        return self.integral > 0 and self.saturated_fraction < PLATEAU_FRACTION


@dataclass
class BoundReport:
    """The tail curves of a field's supremum and the ``geometry`` they were calibrated
    against; the report is certified when ``geometry.certified`` holds.

    ``sup_columns``, ``sup_top_share`` and ``uniformity`` say whether the supremum moves
    over the index set (:func:`sup_attainment`; max_p |sup|_p / psi(p) over the p grid):
    on a field whose supremum is one column's modulus, psi natural, all three are 1.
    """

    geometry: Geometry
    sup_moments: object
    sup_norm: float
    curves: dict
    scalar_degenerate: bool
    replications: int
    index_size: int
    notes: list
    sup_columns: int
    sup_top_share: float
    uniformity: float


def sup_attainment(field_samples):
    """Over the rows whose supremum of |field| passes 1e-12 of the largest: how many index
    points attain it on some row, and the largest share of those rows, weighted by their
    counts, that one point attains.  A row at or below that is rounding around a centred
    atom at 0, where points tie by chance."""
    sup = field_samples.sup_abs()
    live = sup > 1e-12 * sup.max()
    counts = field_samples.counts[live]
    attained = counts @ (np.abs(field_samples.values[live]) == sup[live, None])
    return int(np.count_nonzero(attained)), float(attained.max() / counts.sum())


def index_geometry(field_samples, p_grid, degree, *, env=None):
    """The Geometry of a field's index set, the FiniteMetricSpace of its envelope distances
    and the EntropyIntegral measured on that space.  Without ``env`` the natural envelope of
    the columns is estimated."""
    # imported here, so that a bounds process, which reads the geometry back, never loads it
    from .entropy import FiniteMetricSpace, entropy_integral

    p_grid = np.asarray(p_grid, dtype=float)
    if env is None:
        env = natural_envelope(field_samples, p_grid)
    tau = rosenthal_lift(env, degree)  # which checks the degree is an integer
    dist = envelope_distance(field_samples, env, p_grid=p_grid)
    space = FiniteMetricSpace(field_samples.labels, dist)
    ent = entropy_integral(space, tau)
    geo = Geometry(env, int(degree), p_grid, space.diameter, ent.value, ent.saturated_fraction)
    return geo, space, ent


def calibrate_tails(field_samples, geometry, u_grid, *, lower=None):
    """Tail curves of the field supremum, calibrated against a Geometry and on its p grid.

    ``lower``, when given, is a dict with keys ``beta`` and optional
    calibration ``column`` (default 0).
    When that column has no usable point the lower curve is omitted with a note.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    tau = geometry.tau
    notes = []
    sup_stat, counts = field_samples.sup_abs(), field_samples.counts
    sup_table = empirical_moments(sup_stat, geometry.p_grid, counts)
    sup_norm = envelope_norm(sup_table, tau)
    upper = TailCurve(u_grid, tail_curve(tau, sup_norm, u_grid), "upper_bound")
    empirical = empirical_tail(sup_stat, u_grid, counts)
    curves = {"empirical": empirical, "upper": upper}
    if lower is not None:
        col = int(lower.get("column", 0))
        beta = float(lower["beta"])
        check_beta(beta)  # a bad shape is an error; an unusable column is not
        col_curve = empirical_tail(field_samples.values[:, col], u_grid, counts)
        try:
            coef = calibrate_log_power(col_curve, beta=beta)
        except ValueError as exc:
            notes.append(f"lower shape omitted: column {col} has {exc}")
        else:
            # the supremum dominates the column pathwise, so no more than its tail is claimed
            shape = log_power_tail(u_grid, coef=coef, beta=beta)
            curves["lower"] = TailCurve(
                u_grid,
                np.minimum(shape, col_curve.probs),
                "lower_bound",
                meta={"coef": coef, "beta": beta, "column": col},
            )
            notes.append(f"lower shape calibrated on column {col} with coef {coef!r}")
    scalar_degenerate = field_samples.size == 1 or geometry.diameter == 0.0
    if scalar_degenerate:
        notes.append("single effective index point; report reduces to the moment tail bound")
    sup_columns, sup_top_share = sup_attainment(field_samples)
    return BoundReport(
        geometry=geometry,
        sup_moments=sup_table,
        sup_norm=sup_norm,
        curves=curves,
        scalar_degenerate=scalar_degenerate,
        replications=field_samples.replications,
        index_size=field_samples.size,
        notes=notes,
        sup_columns=sup_columns,
        sup_top_share=sup_top_share,
        uniformity=envelope_norm(sup_table, geometry.psi_used),
    )


def uniform_tail_report(field_samples, p_grid, degree, u_grid, *, env=None, lower=None):
    """Full bound pipeline for a panel of normalized deviations:
    :func:`index_geometry` of envelope ``env`` followed by :func:`calibrate_tails`.  No
    command runs it; it is kept because the benchmark's tracer (``perfbench/tracing.py``)
    wraps it by name.
    """
    geometry, _, _ = index_geometry(field_samples, p_grid, degree, env=env)
    return calibrate_tails(field_samples, geometry, u_grid, lower=lower)


def report_text(report):
    """Deterministic text rendering of a BoundReport."""
    geo = report.geometry
    lines = []
    lines.append("[envelope]")
    lines.append(f"psi = {geo.psi_used.to_text()}")
    lines.append(f"tau = {geo.tau.to_text()}")
    lines.append("")
    lines.append("[geometry]")
    lines.append(f"index_points = {report.index_size}")
    lines.append(f"diameter = {geo.diameter!r}")
    lines.append(f"entropy_integral = {geo.integral!r}")
    lines.append(f"saturated_fraction = {geo.saturated_fraction!r}")
    lines.append(f"certified = {'true' if geo.certified else 'false'}")
    lines.append(f"scalar_degenerate = {'true' if report.scalar_degenerate else 'false'}")
    lines.append(f"sup_columns = {report.sup_columns}")
    lines.append(f"sup_top_share = {report.sup_top_share!r}")
    lines.append(f"uniformity = {report.uniformity!r}")
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
