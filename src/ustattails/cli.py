"""Command line front end.

Subcommands are stages of one pipeline; ``run`` executes them in order.  A
stage run on its own reads its inputs from the artifact files the previous
stage wrote into the output directory, field.csv included (the field's
law: one line per distinct row, led by its count); within ``run``,
``simulate`` hands the field it wrote to ``entropy`` and ``bounds`` in
memory, exactly as they would parse it.  Running the stages separately
therefore produces byte-identical artifacts to one ``run``.  All floats are
written with repr, nothing records wall-clock time, and every random draw is
keyed by the configured seed, so identical configs give identical bytes.

Exit codes: 0 success, 1 error (bad config, missing artifact, bad math),
2 finished but not certified (entropy integral saturated by the finite index
floor, or bound ordering violated).
"""

import argparse
import hashlib
import io
import math
import os
import sys
import warnings
from functools import partial
from itertools import chain, islice

import numpy as np

from .bounds import (
    Geometry, calibrate_tails, check_beta, check_sigma, compare_curves, index_geometry, report_text
)
from .config import Config, ConfigError, parse_floats, resolve_grid
from .empirics import FieldSamples, TailCurve, check_levels, check_sample_count
from .engine import (
    GPROD_SHAPES,
    alphabet_sampler,
    check_alphabet_law,
    check_degree,
    check_rank,
    check_sample_size,
    check_subsets,
    check_table_law,
    decompose_field,
    lognormal_sampler,
    make_kernel,
    normal_sampler,
    pareto_sampler,
    rademacher_sampler,
    simulate_panel,
    uniform_sampler,
)
from .entropy import (
    DEFAULT_PLATEAU_FRACTION, EntropyIntegral, FiniteMetricSpace, check_eps_grid,
    check_estimator, check_plateau_fraction,
)
from .envelopes import (
    DEFAULT_GRID_POINTS, DEFAULT_P_MAX, MomentEnvelope, check_family_param, check_lift_degree,
    check_p_grid, check_p_max, check_points, constant_envelope, make_envelope, rosenthal_lift,
)

FIELD = "field.csv"
FIELD_META = "field_meta.txt"
DECOMP = "decomposition.csv"
PSI_USED = "psi_used.txt"
DISTANCE = "distance.csv"
ENTROPY = "entropy.csv"
ENTROPY_SUMMARY = "entropy_summary.txt"
MOMENTS_SUP = "moments_sup.csv"
TAIL_EMPIRICAL = "tail_empirical.csv"
TAIL_UPPER = "tail_upper.csv"
TAIL_LOWER = "tail_lower.csv"
BOUND_REPORT = "bound_report.txt"
VERIFY_REPORT = "verify_report.txt"
PLOT = "plot.svg"

OUT_ENV_VAR = "USTATTAILS_OUT"
# the config keys the stages read, as README's config-key table lists them; main refuses others
KEYS = (
    "run.seed", "run.n", "run.reps", "run.rank", "run.mode", "run.subsets", "sampler.name",
    "sampler.lo", "sampler.hi", "sampler.a", "sampler.sigma", "sampler.values", "sampler.weights",
    "kernel.name", "kernel.degree", "kernel.shift", "kernel.g", "kernel.t_grid", "kernel.values",
    "kernel.table", "grids.p", "grids.u", "grids.eps", "psi.family", "psi.m", "psi.r", "psi.coef",
    "psi.expo", "psi.value", "psi.p_sup", "psi.p_max", "psi.points", "entropy.estimator",
    "entropy.plateau_fraction", "bound.degree", "bound.lower_beta",
    "bound.lower_exponent", "bound.lower_column", "bound.sigma", "output.dir", "output.plot",
)
DEFAULT_P_GRID = "log:2:16:8"
DEFAULT_U_GRID = "quantile:0.5:0.99:16"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _need(out_dir, name, stage):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"stage {stage!r} needs {name} in {out_dir}; run the earlier stage first")
    return path


# -- builders ------------------------------------------------------------


def build_sampler(cfg):
    name = cfg.get_str(
        "sampler.name",
        choices=("normal", "uniform", "rademacher", "pareto", "lognormal", "alphabet"),
    )
    if name == "normal":
        return normal_sampler()
    if name == "uniform":
        # each end is checked against the other, so whichever is set is named
        hi = cfg.get_float("sampler.hi", 1.0)
        lo = cfg.get_float("sampler.lo", 0.0, check=lambda lo: uniform_sampler(lo, hi))
        cfg.get_float("sampler.hi", 1.0, check=partial(uniform_sampler, lo))
        return uniform_sampler(lo, hi)
    if name == "rademacher":
        return rademacher_sampler()
    if name == "pareto":
        return pareto_sampler(cfg.get_float("sampler.a", check=pareto_sampler))
    if name == "lognormal":
        return lognormal_sampler(cfg.get_float("sampler.sigma", 1.0, check=lognormal_sampler))
    values = cfg.get_floats("sampler.values", check=check_alphabet_law)
    weights = cfg.get_floats("sampler.weights", None, check=partial(check_alphabet_law, values))
    return alphabet_sampler(values, weights)


def build_kernel(cfg):
    name = cfg.get_str(
        "kernel.name", choices=("product", "sum", "half_sq_diff", "gprod", "table")
    )
    degree = cfg.get_int("kernel.degree", None, check=partial(check_degree, name=name))
    if name in ("product", "sum"):
        return make_kernel(name, degree, shift=cfg.get_float("kernel.shift", 0.0))
    if name == "half_sq_diff":
        return make_kernel(name, degree)
    if name == "gprod":
        t_grid = cfg.get_floats("kernel.t_grid")
        g = cfg.get_str("kernel.g", "sin", choices=tuple(GPROD_SHAPES))
        return make_kernel(name, degree, g=g, t_grid=t_grid)
    values = cfg.get_floats("kernel.values")
    rows = cfg.get_floats("kernel.table")
    cols = len(rows) // len(values)
    if cols * len(values) != len(rows):
        cfg.fail("kernel.table", "table length must be a multiple of the value count")
    table = np.asarray(rows).reshape(len(values), cols)
    return make_kernel("table", degree, values=values, table=table)


def build_law(cfg):
    """The configured kernel and sampler; a table kernel is defined on ``kernel.values``
    alone, so a sampler that takes another value fails naming that key."""
    kernel, sampler = build_kernel(cfg), build_sampler(cfg)
    if kernel.name == "table":
        cfg.get_floats("kernel.values", check=partial(check_table_law, sampler=sampler))
    return kernel, sampler


def build_mode(cfg):
    """The tuples averaged per replication, or None for exact averaging."""
    mode = cfg.get_str("run.mode", "exact", choices=("exact", "incomplete"))
    if mode == "incomplete":
        return cfg.get_int("run.subsets", check=check_subsets)
    if cfg.has("run.subsets"):
        cfg.fail("run.subsets", "run.subsets has no effect under exact averaging and is not "
                 "accepted; set run.mode = incomplete or remove the key")
    return None


def build_envelope(cfg, p_grid):
    """The configured envelope, or None for the natural one; its support holds ``p_grid``."""
    family = cfg.get_str(
        "psi.family",
        "natural",
        choices=("natural", "power_log", "exp_power", "constant"),
    )
    if family == "natural":
        return None

    def param(name, *default):
        return cfg.get_float(f"psi.{name}", *default, check=partial(check_family_param, name))

    if family == "power_log":
        return make_envelope("power_log", m=param("m"), r=param("r", 0.0))
    if family == "exp_power":
        return make_envelope("exp_power", coef=param("coef"), expo=param("expo"))
    value = param("value")
    # the envelope is evaluated on p_grid, so its support must hold the grid
    p_sup = cfg.get_float(
        "psi.p_sup", check=lambda p_sup: constant_envelope(value, p_sup).log_value(p_grid)
    )
    return make_envelope("constant", value=value, p_sup=p_sup)


# -- artifact IO ---------------------------------------------------------
#
# Every artifact is a CSV table or a ``key = value`` record, written and read
# by the functions below.  Cell text is decided in one place, ``_cell``.


# lines a table is written in per encode, write and digest update
_WRITE_BLOCK_LINES = 4096


def _cell(x):
    if type(x) is float:
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_table(path, header, rows, comment=None, digest=None):
    """CSV table; ``comment`` becomes a leading ``# `` line (read by read_pairs).

    The lines are streamed to the file in blocks of ``_WRITE_BLOCK_LINES``;
    ``digest``, a hashlib object, is fed the bytes written.
    """
    lines = chain([] if comment is None else [f"# {comment}"],
                  (",".join(map(_cell, cells)) for cells in chain([header], rows)))
    with open(path, "wb") as fh:
        while block := list(islice(lines, _WRITE_BLOCK_LINES)):
            data = ("\n".join(block) + "\n").encode()
            fh.write(data)
            if digest is not None:
                digest.update(data)


def read_table(path, labelled=False, digest=None):
    """Header cells and float matrix of a CSV table, ``#`` lines skipped.

    With ``labelled`` the first column holds row labels and stays out of the
    matrix.  The matrix and any error are np.loadtxt's; a malformed, empty or
    too wide table raises ConfigError naming it.  ``digest``, a hashlib
    object, is fed the bytes parsed.
    """
    with open(path, "rb") as raw:
        data = raw.read()
    if digest is not None:
        digest.update(data)
    with io.TextIOWrapper(io.BytesIO(data)) as fh:
        header = next((line for line in fh if not line.startswith("#")), "")
        header = header.rstrip("\n").split(",")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty table is rejected below
                values = np.loadtxt(fh, delimiter=",", ndmin=2,
                                    converters={0: lambda label: 0.0} if labelled else None)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not len(values):
        raise ConfigError(f"{path}: no data rows")
    if values.shape[1] != len(header):  # loadtxt has checked that all rows are equally wide
        raise ConfigError(f"{path}: rows have {values.shape[1]} cells, the header {len(header)}")
    return header, values[:, labelled:]


def _finite(path, values):
    """``values``, read from the table at ``path``; a NaN or infinite cell raises ConfigError
    naming it."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ConfigError(f"{path}: {bad} non-finite cells")
    return values


def read_columns(path, names):
    """The named columns of a CSV table; a missing one raises ConfigError naming the table."""
    header, data = read_table(path)
    if not set(names) <= set(header):
        raise ConfigError(f"{path}: needs columns {', '.join(names)}, has {', '.join(header)}")
    return [data[:, header.index(name)] for name in names]


def write_pairs(path, pairs):
    _write(path, "".join(f"{k} = {_cell(v)}\n" for k, v in pairs))


def read_pairs(path):
    """(key, value) of every ``key = value`` line of a text artifact."""
    with open(path) as fh:
        return [tuple(part.strip() for part in line.split("=", 1)) for line in fh if "=" in line]


def read_record(path, casts):
    """A ``key = value`` artifact with ``casts[key]`` applied to each named value.

    A missing key or a value its cast rejects raises ConfigError naming the file.
    """
    record = dict(read_pairs(path))
    for key, cast in casts.items():
        try:
            record[key] = cast(record[key])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}: missing or bad {key!r} ({exc})") from None
    return record


def _field_samples(path, labels, values, counts, pairs, digest):
    """The field as its artifacts spell it: field_meta.txt ``pairs`` become its meta.

    Counts that are not positive integers, or that do not sum to the
    ``reps`` the pairs give, raise ConfigError naming the field.csv at ``path``.
    """
    meta = {k: v for k, v in pairs if k != "note"}
    meta["notes"] = [v for k, v in pairs if k == "note"]
    meta["field_sha256"] = digest
    try:
        fld = FieldSamples(labels, values, counts, meta)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    reps = meta.get("reps")
    if reps is not None and reps != str(fld.replications):
        raise ConfigError(f"{path}: counts sum to {fld.replications}, but {FIELD_META} gives "
                          f"reps = {reps}")
    return fld


def write_field(out_dir, fld):
    """field.csv, one line per distinct row led by its count, and field_meta.txt.

    Returns the field as ``read_field`` reads it back, with the SHA-256 of
    the field.csv bytes, hashed as they are written.
    """
    path, header = os.path.join(out_dir, FIELD), ("count",) + tuple(fld.labels)
    digest = hashlib.sha256()
    rows = ([int(c)] + row.tolist() for c, row in zip(fld.counts.tolist(), fld.values))
    write_table(path, header, rows, digest=digest)
    pairs = [(k, _cell(v)) for k, v in sorted(fld.meta.items()) if k != "notes"]
    pairs += [("note", note) for note in fld.meta.get("notes", [])]
    write_pairs(os.path.join(out_dir, FIELD_META), pairs)
    labels = ",".join(map(_cell, header)).split(",")[1:]
    return _field_samples(path, labels, fld.values, fld.counts, pairs, digest.hexdigest())


def read_field(out_dir, stage):
    """The field in field.csv, with the SHA-256 of its bytes as ``meta["field_sha256"]``.

    A first column not named ``count``, a NaN or infinite cell, a count that
    is not a positive integer, or counts that do not sum to field_meta.txt's
    ``reps`` raise ConfigError naming the file.
    """
    path = _need(out_dir, FIELD, stage)
    digest = hashlib.sha256()
    header, values = read_table(path, digest=digest)
    if header[0] != "count":
        raise ConfigError(f"{path}: the first column is {header[0]!r}, not 'count'; "
                          "rerun stage 'simulate'")
    _finite(path, values)
    meta_path = os.path.join(out_dir, FIELD_META)
    pairs = read_pairs(meta_path) if os.path.exists(meta_path) else []
    return _field_samples(path, header[1:], values[:, 1:], values[:, 0], pairs,
                          digest.hexdigest())


def write_distance(out_dir, labels, dist):
    rows = ([lbl] + row for lbl, row in zip(labels, dist.tolist()))
    write_table(os.path.join(out_dir, DISTANCE), ("label",) + tuple(labels), rows)


def read_distance(out_dir, stage):
    path = _need(out_dir, DISTANCE, stage)
    header, dist = read_table(path, labelled=True)
    try:
        return FiniteMetricSpace(header[1:], _finite(path, dist))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_curve(path, curve):
    rows = zip(curve.u_grid.tolist(), curve.probs.tolist())
    write_table(path, ("u", "prob"), rows, comment=f"samples = {curve.sample_count}")


def read_curve(path, kind):
    u, p = read_columns(path, ("u", "prob"))
    samples = int(dict(read_pairs(path)).get("# samples", 0))
    return TailCurve(u, p, kind, sample_count=samples)


def write_geometry(out_dir, geo, estimator, field_sha256):
    """The entropy stage's artifacts, tied to the field.csv bytes they were measured on."""
    write_distance(out_dir, geo.space.labels, geo.space.dist)
    p_grid = ",".join(map(_cell, geo.p_grid.tolist()))
    degree = geo.tau.lift - geo.psi_used.lift
    psi = [("psi", geo.psi_used.to_text()), ("degree", degree), ("p_grid", p_grid),
           ("p_max", geo.p_max), ("points", geo.points)]
    write_pairs(os.path.join(out_dir, PSI_USED), psi)
    ent = geo.entropy
    counts = [int(round(math.exp(h))) for h in ent.entropies.tolist()]
    rows = zip(ent.eps_grid.tolist(), counts, ent.entropies.tolist(), ent.integrand.tolist())
    write_table(os.path.join(out_dir, ENTROPY), ("eps", "count", "entropy", "integrand"), rows)
    write_pairs(
        os.path.join(out_dir, ENTROPY_SUMMARY),
        [
            ("estimator", estimator),
            ("points", geo.space.size),
            ("diameter", geo.space.diameter),
            ("integral", ent.value),
            ("saturated_fraction", ent.saturated_fraction),
            ("certified", bool(ent.finite)),
            ("field_sha256", field_sha256),
        ],
    )


def read_geometry(out_dir, stage, field_sha256):
    """The Geometry the entropy stage wrote, rebuilt from its artifacts.

    Raises ConfigError when they were measured on a field.csv whose bytes do
    not hash to ``field_sha256``.
    """
    summary = read_record(_need(out_dir, ENTROPY_SUMMARY, stage), {
        "field_sha256": str,
        "points": int,
        "integral": float,
        "saturated_fraction": float,
        "certified": {"true": True, "false": False}.__getitem__,
    })
    if summary["field_sha256"] != field_sha256:
        raise ConfigError(f"{DISTANCE} was measured on another {FIELD}; rerun stage 'entropy'")
    psi = read_record(_need(out_dir, PSI_USED, stage), {
        "psi": MomentEnvelope.from_text,
        "degree": int,
        "p_grid": lambda text: check_p_grid(parse_floats(text)),
        "p_max": lambda text: check_p_max(float(text)),
        "points": lambda text: check_points(int(text)),
    })
    eps, entropies, integrand = read_columns(
        _need(out_dir, ENTROPY, stage), ("eps", "entropy", "integrand")
    )
    ent = EntropyIntegral(
        value=summary["integral"],
        finite=summary["certified"],
        eps_grid=eps,
        integrand=integrand,
        entropies=entropies,
        saturated_fraction=summary["saturated_fraction"],
        points=summary["points"],
    )
    env, space = psi["psi"], read_distance(out_dir, stage)
    tau = rosenthal_lift(env, psi["degree"])
    return Geometry(env, tau, space, ent, psi["p_grid"], psi["p_max"], psi["points"])


def write_svg(out_dir, curves):
    """Minimal log-scale tail plot; polyline per curve, no external assets."""
    width, height, pad = 640, 400, 50
    floor = 1e-6
    all_u = curves["empirical"].u_grid
    u_lo, u_hi = float(all_u.min()), float(all_u.max())
    if u_hi <= u_lo:
        u_hi = u_lo + 1.0

    def x(u):
        return pad + (u - u_lo) / (u_hi - u_lo) * (width - 2 * pad)

    def y(p):
        lp = math.log10(max(p, floor))
        return pad + (0.0 - lp) / (0.0 - math.log10(floor)) * (height - 2 * pad)

    colors = {"empirical": "#1f77b4", "upper": "#d62728", "lower": "#2ca02c"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="#888"/>',
    ]
    for name, curve in curves.items():
        pts = " ".join(f"{x(u):.2f},{y(p):.2f}" for u, p in zip(curve.u_grid, curve.probs))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{colors.get(name, "#333")}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad + 4}" y="{y(curve.probs[-1]):.2f}" font-size="10" '
            f'fill="{colors.get(name, "#333")}">{name}</text>'
        )
    parts.append(
        f'<text x="{pad}" y="{height - 10}" font-size="10" fill="#333">level u '
        f'({_cell(u_lo)} to {_cell(u_hi)}), log tail probability down to 1e-6</text>'
    )
    parts.append("</svg>")
    _write(os.path.join(out_dir, PLOT), "\n".join(parts) + "\n")


# -- stages ---------------------------------------------------------------


def stage_simulate(cfg, out_dir):
    # returns the field as written, which ``run`` hands to entropy and bounds
    kernel, sampler = build_law(cfg)
    seed = cfg.get_int("run.seed")
    n = cfg.get_int("run.n", check=partial(check_sample_size, degree=kernel.degree))
    reps = cfg.get_int("run.reps", check=check_sample_count)
    rank = None
    if cfg.get_str("run.rank", "auto") != "auto":
        rank = cfg.get_int("run.rank", check=check_rank)
    fld = simulate_panel(
        kernel,
        sampler,
        n,
        reps,
        seed,
        rank=rank,
        subsets=build_mode(cfg),
    )
    written = write_field(out_dir, fld)
    if fld.decomposition is not None:
        write_decomposition(out_dir, fld.decomposition)
    return written


def write_decomposition(out_dir, decomps):
    zetas = [f"zeta_{c}" for c in range(1, len(decomps[0].zetas) + 1)]
    rows = (
        [dec.t, float(dec.mean), dec.rank, bool(dec.degenerate)] + dec.zetas.tolist()
        for dec in decomps
    )
    write_table(os.path.join(out_dir, DECOMP), ["t", "mean", "rank", "degenerate"] + zetas, rows)


def stage_decompose(cfg, out_dir):
    kernel, sampler = build_law(cfg)
    if sampler.alphabet is None:
        cfg.fail("sampler.name", "decomposition needs a finite alphabet sampler")
    write_decomposition(out_dir, decompose_field(kernel, sampler))
    return 0


def _entropy_settings(cfg, size):
    """The configured degree (or None), and the arguments of ``index_geometry`` but the field,
    whose index has ``size`` points."""
    p_grid = resolve_grid(cfg.get_grid("grids.p", DEFAULT_P_GRID, check=check_p_grid))
    eps = cfg.get_grid("grids.eps", None, check=check_eps_grid)
    options = {
        "p_grid": p_grid,
        "env": build_envelope(cfg, p_grid),
        "eps_grid": None if eps is None else resolve_grid(eps),
        "estimator": cfg.get_str(
            "entropy.estimator", "greedy", choices=("greedy", "packing", "exact"),
            check=partial(check_estimator, points=size),
        ),
        "plateau_fraction": cfg.get_float(
            "entropy.plateau_fraction", DEFAULT_PLATEAU_FRACTION, check=check_plateau_fraction
        ),
        "p_max": cfg.get_float("psi.p_max", DEFAULT_P_MAX, check=check_p_max),
        "points": cfg.get_int("psi.points", DEFAULT_GRID_POINTS, check=check_points),
    }
    return cfg.get_int("bound.degree", None, check=check_lift_degree), options


def stage_entropy(cfg, out_dir, fld=None):
    if fld is None:
        fld = read_field(out_dir, "entropy")
    degree, options = _entropy_settings(cfg, len(fld.labels))
    if degree is None:
        # the field's own degree, never the config's: it need not be the one that produced it
        if "degree" not in fld.meta:
            raise ConfigError(f"{FIELD_META} gives no kernel degree; set bound.degree")
        degree = int(fld.meta["degree"])
    geo = index_geometry(fld, degree=degree, **options)
    write_geometry(out_dir, geo, options["estimator"], fld.meta["field_sha256"])
    return 0


def _bounds_settings(cfg, columns):
    """The parsed u grid, the lower-curve settings (or None) and the plot switch.

    ``columns`` is the number of field columns ``bound.lower_column`` picks from.
    """
    u_spec = cfg.get_grid("grids.u", DEFAULT_U_GRID, quantile=True, check=check_levels)
    lower = None
    if cfg.has("bound.lower_beta"):
        lower = {
            "beta": cfg.get_float("bound.lower_beta", check=check_beta),
            "exponent": cfg.get_str(
                "bound.lower_exponent",
                "one_plus_beta",
                choices=("one_plus_beta", "one_plus_inv_beta"),
            ),
            "column": cfg.get_int("bound.lower_column", 0),
        }
        if not 0 <= lower["column"] < columns:
            cfg.fail("bound.lower_column", f"bound.lower_column must lie in 0..{columns - 1}, "
                     f"got {lower['column']}")
    return u_spec, lower, cfg.get_bool("output.plot", False)


def stage_bounds(cfg, out_dir, fld=None):
    if fld is None:
        fld = read_field(out_dir, "bounds")
    u_spec, lower, plot = _bounds_settings(cfg, len(fld.labels))
    geo = read_geometry(out_dir, "bounds", fld.meta["field_sha256"])
    try:
        u_grid = resolve_grid(u_spec, fld.sup_abs(), fld.counts)
    except ValueError as exc:  # quantiles of a supremum with too few atoms
        cfg.fail("grids.u", f"grids.u: {exc}")
    report = calibrate_tails(fld, geo, u_grid, lower=lower)
    kind, asked = u_spec
    if kind == "quantile" and u_grid.size < asked[2]:
        # quantiles that land on one atom of the supremum give one level
        report.notes.append(f"grids.u: {asked[2]} quantiles gave {u_grid.size} distinct levels")
    sup = report.sup_moments
    rows = zip(sup.p_grid.tolist(), sup.values.tolist(), sup.low_confidence.tolist())
    write_table(os.path.join(out_dir, MOMENTS_SUP), ("p", "value", "low_confidence"), rows)
    for name, file in (("empirical", TAIL_EMPIRICAL), ("upper", TAIL_UPPER), ("lower", TAIL_LOWER)):
        path = os.path.join(out_dir, file)
        if name in report.curves:
            write_curve(path, report.curves[name])
        elif os.path.exists(path):
            os.remove(path)  # a lower curve left by an earlier config must not reach verify
    _write(os.path.join(out_dir, BOUND_REPORT), report_text(report))
    if plot:
        write_svg(out_dir, report.curves)
    return 0 if report.certified else 2


def _verify_sigma(cfg):
    return cfg.get_float("bound.sigma", 3.0, check=check_sigma)


def stage_verify(cfg, out_dir):
    emp = read_curve(_need(out_dir, TAIL_EMPIRICAL, "verify"), "empirical")
    upper = read_curve(_need(out_dir, TAIL_UPPER, "verify"), "upper_bound")
    lower_path = os.path.join(out_dir, TAIL_LOWER)
    lower = read_curve(lower_path, "lower_bound") if os.path.exists(lower_path) else None
    cmp = compare_curves(emp, upper=upper, lower=lower, sigma=_verify_sigma(cfg))
    write_pairs(
        os.path.join(out_dir, VERIFY_REPORT),
        [
            ("sigma", cmp.sigma),
            ("levels", cmp.u_grid.size),
            ("upper_violations", cmp.upper_violations),
            ("lower_violations", cmp.lower_violations),
            ("max_upper_excess", cmp.max_upper_excess),
            ("max_lower_excess", cmp.max_lower_excess),
            ("ordering", "PASS" if cmp.ok else "FAIL"),
        ],
    )
    return 0 if cmp.ok else 2


def stage_run(cfg, out_dir):
    # every key a later stage reads is read here, so a bad one fails before any artifact
    size = len(build_kernel(cfg).t_grid)
    _entropy_settings(cfg, size)
    _bounds_settings(cfg, size)
    _verify_sigma(cfg)
    fld = stage_simulate(cfg, out_dir)
    stage_entropy(cfg, out_dir, fld)
    return max(stage_bounds(cfg, out_dir, fld), stage_verify(cfg, out_dir))


STAGES = {
    "run": stage_run,
    "simulate": stage_simulate,
    "entropy": stage_entropy,
    "bounds": stage_bounds,
    "verify": stage_verify,
    "decompose": stage_decompose,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ustattails",
        description="Simulate U-statistic deviation fields and certify uniform tail bounds.",
    )
    # one flat parser, since every stage takes the same arguments: a subparser per stage
    # tripled the time to parse a command line
    parser.add_argument("command", choices=STAGES, help="the stage to run")
    parser.add_argument("config", help="path to a key-value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config entry",
    )
    parser.add_argument("--out", default=None, help="output directory for artifacts")
    args = parser.parse_args(argv)
    try:
        cfg = Config.from_file(args.config)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg.override(key.strip(), value.strip())
        out_dir = args.out or (
            cfg.get_str("output.dir", None) or os.environ.get(OUT_ENV_VAR) or "."
        )
        os.makedirs(out_dir, exist_ok=True)
        cfg.check_keys(KEYS)
        code = STAGES[args.command](cfg, out_dir)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if isinstance(code, FieldSamples) else code  # simulate returns its field


if __name__ == "__main__":
    sys.exit(main())
