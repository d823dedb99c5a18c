"""Command line front end.

Subcommands are stages of one pipeline; ``run`` executes them in order.  A
stage run on its own reads its inputs from the artifact files the previous
stage wrote into the output directory, field.csv included (the field's
law: one line per distinct row, led by its count); within ``run``,
``simulate`` hands the field it wrote to ``entropy``, ``bounds`` and
``verify`` in memory, exactly as they would parse it.  Running the stages separately
therefore produces byte-identical artifacts to one ``run``.  All floats are
written with repr, nothing records wall-clock time, and every random draw is
keyed by the configured seed, so identical configs give identical bytes.

Exit codes: 0 success, 1 error (bad config, missing artifact, bad math),
2 finished but not certified (entropy integral saturated by the finite index
floor, or bound ordering violated).
"""

import argparse
import contextlib
import io
import math
import os
import sys
import warnings
from functools import partial
from itertools import chain, islice

import numpy as np

try:  # CPython's own SHA-256: hashlib loads OpenSSL, 3.6 MiB of every run's peak RSS
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # a Python built without them
        from hashlib import sha256

from .bounds import (
    SIGMA, Geometry, calibrate_tails, check_beta, compare_curves, index_geometry,
    rederived_invariants, report_text,
)
from .config import Config, ConfigError, parse_floats, parse_number, resolve_grid
from .empirics import FieldSamples, TailCurve, check_levels, check_sample_count
from .envelopes import (
    DEFAULT_P_MAX, FAMILY_PARAMS, MomentEnvelope, check_family_param, check_lift_degree,
    check_p_grid, constant_envelope, make_envelope, rosenthal_lift,
)
# engine is imported inside the builders and stages that simulate, so that a bounds, entropy
# or verify process neither compiles nor runs it; entropy is imported inside read_distance
# and bounds.index_geometry, which a bounds process does not run

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

# each command's (outputs, inputs): main removes the files it writes before it runs and again
# when it exits 1, and first checks the files it must find when run on its own, in reading order
FILES = {
    "simulate": ((FIELD, FIELD_META, DECOMP), ()),
    "entropy": ((PSI_USED, DISTANCE, ENTROPY, ENTROPY_SUMMARY), (FIELD, FIELD_META)),
    "bounds": ((MOMENTS_SUP, TAIL_EMPIRICAL, TAIL_UPPER, TAIL_LOWER, BOUND_REPORT, PLOT),
               (FIELD, FIELD_META, ENTROPY_SUMMARY, PSI_USED)),
    "verify": ((VERIFY_REPORT,), (TAIL_EMPIRICAL, TAIL_UPPER, FIELD, FIELD_META, ENTROPY_SUMMARY,
                                  PSI_USED, MOMENTS_SUP, BOUND_REPORT, DISTANCE)),
    "decompose": ((DECOMP,), ()),
}
FILES["run"] = (FILES["simulate"][0] + FILES["entropy"][0] + FILES["bounds"][0]
                + FILES["verify"][0], ())

# the config keys the stages read, as README's config-key table lists them; main refuses
# others, and run also refuses a set key that the chosen options do not read
KEYS = (
    "run.seed", "run.n", "run.reps", "run.rank", "run.mode", "run.subsets", "sampler.name",
    "sampler.lo", "sampler.hi", "sampler.a", "sampler.sigma", "sampler.values", "sampler.weights",
    "kernel.name", "kernel.degree", "kernel.shift", "kernel.g", "kernel.t_grid", "kernel.table",
    "grids.p", "grids.u", "psi.family", "psi.m", "psi.r", "psi.coef",
    "psi.expo", "psi.value", "psi.p_sup", "bound.lower_beta", "bound.lower_column",
    "output.dir", "output.plot",
)
# ln of half the largest double: past it the trapezoid sum of two entropy integrands overflows
LOG_HALF_MAX_DOUBLE = math.log(sys.float_info.max / 2.0)
DEFAULT_P_GRID = "log:2:16:8"
DEFAULT_U_GRID = "quantile:0.5:0.99:16"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _discard(paths):
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


# -- builders ------------------------------------------------------------


def build_sampler(cfg):
    from .engine import (
        alphabet_sampler, check_alphabet_law, lognormal_sampler, normal_sampler, pareto_sampler,
        rademacher_sampler, uniform_sampler,
    )

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


def build_law(cfg):
    """The configured kernel and sampler.  A table kernel is defined on the sampler's
    alphabet, one ``kernel.table`` row per value in ascending order, so a sampler without
    one fails naming ``sampler.name``."""
    from .engine import GPROD_SHAPES, check_degree, make_kernel

    sampler = build_sampler(cfg)
    name = cfg.get_str(
        "kernel.name", choices=("product", "sum", "half_sq_diff", "gprod", "table")
    )
    degree = cfg.get_int("kernel.degree", None, check=partial(check_degree, name=name))
    if name in ("product", "sum"):
        return make_kernel(name, degree, shift=cfg.get_float("kernel.shift", 0.0)), sampler
    if name == "half_sq_diff":
        return make_kernel(name, degree), sampler
    if name == "gprod":
        t_grid = cfg.get_floats("kernel.t_grid")
        g = cfg.get_str("kernel.g", "sin", choices=tuple(GPROD_SHAPES))
        return make_kernel(name, degree, g=g, t_grid=t_grid), sampler
    if sampler.alphabet is None:
        cfg.fail("sampler.name", f"sampler.name: a table kernel needs an alphabet law, and "
                 f"{sampler.name!r} draws from a continuum")
    values = np.sort(sampler.alphabet[0])
    rows = cfg.get_floats("kernel.table")
    cols = len(rows) // len(values)
    if cols * len(values) != len(rows):
        cfg.fail("kernel.table", "table length must be a multiple of the value count")
    table = np.asarray(rows).reshape(len(values), cols)
    return make_kernel("table", degree, values=values, table=table), sampler


def build_mode(cfg):
    """The tuples averaged per replication, or None for exact averaging."""
    from .engine import check_subsets

    mode = cfg.get_str("run.mode", "exact", choices=("exact", "incomplete"))
    if mode == "incomplete":
        return cfg.get_int("run.subsets", check=check_subsets)
    if cfg.has("run.subsets"):
        cfg.fail("run.subsets", "run.subsets has no effect under exact averaging and is not "
                 "accepted; set run.mode = incomplete or remove the key")
    return None


def build_envelope(cfg, p_grid):
    """The configured envelope, or None for the natural one; its support holds ``p_grid``."""
    family = cfg.get_str("psi.family", "natural", choices=("natural", *FAMILY_PARAMS))
    if family == "natural":
        return None
    params = {}
    for name in FAMILY_PARAMS[family]:
        if name == "p_sup":
            # the envelope is evaluated on p_grid, so its support must hold the grid; the support
            # [2, inf] is the one config number that may be infinite, so its text is cast here
            constant = partial(constant_envelope, params["value"])
            params[name] = float(cfg.get_str(
                "psi.p_sup", check=lambda text: constant(float(text)).log_value(p_grid)))
        else:
            default = (0.0,) if name == "r" else ()
            params[name] = cfg.get_float(f"psi.{name}", *default,
                                         check=partial(check_family_param, name))
    return make_envelope(family, **params)


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
    ``digest``, a SHA-256 object, is fed the bytes written.
    """
    lines = chain([] if comment is None else [f"# {comment}"],
                  (",".join(map(_cell, cells)) for cells in chain([header], rows)))
    with open(path, "wb") as fh:
        while block := list(islice(lines, _WRITE_BLOCK_LINES)):
            data = ("\n".join(block) + "\n").encode()
            fh.write(data)
            if digest is not None:
                digest.update(data)


def read_table(path, digest=None, empty=False):
    """Header cells, float matrix and leading ``# key = value`` pairs of a CSV table.

    The ``#`` lines before the header are skipped, and those with a ``=``
    give the pairs as ``read_pairs`` reads them.  The matrix and any error
    are np.loadtxt's; a malformed or too wide table, or an empty one unless
    ``empty``, raises ConfigError naming it.  ``digest``, a SHA-256 object,
    is fed the bytes parsed.
    """
    with open(path, "rb") as raw:
        data = raw.read()
    if digest is not None:
        digest.update(data)
    with io.TextIOWrapper(io.BytesIO(data)) as fh:
        pairs, header = [], ""
        for line in fh:
            if not line.startswith("#"):
                header = line
                break
            if "=" in line:
                pairs.append(_pair(line))
        header = header.rstrip("\n").split(",")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty table is rejected below
                values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not (len(values) or empty):
        raise ConfigError(f"{path}: no data rows")
    if values.shape[1] != len(header):  # loadtxt has checked that all rows are equally wide
        raise ConfigError(f"{path}: rows have {values.shape[1]} cells, the header {len(header)}")
    return header, values, pairs


def read_columns(path, names):
    """The named columns of a CSV table; a missing one raises ConfigError naming the table."""
    return _columns(path, *read_table(path)[:2], names)


def _columns(path, header, data, names):
    """The named columns of the table at ``path`` that ``read_table`` read as ``header`` and
    ``data``."""
    if not set(names) <= set(header):
        raise ConfigError(f"{path}: needs columns {', '.join(names)}, has {', '.join(header)}")
    return [data[:, header.index(name)] for name in names]


def write_pairs(path, pairs):
    _write(path, "".join(f"{k} = {_cell(v)}\n" for k, v in pairs))


def _pair(line):
    return tuple(part.strip() for part in line.split("=", 1))


def read_pairs(path):
    """(key, value) of every ``key = value`` line of a text artifact."""
    with open(path) as fh:
        return [_pair(line) for line in fh if "=" in line]


def _lift_degree(text):
    """The lift degree a record spells, checked as ``rosenthal_lift`` checks it."""
    return check_lift_degree(int(text))


def read_record(path, casts):
    """A ``key = value`` artifact with ``casts[key]`` applied to each named value.

    A missing key or a value its cast rejects raises ConfigError naming the file.
    """
    return cast_record(path, read_pairs(path), casts)


def cast_record(path, pairs, casts):
    """``read_record`` of the record at ``path`` whose ``key = value`` pairs are ``pairs``."""
    record = dict(pairs)
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
    digest = sha256()
    rows = ([int(c)] + row.tolist() for c, row in zip(fld.counts.tolist(), fld.values))
    write_table(path, header, rows, digest=digest)
    pairs = [(k, _cell(v)) for k, v in sorted(fld.meta.items()) if k != "notes"]
    pairs += [("note", note) for note in fld.meta.get("notes", [])]
    write_pairs(os.path.join(out_dir, FIELD_META), pairs)
    labels = ",".join(map(_cell, header)).split(",")[1:]
    return _field_samples(path, labels, fld.values, fld.counts, pairs, digest.hexdigest())


def read_field(out_dir):
    """The field in field.csv, with the SHA-256 of its bytes as ``meta["field_sha256"]``.

    A first column not named ``count``, a NaN or infinite cell, a count that
    is not a positive integer, or counts that do not sum to field_meta.txt's
    ``reps`` raise ConfigError naming the file.
    """
    path = os.path.join(out_dir, FIELD)
    digest = sha256()
    header, values, _ = read_table(path, digest=digest)
    if header[0] != "count":
        raise ConfigError(f"{path}: the first column is {header[0]!r}, not 'count'; "
                          "rerun stage 'simulate'")
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ConfigError(f"{path}: {bad} non-finite cells")
    pairs = read_pairs(os.path.join(out_dir, FIELD_META))
    return _field_samples(path, header[1:], values[:, 1:], values[:, 0], pairs,
                          digest.hexdigest())


def write_distance(out_dir, labels, dist):
    """distance.csv: the labels on a ``# labels`` line, then one ``distance`` row per pair
    i < j of the symmetric, zero-diagonal ``dist``, in row-major upper-triangle order."""
    pairs = dist[np.triu_indices(len(labels), 1)].tolist()
    _write(os.path.join(out_dir, DISTANCE), f"# labels = {','.join(map(_cell, labels))}\n"
           "distance\n" + "".join(map("{!r}\n".format, pairs)))


def read_distance(out_dir):
    """The FiniteMetricSpace that ``write_distance`` wrote.  A missing ``# labels`` line, a
    pair count other than m(m - 1)/2 or distances the space refuses raise ConfigError
    naming the file."""
    from .entropy import FiniteMetricSpace

    path = os.path.join(out_dir, DISTANCE)
    header, data, comments = read_table(path, empty=True)  # one point has no pair
    labels = cast_record(path, comments, {"# labels": lambda text: text.split(",")})["# labels"]
    (pairs,) = _columns(path, header, data, ("distance",))
    m = len(labels)
    if len(pairs) != m * (m - 1) // 2:
        raise ConfigError(f"{path}: {len(pairs)} distances, but {m} labels need "
                          f"{m * (m - 1) // 2}")
    dist, upper = np.zeros((m, m)), np.triu_indices(m, 1)
    dist[upper] = dist[upper[::-1]] = pairs
    try:
        return FiniteMetricSpace(labels, dist)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_curve(path, curve):
    rows = zip(curve.u_grid.tolist(), curve.probs.tolist())
    write_table(path, ("u", "prob"), rows, comment=f"samples = {curve.sample_count}")


def read_curve(path, kind, levels=None):
    """A tail curve written by ``write_curve``, a bound curve on the empirical curve's
    ``levels``.  Other levels, an invalid curve or, as the empirical curve's standard errors
    divide by it, a ``# samples`` that is missing, not an integer or below 1 raise
    ConfigError naming the file."""
    header, data, pairs = read_table(path)
    u, p = _columns(path, header, data, ("u", "prob"))
    samples = 0
    if kind == "empirical":
        samples = cast_record(path, pairs, {"# samples": int})["# samples"]
        if samples < 1:
            raise ConfigError(f"{path}: the empirical curve records {samples} samples, "
                              "not at least 1")
    elif not np.array_equal(u, levels):
        raise ConfigError(f"{path}: its levels are not those of {TAIL_EMPIRICAL}")
    try:
        return TailCurve(u, p, kind, sample_count=samples)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_geometry(out_dir, geo, space, ent, field_sha256):
    """The entropy stage's artifacts, tied to the field.csv bytes they were measured on: ``geo``
    for bounds, and ``space`` and ``ent``, which it was measured from, for readers."""
    write_distance(out_dir, space.labels, space.dist)
    p_grid = ",".join(map(_cell, geo.p_grid.tolist()))
    psi = [("psi", geo.psi_used.to_text()), ("degree", geo.degree), ("p_grid", p_grid)]
    write_pairs(os.path.join(out_dir, PSI_USED), psi)
    entropies = np.log(ent.counts).tolist()
    rows = zip(ent.eps_grid.tolist(), ent.counts.tolist(), entropies, ent.integrand.tolist())
    write_table(os.path.join(out_dir, ENTROPY), ("eps", "count", "entropy", "integrand"), rows)
    write_pairs(
        os.path.join(out_dir, ENTROPY_SUMMARY),
        [
            ("points", space.size),
            ("diameter", geo.diameter),
            ("integral", geo.integral),
            ("integral_lower", ent.lower),
            ("saturated_fraction", geo.saturated_fraction),
            ("certified", geo.certified),
            ("field_sha256", field_sha256),
        ],
    )


def read_geometry(out_dir, field_sha256):
    """The Geometry that the entropy stage recorded in psi_used.txt and entropy_summary.txt.

    Raises ConfigError naming entropy_summary.txt when it was measured on a field.csv whose
    bytes do not hash to ``field_sha256``, or when a number it records is missing, not
    finite, or outside [0, inf] (diameter, integral) or [0, 1] (saturated_fraction).
    """
    path = os.path.join(out_dir, ENTROPY_SUMMARY)
    summary = read_record(path, {
        "field_sha256": str,
        "diameter": parse_number,
        "integral": parse_number,
        "saturated_fraction": parse_number,
    })
    for key, hi in (("diameter", math.inf), ("integral", math.inf), ("saturated_fraction", 1.0)):
        if not 0 <= summary[key] <= hi:
            raise ConfigError(f"{path}: {key} = {summary[key]!r} lies outside [0, {hi!r}]")
    if summary["field_sha256"] != field_sha256:
        raise ConfigError(f"{ENTROPY_SUMMARY} was measured on another {FIELD}; "
                          "rerun stage 'entropy'")
    psi = read_record(os.path.join(out_dir, PSI_USED), {
        "psi": MomentEnvelope.from_text,
        "degree": _lift_degree,
        "p_grid": lambda text: check_p_grid(parse_floats(text)),
    })
    return Geometry(psi["psi"], psi["degree"], psi["p_grid"], summary["diameter"],
                    summary["integral"], summary["saturated_fraction"])


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


@contextlib.contextmanager
def _law_overflow_names_keys(cfg):
    """Re-raises an overflowing decomposition as a ConfigError naming the kernel and sampler
    keys the config sets and the stage read: the law they build alone decides it."""
    from .engine import LawOverflow

    try:
        yield
    except LawOverflow as exc:
        keys = sorted(key for key in cfg.entries
                      if key in cfg.read and key.startswith(("kernel.", "sampler.")))
        raise ConfigError(f"{cfg.path}: {', '.join(keys)}: {exc}") from None


def _simulate_settings(cfg):
    """The arguments of ``simulate_panel``, by name."""
    from .engine import check_rank, check_sample_size

    kernel, sampler = build_law(cfg)
    seed = cfg.get_int("run.seed")
    n = cfg.get_int("run.n", check=partial(check_sample_size, degree=kernel.degree))
    reps = cfg.get_int("run.reps", check=check_sample_count)
    rank = None
    if cfg.get_str("run.rank", "auto") != "auto":
        rank = cfg.get_int("run.rank", check=check_rank)
    elif sampler.alphabet is None:
        cfg.fail("run.rank", f"run.rank: a {sampler.name} law has no finite alphabet to derive "
                 "the rank from; set run.rank")
    return {"kernel": kernel, "sampler": sampler, "n": n, "reps": reps, "seed": seed,
            "rank": rank, "subsets": build_mode(cfg)}


def stage_simulate(cfg, out_dir, settings=None):
    # returns the field as written, which ``run`` hands to entropy and bounds; ``run`` also
    # hands over the settings it checked, which a stage run on its own reads here
    from .engine import simulate_panel

    if settings is None:
        settings = _simulate_settings(cfg)
    with _law_overflow_names_keys(cfg):
        fld = simulate_panel(**settings)
    if fld.decomposition is not None:
        write_decomposition(out_dir, fld.decomposition)
    return write_field(out_dir, fld)


def write_decomposition(out_dir, decomps):
    zetas = [f"zeta_{c}" for c in range(1, len(decomps[0].zetas) + 1)]
    rows = (
        [dec.t, float(dec.mean), dec.rank, int(dec.degenerate)] + dec.zetas.tolist()
        for dec in decomps
    )
    write_table(os.path.join(out_dir, DECOMP), ["t", "mean", "rank", "degenerate"] + zetas, rows)


def stage_decompose(cfg, out_dir):
    from .engine import decompose_field

    kernel, sampler = build_law(cfg)
    if sampler.alphabet is None:
        cfg.fail("sampler.name", "decomposition needs a finite alphabet sampler")
    with _law_overflow_names_keys(cfg):
        decomps = decompose_field(kernel, sampler)
    write_decomposition(out_dir, decomps)
    return 0


def _entropy_settings(cfg, degree):
    """The arguments of ``index_geometry`` but the field and ``degree``.  The natural
    envelope's nodes are ``grids.p`` and every optimisation over p reads those up to
    DEFAULT_P_MAX, so a grid whose first node lies above it fails naming ``grids.p``.  A
    configured envelope whose lift by ``degree`` passes half the largest double on all its
    optimisation grid fails naming the family's scale key: no integrand is any smaller, and
    the trapezoid sum of two overflows."""
    p_grid = resolve_grid(cfg.get_grid("grids.p", DEFAULT_P_GRID, check=check_p_grid))
    env = build_envelope(cfg, p_grid)
    if env is None and p_grid[0] > DEFAULT_P_MAX:
        cfg.fail("grids.p", f"grids.p: the natural envelope needs a node at or below "
                 f"{DEFAULT_P_MAX!r}, the largest order optimised over; the first is "
                 f"{float(p_grid[0])!r}")
    if env is not None:
        tau = rosenthal_lift(env, degree)
        low = float(np.min(tau.log_value(tau.opt_grid()[0])))
        if low > LOG_HALF_MAX_DOUBLE:
            cfg.fail(key := f"psi.{FAMILY_PARAMS[env.family][0]}", f"{key}: lifted by degree "
                     f"{degree}, the envelope is at least exp({low!r}), past "
                     f"exp({LOG_HALF_MAX_DOUBLE!r}): the entropy integral overflows")
    return {"p_grid": p_grid, "env": env}


def stage_entropy(cfg, out_dir, fld=None, settings=None):
    if fld is None:
        fld = read_field(out_dir)
    # the degree of the kernel that drew the field; the config's kernel.degree need not be it
    path = os.path.join(out_dir, FIELD_META)
    degree = cast_record(path, fld.meta, {"degree": _lift_degree})["degree"]
    if settings is None:
        settings = _entropy_settings(cfg, degree)
    geo, space, ent = index_geometry(fld, degree=degree, **settings)
    write_geometry(out_dir, geo, space, ent, fld.meta["field_sha256"])
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
            "column": cfg.get_int("bound.lower_column", 0),
        }
        if not 0 <= lower["column"] < columns:
            cfg.fail("bound.lower_column", f"bound.lower_column must lie in 0..{columns - 1}, "
                     f"got {lower['column']}")
    return u_spec, lower, cfg.get_bool("output.plot", False)


def stage_bounds(cfg, out_dir, fld=None, settings=None):
    if fld is None:
        fld = read_field(out_dir)
    if settings is None:
        settings = _bounds_settings(cfg, len(fld.labels))
    u_spec, lower, plot = settings
    geo = read_geometry(out_dir, fld.meta["field_sha256"])
    u_grid = resolve_grid(u_spec, fld.sup_abs(), fld.counts)
    report = calibrate_tails(fld, geo, u_grid, lower=lower)
    kind, asked = u_spec
    if kind == "quantile" and u_grid.size < asked[2]:
        # quantiles that land on one atom of the supremum give one level
        report.notes.append(f"grids.u: {asked[2]} quantiles gave {u_grid.size} distinct levels")
    sup = report.sup_moments
    flags = sup.low_confidence.astype(int).tolist()  # 0/1, so the table parses as numbers
    rows = zip(sup.p_grid.tolist(), sup.values.tolist(), flags)
    write_table(os.path.join(out_dir, MOMENTS_SUP), ("p", "value", "low_confidence"), rows)
    for name, file in (("empirical", TAIL_EMPIRICAL), ("upper", TAIL_UPPER), ("lower", TAIL_LOWER)):
        if name in report.curves:
            write_curve(os.path.join(out_dir, file), report.curves[name])
    _write(os.path.join(out_dir, BOUND_REPORT), report_text(report))
    if plot:
        write_svg(out_dir, report.curves)
    return 0 if geo.certified else 2


def stage_verify(cfg, out_dir, fld=None):
    emp = read_curve(os.path.join(out_dir, TAIL_EMPIRICAL), "empirical")
    upper = read_curve(os.path.join(out_dir, TAIL_UPPER), "upper_bound", emp.u_grid)
    lower_path = os.path.join(out_dir, TAIL_LOWER)
    lower = None
    if os.path.exists(lower_path):
        lower = read_curve(lower_path, "lower_bound", emp.u_grid)
    cmp = compare_curves(emp, upper, lower=lower)
    # the invariants are re-derived from the field, as run hands it over or field.csv holds it
    if fld is None:
        fld = read_field(out_dir)
    geo = read_geometry(out_dir, fld.meta["field_sha256"])
    path = os.path.join(out_dir, MOMENTS_SUP)
    p, sup = read_columns(path, ("p", "value"))
    if not np.array_equal(p, geo.p_grid):
        raise ConfigError(f"{path}: its p grid is not the one {PSI_USED} records; "
                          "rerun stage 'bounds'")
    report = read_record(os.path.join(out_dir, BOUND_REPORT), {"sup_norm": parse_number})
    space = read_distance(out_dir)
    if space.labels != tuple(fld.labels):
        raise ConfigError(f"{DISTANCE} holds other index points than {FIELD}; "
                          "rerun stage 'entropy'")
    checks = rederived_invariants(geo, sup, report["sup_norm"], upper, fld, space.dist)
    ok = cmp.ok and "FAIL" not in checks.values()
    write_pairs(
        os.path.join(out_dir, VERIFY_REPORT),
        [
            ("sigma", SIGMA),
            ("levels", cmp.u_grid.size),
            ("upper_violations", cmp.upper_violations),
            ("lower_violations", cmp.lower_violations),
            ("max_upper_excess", cmp.max_upper_excess),
            ("max_lower_excess", cmp.max_lower_excess),
            *checks.items(),
            ("ordering", "PASS" if ok else "FAIL"),
        ],
    )
    return 0 if ok else 2


def stage_run(cfg, out_dir):
    # every key a stage reads is read here, so a bad one, or a set one that no stage reads,
    # fails before any artifact; each stage then takes the settings read for it
    simulate = _simulate_settings(cfg)
    kernel = simulate["kernel"]
    entropy = _entropy_settings(cfg, kernel.degree)
    bounds = _bounds_settings(cfg, len(kernel.t_grid))
    cfg.check_read()
    fld = stage_simulate(cfg, out_dir, simulate)
    stage_entropy(cfg, out_dir, fld, entropy)
    return max(stage_bounds(cfg, out_dir, fld, bounds), stage_verify(cfg, out_dir, fld))


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
    outputs, inputs = FILES[args.command]
    owned = ()  # the outputs' paths, once the directory they go to exists
    try:
        cfg = Config.from_file(args.config)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs SECTION.KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg.override(key.strip(), value.strip())
        configured = cfg.get_str("output.dir", None)  # read, so run accepts it, under --out too
        out_dir = args.out or configured or "."
        os.makedirs(out_dir, exist_ok=True)
        owned = [os.path.join(out_dir, name) for name in outputs]
        cfg.check_keys(KEYS)
        for name in inputs:
            if not os.path.exists(os.path.join(out_dir, name)):
                raise ConfigError(f"stage {args.command!r} needs {name} in {out_dir}; "
                                  "run the earlier stage first")
        _discard(owned)
        code = STAGES[args.command](cfg, out_dir)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):  # an output it cannot remove stays; exc is the error
            _discard(owned)
        return 1
    return 0 if isinstance(code, FieldSamples) else code  # simulate returns its field


if __name__ == "__main__":
    sys.exit(main())
