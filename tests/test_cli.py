import ast
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import inspect
import io
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ustattails
from spaces import exact_cover, packing_count
from ustattails import bounds, cli, engine, entropy
from ustattails.bounds import calibrate_tails
from ustattails.cli import (
    BOUND_REPORT,
    DECOMP,
    DISTANCE,
    ENTROPY,
    ENTROPY_SUMMARY,
    FIELD,
    FIELD_META,
    MOMENTS_SUP,
    PLOT,
    PSI_USED,
    TAIL_EMPIRICAL,
    TAIL_LOWER,
    TAIL_UPPER,
    VERIFY_REPORT,
    build_law,
    main,
    read_field,
    read_pairs,
    read_table,
    write_field,
    write_table,
)
from ustattails.config import Config, ConfigError, parse_grid, resolve_grid
from ustattails.empirics import FieldSamples, distinct_rows
from ustattails.envelopes import (
    FAMILY_PARAMS, MomentEnvelope, log_maximum_bound, rosenthal_lift, tabulated_envelope
)

SMOKE = """\
run.seed = 11
run.n = 24
run.reps = 1500
sampler.name = rademacher
kernel.name = gprod
kernel.g = tanh
kernel.t_grid = 0.4,0.8,1.3,1.9,2.6
grids.p = log:2:8:6
grids.u = quantile:0.5:0.97:12
bound.lower_beta = 1.0
"""

# SMOKE without the keys only gprod reads, for tests that set another kernel: run refuses a
# set key that the chosen options do not read
OTHER_KERNEL = "".join(line for line in SMOKE.splitlines(True)
                       if not line.startswith(("kernel.g ", "kernel.t_grid ")))

RUN_ARTIFACTS = [
    FIELD,
    FIELD_META,
    DECOMP,
    PSI_USED,
    DISTANCE,
    ENTROPY,
    ENTROPY_SUMMARY,
    MOMENTS_SUP,
    TAIL_EMPIRICAL,
    TAIL_UPPER,
    TAIL_LOWER,
    BOUND_REPORT,
    VERIFY_REPORT,
]
# what each stage writes, and so removes before it runs and again when it exits 1
SIMULATE_OUTPUTS = (FIELD, FIELD_META, DECOMP)
ENTROPY_OUTPUTS = (PSI_USED, DISTANCE, ENTROPY, ENTROPY_SUMMARY)
BOUNDS_OUTPUTS = (MOMENTS_SUP, TAIL_EMPIRICAL, TAIL_UPPER, TAIL_LOWER, BOUND_REPORT, PLOT)


@pytest.fixture(scope="module")
def smoke_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "smoke.cfg"
    path.write_text(SMOKE)
    return str(path)


@pytest.fixture(scope="module")
def other_kernel_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "other_kernel.cfg"
    path.write_text(OTHER_KERNEL)
    return str(path)


@pytest.fixture(scope="module")
def smoke_run(smoke_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["run", smoke_cfg, "--out", str(out)])
    return rc, out


def run_staged(cfg, out):
    """The exit codes of simulate, entropy, bounds and verify run one by one into ``out``."""
    return [main([stage, str(cfg), "--out", str(out)])
            for stage in ("simulate", "entropy", "bounds", "verify")]


def key_values(path):
    lines = path.read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def read_artifacts(out_dir):
    data = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data[name] = fh.read()
    return data


def without(artifacts, names):
    """The artifacts of ``read_artifacts`` but those named."""
    return {name: data for name, data in artifacts.items() if name not in names}


def copy_artifacts(src, dst):
    dst.mkdir()
    for name, data in read_artifacts(src).items():
        (dst / name).write_bytes(data)
    return dst


def damage_field(lines, how):
    """field.csv lines with one kind of damage applied."""
    if how in ("non_numeric_cell", "nan_cell"):
        cells = lines[2].split(",")
        cells[1] = "abc" if how == "non_numeric_cell" else "nan"
        lines[2] = ",".join(cells)
    elif how == "short_last_row":
        lines[-1] = lines[-1].rsplit(",", 1)[0]
    elif how == "extra_cell":
        lines[2] += ",9.9"
    elif how == "label_only_row":
        lines[2] = lines[2].split(",", 1)[0]
    elif how == "extra_label":
        lines[0] += ",9.9"
    elif how in ("zero_count", "fractional_count", "counts_off_reps"):
        count, rest = lines[1].split(",", 1)
        count = {"zero_count": "0", "fractional_count": "1.5"}.get(how, str(int(count) + 1))
        lines[1] = f"{count},{rest}"
    elif how == "rep_header":
        lines[0] = "rep," + lines[0].split(",", 1)[1]
    else:
        del lines[1:]
    return lines


def overrides(setting):
    """``--set`` arguments for each space-separated ``key=value`` of ``setting``."""
    return [arg for item in setting.split() for arg in ("--set", item)]


def edit_distances(edit):
    """distance.csv damage: ``edit`` applied to the distance of each data line."""
    return lambda lines: [line if line.startswith(("#", "distance")) else edit(line.rstrip("\n"))
                          + "\n" for line in lines]


def replace_line(prefix, new):
    """Line edit: the line starting with ``prefix`` becomes ``new`` (None deletes it)."""
    return lambda line: new if line.startswith(prefix) else line


class TestConfigParsing:
    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match=r"cfg:2: expected"):
            Config.from_text("run.seed = 1\nnonsense\n", path="cfg")
        with pytest.raises(ConfigError, match=r"cfg:1: keys are dotted"):
            Config.from_text("seed = 1\n", path="cfg")
        with pytest.raises(ConfigError, match=r"cfg:3: duplicate"):
            Config.from_text("run.seed = 1\n\nrun.seed = 2\n", path="cfg")

    def test_comments_and_blanks_ignored(self):
        cfg = Config.from_text("# top\nrun.seed = 3  # trailing\n\n", path="cfg")
        assert cfg.get_int("run.seed") == 3

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            Config.from_file("/nonexistent/conf")

    def test_typed_getters(self):
        cfg = Config.from_text(
            "a.i = 7\na.f = 2.5\na.b = true\na.list = 1,2,3\na.s = exact\n", path="cfg"
        )
        assert cfg.get_int("a.i") == 7
        assert cfg.get_float("a.f") == 2.5
        assert cfg.get_bool("a.b") is True
        assert cfg.get_floats("a.list") == [1.0, 2.0, 3.0]
        assert cfg.get_str("a.s", choices=("exact", "incomplete")) == "exact"
        assert cfg.get_int("a.missing", 9) == 9
        with pytest.raises(ConfigError, match="missing required key"):
            cfg.get_int("a.missing")
        with pytest.raises(ConfigError, match="cfg:2.*integer"):
            cfg.get_int("a.f")
        with pytest.raises(ConfigError, match="must be one of"):
            cfg.get_str("a.s", choices=("other",))

    def test_override_and_location(self):
        cfg = Config.from_text("run.seed = 1\n", path="cfg")
        cfg.override("run.seed", "5")
        assert cfg.get_int("run.seed") == 5
        with pytest.raises(ConfigError, match=r"--set run.seed"):
            cfg.fail("run.seed", "boom")
        with pytest.raises(ConfigError, match="dotted"):
            cfg.override("seed", "5")


class TestGridSpecs:
    def test_forms(self):
        kind, vals = parse_grid("lin:0:1:3")
        assert kind == "array" and np.allclose(vals, [0.0, 0.5, 1.0])
        kind, vals = parse_grid("log:1:4:3")
        assert kind == "array" and np.allclose(vals, [1.0, 2.0, 4.0])
        kind, payload = parse_grid("quantile:0.1:0.9:5")
        assert kind == "quantile" and payload == (0.1, 0.9, 5)
        kind, vals = parse_grid("2,4,8")
        assert kind == "array" and np.allclose(vals, [2.0, 4.0, 8.0])

    def test_errors(self):
        with pytest.raises(ValueError, match="needs the form"):
            parse_grid("lin:0:1")
        with pytest.raises(ValueError, match="at least 2"):
            parse_grid("lin:0:1:1")
        with pytest.raises(ValueError, match="0 < LO < HI"):
            parse_grid("log:0:1:4")
        with pytest.raises(ValueError, match="quantile grids"):
            parse_grid("quantile:0.9:0.1:4")
        with pytest.raises(ValueError, match="empty"):
            parse_grid(" , ")

    def test_resolve_quantile(self):
        data = np.arange(101.0)
        grid = resolve_grid(parse_grid("quantile:0:1:3"), data)
        assert np.allclose(grid, [0.0, 50.0, 100.0])
        with pytest.raises(ValueError, match="no calibration data"):
            resolve_grid(parse_grid("quantile:0:1:3"))
        # quantiles on one atom give one level, as a one-level list grid does
        assert resolve_grid(parse_grid("quantile:0:1:5"), np.ones(10)).tolist() == [1.0]


class TestPipeline:
    def test_run_succeeds_with_artifacts(self, smoke_run):
        rc, out = smoke_run
        assert rc == 0
        for name in RUN_ARTIFACTS:
            assert (out / name).exists(), name
        assert "ordering = PASS" in (out / VERIFY_REPORT).read_text()
        assert "certified = true" in (out / ENTROPY_SUMMARY).read_text()
        assert not (out / PLOT).exists()

    def test_decomposition_artifact(self, smoke_run):
        _, out = smoke_run
        lines = (out / DECOMP).read_text().splitlines()
        assert lines[0] == "t,mean,rank,degenerate,zeta_1,zeta_2"
        # tanh is odd and the law is symmetric, so every column is degree-2 pure
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "2" and cells[3] == "0"
            assert float(cells[4]) == pytest.approx(0.0, abs=1e-12)

    def test_reruns_are_byte_identical(self, smoke_cfg, smoke_run, tmp_path):
        rc, out = smoke_run
        out2 = tmp_path / "again"
        assert main(["run", smoke_cfg, "--out", str(out2)]) == rc
        assert read_artifacts(out) == read_artifacts(out2)

    def test_simulate_decomposes_once(self, smoke_cfg, tmp_path, monkeypatch):
        calls = []
        decompose = engine.hoeffding_decompose

        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(engine, "hoeffding_decompose", counted)
        assert main(["simulate", smoke_cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == len(build_law(Config.from_file(smoke_cfg))[0].t_grid)
        assert (tmp_path / DECOMP).exists()

    def test_bounds_reads_moment_grids_back(self, smoke_cfg, smoke_run, tmp_path):
        # bounds calibrates on the moment grid the envelope was tabulated on, not on the config's
        out = copy_artifacts(smoke_run[1], tmp_path / "regrid")
        assert main(["bounds", smoke_cfg, "--out", str(out), "--set", "grids.p=log:2:6:4"]) == 0
        assert (out / BOUND_REPORT).read_bytes() == (smoke_run[1] / BOUND_REPORT).read_bytes()

    def test_staged_matches_run(self, smoke_cfg, smoke_run, tmp_path):
        _, out = smoke_run
        out2 = tmp_path / "staged"
        assert run_staged(smoke_cfg, out2) == [0, 0, 0, 0]
        assert read_artifacts(out) == read_artifacts(out2)

    def test_every_table_reads_back(self, smoke_run):
        # every CSV artifact, flag columns included, parses as numbers
        _, out = smoke_run
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                read_table(out / name)

    def test_moments_sup_reads_back_bit_for_bit(self, smoke_run):
        # moments_sup.csv spells the supremum's MomentTable that bounds computed, flags as 0/1
        _, out = smoke_run
        fld = read_field(str(out))
        geo = cli.read_geometry(str(out), fld.meta["field_sha256"])
        u_grid = cli.read_columns(out / TAIL_EMPIRICAL, ("u",))[0]
        sup = calibrate_tails(fld, geo, u_grid).sup_moments
        p, value, flags = cli.read_columns(out / MOMENTS_SUP, ("p", "value", "low_confidence"))
        assert p.tolist() == sup.p_grid.tolist()
        assert value.tolist() == sup.values.tolist()
        assert flags.tolist() == sup.low_confidence.astype(float).tolist()

    def test_run_reads_back_no_field(self, smoke_cfg, tmp_path, monkeypatch):
        # entropy and bounds take the field simulate wrote: field.csv is neither parsed
        # nor hashed again (read_field hashes the bytes read_table parses)
        parsed = []
        parse = cli.read_table

        def counted(path, *args, **kwargs):
            parsed.append(os.path.basename(path))
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(cli, "read_table", counted)
        assert main(["run", smoke_cfg, "--out", str(tmp_path)]) == 0
        assert FIELD not in parsed
        # nor is the entropy table: bounds reads entropy_summary.txt, and verify the distances
        assert DISTANCE in parsed and ENTROPY not in parsed
        assert TAIL_EMPIRICAL in parsed  # the wrapper sees the tables that are parsed

    def test_run_calls_each_stage_through_the_module(self, smoke_cfg, tmp_path, monkeypatch):
        # perfbench times the stages by wrapping these module names, so run looks them up there
        calls = []
        for name in ("stage_simulate", "stage_entropy", "stage_bounds", "stage_verify"):
            def counted(*args, _name=name, _stage=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _stage(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        assert main(["run", smoke_cfg, "--out", str(tmp_path)]) == 0
        assert calls == ["stage_simulate", "stage_entropy", "stage_bounds", "stage_verify"]

    def test_stage_processes_match_run(self, smoke_cfg, smoke_run, tmp_path):
        # each stage in its own interpreter parses field.csv, and writes what run wrote
        src = os.path.dirname(os.path.dirname(ustattails.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "processes"
        for stage in ("simulate", "entropy", "bounds", "verify"):
            subprocess.run(
                [sys.executable, "-m", "ustattails", stage, smoke_cfg, "--out", str(out)],
                env=env, check=True,
            )
        assert read_artifacts(out) == read_artifacts(smoke_run[1])

    def test_edited_field_is_read_from_disk(self, smoke_cfg, tmp_path):
        # a stage run after run in the same process parses the edited field.csv
        cfg, out = Config.from_file(smoke_cfg), tmp_path / "edited"
        out.mkdir()
        assert cli.stage_run(cfg, str(out)) == 0
        distance = (out / DISTANCE).read_bytes()
        before = read_field(str(out))
        lines = (out / FIELD).read_text().splitlines()
        cells = lines[1].split(",")
        assert int(cells[0]) > 1  # the edited row stands for several replications
        lines[1] = ",".join(cells[:1] + ["5.0"] + cells[2:])
        (out / FIELD).write_text("\n".join(lines) + "\n")
        after = read_field(str(out))
        assert after.values[0, 0] == 5.0
        assert np.array_equal(after.values[0, 1:], before.values[0, 1:])
        assert np.array_equal(after.values[1:], before.values[1:])
        assert np.array_equal(after.counts, before.counts)
        assert cli.stage_entropy(cfg, str(out)) in (0, 2)
        assert (out / DISTANCE).read_bytes() != distance
        assert cli.stage_run(cfg, str(out)) == 0
        lines = damage_field((out / FIELD).read_text().splitlines(), "non_numeric_cell")
        (out / FIELD).write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=FIELD):
            cli.stage_entropy(cfg, str(out))

    @pytest.mark.parametrize("stages", [("run",), ("entropy", "bounds")])
    def test_envelope_change_recomputes_geometry(self, smoke_cfg, smoke_run, tmp_path, stages):
        # A directory holding a natural-envelope run is rerun with a constant
        # envelope: the distances must be measured again, not read back.
        constant = ["--set", "psi.family=constant", "--set", "psi.value=0.5",
                    "--set", "psi.p_sup=8.0"]
        fresh = tmp_path / "fresh"
        assert main(["run", smoke_cfg, "--out", str(fresh)] + constant) in (0, 2)
        reused = tmp_path / "reused"
        reused.mkdir()
        for name, data in read_artifacts(smoke_run[1]).items():
            (reused / name).write_bytes(data)
        for stage in stages:
            assert main([stage, smoke_cfg, "--out", str(reused)] + constant) in (0, 2)
        for name in (PSI_USED, DISTANCE, ENTROPY_SUMMARY, BOUND_REPORT):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        report, summary = (key_values(reused / name) for name in (BOUND_REPORT, ENTROPY_SUMMARY))
        assert report["diameter"] == summary["diameter"]
        assert report["entropy_integral"] == summary["integral"]

    def test_bounds_rejects_geometry_of_other_index(self, smoke_cfg, smoke_run, tmp_path, capsys):
        out = tmp_path / "resimulated"
        out.mkdir()
        for name, data in read_artifacts(smoke_run[1]).items():
            (out / name).write_bytes(data)
        other = ["--set", "kernel.t_grid=0.2,0.5,0.9"]
        assert main(["simulate", smoke_cfg, "--out", str(out)] + other) == 0
        assert main(["bounds", smoke_cfg, "--out", str(out)] + other) == 1
        err = capsys.readouterr().err
        assert ENTROPY_SUMMARY in err and "rerun stage 'entropy'" in err

    def test_bounds_rejects_field_of_other_seed(self, smoke_cfg, smoke_run, tmp_path, capsys):
        # Same index labels, other draws: only the field digest tells them apart.
        out = copy_artifacts(smoke_run[1], tmp_path / "reseeded")
        seed = ["--set", "run.seed=12"]
        assert main(["simulate", smoke_cfg, "--out", str(out)] + seed) == 0
        assert main(["bounds", smoke_cfg, "--out", str(out)] + seed) == 1
        err = capsys.readouterr().err
        assert ENTROPY_SUMMARY in err and "rerun stage 'entropy'" in err

    @pytest.mark.parametrize("edit", ["foreign_distance", "no_distance_or_entropy_table"])
    def test_bounds_reads_only_the_geometry_records(self, smoke_cfg, tmp_path, monkeypatch, edit):
        # bounds takes its geometry from psi_used.txt and entropy_summary.txt, which the field
        # digest ties to field.csv, and opens no other artifact of the entropy stage: a
        # distance.csv of another kernel's field, or none and no entropy.csv, leaves its exit
        # code and report as they were, the diameter the summary's
        law = overrides("sampler.name=uniform kernel.t_grid=0.4,0.8,1.3,1.9 run.rank=1")
        ours, other = tmp_path / "sin", tmp_path / "tanh"
        for out in (ours, other):
            g = ["--set", f"kernel.g={out.name}"]
            assert main(["run", smoke_cfg, "--out", str(out)] + g + law) in (0, 2)
        summary, foreign = (key_values(out / ENTROPY_SUMMARY) for out in (ours, other))
        assert summary["diameter"] != foreign["diameter"]
        bounds = ["bounds", smoke_cfg, "--out", str(ours), "--set", "kernel.g=sin"] + law
        code, report = main(bounds), (ours / BOUND_REPORT).read_bytes()
        if edit == "foreign_distance":
            shutil.copyfile(other / DISTANCE, ours / DISTANCE)
        else:
            (ours / DISTANCE).unlink()
            (ours / ENTROPY).unlink()
        opened = set()

        def reading(path, mode="r", *args, **kwargs):
            if "w" not in mode:
                opened.add(os.path.basename(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", reading, raising=False)
        assert main(bounds) == code
        assert opened == {FIELD, FIELD_META, PSI_USED, ENTROPY_SUMMARY}
        assert (ours / BOUND_REPORT).read_bytes() == report
        assert key_values(ours / BOUND_REPORT)["diameter"] == summary["diameter"]

    def test_uncalibratable_lower_curve_is_omitted(self, smoke_cfg, smoke_run, tmp_path):
        # Column 0 of this grid has no level strictly inside (0, 1), and at beta = 1e308 the
        # coefficient is infinite, where the shape read NaN; the run goes on without a lower
        # curve, warning nothing, and drops the one an earlier run left.
        for setting, why in (("kernel.t_grid=0.2,0.5,0.9", "no usable points"),
                             ("bound.lower_beta=1e308",
                              "no positive finite coefficient at beta = 1e+308")):
            out = copy_artifacts(smoke_run[1], tmp_path / setting.split("=")[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", smoke_cfg, "--out", str(out), "--set", setting]) == 0
            assert not (out / TAIL_LOWER).exists()
            report = (out / BOUND_REPORT).read_text()
            assert f"- lower shape omitted: column 0 has {why}" in report
            assert "ordering = PASS" in (out / VERIFY_REPORT).read_text()

    @pytest.mark.parametrize("column", ["9", "-1"])
    def test_bad_lower_column_fails_before_any_artifact(self, smoke_cfg, tmp_path, capsys, column):
        out = tmp_path / "column"
        rc = main(["run", smoke_cfg, "--out", str(out), "--set", f"bound.lower_column={column}"])
        assert rc == 1
        assert "bound.lower_column" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("column", ["9", "-1"])
    def test_bad_lower_column_fails_bounds(self, smoke_cfg, smoke_run, tmp_path, capsys, column):
        # the failed stage leaves what the run wrote, but for its own outputs
        out = copy_artifacts(smoke_run[1], tmp_path / "column")
        rc = main(["bounds", smoke_cfg, "--out", str(out), "--set", f"bound.lower_column={column}"])
        assert rc == 1
        assert "bound.lower_column" in capsys.readouterr().err
        assert read_artifacts(out) == without(read_artifacts(smoke_run[1]), BOUNDS_OUTPUTS)

    def test_high_degree_alphabet_law_with_rank(self, other_kernel_cfg, tmp_path):
        # the closed-form decomposition serves any degree, so it is written with run.rank too
        out = tmp_path / "degree5"
        degree5 = ["--set", "kernel.name=product", "--set", "kernel.degree=5",
                   "--set", "run.n=8", "--set", "run.reps=400"]
        rank = ["--set", "run.rank=1"]
        assert main(["run", other_kernel_cfg, "--out", str(out)] + rank + degree5) in (0, 2)
        assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
        meta = key_values(out / FIELD_META)
        assert (meta["mean_source"], meta["rank"]) == ("exact", "1")

    @pytest.mark.parametrize("stage", ["run", "decompose"])
    def test_high_degree_alphabet_law_needs_rank(self, other_kernel_cfg, tmp_path, stage):
        # no rank is needed: the degree-5 product of Rademacher draws decomposes to rank 5
        out = tmp_path / "degree5"
        degree5 = ["--set", "kernel.name=product", "--set", "kernel.degree=5", "--set", "run.n=8"]
        assert main([stage, other_kernel_cfg, "--out", str(out)] + degree5) in (0, 2)
        header, row = (out / DECOMP).read_text().splitlines()
        dec = dict(zip(header.split(","), row.split(",")))
        assert (dec["mean"], dec["rank"], dec["degenerate"]) == ("0.0", "5", "0")
        assert [float(dec[f"zeta_{c}"]) for c in range(1, 6)] == [0.0, 0.0, 0.0, 0.0, 1.0]
        if stage == "run":
            assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
            assert key_values(out / FIELD_META)["rank"] == "5"

    def test_given_rank_writes_the_derived_field(self, smoke_cfg, tmp_path):
        # one source for the mean: run.rank spelled out as the rank auto derives changes no byte
        law = ["--set", "kernel.g=sin", "--set", "sampler.name=alphabet",
               "--set", "sampler.values=-1,0.5,2", "--set", "sampler.weights=0.2,0.3,0.5"]
        auto, given = tmp_path / "auto", tmp_path / "given"
        assert main(["run", smoke_cfg, "--out", str(auto)] + law) in (0, 2)
        assert key_values(auto / FIELD_META)["rank"] == "1"
        assert main(["run", smoke_cfg, "--out", str(given), "--set", "run.rank=1"] + law) in (0, 2)
        assert read_artifacts(auto) == read_artifacts(given)

    def test_nonpositive_lower_beta_exits_1(self, smoke_cfg, tmp_path, capsys):
        rc = main(["run", smoke_cfg, "--out", str(tmp_path), "--set", "bound.lower_beta=0"])
        assert rc == 1
        assert "beta must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "how",
        ["non_numeric_cell", "short_last_row", "header_only", "extra_cell", "nan_cell",
         "label_only_row", "extra_label", "zero_count", "fractional_count", "rep_header",
         "counts_off_reps"],
    )
    def test_corrupt_field_exits_1_naming_it(self, smoke_cfg, smoke_run, tmp_path, capsys, how):
        out = copy_artifacts(smoke_run[1], tmp_path / how)
        lines = damage_field((out / FIELD).read_text().splitlines(), how)
        (out / FIELD).write_text("\n".join(lines) + "\n")
        for stage in ("bounds", "entropy"):  # a failed entropy leaves bounds no geometry
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([stage, smoke_cfg, "--out", str(out)]) == 1, stage
            assert FIELD in capsys.readouterr().err, stage
            assert not caught, (stage, [str(w.message) for w in caught])

    @pytest.mark.parametrize(
        "name, key, value",
        [
            (ENTROPY_SUMMARY, "integral", None),
            (ENTROPY_SUMMARY, "integral", "inf"),
            (ENTROPY_SUMMARY, "saturated_fraction", "-5"),
            (ENTROPY_SUMMARY, "saturated_fraction", "1.5"),
            (ENTROPY_SUMMARY, "diameter", "nan"),
            (ENTROPY_SUMMARY, "diameter", None),
            (PSI_USED, "degree", "x"),
            (PSI_USED, "degree", "-2"),
            (PSI_USED, "psi", "tabulated lift=0 p=2.0"),
            (PSI_USED, "p_grid", "2.0,1.5"),
        ],
        ids=[
            "no_integral", "infinite_integral", "negative_saturated_fraction",
            "saturated_fraction_above_1", "nan_diameter", "no_diameter", "bad_degree",
            "negative_degree", "envelope_no_v", "decreasing_p_grid",
        ],
    )
    def test_corrupt_geometry_record_exits_1_naming_it(
        self, smoke_cfg, smoke_run, tmp_path, capsys, name, key, value
    ):
        # a deleted line of a record bounds reads back, or a value it cannot use, such as a
        # summary number that would certify a bound it cannot support, fails naming the
        # file and the key before bounds writes anything
        out = copy_artifacts(smoke_run[1], tmp_path / "record")
        edit = replace_line(f"{key} = ", value if value is None else f"{key} = {value}")
        lines = [edit(line) for line in (out / name).read_text().splitlines()]
        (out / name).write_text("".join(line + "\n" for line in lines if line is not None))
        written = (MOMENTS_SUP, TAIL_EMPIRICAL, TAIL_UPPER, TAIL_LOWER, BOUND_REPORT)
        for artifact in written:
            (out / artifact).unlink()
        assert main(["bounds", smoke_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert name in err and key in err
        assert not any((out / artifact).exists() for artifact in written)

    def test_huge_distance_keeps_a_finite_diameter(self, smoke_run, tmp_path):
        # read_distance symmetrises a finite distance past DBL_MAX/2 without overflowing to inf
        out = copy_artifacts(smoke_run[1], tmp_path / "huge")
        lines = (out / DISTANCE).read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith(("#", "distance")))
        lines[first] = "1e308"
        (out / DISTANCE).write_text("".join(line + "\n" for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.read_distance(str(out)).diameter == 1e308

    @pytest.mark.parametrize("degree", ["x", "2.5", "-2"])
    def test_corrupt_field_degree_exits_1_naming_it(
        self, smoke_cfg, smoke_run, tmp_path, capsys, degree
    ):
        # entropy lifts by the degree field_meta.txt records; one that is not a nonnegative
        # integer fails naming the file and the key, and entropy leaves none of its outputs
        out = copy_artifacts(smoke_run[1], tmp_path / "degree")
        lines = (out / FIELD_META).read_text().splitlines()
        assert "degree = 2" in lines
        edit = replace_line("degree = ", f"degree = {degree}")
        (out / FIELD_META).write_text("".join(edit(line) + "\n" for line in lines))
        before = read_artifacts(out)
        assert main(["entropy", smoke_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert FIELD_META in err and "'degree'" in err
        assert read_artifacts(out) == without(before, ENTROPY_OUTPUTS)

    @pytest.mark.parametrize(
        "key, spec",
        [
            ("grids.u", "log:0:1:5"),
            ("grids.p", "quantile:0.1:0.9:4"),
            ("grids.eps", "lin:0:1"),
            ("grids.p", "log:1:8:4"),
            ("grids.eps", "log:0.5:2:4"),
            ("grids.u", "lin:5:1:3"),
            ("grids.eps", "0.1,nan,0.5"),
            ("grids.p", "2,nan,8"),
            ("grids.u", "0.5,nan,2"),
            ("grids.eps", "log:0.01:1:8"),
            ("grids.p", "70,80"),
        ],
        ids=["u_log_from_0", "p_quantile", "eps_short", "p_below_2", "eps_above_1",
             "u_decreasing", "eps_nan", "p_nan", "u_nan", "eps_not_accepted", "p_above_p_max"],
    )
    def test_bad_grid_fails_before_any_artifact(self, smoke_cfg, tmp_path, capsys, key, spec):
        # the covering radii are always the 64 that the diameter gives: grids.eps is no key,
        # so a valid spec is refused as a malformed one is; the natural envelope's nodes are
        # grids.p, and the optimisation over p reads none above 64
        out = tmp_path / "grid"
        assert main(["run", smoke_cfg, "--out", str(out), "--set", f"{key}={spec}"]) == 1
        err = capsys.readouterr().err
        assert key in err
        if spec == "70,80":
            assert "the first is 70.0" in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("psi.family=power_log", "psi.m"),
            ("psi.family=exp_power", "psi.coef"),
            ("bound.lower_exponent=one_plus_inv_beta", "bound.lower_exponent"),
            ("bound.sigma=3.0", "bound.sigma"),
            ("bound.degree=two", "bound.degree"),
            ("entropy.plateau_fraction=0.9", "entropy.plateau_fraction"),
            ("output.plot=maybe", "output.plot"),
            ("run.budget=1000", "run.budget"),
            ("bound.convention=multiply", "bound.convention"),
            ("psi.p_max=64", "psi.p_max"),
            ("psi.points=257", "psi.points"),
            ("bound.lower_beta=0", "bound.lower_beta"),
            ("bound.lower_beta=inf", "bound.lower_beta"),
            ("psi.family=power_log psi.m=-1", "psi.m"),
            ("psi.family=power_log psi.m=nan", "psi.m"),
            ("psi.family=power_log psi.m=2 psi.r=nan", "psi.r"),
            ("psi.family=exp_power psi.coef=inf psi.expo=1", "psi.coef"),
            ("psi.family=exp_power psi.coef=1 psi.expo=nan", "psi.expo"),
            ("psi.family=constant psi.value=0 psi.p_sup=8", "psi.value"),
            ("psi.family=constant psi.value=1 psi.p_sup=2", "psi.p_sup"),
            ("kernel.name=table kernel.table=0.5,1,-0.5", "kernel.table"),
            ("run.mode=incomplete run.subsets=0", "run.subsets"),
            ("run.mode=incomplete run.subsets=-3", "run.subsets"),
            ("run.subsets=50", "run.subsets"),
            ("psi.family=constant psi.value=1 psi.p_sup=4", "psi.p_sup"),
            ("bound.degree=-1", "bound.degree"),
            ("psi.famly=constant", "psi.famly"),
            ("bound.sigmaa=-4", "bound.sigmaa"),
            ("kernel.g=cosh", "kernel.g"),
            ("kernel.degree=0", "kernel.degree"),
            ("kernel.name=half_sq_diff kernel.degree=3", "kernel.degree"),
            ("kernel.name=table kernel.degree=3 kernel.table=0.5,1", "kernel.degree"),
            ("run.reps=0", "run.reps"),
            ("run.reps=1", "run.reps"),
            ("run.n=2", "run.n"),
            ("sampler.name=pareto sampler.a=-1", "sampler.a"),
            ("sampler.name=uniform sampler.lo=2", "sampler.lo"),
            ("sampler.name=uniform sampler.hi=-1", "sampler.hi"),
            ("sampler.name=lognormal sampler.sigma=nan", "sampler.sigma"),
            ("sampler.name=alphabet sampler.values=1 sampler.weights=1", "sampler.values"),
            ("sampler.name=alphabet sampler.values=1,2 sampler.weights=1,0", "sampler.weights"),
            ("sampler.name=alphabet sampler.values=1,1", "sampler.values"),
            ("run.rank=0", "run.rank"),
            ("run.rank=-3", "run.rank"),
            ("sampler.name=uniform sampler.lo=-1 sampler.hi=2 kernel.name=table "
             "kernel.table=0.5,-1,2,0.3 run.n=3 run.reps=27 run.rank=1", "sampler.name"),
            ("sampler.name=alphabet sampler.values=-1,0.5,1 kernel.name=table "
             "kernel.table=0.5,-1,2,0.3", "kernel.table"),
            ("psi.m=3", "psi.m"),
            ("psi.p_sup=9", "psi.p_sup"),
            ("sampler.lo=-3", "sampler.lo"),
            ("sampler.sigma=2", "sampler.sigma"),
            ("kernel.shift=0.5", "kernel.shift"),
            ("psi.family=exp_power psi.coef=400 psi.expo=1", "psi.coef"),
            ("psi.family=power_log psi.m=0.0009", "psi.m"),
            ("psi.family=constant psi.value=1e308 psi.p_sup=16", "psi.value"),
            ("entropy.plateau_fraction=5", "entropy.plateau_fraction"),
            ("entropy.plateau_fraction=-1", "entropy.plateau_fraction"),
            ("bound.sigma=-1", "bound.sigma"),
            ("entropy.estimator=greedy", "entropy.estimator"),
            ("psi.family=exp_power psi.coef=353.5 psi.expo=1", "psi.coef"),
            ("psi.family=exp_power psi.coef=353.8 psi.expo=1", "psi.coef"),
            ("psi.family=exp_power psi.coef=353.83 psi.expo=1", "psi.coef"),
            ("bound.degree=2", "bound.degree"),
            ("sampler.name=alphabet sampler.values=nan,1", "sampler.values"),
            ("sampler.name=alphabet sampler.values=-1,1 sampler.weights=nan,1", "sampler.weights"),
            ("kernel.t_grid=nan", "kernel.t_grid"),
            ("kernel.name=product kernel.shift=nan", "kernel.shift"),
            ("kernel.name=product kernel.shift=inf", "kernel.shift"),
            ("kernel.name=product sampler.name=alphabet sampler.values=-1,inf", "sampler.values"),
            ("sampler.name=uniform run.rank=1 sampler.lo=-inf", "sampler.lo"),
            ("sampler.name=lognormal sampler.sigma=inf run.rank=1", "sampler.sigma"),
            ("sampler.name=pareto sampler.a=inf run.rank=1", "sampler.a"),
            ("kernel.t_grid=inf,1", "kernel.t_grid"),
            ("psi.family=power_log psi.m=inf", "psi.m"),
            ("sampler.name=uniform sampler.lo=-1e308 sampler.hi=1e308 run.rank=1", "sampler.lo"),
            ("sampler.name=normal", "run.rank"),
        ],
        ids=["power_log_no_m", "exp_power_no_coef", "bad_lower_exponent", "bad_sigma",
             "bad_degree", "bad_plateau_fraction", "bad_plot", "budget_not_accepted",
             "convention_not_accepted", "p_max_not_accepted", "points_not_accepted",
             "zero_lower_beta", "inf_lower_beta", "negative_m", "nan_m", "nan_r", "inf_coef",
             "nan_expo", "zero_value", "p_sup_not_above_2", "ragged_table", "zero_subsets",
             "negative_subsets", "subsets_under_exact", "p_grid_past_p_sup", "negative_degree",
             "misspelled_family", "misspelled_sigma", "unknown_shape",
             "zero_degree", "half_sq_diff_degree_3", "table_degree_3", "zero_reps", "one_rep",
             "n_at_degree", "negative_pareto_index", "uniform_lo_above_hi",
             "uniform_hi_below_lo", "nan_lognormal_sigma", "one_point_alphabet",
             "one_weighted_point", "repeated_value", "zero_rank", "negative_rank",
             "table_on_a_continuum", "table_law_off_its_values", "m_under_natural",
             "p_sup_under_natural", "lo_under_rademacher", "sigma_under_rademacher",
             "shift_under_gprod", "exp_power_overflows", "power_log_overflows",
             "constant_overflows", "plateau_fraction_above_1", "negative_plateau_fraction",
             "negative_sigma", "estimator_not_accepted", "exp_power_sum_overflows_353_5",
             "exp_power_sum_overflows_353_8", "exp_power_sum_overflows_353_83",
             "degree_not_accepted", "nan_alphabet_value", "nan_alphabet_weight", "nan_t_grid",
             "nan_shift", "inf_shift", "inf_alphabet_value", "infinite_uniform_lo",
             "inf_lognormal_sigma", "inf_pareto_index", "inf_t_grid", "inf_m",
             "uniform_range_overflows", "auto_rank_on_a_continuum"],
    )
    def test_bad_stage_key_fails_before_any_artifact(
        self, smoke_cfg, other_kernel_cfg, tmp_path, capsys, setting, key
    ):
        # run reads and range-checks the keys of every stage before it simulates, and
        # rejects a key no stage reads (run.budget, psi.p_max, a misspelling) and a set key
        # that the chosen options do not read (psi.m under the natural envelope, run.subsets
        # under exact averaging); an envelope whose lift passes the largest double on its
        # whole moment range, where every entropy integrand would overflow, or half of it,
        # where the trapezoid sum of two would, names its scale key; so does a NaN or infinite
        # number (a product kernel is set on the base without gprod's keys)
        out = tmp_path / "key"
        cfg = other_kernel_cfg if "kernel.name=product" in setting else smoke_cfg
        assert main(["run", cfg, "--out", str(out)] + overrides(setting)) == 1
        assert key in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_unknown_key_in_file_fails_naming_its_line(self, smoke_cfg, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(open(smoke_cfg).read() + "psi.famly = constant\n")
        out = tmp_path / "typo"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert f"{cfg}:11: unknown key 'psi.famly'" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_entropy_summary_brackets_exact_cover(self, smoke_run):
        # the packing integral, the exact-cover integral of the test oracle and the greedy
        # integral are ordered on the 5-point smoke index
        _rc, out = smoke_run
        summary = key_values(out / ENTROPY_SUMMARY)
        geo = cli.read_geometry(str(out), summary["field_sha256"])
        space = cli.read_distance(str(out))
        assert space.size == 5
        eps = entropy.default_eps_grid(space)
        assert eps.tolist() == cli.read_columns(out / ENTROPY, ("eps",))[0].tolist()
        counts = [exact_cover(space, e) for e in eps]
        exact = np.trapezoid(np.exp(log_maximum_bound(geo.tau, np.log(counts))), eps)
        lower, upper = float(summary["integral_lower"]), float(summary["integral"])
        assert upper == geo.integral
        assert lower <= exact <= upper
        assert lower < upper

    def test_non_finite_field_fails_before_any_artifact(
        self, other_kernel_cfg, tmp_path, capsys
    ):
        # a degree-3 product of Pareto(0.02) draws overflows in every cell
        out = tmp_path / "overflow"
        setting = ("sampler.name=pareto sampler.a=0.02 kernel.name=product kernel.degree=3 "
                   "run.rank=1")
        with np.errstate(all="ignore"):
            assert main(["run", other_kernel_cfg, "--out", str(out)] + overrides(setting)) == 1
        assert "1500 of 1500 field cells are not finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_non_finite_field_refusal_is_the_only_message(
        self, other_kernel_cfg, tmp_path, capsys
    ):
        # the overflowing recurrence and the mean of its cells warn nothing before the refusal
        out = tmp_path / "quiet"
        setting = ("sampler.name=pareto sampler.a=0.02 kernel.name=product kernel.degree=3 "
                   "run.rank=1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", other_kernel_cfg, "--out", str(out)] + overrides(setting)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1500 of 1500 field cells are not finite")
        assert err.count("\n") == 1
        assert os.listdir(out) == []

    @pytest.mark.parametrize("stage", ["decompose", "simulate"])
    def test_overflowing_decomposition_fails_before_any_draw(
        self, smoke_cfg, other_kernel_cfg, tmp_path, capsys, monkeypatch, stage
    ):
        # the law's exact mean and projection moments overflow: refused quietly, undrawn,
        # naming the kernel and sampler keys that decide the law
        def no_draw(*args):
            raise AssertionError("drew the panel")

        monkeypatch.setattr(engine, "draw_data", no_draw)
        monkeypatch.setattr(engine, "_draw_types", no_draw)
        for cfg, setting, keys in (
            (smoke_cfg, "sampler.name=alphabet sampler.values=-1e200,1e200,3 kernel.name=product",
             "kernel.name, sampler.name, sampler.values"),
            (other_kernel_cfg, "kernel.name=product kernel.shift=1e308",
             "kernel.name, kernel.shift, sampler.name"),
        ):
            out = tmp_path / keys
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([stage, cfg, "--out", str(out)] + overrides(setting)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cfg}: {keys}: the decomposition at t = ")
            assert "is not finite (mean inf" in err
            assert err.count("\n") == 1
            assert os.listdir(out) == []

    def test_collapsed_quantile_grid_finishes(self, other_kernel_cfg, tmp_path):
        # at this seed the two replications of a sum kernel share |sup|, so every quantile
        # is one level: the run finishes on it, as on a one-level list grid, and notes it
        setting = "run.reps=2 kernel.name=sum run.seed=1 output.plot=true"
        assert main(["run", other_kernel_cfg, "--out", str(tmp_path)] + overrides(setting)) == 0
        # the two replications leave column 0 no level to calibrate a lower shape on
        assert set(os.listdir(tmp_path)) == set(RUN_ARTIFACTS) - {TAIL_LOWER} | {PLOT}
        assert key_values(tmp_path / VERIFY_REPORT)["levels"] == "1"
        assert key_values(tmp_path / VERIFY_REPORT)["ordering"] == "PASS"
        assert "- grids.u: 12 quantiles gave 1 distinct levels" in (
            tmp_path / BOUND_REPORT).read_text()

    def test_default_grids(self, smoke_cfg, tmp_path):
        # neither grids.p nor grids.u set: both defaults are read and applied
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("".join(line + "\n" for line in open(smoke_cfg).read().splitlines()
                               if not line.startswith(("grids.p", "grids.u"))))
        out = tmp_path / "defaults"
        assert main(["run", str(cfg), "--out", str(out)]) in (0, 2)
        assert set(RUN_ARTIFACTS) <= set(os.listdir(out))
        p_grid = ",".join(map(repr, np.geomspace(2.0, 16.0, 8).tolist()))
        assert key_values(out / PSI_USED)["p_grid"] == p_grid
        assert "16 quantiles gave" in (out / BOUND_REPORT).read_text()

    def test_single_level_plot(self, smoke_cfg, tmp_path):
        out = tmp_path / "one_level"
        setting = "grids.u=0.5 output.plot=true"
        assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) in (0, 2)
        assert len(read_table(out / TAIL_EMPIRICAL)[1]) == 1
        svg = (out / PLOT).read_text()
        assert "level u (0.5 to 1.5)" in svg

    def test_field_degree_or_bound_degree(self, smoke_cfg, smoke_run, tmp_path, capsys):
        # the lift degree comes from field_meta.txt alone, never from kernel.degree
        out = copy_artifacts(smoke_run[1], tmp_path / "nodegree")
        lines = (out / FIELD_META).read_text().splitlines(keepends=True)
        (out / FIELD_META).write_text("".join(l for l in lines if not l.startswith("degree = ")))
        before = read_artifacts(out)
        rc = main(["entropy", smoke_cfg, "--out", str(out), "--set", "kernel.degree=2"])
        assert rc == 1
        assert f"{FIELD_META}: missing or bad 'degree'" in capsys.readouterr().err
        assert read_artifacts(out) == without(before, ENTROPY_OUTPUTS)

    @pytest.mark.parametrize("stage", ["entropy", "bounds"])
    def test_missing_field_meta_exits_1_naming_it(
        self, smoke_cfg, smoke_run, tmp_path, capsys, stage
    ):
        # field_meta.txt is a required input of every stage that reads the field; the failed
        # stage leaves none of its own outputs
        out = copy_artifacts(smoke_run[1], tmp_path / "nometa")
        os.remove(out / FIELD_META)
        before = read_artifacts(out)
        assert main([stage, smoke_cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert FIELD_META in err and "earlier stage" in err
        outputs = BOUNDS_OUTPUTS if stage == "bounds" else ENTROPY_OUTPUTS
        assert read_artifacts(out) == without(before, outputs)

    @pytest.mark.parametrize("setting", [
        "grids.u=quantile:0.5:1:12",
        "run.n=25 kernel.name=product grids.u=quantile:0:0.97:12",
    ], ids=["level_at_the_sup_maximum", "level_zero"])
    def test_lower_curve_never_exceeds_its_column(
        self, smoke_cfg, other_kernel_cfg, tmp_path, setting
    ):
        # at the top level of the supremum the column's tail is 0, and at u = 0 the fitted
        # shape is 1: the lower curve is capped by the column's own tail, which the
        # supremum's dominates, so verify passes
        out = tmp_path / "lower"
        cfg = other_kernel_cfg if "kernel.name" in setting else smoke_cfg
        assert main(["run", cfg, "--out", str(out)] + overrides(setting)) == 0
        assert "ordering = PASS" in (out / VERIFY_REPORT).read_text()
        _, lower = cli.read_columns(str(out / TAIL_LOWER), ("u", "prob"))
        _, emp = cli.read_columns(str(out / TAIL_EMPIRICAL), ("u", "prob"))
        assert np.all(lower <= emp)

    def test_collapsed_quantile_grid_is_noted(self, smoke_run):
        # quantiles of a supremum with few atoms share levels; the report says how many
        report = (smoke_run[1] / BOUND_REPORT).read_text()
        levels = len(read_table(smoke_run[1] / TAIL_EMPIRICAL)[1])
        assert levels < 12
        assert f"- grids.u: 12 quantiles gave {levels} distinct levels\n" in report

    def test_saturated_geometry_exits_2(self, smoke_cfg, tmp_path):
        out = tmp_path / "sat"
        rc = main([
            "run", smoke_cfg, "--out", str(out),
            "--set", "psi.family=constant",
            "--set", "psi.value=0.01",
            "--set", "psi.p_sup=8.0",
        ])
        assert rc == 2
        assert "certified = false" in (out / ENTROPY_SUMMARY).read_text()

    def test_certified_is_derived_from_the_summary(self, smoke_cfg, smoke_run, tmp_path):
        # bounds reads the integral and its saturated fraction, not the certified line: a
        # summary whose fraction passes the plateau is not certified, whatever that line says
        out = copy_artifacts(smoke_run[1], tmp_path / "saturated")
        edit = replace_line("saturated_fraction = ", "saturated_fraction = 0.95")
        lines = (out / ENTROPY_SUMMARY).read_text().splitlines()
        (out / ENTROPY_SUMMARY).write_text("".join(edit(line) + "\n" for line in lines))
        assert key_values(out / ENTROPY_SUMMARY)["certified"] == "true"
        assert main(["bounds", smoke_cfg, "--out", str(out)]) == 2
        report = key_values(out / BOUND_REPORT)
        assert (report["saturated_fraction"], report["certified"]) == ("0.95", "false")

    def test_missing_artifact_exits_1(self, smoke_cfg, tmp_path, capsys):
        rc = main(["bounds", smoke_cfg, "--out", str(tmp_path / "empty")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "field.csv" in err and "earlier stage" in err

    def test_bad_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.seed 11\n")
        assert main(["simulate", bad.as_posix(), "--out", str(tmp_path)]) == 1
        assert "expected" in capsys.readouterr().err

    def test_set_without_value_exits_1(self, smoke_cfg, tmp_path, capsys):
        assert main(["run", smoke_cfg, "--out", str(tmp_path / "set"), "--set", "foo"]) == 1
        assert "--set needs SECTION.KEY=VALUE" in capsys.readouterr().err

    def test_missing_required_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("sampler.name = rademacher\nkernel.name = product\n")
        assert main(["simulate", cfg.as_posix(), "--out", str(tmp_path)]) == 1
        assert "run.seed" in capsys.readouterr().err

    def test_out_dir_ignores_the_environment(self, smoke_cfg, tmp_path, monkeypatch):
        # with neither --out nor output.dir, run writes into the working directory
        monkeypatch.setenv("USTATTAILS_OUT", str(tmp_path / "env"))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", smoke_cfg]) == 0
        assert sorted(os.listdir(cwd)) == sorted(RUN_ARTIFACTS)
        assert not (tmp_path / "env").exists()

    @pytest.mark.parametrize("setting, code", [
        ("psi.family=exp_power psi.coef=350 psi.expo=1", 0),
        ("kernel.name=sum kernel.degree=800 run.n=801 run.reps=50", 1),
        ("kernel.name=sum kernel.degree=700 run.n=701", 0),
        ("psi.family=exp_power psi.coef=353 psi.expo=1", 0),
    ], ids=["largest_coef_below_overflow", "natural_lift_overflows", "natural_lift_below_overflow",
            "coef_below_half_overflow"])
    def test_envelope_near_overflow(
        self, smoke_cfg, other_kernel_cfg, tmp_path, capsys, setting, code
    ):
        # under the natural envelope only the data tell whether the integrand lifted by the
        # kernel's degree passes the largest double: entropy then exits 1 with one error line,
        # after simulate wrote, and run leaves none of its outputs; a configured envelope just
        # under run's refusal finishes
        out = tmp_path / "overflow"
        cfg = other_kernel_cfg if "kernel.name" in setting else smoke_cfg
        assert main(["run", cfg, "--out", str(out)] + overrides(setting)) == code
        err = capsys.readouterr().err
        if code == 0:
            assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
        else:
            assert err.startswith("error: the entropy integral overflows a double")
            assert err.count("\n") == 1
            assert os.listdir(out) == []

    def test_distances_past_the_largest_double_exit_1(self, smoke_cfg, tmp_path, capsys):
        # psi(64) ~ exp(-1424) under r = -1000, so the envelope norms of column differences
        # pass the largest double: only the drawn data decide it, so entropy exits 1 with one
        # error line and no warning after simulate wrote, and run leaves none of its outputs
        out = tmp_path / "inf_distance"
        setting = "psi.family=power_log psi.m=2 psi.r=-1000"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "distances are NaN or past the largest double" in err
        assert err.count("\n") == 1
        assert os.listdir(out) == []

    def test_underflowing_integral_is_not_certified(self, smoke_cfg, tmp_path):
        # on grids.p = 2,2.5 the distances are finite, but every entropy integrand underflows
        # to 0: an integral of 0 measured nothing, so neither artifact certifies it
        out = tmp_path / "zero_integral"
        setting = "psi.family=power_log psi.m=2 psi.r=-1000 grids.p=2,2.5"
        assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == 2
        summary = key_values(out / ENTROPY_SUMMARY)
        assert summary["integral"] == "0.0" and summary["certified"] == "false"
        assert key_values(out / BOUND_REPORT)["certified"] == "false"

    def test_tail_curve_past_the_largest_ratio(self, smoke_cfg, tmp_path):
        # the exp_power envelope at coef 350 calibrates sup_norm ~ 1.7e-305, so y / sup_norm
        # passes the largest double at the two top levels: their bound comes from
        # ln y - ln sup_norm, where it read 0.0 after an overflow warning
        out = tmp_path / "tiny_norm"
        setting = "psi.family=exp_power psi.coef=350 psi.expo=1 grids.u=lin:0.5:5000:4"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == 0
        assert float(key_values(out / BOUND_REPORT)["sup_norm"]) < 1e-304
        u, p = cli.read_columns(str(out / TAIL_UPPER), ("u", "prob"))
        assert u.tolist() == [0.5, 1667.0, 3333.5, 5000.0]
        assert np.all(p > 0) and np.all(np.diff(p) <= 0)
        assert p[1] == 7.186083899044107e-07  # the finite ratio keeps its bits
        assert p[3] < p[2] < p[1]

    def test_verify_flags_tampered_curve(self, smoke_cfg, smoke_run, tmp_path):
        out = copy_artifacts(smoke_run[1], tmp_path / "tampered")
        lines = (out / TAIL_EMPIRICAL).read_text().splitlines()
        fixed = lines[:2] + [f"{l.split(',')[0]},1.0" for l in lines[2:]]
        (out / TAIL_EMPIRICAL).write_text("\n".join(fixed) + "\n")
        rc = main(["verify", smoke_cfg, "--out", str(out)])
        assert rc == 2
        report = (out / VERIFY_REPORT).read_text()
        assert "ordering = FAIL" in report
        assert "upper_violations = 0" not in report

    @pytest.mark.parametrize("edit", [None, "-5", "many", "0.5"],
                             ids=["deleted", "negative", "word", "fraction"])
    def test_verify_names_a_bad_sample_count(self, smoke_cfg, smoke_run, tmp_path, capsys, edit):
        out = copy_artifacts(smoke_run[1], tmp_path / "recounted")
        lines = (out / TAIL_EMPIRICAL).read_text().splitlines()
        assert lines[0].startswith("# samples =")
        lines[:1] = [] if edit is None else [f"# samples = {edit}"]
        (out / TAIL_EMPIRICAL).write_text("\n".join(lines) + "\n")
        assert main(["verify", smoke_cfg, "--out", str(out)]) == 1
        assert TAIL_EMPIRICAL in capsys.readouterr().err

    @pytest.mark.parametrize("name", [TAIL_UPPER, TAIL_LOWER])
    @pytest.mark.parametrize("how", ["prob_above_1", "last_row_deleted"])
    def test_verify_names_an_invalid_bound_curve(
        self, smoke_cfg, smoke_run, tmp_path, capsys, name, how
    ):
        # a bound curve that is no tail curve, or on other levels than the empirical one
        out = copy_artifacts(smoke_run[1], tmp_path / "bound")
        lines = (out / name).read_text().splitlines()
        assert lines[1] == "u,prob"
        if how == "prob_above_1":
            lines[2] = lines[2].split(",")[0] + ",1.5"
        else:
            del lines[-1]
        (out / name).write_text("\n".join(lines) + "\n")
        assert main(["verify", smoke_cfg, "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not (out / VERIFY_REPORT).exists()

    @pytest.mark.parametrize("name, edit", [
        (MOMENTS_SUP, lambda lines: lines[:-1]),
        (DISTANCE, lambda lines: [lines[0].replace(",0.8,", ",0.9,")] + lines[1:]),
    ], ids=["moments_on_other_grid", "distances_of_other_points"])
    def test_verify_names_a_foreign_artifact(
        self, smoke_cfg, smoke_run, tmp_path, capsys, name, edit
    ):
        # verify re-derives its invariants on the field's own grid and index points, so
        # moments on another p grid or distances between other points exit 1 naming the file
        out = copy_artifacts(smoke_run[1], tmp_path / "foreign")
        lines = (out / name).read_text().splitlines()
        (out / name).write_text("\n".join(edit(lines)) + "\n")
        assert main(["verify", smoke_cfg, "--out", str(out)]) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("stage, damage, setting, outputs, missing", [
        ("verify", MOMENTS_SUP, "", [VERIFY_REPORT], None),
        ("bounds", ENTROPY_SUMMARY, "", BOUNDS_OUTPUTS, None),
        ("entropy", None, "grids.p=log:70:80:3", ENTROPY_OUTPUTS, ENTROPY_SUMMARY),
        ("simulate", None, "run.n=2", SIMULATE_OUTPUTS, FIELD),
    ], ids=["verify_moments_row_deleted", "bounds_summary_deleted", "entropy_p_grid_refused",
            "simulate_n_refused"])
    def test_failed_stage_leaves_none_of_its_outputs(
        self, smoke_cfg, tmp_path, capsys, stage, damage, setting, outputs, missing
    ):
        # a stage that exits 1 leaves none of what an earlier run of it wrote, and every other
        # file as it was, so no report of that run reads as this command's, and a later bounds
        # finds no geometry or field of it to certify
        out = tmp_path / "stale"
        plot = ["--out", str(out), "--set", "output.plot=true"]
        args = plot + overrides(setting)
        assert main(["run", smoke_cfg] + plot) == 0
        assert all((out / name).exists() for name in outputs)
        if damage == MOMENTS_SUP:
            (out / damage).write_text("".join((out / damage).read_text().splitlines(True)[:-1]))
        elif damage is not None:
            (out / damage).unlink()
        before = read_artifacts(out)
        assert main([stage, smoke_cfg] + args) == 1
        assert (damage or setting.split("=")[0]) in capsys.readouterr().err
        assert read_artifacts(out) == without(before, outputs)
        if missing is not None:
            assert main(["bounds", smoke_cfg] + args) == 1
            assert f"stage 'bounds' needs {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, code, count, record",
        [
            ("sampler.name=uniform run.rank=1", 0, 11, None),
            ("kernel.name=half_sq_diff", 0, 13, None),
            ("kernel.name=table kernel.table=0.5,1,-0.5,2", 2, 13, None),
            ("run.mode=incomplete run.subsets=50", 0, 12,
             (FIELD_META, {"mode": "incomplete", "subsets": "50"})),
            ("kernel.degree=3", 0, 13, (PSI_USED, {"degree": "3"})),
        ],
        ids=["uniform_law", "half_sq_diff", "table_kernel", "incomplete", "degree_3"],
    )
    def test_builder_paths_finish_consistently(
        self, smoke_cfg, other_kernel_cfg, tmp_path, setting, code, count, record
    ):
        # each sampler, kernel and averaging builder ends with the artifact set its
        # law and report call for, every stage tied to the field.csv it was run on
        out = tmp_path / "paths"
        cfg = other_kernel_cfg if "kernel.name" in setting else smoke_cfg
        assert main(["run", cfg, "--out", str(out)] + overrides(setting)) == code
        names = set(os.listdir(out))
        assert len(names) == count
        assert set(RUN_ARTIFACTS) - {DECOMP, TAIL_LOWER} <= names
        meta = key_values(out / FIELD_META)
        assert (DECOMP in names) == (meta["sampler"] == "rademacher")
        omitted = "lower shape omitted" in (out / BOUND_REPORT).read_text()
        assert (TAIL_LOWER in names) != omitted
        digest = hashlib.sha256((out / FIELD).read_bytes()).hexdigest()
        assert key_values(out / ENTROPY_SUMMARY)["field_sha256"] == digest
        if record is not None:
            name, want = record
            got = key_values(out / name)
            assert {k: got[k] for k in want} == want

    def test_table_kernel_rows_follow_the_ascending_alphabet(self, other_kernel_cfg, tmp_path):
        # a table kernel is defined on the sampler's alphabet: one kernel.table row per value
        # in ascending order, whatever order sampler.values lists them in
        setting = ("sampler.name=alphabet sampler.values=2,-1,0.5 sampler.weights=0.5,0.2,0.3 "
                   "kernel.name=table kernel.table=0.5,-1,2,0.3,1,-0.7")
        out, lib = tmp_path / "cli", tmp_path / "lib"
        assert main(["simulate", other_kernel_cfg, "--out", str(out)] + overrides(setting)) == 0
        kernel = engine.make_kernel("table", values=[-1, 0.5, 2],
                                    table=[[0.5, -1], [2, 0.3], [1, -0.7]])
        sampler = engine.alphabet_sampler([2, -1, 0.5], [0.5, 0.2, 0.3])
        lib.mkdir()
        write_field(str(lib), engine.simulate_panel(kernel, sampler, 24, 1500, 11))
        for name in (FIELD, FIELD_META):
            assert (out / name).read_bytes() == (lib / name).read_bytes(), name

    @pytest.mark.parametrize("where", ["file", "set"])
    def test_kernel_values_is_refused(self, tmp_path, capsys, where):
        # the values of a table kernel are the sampler's: the key that restated them is gone
        text = OTHER_KERNEL.replace("kernel.name = gprod\n",
                                    "kernel.name = table\nkernel.table = 0.5,1,-0.5,2\n")
        extra = ["--set", "kernel.values=-1,1"]
        if where == "file":
            text, extra = text + "kernel.values = -1,1\n", []
        cfg, out = tmp_path / "values.cfg", tmp_path / "values"
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(out)] + extra) == 1
        assert "unknown key 'kernel.values'" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("stage", ["simulate", "decompose"])
    def test_table_kernel_needs_an_alphabet_law(self, other_kernel_cfg, tmp_path, capsys, stage):
        # run refuses it in test_bad_stage_key_fails_before_any_artifact[table_on_a_continuum]
        setting = "sampler.name=uniform kernel.name=table kernel.table=0.5,1,-0.5,2 run.rank=1"
        out = tmp_path / "continuum"
        assert main([stage, other_kernel_cfg, "--out", str(out)] + overrides(setting)) == 1
        err = capsys.readouterr().err
        assert "(--set sampler.name): sampler.name: a table kernel needs an alphabet law" in err
        assert os.listdir(out) == []

    def test_plot_toggle(self, smoke_cfg, tmp_path):
        out = tmp_path / "plot"
        rc = main(["run", smoke_cfg, "--out", str(out), "--set", "output.plot=true"])
        assert rc == 0
        svg = (out / PLOT).read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_decompose_subcommand(self, tmp_path):
        cfg = tmp_path / "dec.cfg"
        cfg.write_text(
            "sampler.name = rademacher\nkernel.name = product\nrun.seed = 1\n"
            "run.n = 8\nrun.reps = 10\n"
        )
        out = tmp_path / "dec"
        assert main(["decompose", cfg.as_posix(), "--out", str(out)]) == 0
        text = (out / DECOMP).read_text()
        assert "zeta_2" in text.splitlines()[0]
        cells = text.splitlines()[1].split(",")
        assert float(cells[4]) == pytest.approx(0.0, abs=1e-15)
        assert float(cells[5]) == pytest.approx(1.0, abs=1e-12)

    def test_decompose_needs_alphabet(self, tmp_path, capsys):
        cfg = tmp_path / "dec.cfg"
        cfg.write_text("sampler.name = normal\nkernel.name = product\n")
        assert main(["decompose", cfg.as_posix(), "--out", str(tmp_path)]) == 1
        assert "alphabet" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(ustattails.__file__))
    code = (
        "import sys, ustattails, ustattails.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_run_does_not_load_openssl(tmp_path):
    # hashlib loads _hashlib and OpenSSL's libcrypto, 3.6 MiB of a run's 37 MiB peak RSS;
    # numpy.random loads it too, through secrets and hmac
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this Python has no builtin SHA-256, so field.csv is hashed by hashlib")
    src = os.path.dirname(os.path.dirname(ustattails.__file__))
    (tmp_path / "smoke.cfg").write_text(SMOKE)
    code = (
        "import sys\n"
        "from ustattails.cli import main\n"
        "print(main(['run', sys.argv[1] + '/smoke.cfg', '--out', sys.argv[1] + '/out']))\n"
        "print(sorted(m for m in sys.modules if m in ('_hashlib', 'numpy.random')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["0", "[]"]


def test_pipeline_does_not_load_numpy_ma(tmp_path):
    # numpy 2.4 imports numpy.ma lazily from a plain np.unique, np.setdiff1d or np.quantile
    # call (through np.ma.is_masked), which costs every run and every bounds 10-15 ms
    src = os.path.dirname(os.path.dirname(ustattails.__file__))
    (tmp_path / "smoke.cfg").write_text(SMOKE)
    (tmp_path / "table.cfg").write_text(OTHER_KERNEL)
    table = "--set kernel.name=table --set kernel.table=0.5,1,-0.5,2"
    code = (
        "import sys\n"
        "from ustattails.cli import main\n"
        "out = sys.argv[1]\n"
        f"for extra, sub in (([], 'smoke'), ({table.split()!r}, 'table')):\n"
        "    for stage in ('run', 'bounds', 'verify'):\n"
        "        print(main([stage, f'{out}/{sub}.cfg', '--out', f'{out}/{sub}'] + extra))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    *codes, loaded = out.stdout.splitlines()
    assert codes == ["0", "0", "0", "2", "2", "0"]  # the table kernel's bound is not certified
    assert loaded == "[]", (
        "run, bounds or verify imported numpy.ma; numpy 2.4 loads it lazily from np.unique, "
        "np.setdiff1d and np.quantile, so a new call of one of them brings the import back")


def test_only_commands_that_simulate_load_engine(smoke_run, tmp_path):
    # engine is 816 lines that a fresh process compiles; bounds, entropy and verify do not
    # need it, and the package itself loads no layer and no numpy until a name is asked for
    src = os.path.dirname(os.path.dirname(ustattails.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "import ustattails\n"
        "print(sorted(m for m in sys.modules if m.startswith(('ustattails.', 'numpy'))))\n"
        "names = ('MomentEnvelope', 'FieldSamples', 'FiniteMetricSpace', 'simulate_panel',\n"
        "         'calibrate_log_power')\n"
        "print([getattr(ustattails, name).__module__ for name in names])\n"
        "from ustattails import engine\n"
        "print(engine.simulate_panel is ustattails.simulate_panel)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == [
        "[]",
        "['ustattails.envelopes', 'ustattails.empirics', 'ustattails.entropy', "
        "'ustattails.engine', 'ustattails.bounds']",
        "True",
    ]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ustattails.no_such_name

    assert smoke_run[0] == 0
    shutil.copytree(smoke_run[1], tmp_path / "out")
    (tmp_path / "smoke.cfg").write_text(SMOKE)
    code = (
        "import sys\n"
        "from ustattails.cli import main\n"
        "args = [sys.argv[1] + '/smoke.cfg', '--out', sys.argv[1] + '/out']\n"
        "for stage in ('entropy', 'bounds', 'verify', 'simulate'):\n"
        "    print(stage, main([stage] + args), 'ustattails.engine' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "entropy 0 False", "bounds 0 False", "verify 0 False", "simulate 0 True"
    ]
    assert read_artifacts(tmp_path / "out") == read_artifacts(smoke_run[1])


def test_bounds_process_loads_neither_engine_nor_entropy(smoke_run, tmp_path):
    # bounds reads the geometry the entropy stage recorded, so a fresh python -m ustattails
    # bounds compiles neither the simulation engine nor the covering code
    src = os.path.dirname(os.path.dirname(ustattails.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = copy_artifacts(smoke_run[1], tmp_path / "out")
    (tmp_path / "smoke.cfg").write_text(SMOKE)
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ustattails", "bounds",
         str(tmp_path / "smoke.cfg"), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"ustattails.cli", "ustattails.bounds"} <= imported
    assert not imported & {"ustattails.engine", "ustattails.entropy"}
    assert read_artifacts(out) == read_artifacts(smoke_run[1])


def test_process_entry_matches_main_and_freezes_imports(smoke_run, tmp_path, capsys):
    # python -m ustattails runs __main__.main, which exits as cli.main returns and writes the
    # same bytes; when cli.main starts, the collector is on and the imports are frozen
    src = os.path.dirname(os.path.dirname(ustattails.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    (tmp_path / "smoke.cfg").write_text(SMOKE)
    (tmp_path / "table.cfg").write_text(OTHER_KERNEL)
    table = "kernel.name=table kernel.table=0.5,1,-0.5,2"
    for cfg, setting, want in (("smoke", "", 0), ("smoke", "psi.m=3", 1), ("table", table, 2)):
        args = ["run", str(tmp_path / f"{cfg}.cfg")] + overrides(setting)
        child_dir, main_dir = tmp_path / f"child-{want}", tmp_path / f"main-{want}"
        child = subprocess.run([sys.executable, "-m", "ustattails", *args, "--out", str(child_dir)],
                               env=env, capture_output=True, text=True)
        capsys.readouterr()
        assert main(args + ["--out", str(main_dir)]) == child.returncode == want
        err = capsys.readouterr().err
        assert child.stderr == err
        if want == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
        assert read_artifacts(child_dir) == read_artifacts(main_dir)

    code = (
        "import gc, runpy, sys\n"
        "seen = []\n"
        "def probe(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == 'main' \\\n"
        "            and frame.f_code.co_filename.endswith('cli.py'):\n"
        "        seen.append((gc.isenabled(), gc.get_freeze_count() > 0))\n"
        "sys.argv[1:] = ['verify', sys.argv[1], '--out', sys.argv[2]]\n"
        "sys.setprofile(probe)\n"
        "try:\n"
        "    runpy.run_module('ustattails', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.setprofile(None)\n"
        "print(code, seen)\n"
    )
    shutil.copytree(smoke_run[1], tmp_path / "out")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "smoke.cfg"),
                          str(tmp_path / "out")], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == ["0 [(True, True)]"]


def test_readme_library_example_places_levels_on_the_law(capsys):
    # the "Library in five lines" block runs, and its levels are the quantiles of the
    # supremum over the replications, each distinct row repeated by its count
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## Library in five lines\n\n```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    field, levels = names["field"], names["levels"]
    sup = np.repeat(field.sup_abs(), field.counts.astype(int))
    assert sup.size == 20000 and field.values.shape[0] < 100
    want = np.quantile(sup, [0.5, 0.9, 0.99])
    assert np.array_equal(levels.view(np.uint64), want.view(np.uint64))
    assert "sup_norm" in capsys.readouterr().out


def test_no_package_attribute_shadows_a_submodule():
    # ``import ustattails.<name> as m`` binds the package attribute, so a re-exported
    # function of a submodule's name would replace the module
    names = {info.name for info in pkgutil.iter_modules(ustattails.__path__)}
    names.discard("__main__")  # importing it runs the command line
    assert {"bounds", "cli", "config", "empirics", "engine", "entropy", "envelopes"} <= names
    for name in sorted(names):
        importlib.import_module(f"ustattails.{name}")
        assert inspect.ismodule(getattr(ustattails, name)), name


def test_readme_config_keys_are_the_key_tuple():
    # the keys in the first column of README's config-key table are the keys main accepts
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        readme = fh.read()
    table = readme.split("### Config keys\n\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ", 1)[0])]
    assert len(set(cli.KEYS)) == len(cli.KEYS)
    assert sorted(keys) == sorted(cli.KEYS)


@pytest.mark.parametrize("keys", [
    "psi.family = power_log\npsi.m = 2\n",
    "psi.family = power_log\npsi.m = 0.7\npsi.r = -1.5\n",
    "psi.family = exp_power\npsi.coef = 0.5\npsi.expo = 1\n",
    "psi.family = constant\npsi.value = 3\npsi.p_sup = 16\n",
    "psi.family = constant\npsi.value = 0.1\npsi.p_sup = inf\n",
], ids=["power_log", "power_log_r", "exp_power", "constant", "constant_unbounded"])
def test_configured_envelope_round_trips_its_record(keys):
    # the psi.* keys and the psi_used.txt record spell each family's parameters from one table:
    # the envelope the keys build reads back from its text as an equal envelope, lifted too
    cfg = Config.from_text(keys)
    env = cli.build_envelope(cfg, resolve_grid(parse_grid("log:2:8:6")))
    assert cfg.read == set(cfg.entries) | {f"psi.{name}" for name in FAMILY_PARAMS[env.family]}
    for lifted in (env, rosenthal_lift(env, 2)):
        back = MomentEnvelope.from_text(lifted.to_text())
        assert back == lifted
        assert back.to_text() == lifted.to_text()
    if env.family == "power_log" and "psi.r" not in keys:
        assert env.params[1] == 0.0


def test_table_codec_round_trips_bits(tmp_path):
    path = tmp_path / "table.csv"
    values = np.array([
        [5e-324, 1.7976931348623157e308, -0.0],
        [0.1 + 0.2, 1.0 / 3.0, -2.5e-310],
    ])
    write_table(path, ("a", "b", "c"), values.tolist(), comment="samples = 2")
    header, back, pairs = read_table(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
    assert pairs == read_pairs(path) == [("# samples", "2")]


@pytest.mark.parametrize("m", [1, 2, 7, 100])
def test_distance_codec_round_trips_bits(tmp_path, m):
    # distance.csv holds the labels and each pair i < j once, row k the k-th pair in
    # row-major upper-triangle order; read back, the matrix has the bits written, exact
    # zeros included (one point: the labels line and the header alone)
    rng = np.random.default_rng(m)
    upper = np.triu(rng.exponential(size=(m, m)) * (rng.random((m, m)) < 0.8), 1)
    dist = upper + upper.T
    labels = [f"t{j}" for j in range(m)]
    cli.write_distance(str(tmp_path), labels, dist)
    space = cli.read_distance(str(tmp_path))
    assert space.labels == tuple(labels)
    assert np.array_equal(space.dist.view(np.uint64), dist.view(np.uint64))
    lines = (tmp_path / DISTANCE).read_text().splitlines()
    assert lines[:2] == [f"# labels = {','.join(labels)}", "distance"]
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    assert lines[2:] == [repr(float(dist[i, j])) for i, j in pairs]


@pytest.mark.parametrize("m", [1, 4])
def test_distance_write_matches_the_table_writer(tmp_path, m):
    # write_distance spells distance.csv as write_table spells its one-cell rows under the
    # labels comment, zero, subnormal and huge distances included (one point: no row)
    cells = [0.0, 5e-324, 1e308, 0.1, 2.5, 1.0 / 3.0][:m * (m - 1) // 2]
    dist, upper = np.zeros((m, m)), np.triu_indices(m, 1)
    dist[upper] = dist[upper[::-1]] = cells
    labels = [f"t{j}" for j in range(m)]
    cli.write_distance(str(tmp_path), labels, dist)
    write_table(tmp_path / "table.csv", ("distance",), [[d] for d in cells],
                comment=f"labels = {','.join(labels)}")
    assert (tmp_path / DISTANCE).read_bytes() == (tmp_path / "table.csv").read_bytes()


def _cut_labels(lines, k, rows):
    """distance.csv lines with the labels line cut to its first ``k`` labels and the
    first ``rows`` data rows kept."""
    return [",".join(lines[0].split(",")[:k]).rstrip("\n") + "\n"] + lines[1:2 + rows]


DISTANCE_DAMAGE = {
    "missing_pair": lambda lines: lines[:2] + lines[3:],
    "no_labels": lambda lines: lines[1:],
    "one_label": lambda lines: _cut_labels(lines, 1, len(lines)),
    "infinite_distances": edit_distances(lambda cell: "inf" if cell != "0.0" else cell),
    "nan_distance": edit_distances(lambda cell: "nan"),
}


@pytest.mark.parametrize("damage", sorted(DISTANCE_DAMAGE))
def test_damaged_distance_exits_1_naming_it(smoke_run, tmp_path, damage):
    # read_distance raises the ConfigError a command exits 1 on, naming the file: a deleted
    # distance row leaves a pair count the labels do not give, without the labels line the
    # pairs have no points, one label has no pair however many rows follow, and the space
    # refuses a distance that is NaN or past the largest double
    out = copy_artifacts(smoke_run[1], tmp_path / "damaged")
    lines = (out / DISTANCE).read_text().splitlines(True)
    (out / DISTANCE).write_text("".join(DISTANCE_DAMAGE[damage](lines)))
    with pytest.raises(ConfigError, match=DISTANCE):
        cli.read_distance(str(out))


FIELD_CELLS = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
    1e308, -1.7976931348623157e308, np.inf, -np.inf, 0.37139524701577833,
])


@given(
    hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9), elements=FIELD_CELLS)
    | hnp.arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=st.floats())
)
def test_field_codec_matches_table_writer(values):
    # write_field spells the bytes write_table spells for the distinct rows led by their
    # counts, and returns what a cold read_field gets back: the bits of those rows, their
    # counts, their labels' text and the digest of the bytes; read_field refuses a field
    # with a NaN or infinite cell
    fld = FieldSamples([0.25 * (j + 1) for j in range(values.shape[1])], values)
    rows, counts = distinct_rows(values)
    with tempfile.TemporaryDirectory() as out:
        written = write_field(out, fld)
        reference = os.path.join(out, "reference.csv")
        write_table(reference, ("count",) + fld.labels,
                    ([int(c)] + row for c, row in zip(counts.tolist(), rows.tolist())))
        with open(os.path.join(out, FIELD), "rb") as fh, open(reference, "rb") as ref:
            assert fh.read() == ref.read()
        if not np.isfinite(values).all():
            with pytest.raises(ConfigError, match=FIELD):
                read_field(out)
            back = written
        else:
            back = read_field(out)
    assert back.labels == written.labels == tuple(map(repr, fld.labels))
    assert back.meta == written.meta
    finite = ~np.isnan(rows)
    for got in (back, written):
        assert np.array_equal(got.values[finite].view(np.uint64), rows[finite].view(np.uint64))
        assert np.array_equal(np.isnan(got.values), ~finite)
        assert np.array_equal(got.counts, counts)


TABLE_ROWS = ["0.5,-1.0", "0.5,-1.0", "2.0,-0.0", "0.5,-1.0", "2.0,0.0", "0.5,-1.0"]
# hand edits of the fourth data line, one of four equal lines, by the lines they leave
TABLE_EDITS = {
    "blank_line": lambda line: ["", line],
    "comment_line": lambda line: ["#" + line, line],
    "commented_label": lambda line: [line.replace(",", "#,", 1)],
    "label_only_row": lambda line: [line.split(",", 1)[0]],
    "extra_cell": lambda line: [line + ",9.9"],
    "one_of_equal_rows_edited": lambda line: [line.replace("-1.0", "-3.0")],
    "signed_zero_rows": lambda line: [line.replace("-1.0", "-0.0"),
                                      line.replace("-1.0", "0.0")] * 2,
}


@pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
@pytest.mark.parametrize("edit", sorted(TABLE_EDITS))
def test_table_parser_matches_loadtxt(tmp_path, edit, labelled):
    # a table reads as np.loadtxt reads the whole file: blank and # lines skipped wherever
    # they stand, any other bad line refused with its message and the file's row numbers;
    # labelled rows lead with their integer number, a column like field.csv's counts
    header = ["rep", "a", "b"] if labelled else ["a", "b"]
    rows = [f"{i},{row}" if labelled else row for i, row in enumerate(TABLE_ROWS)]
    lines = ["# samples = 6", ",".join(header)] + rows[:3] + TABLE_EDITS[edit](rows[3]) + rows[4:]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = np.loadtxt(lines[2:], delimiter=",", ndmin=2)
    except ValueError as exc:
        with pytest.raises(ConfigError) as caught:
            read_table(path)
        assert str(caught.value) == f"{path}: {exc}"  # the row numbers of the file itself
        return
    got_header, got, pairs = read_table(path)
    assert got_header == header
    assert pairs == [("# samples", "6")]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_field_parses_each_distinct_line_once(smoke_run, tmp_path, monkeypatch):
    # field.csv holds one line per distinct row, so a cold read of the smoke field hands
    # np.loadtxt at most run.n + 1 data lines, one per Rademacher type; a field with no
    # repeated row has a line per replication, each parsed once
    calls = []
    loadtxt = np.loadtxt

    def counted(fh, *args, **kwargs):
        lines = list(fh)
        calls.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(cli.np, "loadtxt", counted)
    n = int(key_values(smoke_run[1] / FIELD_META)["n"])
    fld = read_field(str(smoke_run[1]))
    assert calls == [len(fld.values)] and calls[0] <= n + 1, calls
    values = np.random.default_rng(3).standard_normal((500, 4))
    write_field(str(tmp_path), FieldSamples((1.0, 2.0, 3.0, 4.0), values))
    calls.clear()
    back = read_field(str(tmp_path))
    assert calls == [500]
    assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize(
    "values",
    [np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [-0.0, 1.0]])],
    ids=["signed_zero_rows"],
)
def test_field_codec_spells_each_distinct_row(tmp_path, values):
    # each distinct row is spelled once, led by its count, in first-occurrence order; rows
    # that differ only by the sign of a zero are distinct
    written = write_field(str(tmp_path), FieldSamples((0.0, 1.0), values))
    assert (tmp_path / FIELD).read_text() == (
        "count,0.0,1.0\n2,0.0,1.0\n2,-0.0,1.0\n1,1.0,-0.0\n1,1.0,0.0\n"
    )
    back = read_field(str(tmp_path))
    for got in (written, back):
        assert got.values.tobytes() == values[[0, 1, 3, 4]].tobytes()
        assert got.counts.tolist() == [2.0, 2.0, 1.0, 1.0] and got.replications == 6


def test_expanded_field_reads_as_its_law(smoke_cfg, smoke_run, tmp_path):
    # field.csv spelled with one count-1 line per replication, the rows interleaved, is the
    # same law: a cold entropy and bounds write the bytes the folded file gave, but for
    # field.csv and the field_sha256 line that hashes it
    out = copy_artifacts(smoke_run[1], tmp_path / "expanded")
    header, *lines = (out / FIELD).read_text().splitlines()
    left = [[int(count), rest] for count, rest in (line.split(",", 1) for line in lines)]
    expanded = []
    while any(count for count, _ in left):
        for row in left:
            if row[0]:
                row[0] -= 1
                expanded.append(f"1,{row[1]}")
    assert len(expanded) == int(key_values(out / FIELD_META)["reps"])
    (out / FIELD).write_text("\n".join([header] + expanded) + "\n")
    for stage in ("entropy", "bounds"):
        assert main([stage, smoke_cfg, "--out", str(out)]) == smoke_run[0]
    got, want = read_artifacts(out), read_artifacts(smoke_run[1])
    for data in (got, want):
        del data[FIELD]
        data[ENTROPY_SUMMARY] = re.sub(rb"field_sha256 = .*\n", b"", data[ENTROPY_SUMMARY])
    assert got == want
    assert key_values(out / ENTROPY_SUMMARY)["field_sha256"] == hashlib.sha256(
        (out / FIELD).read_bytes()).hexdigest()


@functools.cache
def _base_artifacts():
    """The artifacts the benchmark requires of every finished run (perfbench/workloads.py)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return set(module.BASE_ARTIFACTS)


SMALL_LAWS = {
    "rademacher": "sampler.name=rademacher",
    "alphabet": "sampler.name=alphabet sampler.values=-1,0.5,2 sampler.weights=0.2,0.3,0.5",
    "one_point": "sampler.name=alphabet sampler.values=1",
    "uniform": "sampler.name=uniform sampler.lo=-1 sampler.hi=2",
    "normal": "sampler.name=normal",
}
SMALL_KERNELS = {
    "product": "kernel.name=product kernel.shift=0.2",
    "sum": "kernel.name=sum",
    "half_sq_diff": "kernel.name=half_sq_diff",
    "gprod": "kernel.name=gprod kernel.t_grid=0.5,1.5,2.5",
    "table": "kernel.name=table kernel.table=0.5,-1,2,0.3",
}
SMALL_ENVELOPES = (
    "psi.family=natural",
    "psi.family=power_log psi.m=2",
    "psi.family=exp_power psi.coef=0.5 psi.expo=1",
    "psi.family=constant psi.value=3 psi.p_sup=16",
    "psi.family=constant psi.value=3 psi.p_sup=inf",
)
SMALL_U_GRIDS = ("quantile:0.5:0.97:6", "quantile:0.2:0.9:3", "lin:0.5:3:5", "0.1,1,2", "0.7",
                 "0.5,nan,2")
# keys that only some options read: run refuses each where the drawn options do not read it
OPTION_KEYS = ("psi.m=3", "psi.p_sup=9", "sampler.lo=-3", "sampler.sigma=2", "kernel.shift=0.5")
# the second lies wholly above 64, the largest order optimised over: the natural envelope,
# whose nodes these are, is refused on it, a configured one is optimised on [2, 64]
SMALL_P_GRIDS = ("log:2:8:4", "70,80")


def is_number_list(text):
    """Whether ``text`` is a comma list of numbers."""
    try:
        [float(tok) for tok in text.split(",")]
    except ValueError:
        return False
    return True


@st.composite
def small_configs(draw):
    """``--set`` text of a small ``run``: any law, kernel, degree, sample size, envelope,
    moment grid and level grid, with ``run.rank`` set off the alphabets, and now and then a
    key that only some options read; beside it, now and then, the ``key=value`` that sets one
    of its numeric keys to NaN or an infinity (else None)."""
    law = draw(st.sampled_from(sorted(SMALL_LAWS)))
    kernel = draw(st.sampled_from(sorted(SMALL_KERNELS)))
    items = [SMALL_LAWS[law], SMALL_KERNELS[kernel], draw(st.sampled_from(SMALL_ENVELOPES)),
             f"run.n={draw(st.sampled_from(range(2, 11)))}",
             f"run.reps={draw(st.sampled_from(range(1, 61)))}",
             f"grids.p={draw(st.sampled_from(SMALL_P_GRIDS))}",
             f"grids.u={draw(st.sampled_from(SMALL_U_GRIDS))}"]
    degree = draw(st.sampled_from([None, None, None, 0, 1, 2, 3, 4, 5]))  # None: the default
    if degree is not None:
        items.append(f"kernel.degree={degree}")
    if kernel == "gprod":
        items.append(f"kernel.g={draw(st.sampled_from(['sin', 'tanh', 'identity']))}")
    if law in ("uniform", "normal"):
        items.append(f"run.rank={draw(st.integers(1, 2))}")
    if draw(st.booleans()):
        items.append("bound.lower_beta=1.0")
    if draw(st.integers(0, 4)) == 0:
        items.append(draw(st.sampled_from(OPTION_KEYS)))
    numeric = sorted(key for key, value in (item.split("=", 1) for item in " ".join(items).split())
                     if is_number_list(value))
    poison = None
    if draw(st.booleans()):
        poison = f"{draw(st.sampled_from(numeric))}={draw(st.sampled_from(['nan', 'inf', '-inf']))}"
    return " ".join(items), poison


def run_small(setting):
    """The exit code, the artifact names and the error text of a small ``run``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "small.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write("run.seed = 11\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", cfg, "--out", out] + overrides(setting))
        return rc, set(os.listdir(out)), err.getvalue().replace(cfg, "<config>")


@settings(max_examples=300)
@given(small_configs())
def test_small_configs_finish_or_fail_first(config):
    # every config finishes with the full artifact set, or exits 1 before writing anything,
    # naming where in the config it went wrong; one that finishes fails first naming a
    # numeric key set to NaN or an infinity, but for psi.p_sup = inf, which still finishes
    setting, poison = config
    rc, written, err = run_small(setting)
    event(f"exit {rc}")
    finished = _base_artifacts() | {BOUND_REPORT, VERIFY_REPORT}
    if rc in (0, 2):
        assert finished <= written, setting
        if poison is not None:
            key = poison.split("=")[0]
            event(f"non-finite {key}")
            rc, written, err = run_small(f"{setting} {poison}")
            if poison == "psi.p_sup=inf":
                assert rc in (0, 2) and finished <= written, (setting, poison, err)
            else:
                assert (rc, written) == (1, set()), (setting, poison, err)
                assert f"<config> (--set {key}): {key}" in err, (setting, poison, err)
        return
    assert rc == 1, (setting, err)
    assert written == set(), (setting, err)
    # simulate refuses a drawn field that is identically zero or not finite before writing
    # it; that is a property of the draw, which no key names
    assert "<config>" in err or "field is identically zero" in err or "not finite" in err, \
        (setting, err)


# what no command runs, and why it stays: the exact variance that acceptance criteria 02
# and 03 check, the brute-force and Generator references the tests compare against, the two
# functions the benchmark's tracer (perfbench/tracing.py) wraps by name, and the two
# functions that run only in a fresh process or for a caller of the library, which this
# test's in-process cli.main calls do not reach
LIBRARY_ONLY = {
    "bounds.uniform_tail_report", "engine.variance_value", "engine._index_tuples",
    "engine._FactorTerms.__len__", "engine._FactorTerms.__getitem__",
    "engine.alphabet_sampler.draw", "engine.uniform_sampler.draw",
    "envelopes.tail_bound",
    # the package's lazy exports, resolved before any command runs; run by
    # test_only_commands_that_simulate_load_engine
    "__init__.__getattr__",
    # the process entry of python -m ustattails and of the script; run by
    # test_process_entry_matches_main_and_freezes_imports
    "__main__.main",
}
# what only a caller of the library reaches, by function, and why it stays
LIBRARY_BRANCHES = {
    "engine._resolve_mode": "the tuple budget, for a kernel without a closed form",
    "engine._exact_rows": "the gather over index tuples, the closed forms' oracle",
    "engine._ascending_rows": "the sort, for caller rows that are not ascending",
    "engine._tensor_decomposition": "the broadcast, for a constant kernel",
    "engine.hoeffding_decompose": "the default index point",
    "config.Config._where": "a key left at its default, which only error messages name",
}
REACH_BASE = "# the keys every config below shares\n\nrun.seed = 11\nrun.n = 6\nrun.reps = 40\n" \
             "grids.p = 2,3,5,8\n"
# together: every sampler, kernel, averaging mode, envelope family and grid spec, a lower curve,
# a plot with several levels and one with one, half_sq_diff and sum under an alphabet law, more
# subsets than tuples and a key the options do not read
REACH_CONFIGS = {
    "rademacher": "sampler.name = rademacher\nkernel.name = gprod\nkernel.g = tanh\n"
                  "kernel.t_grid = 0.5,1.5,2.5\nbound.lower_beta = 1.0\noutput.plot = true\n",
    "alphabet": "sampler.name = alphabet\nsampler.values = -1,0.5,2\n"
                "sampler.weights = 0.2,0.3,0.5\nkernel.name = half_sq_diff\n"
                "psi.family = power_log\npsi.m = 2\noutput.plot = false\n",
    "uniform": "sampler.name = uniform\nsampler.lo = -1\nsampler.hi = 2\nkernel.name = product\n"
               "kernel.degree = 3\nkernel.shift = 0.2\nrun.rank = 1\npsi.family = exp_power\n"
               "psi.coef = 0.5\npsi.expo = 1\ngrids.u = lin:0.2:1.4:4\n",
    "normal": "sampler.name = normal\nkernel.name = sum\nrun.rank = 1\npsi.family = constant\n"
              "psi.value = 3\npsi.p_sup = 16\n",
    "pareto": "sampler.name = pareto\nsampler.a = 3\nkernel.name = gprod\nkernel.t_grid = 0.5,1.5\n"
              "run.rank = 1\nrun.mode = incomplete\nrun.subsets = 5\n",
    "lognormal": "sampler.name = lognormal\nsampler.sigma = 0.5\nkernel.name = gprod\n"
                 "kernel.g = identity\nkernel.t_grid = 0.5,1.5\nrun.rank = 1\n"
                 "grids.u = log:0.1:1:3\n",
    "table": "sampler.name = alphabet\nsampler.values = -1,1\nkernel.name = table\n"
             "kernel.table = 0.5,-1,2,0.3\n",
    # the supremum has few atoms, and both quantiles fall on one of them
    "atoms": "sampler.name = alphabet\nsampler.values = -1,1\nkernel.name = sum\n"
             "run.mode = incomplete\nrun.subsets = 15\ngrids.u = quantile:0.5:0.6:2\n"
             "output.plot = true\n",
    "unread": "sampler.name = rademacher\nkernel.name = gprod\nkernel.t_grid = 0.5\npsi.m = 3\n",
}


def test_run_reads_each_setting_once(tmp_path, monkeypatch):
    # run reads every key before any artifact and hands each stage what it read, so the law
    # is built once, and so is a configured envelope's lift with its overflow probe
    calls = []
    for name in ("build_law", "rosenthal_lift"):
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    cfg = tmp_path / "uniform.cfg"
    cfg.write_text(REACH_BASE + REACH_CONFIGS["uniform"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert sorted(calls) == ["build_law", "rosenthal_lift"]


@pytest.mark.parametrize("name", [name for name in REACH_CONFIGS if name != "unread"])
def test_staged_matches_run_on_every_law(name, tmp_path):
    # README promises byte-identical staged execution for every config, not only the smoke one
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(REACH_BASE + REACH_CONFIGS[name])
    assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert run_staged(cfg, tmp_path / "staged") == [0, 0, 0, 0]
    assert read_artifacts(tmp_path / "run") == read_artifacts(tmp_path / "staged")
    # one distance row per pair of the field's index points
    m = len(read_field(str(tmp_path / "run")).labels)
    assert len((tmp_path / "run" / DISTANCE).read_text().splitlines()) == 2 + m * (m - 1) // 2
    # verify re-derives psi from the field under the natural envelope alone
    natural = key_values(tmp_path / "run" / PSI_USED)["psi"].startswith("tabulated ")
    want = "PASS" if natural else "n/a"
    assert key_values(tmp_path / "run" / VERIFY_REPORT)["psi_rederived"] == want


def test_shared_directory_holds_each_configs_artifacts(tmp_path):
    # a run into a directory an earlier config wrote leaves what a run into an empty one
    # leaves: the optional decomposition, lower curve and plot of the earlier config go, and
    # a run that fails leaves none of its outputs
    shared = tmp_path / "shared"
    for name, text in REACH_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(REACH_BASE + text)
        code = main(["run", str(cfg), "--out", str(shared)])
        assert code == main(["run", str(cfg), "--out", str(tmp_path / name)]), name
        want = {} if code == 1 else read_artifacts(tmp_path / name)
        assert read_artifacts(shared) == want, name


@pytest.mark.parametrize("name", ["smoke", *REACH_CONFIGS])
def test_commands_write_only_the_files_they_own(name, tmp_path):
    # run, and each command run on its own, creates, changes or removes no file but those
    # cli.FILES lists as its outputs: main removes exactly those when a command fails
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(SMOKE if name == "smoke" else REACH_BASE + REACH_CONFIGS[name])
    for commands in (["run"], ["simulate", "entropy", "bounds", "verify"], ["decompose"]):
        out = tmp_path / commands[0]
        out.mkdir()
        for command in commands:
            before = read_artifacts(out)
            with contextlib.redirect_stderr(io.StringIO()):
                main([command, str(cfg), "--out", str(out)])
            after = read_artifacts(out)
            touched = {f for f in before.keys() | after.keys() if before.get(f) != after.get(f)}
            assert touched <= set(cli.FILES[command][0]), (command, touched)


def test_schema_headings_are_the_file_table():
    # each `## <files> (<commands ...>)` heading of SCHEMA.md names the commands that write
    # those files; together the headings give each command the outputs cli.FILES gives it,
    # and run writes what its four stages write
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "SCHEMA.md")) as fh:
        headings = re.findall(r"^## (.+) \((.+)\)$", fh.read(), re.M)
    commands = set(cli.FILES) - {"run"}
    written = {command: set() for command in commands}
    for files, writers in headings:
        named = commands & set(re.findall(r"\w+", writers))
        assert named, files
        for command in named:
            written[command].update(files.split(", "))
    assert written == {command: set(cli.FILES[command][0]) for command in commands}
    stages = ("simulate", "entropy", "bounds", "verify")
    assert sorted(cli.FILES["run"][0]) == sorted(set().union(*map(written.get, stages)))


def test_every_key_is_read_by_some_reach_run(tmp_path, monkeypatch):
    # a key that no stage reads any more, but that KEYS and README still list, would be
    # accepted and ignored; together the REACH_CONFIGS runs ask for every key
    configs, from_file = [], Config.from_file

    def recorded(path):
        configs.append(from_file(path))
        return configs[-1]

    monkeypatch.setattr(Config, "from_file", recorded)
    for name, text in REACH_CONFIGS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(REACH_BASE + text)
        with contextlib.redirect_stderr(io.StringIO()):
            main(["run", str(cfg), "--out", str(tmp_path / name)])
    assert len(configs) == len(REACH_CONFIGS)
    assert sorted(set(cli.KEYS) - set().union(*(cfg.read for cfg in configs))) == []


def package_functions():
    """The qualified name and the lines of every function in the package, keyed by the (file,
    first line, name) of its code object; a decorated function's code starts at its first
    decorator."""
    root = os.path.dirname(os.path.realpath(ustattails.__file__))
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = (child.decorator_list or [child])[0].lineno
                found[(path, line, child.name)] = (prefix + child.name,
                                                   range(line, child.end_lineno + 1))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path) as fh:
                visit(ast.parse(fh.read()), path, name[:-3] + ".")
    return found


def is_error_path(node):
    """A raise statement, an except handler, or a ``cfg.fail`` or ``self.fail`` call."""
    if isinstance(node, (ast.Raise, ast.ExceptHandler)):
        return True
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr == "fail" and getattr(func.value, "id", None) in ("cfg", "self"))


def package_lines():
    """The (file, line) of every line that starts bytecode of a function, lambda or
    comprehension of the package, but for the lines of error paths."""
    root = os.path.dirname(os.path.realpath(ustattails.__file__))
    found = set()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path) as fh:
                source = fh.read()
            lines, codes = set(), [compile(source, path, "exec")]
            while codes:
                code = codes.pop()
                if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
                    lines.update(line for _, _, line in code.co_lines() if line is not None)
                codes.extend(const for const in code.co_consts if inspect.iscode(const))
            for node in ast.walk(ast.parse(source)):
                if is_error_path(node):
                    lines.difference_update(range(node.lineno, node.end_lineno + 1))
            found.update((path, line) for line in lines)
    return found


def test_every_function_is_on_the_pipeline_or_library_only(tmp_path):
    # every function of the package runs under some command, or is listed in LIBRARY_ONLY
    # with why; and so does every line of it, but for error paths and LIBRARY_BRANCHES
    root = os.path.dirname(os.path.realpath(ustattails.__file__))
    in_package = functools.cache(lambda filename: os.path.realpath(filename).startswith(root))
    called, ran = set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
        if in_package(code.co_filename):
            ran.add((code.co_filename, frame.f_lineno))
            return local
        return None

    codes = {}
    # one directory for all: a later command removes the outputs an earlier one wrote
    out = str(tmp_path / "out")
    sys.settrace(trace)
    try:
        for name, text in REACH_CONFIGS.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(REACH_BASE + text)
            for stage in list(cli.STAGES) if name == "rademacher" else ["run"]:  # run first
                extra = ["--set", f"output.dir={tmp_path}/unused"] if stage == "run" else []
                with contextlib.redirect_stderr(io.StringIO()):
                    codes[name, stage] = main([stage, str(cfg), "--out", out] + extra)
    finally:
        sys.settrace(None)
    assert {key: code for key, code in codes.items() if code != 0} == {("unread", "run"): 1}
    assert not os.path.exists(tmp_path / "unused")
    functions = package_functions()
    called = {(os.path.realpath(path), line, name) for path, line, name in called}
    assert {qualname for key, (qualname, _) in functions.items() if key not in called} \
        == LIBRARY_ONLY
    unreached = package_lines() - {(os.path.realpath(path), line) for path, line in ran}
    owners = {key: set() for key in unreached}  # the functions each lies in, nested ones too
    for (path, _, _), (qualname, lines) in functions.items():
        for line in lines:
            if (path, line) in unreached:
                owners[path, line].add(qualname)
    assert set(LIBRARY_BRANCHES) <= set().union(*owners.values())  # each still unreached
    excused = LIBRARY_ONLY | set(LIBRARY_BRANCHES)
    stray = [f"{os.path.basename(path)}:{line}" for path, line in sorted(unreached)
             if not owners[path, line] & excused]
    assert not stray, f"lines no command runs: {', '.join(stray)}"


def test_benchmark_tracer_wraps_every_layer(smoke_cfg, tmp_path, monkeypatch):
    # perfbench/tracing.py wraps these functions by name and reads their arguments
    # and results, so a rename or signature change here breaks ``--trace 1``
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    tracing = importlib.import_module("tracing")
    for module, func, _span, _count in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(f"ustattails.{module}"), func))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["run", smoke_cfg, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    spans = [span[0] for span in tracer.spans]
    assert [spans.count(stage) for stage in tracing.STAGE_SPANS] == [1, 1, 1, 1]
    assert tracer.counts["engine.average.kernel_evals"] > 0
    assert tracing.installed_wrappers() == []


# the packing-count integral of each workload at seed 11
INTEGRAL_LOWER = {"narrow_exact": 16.2889018680359, "wide_index": 17.16260805145174,
                  "heavy_incomplete": 129.43277295405053}


@pytest.mark.parametrize("name", ["narrow_exact", "wide_index", "heavy_incomplete"])
def test_benchmark_gate_passes(name, tmp_path, monkeypatch):
    # the gate perfbench applies to every run: exit code, artifact set, verify PASS and
    # the seed-11 reference values within 1e-9, so a numeric drift fails here too; beside
    # them the covering bracket, with the traversal's packing counts checked against the
    # per-radius search at every default radius
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    workloads = importlib.import_module("workloads")
    gate = importlib.import_module("gate")
    workload = workloads.WORKLOADS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(workload.config_text())
    out = tmp_path / "out"
    seed = workloads.REFERENCE_SEED
    rc = main(["run", str(cfg), "--out", str(out), "--set", f"run.seed={seed}"])
    assert gate.check_artifacts(workload, str(out), rc, seed) == []
    summary = key_values(out / ENTROPY_SUMMARY)
    lower = float(summary["integral_lower"])
    assert lower <= float(summary["integral"])
    assert lower == pytest.approx(INTEGRAL_LOWER[name], rel=1e-12)
    # the gated fields are rank one, so their supremum is one column's modulus; the
    # incomplete average of a continuous law moves it over the index set
    report = key_values(out / BOUND_REPORT)
    columns, share, uniformity = (float(report[key]) for key in
                                  ("sup_columns", "sup_top_share", "uniformity"))
    if name == "heavy_incomplete":
        assert columns > 1 and uniformity > 1
    else:
        assert columns == 1
        assert share == pytest.approx(1.0, abs=1e-12)
        assert uniformity == pytest.approx(1.0, abs=1e-12)
    space = cli.read_distance(str(out))
    eps = entropy.default_eps_grid(space)
    counts = entropy._packing_counts(space, eps)
    assert counts.tolist() == [packing_count(space, e) for e in eps]
    # a bounds rerun parses field.csv cold and must rewrite the same bytes
    before = gate.digests(str(out))
    rc = main(["bounds", str(cfg), "--out", str(out), "--set", f"run.seed={seed}"])
    assert rc == workload.expected_exit
    assert gate.check_identical(before, gate.digests(str(out)), "bounds rerun") == []


# the mutants verify must catch: the bounds function a run is patched through, the factor on
# what it returns, and the invariant whose line then fails
VERIFY_MUTANTS = {
    "sup_norm_x0.9": ("envelope_norm", 0.9, "sup_norm_rederived"),
    "sup_norm_x0.5": ("envelope_norm", 0.5, "sup_norm_rederived"),
    "distances_x0.5": ("envelope_distance", 0.5, "reverse_triangle"),
    "distances_x0": ("envelope_distance", 0.0, "reverse_triangle"),
    "psi_x0.5": ("natural_envelope", 0.5, "psi_rederived"),
    "psi_x2": ("natural_envelope", 2.0, "psi_rederived"),
}
INVARIANTS = ("sup_norm_rederived", "markov", "reverse_triangle", "psi_rederived")


def scaled(value, factor):
    """``value`` times ``factor``; an envelope is scaled through its tabulated values."""
    if isinstance(value, MomentEnvelope):
        nodes, log_values = value.params
        return tabulated_envelope(nodes, np.exp(log_values) * factor)
    return value * factor


@pytest.mark.parametrize("config", ["smoke", "narrow_exact", "wide_index"])
@pytest.mark.parametrize("mutant", sorted(VERIFY_MUTANTS))
def test_verify_catches_mutants(mutant, config, tmp_path, monkeypatch):
    # a run under one mutated stage function writes artifacts whose curves still pass the
    # ordering check; an unpatched verify then fails on the invariant it re-derives, where
    # the clean artifacts pass all four
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    workloads = importlib.import_module("workloads")
    cfg = tmp_path / f"{config}.cfg"
    cfg.write_text(SMOKE if config == "smoke" else workloads.WORKLOADS[config].config_text())
    assert main(["run", str(cfg), "--out", str(tmp_path / "clean")]) == 0
    report = key_values(tmp_path / "clean" / VERIFY_REPORT)
    assert [report[key] for key in INVARIANTS] == ["PASS"] * 4
    name, factor, invariant = VERIFY_MUTANTS[mutant]
    out = tmp_path / "mutant"
    with monkeypatch.context() as patch:
        stage = getattr(bounds, name)
        patch.setattr(bounds, name,
                      lambda *args, **kwargs: scaled(stage(*args, **kwargs), factor))
        main(["run", str(cfg), "--out", str(out)])
    assert main(["verify", str(cfg), "--out", str(out)]) == 2
    report = key_values(out / VERIFY_REPORT)
    assert (report["upper_violations"], report[invariant], report["ordering"]) \
        == ("0", "FAIL", "FAIL")
