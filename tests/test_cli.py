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
from ustattails import cli, engine
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
    build_kernel,
    main,
    read_field,
    read_pairs,
    read_table,
    write_field,
    write_table,
)
from ustattails.config import Config, ConfigError, parse_grid, resolve_grid
from ustattails.empirics import FieldSamples, distinct_rows

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


@pytest.fixture(scope="module")
def smoke_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "smoke.cfg"
    path.write_text(SMOKE)
    return str(path)


@pytest.fixture(scope="module")
def smoke_run(smoke_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["run", smoke_cfg, "--out", str(out)])
    return rc, out


def key_values(path):
    lines = path.read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def read_artifacts(out_dir):
    data = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data[name] = fh.read()
    return data


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
    """Line edit of distance.csv: ``edit`` applied to each distance cell of a data line."""
    def apply(line):
        if line.startswith("label,"):
            return line
        label, *cells = line.split(",")
        return ",".join([label] + [edit(cell) for cell in cells])

    return apply


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
        with pytest.raises(ValueError, match="collapsed"):
            resolve_grid(parse_grid("quantile:0:1:5"), np.ones(10))


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
            assert cells[2] == "2" and cells[3] == "false"
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
        assert len(calls) == len(build_kernel(Config.from_file(smoke_cfg)).t_grid)
        assert (tmp_path / DECOMP).exists()

    def test_bounds_reads_moment_grids_back(self, smoke_cfg, smoke_run, tmp_path):
        # bounds calibrates on the grids the envelope was tabulated on, not on the config's
        out = copy_artifacts(smoke_run[1], tmp_path / "regrid")
        other = ["--set", "grids.p=log:2:6:4", "--set", "psi.p_max=32", "--set", "psi.points=65"]
        assert main(["bounds", smoke_cfg, "--out", str(out)] + other) == 0
        assert (out / BOUND_REPORT).read_bytes() == (smoke_run[1] / BOUND_REPORT).read_bytes()

    def test_staged_matches_run(self, smoke_cfg, smoke_run, tmp_path):
        _, out = smoke_run
        out2 = tmp_path / "staged"
        assert main(["simulate", smoke_cfg, "--out", str(out2)]) == 0
        assert main(["entropy", smoke_cfg, "--out", str(out2)]) == 0
        assert main(["bounds", smoke_cfg, "--out", str(out2)]) == 0
        assert main(["verify", smoke_cfg, "--out", str(out2)]) == 0
        assert read_artifacts(out) == read_artifacts(out2)

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
        assert DISTANCE in parsed  # the wrapper sees the tables that are parsed

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
        env.pop("USTATTAILS_OUT", None)
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
        before = read_field(str(out), "test")
        lines = (out / FIELD).read_text().splitlines()
        cells = lines[1].split(",")
        assert int(cells[0]) > 1  # the edited row stands for several replications
        lines[1] = ",".join(cells[:1] + ["5.0"] + cells[2:])
        (out / FIELD).write_text("\n".join(lines) + "\n")
        after = read_field(str(out), "test")
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
        assert "distance.csv" in err and "rerun stage 'entropy'" in err

    def test_bounds_rejects_field_of_other_seed(self, smoke_cfg, smoke_run, tmp_path, capsys):
        # Same index labels, other draws: only the field digest tells them apart.
        out = copy_artifacts(smoke_run[1], tmp_path / "reseeded")
        seed = ["--set", "run.seed=12"]
        assert main(["simulate", smoke_cfg, "--out", str(out)] + seed) == 0
        assert main(["bounds", smoke_cfg, "--out", str(out)] + seed) == 1
        err = capsys.readouterr().err
        assert "distance.csv" in err and "rerun stage 'entropy'" in err

    def test_uncalibratable_lower_curve_is_omitted(self, smoke_cfg, smoke_run, tmp_path):
        # Column 0 of this grid has no level strictly inside (0, 1); the run
        # goes on without a lower curve and drops the one an earlier run left.
        out = copy_artifacts(smoke_run[1], tmp_path / "nolower")
        rc = main(["run", smoke_cfg, "--out", str(out), "--set", "kernel.t_grid=0.2,0.5,0.9"])
        assert rc == 0
        assert not (out / TAIL_LOWER).exists()
        report = (out / BOUND_REPORT).read_text()
        assert "- lower shape omitted: column 0 has no usable points" in report
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
        out = copy_artifacts(smoke_run[1], tmp_path / "column")
        rc = main(["bounds", smoke_cfg, "--out", str(out), "--set", f"bound.lower_column={column}"])
        assert rc == 1
        assert "bound.lower_column" in capsys.readouterr().err
        assert read_artifacts(out) == read_artifacts(smoke_run[1])

    def test_high_degree_alphabet_law_with_rank(self, smoke_cfg, tmp_path):
        # the closed-form decomposition serves any degree, so it is written with run.rank too
        out = tmp_path / "degree5"
        degree5 = ["--set", "kernel.name=product", "--set", "kernel.degree=5",
                   "--set", "run.n=8", "--set", "run.reps=400"]
        assert main(["run", smoke_cfg, "--out", str(out), "--set", "run.rank=1"] + degree5) in (0, 2)
        assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
        meta = key_values(out / FIELD_META)
        assert (meta["mean_source"], meta["rank"]) == ("exact", "1")

    @pytest.mark.parametrize("stage", ["run", "decompose"])
    def test_high_degree_alphabet_law_needs_rank(self, smoke_cfg, tmp_path, stage):
        # no rank is needed: the degree-5 product of Rademacher draws decomposes to rank 5
        out = tmp_path / "degree5"
        degree5 = ["--set", "kernel.name=product", "--set", "kernel.degree=5", "--set", "run.n=8"]
        assert main([stage, smoke_cfg, "--out", str(out)] + degree5) in (0, 2)
        header, row = (out / DECOMP).read_text().splitlines()
        dec = dict(zip(header.split(","), row.split(",")))
        assert (dec["mean"], dec["rank"], dec["degenerate"]) == ("0.0", "5", "false")
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
        for stage in ("entropy", "bounds"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([stage, smoke_cfg, "--out", str(out)]) == 1, stage
            assert FIELD in capsys.readouterr().err, stage
            assert not caught, (stage, [str(w.message) for w in caught])

    @pytest.mark.parametrize(
        "name, edit",
        [
            (ENTROPY_SUMMARY, replace_line("integral = ", None)),
            (ENTROPY_SUMMARY, replace_line("points = ", "points = 2.5")),
            (ENTROPY_SUMMARY, replace_line("certified = ", "certified = maybe")),
            (PSI_USED, replace_line("degree = ", "degree = x")),
            (PSI_USED, replace_line("psi = ", "psi = tabulated lift=0 p=2.0")),
            (PSI_USED, replace_line("p_grid = ", "p_grid = 2.0,1.5")),
            (ENTROPY, lambda line: line.rsplit(",", 1)[0]),
            (DISTANCE, edit_distances(lambda cell: "inf" if cell != "0.0" else cell)),
            (DISTANCE, edit_distances(lambda cell: "nan" if cell == "0.0" else cell)),
            (PSI_USED, replace_line("p_max = ", "p_max = 1.5")),
            (PSI_USED, replace_line("points = ", "points = 1")),
        ],
        ids=[
            "no_integral", "fractional_points", "bad_certified", "bad_degree", "envelope_no_v",
            "decreasing_p_grid", "no_integrand_column", "infinite_distances", "nan_diagonal",
            "p_max_below_2", "one_point",
        ],
    )
    def test_corrupt_geometry_record_exits_1_naming_it(
        self, smoke_cfg, smoke_run, tmp_path, capsys, name, edit
    ):
        # a deleted or unparsable line or column of an artifact bounds reads back
        out = copy_artifacts(smoke_run[1], tmp_path / "record")
        lines = [edit(line) for line in (out / name).read_text().splitlines()]
        (out / name).write_text("".join(line + "\n" for line in lines if line is not None))
        assert main(["bounds", smoke_cfg, "--out", str(out)]) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, spec",
        [
            ("grids.u", "log:0:1:5"),
            ("grids.p", "quantile:0.1:0.9:4"),
            ("grids.eps", "lin:0:1"),
            ("grids.p", "log:1:8:4"),
            ("grids.eps", "log:0.5:2:4"),
            ("grids.u", "lin:5:1:3"),
        ],
        ids=["u_log_from_0", "p_quantile", "eps_short", "p_below_2", "eps_above_1",
             "u_decreasing"],
    )
    def test_bad_grid_fails_before_any_artifact(self, smoke_cfg, tmp_path, capsys, key, spec):
        out = tmp_path / "grid"
        assert main(["run", smoke_cfg, "--out", str(out), "--set", f"{key}={spec}"]) == 1
        assert key in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("psi.family=power_log", "psi.m"),
            ("psi.family=exp_power", "psi.coef"),
            ("bound.lower_exponent=bad", "bound.lower_exponent"),
            ("bound.sigma=abc", "bound.sigma"),
            ("bound.degree=two", "bound.degree"),
            ("entropy.plateau_fraction=half", "entropy.plateau_fraction"),
            ("output.plot=maybe", "output.plot"),
            ("run.budget=1000", "run.budget"),
            ("psi.p_max=1", "psi.p_max"),
            ("psi.points=1", "psi.points"),
            ("entropy.plateau_fraction=5", "entropy.plateau_fraction"),
            ("entropy.plateau_fraction=-1", "entropy.plateau_fraction"),
            ("bound.lower_beta=0", "bound.lower_beta"),
            ("bound.sigma=-1", "bound.sigma"),
            ("psi.family=power_log psi.m=-1", "psi.m"),
            ("psi.family=power_log psi.m=nan", "psi.m"),
            ("psi.family=power_log psi.m=2 psi.r=nan", "psi.r"),
            ("psi.family=exp_power psi.coef=inf psi.expo=1", "psi.coef"),
            ("psi.family=exp_power psi.coef=1 psi.expo=nan", "psi.expo"),
            ("psi.family=constant psi.value=0 psi.p_sup=8", "psi.value"),
            ("psi.family=constant psi.value=1 psi.p_sup=2", "psi.p_sup"),
            ("kernel.name=table kernel.values=-1,1 kernel.table=0.5,1,-0.5", "kernel.table"),
            ("run.mode=incomplete run.subsets=0", "run.subsets"),
            ("run.mode=incomplete run.subsets=-3", "run.subsets"),
            ("run.subsets=50", "run.subsets"),
            ("entropy.estimator=exact kernel.t_grid=" + ",".join(map(str, range(1, 18))),
             "entropy.estimator"),
            ("psi.family=constant psi.value=1 psi.p_sup=4", "psi.p_sup"),
            ("bound.degree=-1", "bound.degree"),
            ("psi.famly=constant", "psi.famly"),
            ("bound.sigmaa=-4", "bound.sigmaa"),
            ("kernel.g=cosh", "kernel.g"),
            ("kernel.degree=0", "kernel.degree"),
            ("kernel.name=half_sq_diff kernel.degree=3", "kernel.degree"),
            ("kernel.name=table kernel.degree=3 kernel.values=-1,1 kernel.table=0.5,1",
             "kernel.degree"),
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
             "kernel.values=-1,1 kernel.table=0.5,-1,2,0.3 run.n=3 run.reps=27 run.rank=1",
             "kernel.values"),
            ("sampler.name=alphabet sampler.values=-1,0.5,1 kernel.name=table "
             "kernel.values=-1,1 kernel.table=0.5,-1,2,0.3", "kernel.values"),
        ],
        ids=["power_log_no_m", "exp_power_no_coef", "bad_lower_exponent", "bad_sigma",
             "bad_degree", "bad_plateau_fraction", "bad_plot", "budget_not_accepted",
             "p_max_not_above_2", "one_psi_point", "plateau_fraction_above_1",
             "negative_plateau_fraction", "zero_lower_beta", "negative_sigma",
             "negative_m", "nan_m", "nan_r", "inf_coef", "nan_expo", "zero_value",
             "p_sup_not_above_2", "ragged_table", "zero_subsets", "negative_subsets",
             "subsets_under_exact", "exact_cover_of_17_points", "p_grid_past_p_sup",
             "negative_degree", "misspelled_family", "misspelled_sigma", "unknown_shape",
             "zero_degree", "half_sq_diff_degree_3", "table_degree_3", "zero_reps", "one_rep",
             "n_at_degree", "negative_pareto_index", "uniform_lo_above_hi",
             "uniform_hi_below_lo", "nan_lognormal_sigma", "one_point_alphabet",
             "one_weighted_point", "repeated_value", "zero_rank", "negative_rank",
             "table_on_a_continuum", "table_law_off_its_values"],
    )
    def test_bad_stage_key_fails_before_any_artifact(
        self, smoke_cfg, tmp_path, capsys, setting, key
    ):
        # run reads and range-checks the keys of every stage before it simulates, and
        # rejects a key no stage reads (run.budget, a misspelling) and run.subsets under
        # exact averaging, which it would not read
        out = tmp_path / "key"
        assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == 1
        assert key in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_unknown_key_in_file_fails_naming_its_line(self, smoke_cfg, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(open(smoke_cfg).read() + "psi.famly = constant\n")
        out = tmp_path / "typo"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert f"{cfg}:11: unknown key 'psi.famly'" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_exact_cover_checked_against_field(self, smoke_cfg, tmp_path, capsys):
        # a standalone entropy stage counts the index points of the field it reads
        out = tmp_path / "wide"
        wide = ["--set", "kernel.t_grid=" + ",".join(map(str, range(1, 18))), "--set",
                "run.reps=200"]
        assert main(["simulate", smoke_cfg, "--out", str(out)] + wide) == 0
        written = sorted(os.listdir(out))
        exact = ["--set", "entropy.estimator=exact"]
        assert main(["entropy", smoke_cfg, "--out", str(out)] + exact) == 1
        err = capsys.readouterr().err
        assert "entropy.estimator: exact covering is limited to 16 points, got 17" in err
        assert sorted(os.listdir(out)) == written

    def test_covering_estimators_finish_in_order(self, smoke_cfg, tmp_path):
        # every estimator ends with the full artifact set, and the packing lower bound,
        # exact count and greedy upper bound order their integrals
        integral = {}
        for estimator in ("greedy", "packing", "exact"):
            out = tmp_path / estimator
            setting = ["--set", f"entropy.estimator={estimator}"]
            assert main(["run", smoke_cfg, "--out", str(out)] + setting) == 0
            assert sorted(os.listdir(out)) == sorted(RUN_ARTIFACTS)
            summary = key_values(out / ENTROPY_SUMMARY)
            assert summary["estimator"] == estimator
            integral[estimator] = float(summary["integral"])
        assert integral["packing"] <= integral["exact"] <= integral["greedy"]

    def test_non_finite_field_fails_before_any_artifact(self, smoke_cfg, tmp_path, capsys):
        # a degree-3 product of Pareto(0.02) draws overflows in every cell
        out = tmp_path / "overflow"
        setting = ("sampler.name=pareto sampler.a=0.02 kernel.name=product kernel.degree=3 "
                   "run.rank=1")
        with np.errstate(all="ignore"):
            assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == 1
        assert "1500 of 1500 field cells are not finite" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_non_finite_field_refusal_is_the_only_message(self, smoke_cfg, tmp_path, capsys):
        # the overflowing recurrence and the mean of its cells warn nothing before the refusal
        out = tmp_path / "quiet"
        setting = ("sampler.name=pareto sampler.a=0.02 kernel.name=product kernel.degree=3 "
                   "run.rank=1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1500 of 1500 field cells are not finite")
        assert err.count("\n") == 1
        assert os.listdir(out) == []

    def test_collapsed_quantile_grid_names_its_key(self, smoke_cfg, tmp_path, capsys):
        # at this seed the two replications of a sum kernel share |sup|, so every quantile
        # is one level: only the data can show it, after the earlier stages wrote theirs
        setting = "run.reps=2 kernel.name=sum run.seed=1"
        assert main(["run", smoke_cfg, "--out", str(tmp_path)] + overrides(setting)) == 1
        err = capsys.readouterr().err
        assert "grids.u" in err and "collapsed" in err

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
        # the lift degree comes from bound.degree or field_meta.txt, never from kernel.degree
        out = copy_artifacts(smoke_run[1], tmp_path / "nodegree")
        lines = (out / FIELD_META).read_text().splitlines(keepends=True)
        (out / FIELD_META).write_text("".join(l for l in lines if not l.startswith("degree = ")))
        rc = main(["entropy", smoke_cfg, "--out", str(out), "--set", "kernel.degree=2"])
        assert rc == 1
        assert "field_meta.txt gives no kernel degree; set bound.degree" in capsys.readouterr().err
        assert main(["entropy", smoke_cfg, "--out", str(out), "--set", "bound.degree=2"]) == 0
        assert (out / PSI_USED).read_bytes() == (smoke_run[1] / PSI_USED).read_bytes()

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

    def test_verify_flags_tampered_curve(self, smoke_cfg, smoke_run, tmp_path):
        _, good = smoke_run
        out = tmp_path / "tampered"
        out.mkdir()
        for name in (TAIL_EMPIRICAL, TAIL_UPPER, TAIL_LOWER):
            (out / name).write_bytes((good / name).read_bytes())
        lines = (out / TAIL_EMPIRICAL).read_text().splitlines()
        fixed = lines[:2] + [f"{l.split(',')[0]},1.0" for l in lines[2:]]
        (out / TAIL_EMPIRICAL).write_text("\n".join(fixed) + "\n")
        rc = main(["verify", smoke_cfg, "--out", str(out)])
        assert rc == 2
        report = (out / VERIFY_REPORT).read_text()
        assert "ordering = FAIL" in report
        assert "upper_violations = 0" not in report

    @pytest.mark.parametrize(
        "setting, code, count, record",
        [
            ("sampler.name=uniform run.rank=1", 0, 11, None),
            ("kernel.name=half_sq_diff", 0, 13, None),
            ("kernel.name=table kernel.values=-1,1 kernel.table=0.5,1,-0.5,2", 2, 13, None),
            ("run.mode=incomplete run.subsets=50", 0, 12,
             (FIELD_META, {"mode": "incomplete", "subsets": "50"})),
            ("bound.degree=3", 0, 13, (PSI_USED, {"degree": "3"})),
        ],
        ids=["uniform_law", "half_sq_diff", "table_kernel", "incomplete", "degree_3"],
    )
    def test_builder_paths_finish_consistently(
        self, smoke_cfg, tmp_path, setting, code, count, record
    ):
        # each sampler, kernel and averaging builder ends with the artifact set its
        # law and report call for, every stage tied to the field.csv it was run on
        out = tmp_path / "paths"
        assert main(["run", smoke_cfg, "--out", str(out)] + overrides(setting)) == code
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


def test_table_codec_round_trips_bits(tmp_path):
    path = tmp_path / "table.csv"
    values = np.array([
        [5e-324, 1.7976931348623157e308, -0.0],
        [0.1 + 0.2, 1.0 / 3.0, -2.5e-310],
    ])
    write_table(path, ("a", "b", "c"), values.tolist(), comment="samples = 2")
    header, back = read_table(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
    assert read_pairs(path) == [("# samples", "2")]


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
                read_field(out, "test")
            back = written
        else:
            back = read_field(out, "test")
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
    # they stand, any other bad line refused with its message and the file's row numbers
    header = ["rep", "a", "b"] if labelled else ["a", "b"]
    rows = [f"{i},{row}" if labelled else row for i, row in enumerate(TABLE_ROWS)]
    lines = ["# samples = 6", ",".join(header)] + rows[:3] + TABLE_EDITS[edit](rows[3]) + rows[4:]
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = np.loadtxt(lines[2:], delimiter=",", ndmin=2,
                              converters={0: lambda label: 0.0} if labelled else None)
    except ValueError as exc:
        with pytest.raises(ConfigError) as caught:
            read_table(path, labelled=labelled)
        assert str(caught.value) == f"{path}: {exc}"  # the row numbers of the file itself
        return
    got_header, got = read_table(path, labelled=labelled)
    assert got_header == header
    assert np.array_equal(got.view(np.uint64), want[:, labelled:].view(np.uint64))


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
    fld = read_field(str(smoke_run[1]), "test")
    assert calls == [len(fld.values)] and calls[0] <= n + 1, calls
    values = np.random.default_rng(3).standard_normal((500, 4))
    write_field(str(tmp_path), FieldSamples((1.0, 2.0, 3.0, 4.0), values))
    calls.clear()
    back = read_field(str(tmp_path), "test")
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
    back = read_field(str(tmp_path), "test")
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
    "table": "kernel.name=table kernel.values=-1,1 kernel.table=0.5,-1,2,0.3",
}
SMALL_ENVELOPES = (
    "psi.family=natural",
    "psi.family=power_log psi.m=2",
    "psi.family=exp_power psi.coef=0.5 psi.expo=1",
    "psi.family=constant psi.value=3 psi.p_sup=16",
)
SMALL_U_GRIDS = ("quantile:0.5:0.97:6", "quantile:0.2:0.9:3", "lin:0.5:3:5", "0.1,1,2", "0.7")


@st.composite
def small_configs(draw):
    """``--set`` text of a small ``run``: any law, kernel, degree, sample size, envelope and
    level grid, with ``run.rank`` set off the alphabets."""
    law = draw(st.sampled_from(sorted(SMALL_LAWS)))
    kernel = draw(st.sampled_from(sorted(SMALL_KERNELS)))
    items = [SMALL_LAWS[law], SMALL_KERNELS[kernel], draw(st.sampled_from(SMALL_ENVELOPES)),
             f"run.n={draw(st.sampled_from(range(2, 11)))}",
             f"run.reps={draw(st.sampled_from(range(1, 61)))}",
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
    return " ".join(items)


@settings(max_examples=300)
@given(small_configs())
def test_small_configs_finish_or_fail_first(setting):
    # every config finishes with the full artifact set, or exits 1 before writing anything,
    # naming where in the config it went wrong; only a quantile grid that the data collapse
    # to one level is found after the earlier stages wrote their artifacts
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "small.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write("run.seed = 11\ngrids.p = log:2:8:4\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", cfg, "--out", out] + overrides(setting))
        written = set(os.listdir(out))
    err = err.getvalue()
    event(f"exit {rc}")
    if rc in (0, 2):
        assert _base_artifacts() | {BOUND_REPORT, VERIFY_REPORT} <= written, setting
        return
    assert rc == 1, (setting, err)
    if "grids.u: quantile grid collapsed" in err:
        assert cfg in err, (setting, err)
        return
    assert written == set(), (setting, err)
    # simulate refuses a drawn field that is identically zero or not finite before writing
    # it; that is a property of the draw, which no key names
    assert cfg in err or "field is identically zero" in err or "not finite" in err, (setting, err)


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


@pytest.mark.parametrize("name", ["narrow_exact", "wide_index", "heavy_incomplete"])
def test_benchmark_gate_passes(name, tmp_path, monkeypatch):
    # the gate perfbench applies to every run: exit code, artifact set, verify PASS and
    # the seed-11 reference values within 1e-9, so a numeric drift fails here too
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
    # a bounds rerun parses field.csv cold and must rewrite the same bytes
    before = gate.digests(str(out))
    rc = main(["bounds", str(cfg), "--out", str(out), "--set", f"run.seed={seed}"])
    assert rc == workload.expected_exit
    assert gate.check_identical(before, gate.digests(str(out)), "bounds rerun") == []
