"""End-to-end checks, one per acceptance criterion, each printing a PASS line.

Every test states its tolerance inline and fails loudly when the library
misses it; nothing here is tuned to the library's output.
"""

import math
import os
import time
from itertools import combinations

import numpy as np
import pytest

import ustattails as ut
from ustattails.cli import main as cli_main
from ustattails.engine import u_statistic_matrix


def ok(num, detail):
    print(f"criterion {num:02d}: PASS - {detail}")


def fit_slope(x, y):
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


def test_criterion_01_fenchel_matches_closed_form():
    t0 = time.monotonic()
    us = np.linspace(0.2, 5.0, 49)
    worst = 0.0
    for m in (1.0, 2.0, 4.0):
        env = ut.power_log_envelope(m, 0.0)
        for u in us:
            p_star = math.exp(m * u - 1.0)
            if p_star >= 2.0:
                want = p_star / m
            else:
                want = 2.0 * u - (2.0 / m) * math.log(2.0)
            got = ut.fenchel_exponent(env, u, p_max=1e9, points=257)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 1.0
    ok(1, f"transform matches the stationary/boundary formula, worst rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_variance_decay_slopes(rademacher_panels):
    t0 = time.monotonic()
    ns = rademacher_panels["ns"]
    mc_prod = fit_slope(
        np.log(ns), [math.log(rademacher_panels["U_prod"][n][:, 0].var()) for n in ns]
    )
    mc_sum = fit_slope(
        np.log(ns), [math.log(rademacher_panels["U_sum"][n][:, 0].var()) for n in ns]
    )
    assert abs(mc_prod - (-2.0)) <= 0.15
    assert abs(mc_sum - (-1.0)) <= 0.15
    rad = ut.rademacher_sampler()
    dec_prod = ut.hoeffding_decompose(ut.make_kernel("product"), rad)
    dec_sum = ut.hoeffding_decompose(ut.make_kernel("sum"), rad)
    an_prod = ut.variance_u(dec_prod, 64).slope
    an_sum = ut.variance_u(dec_sum, 64).slope
    assert abs(an_prod - (-2.0)) <= 0.05
    assert abs(an_sum - (-1.0)) <= 0.05
    elapsed = time.monotonic() - t0 + rademacher_panels["build_seconds"]
    assert elapsed < 60.0
    ok(2, f"slopes mc ({mc_prod:.3f}, {mc_sum:.3f}) analytic ({an_prod:.3f}, {an_sum:.3f}) in {elapsed:.1f}s")


def test_criterion_03_exact_variance_and_orthogonality():
    values = np.array([-1.0, 0.5, 2.0])
    probs = np.array([0.2, 0.3, 0.5])
    law = ut.alphabet_sampler(values, probs)
    kernels = [ut.make_kernel("product", shift=0.3), ut.make_kernel("half_sq_diff")]
    worst = 0.0
    for kernel in kernels:
        dec = ut.hoeffding_decompose(kernel, law)
        g1, g2 = dec.terms
        for contraction in (
            float(g1 @ probs),
            float(np.max(np.abs(g2 @ probs))),
            float(g1 @ (g2 @ probs)),
            float(probs @ (g2 @ probs) ** 2),
        ):
            assert abs(contraction) <= 1e-12
        for n in (3, 4, 5, 6):
            assign = np.array(list(np.ndindex(*([3] * n))))
            X = values[assign]
            w = probs[assign].prod(axis=1)
            idx = np.array(list(combinations(range(n), 2)))
            u = u_statistic_matrix(kernel, X, idx)[:, 0]
            mean = float(w @ u)
            var = float(w @ (u * u)) - mean * mean
            assert dec.mean == pytest.approx(mean, abs=1e-12)
            err = abs(ut.variance_value(dec, n) - var)
            worst = max(worst, err)
            assert err <= 1e-12
    ok(3, f"exact variance matches full enumeration for n=3..6, worst abs err {worst:.1e}")


def test_criterion_04_moment_tail_dominance():
    draws = 100000
    p_grid = np.geomspace(2.0, 16.0, 9)
    for name, sampler in (("normal", ut.normal_sampler()), ("rademacher", ut.rademacher_sampler())):
        x = ut.draw_data(sampler, draws, 1, seed=31415)[0]
        tab = ut.empirical_moments(x, p_grid)
        env = ut.tabulated_envelope(tab.p_grid, tab.values)
        norm = ut.envelope_norm(tab, env)
        assert norm == pytest.approx(1.0, rel=1e-12)
        lo = math.e * norm * 1.0001
        hi = max(float(np.quantile(np.abs(x), 0.9995)), 1.5 * lo)
        u_grid = np.geomspace(lo, hi, 25)
        emp = ut.empirical_tail(x, u_grid)
        upper = np.array([ut.tail_bound(env, norm, y) for y in u_grid])
        se = np.sqrt(emp.probs * (1.0 - emp.probs) / draws)
        violations = int(np.sum(emp.probs > upper + 3.0 * se))
        assert violations == 0
        assert np.all(emp.probs <= upper + 1e-15)
    ok(4, "empirical tails never exceed the moment bound beyond 3 binomial SE (0 violations)")


def test_criterion_05_covering_number_sandwich():
    violations = 0
    for i in range(200):
        rng = np.random.default_rng(5000 + i)
        size = int(rng.integers(2, 13))
        space = ut.space_from_points(rng.normal(size=(size, 2)))
        dvals = space.dist[np.triu_indices(size, 1)]
        for q in (0.2, 0.5, 0.8):
            eps = float(np.quantile(dvals, q))
            lo, up, exact = ut.covering_bounds(space, eps)
            if exact is None or not (lo <= exact <= up):
                violations += 1
    assert violations == 0
    grid = ut.space_from_points(np.linspace(0.0, 1.0, 101)[:, None])
    lo, up, _ = ut.covering_bounds(grid, 0.25)
    assert lo == 2 and up == 2
    ok(5, "0 sandwich violations across 200 random spaces; unit grid pinned at N(0.25) = 2")


def test_criterion_06_constant_envelope_integral_identity():
    rng = np.random.default_rng(99)
    angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    spaces = [
        ut.space_from_points(np.linspace(0.0, 1.0, 64)[:, None]),
        ut.space_from_points(np.column_stack([np.cos(angles), np.sin(angles)])),
        ut.space_from_points(rng.normal(size=(12, 3))),
    ]
    env = ut.constant_envelope(1.7, 6.0)
    worst = 0.0
    for space in spaces:
        eps = np.geomspace(space.diameter / 512.0, min(space.diameter, 1.0), 48)
        ent = ut.entropy_integral(space, env, eps)
        counts = np.array([ut.covering_number(space, e, estimator="greedy") for e in eps])
        direct = float(np.trapezoid(1.7 * counts ** (1.0 / 6.0), eps))
        rel = abs(ent.value - direct) / direct
        worst = max(worst, rel)
        assert rel <= 1e-3
    ok(6, f"generic integral equals the closed constant-envelope form, worst rel err {worst:.1e}")


def test_criterion_07_normalized_moment_growth(rademacher_panels):
    t0 = time.monotonic()
    panels = {}
    for n in (16, 64, 256):
        dev = float(n) * rademacher_panels["U_prod"][n]
        panels[n] = ut.FieldSamples(("t0",), dev, meta={"n": n})
    env = ut.constant_envelope(1.0, 10.0)
    p_grid = np.geomspace(2.0, 10.0, 9)
    res = ut.moment_growth_check(panels, env, 2, p_grid, factor=2.0)
    assert res.passed
    assert res.ratio < 2.0
    res2 = ut.moment_growth_check(panels, ut.constant_envelope(2.0, 10.0), 2, p_grid)
    for n, c in res.constants.items():
        assert res2.constants[n] == pytest.approx(c / 2.0, rel=1e-12)
    elapsed = time.monotonic() - t0 + rademacher_panels["build_seconds"]
    assert elapsed < 120.0
    ok(7, f"lifted-envelope constants {'/'.join(f'{c:.3f}' for c in res.constants.values())} ratio {res.ratio:.3f} < 2 in {elapsed:.1f}s")


def test_criterion_08_tail_exponent_recovery():
    worst = 0.0
    for m, d, window_hi in ((2.0, 1, 10.5), (3.0, 2, 15.0)):
        l = ut.power_log_rate(m, d)
        tau = ut.rosenthal_lift(ut.power_log_envelope(m, float(d)), d)
        w = np.linspace(5.0, window_hi, 12)
        nu = np.array([ut.fenchel_exponent(tau, x, p_max=1e6, points=257) for x in w])
        slope = fit_slope(w, np.log(nu))
        worst = max(worst, abs(slope - l))
        assert slope == pytest.approx(l, abs=0.02)
    for beta in (1.0, 1.5):
        for conv in ("one_plus_beta", "one_plus_inv_beta"):
            E = ut.log_power_exponent(beta, conv)
            u = np.geomspace(3.0, 1e6, 40)
            t = ut.closed_form_tail("log_power", u, coef=0.8, beta=beta, exponent=conv)
            slope = fit_slope(np.log(np.log1p(u)), np.log(-np.log(t)))
            worst = max(worst, abs(slope - E))
            assert slope == pytest.approx(E, abs=0.02)
    ok(8, f"power and log-power tail exponents recovered, worst abs err {worst:.1e}")


def test_criterion_09_heavy_tail_ordering():
    t_grid = [0.6, 1.0, 1.5, 2.2, 3.0]
    kernel = ut.make_kernel("gprod", 2, g="identity", t_grid=t_grid)
    fld = ut.simulate_panel(
        kernel,
        ut.lognormal_sampler(1.0),
        32,
        4000,
        seed=2024,
        rank=2,
        mean_per_t=np.zeros(len(t_grid)),
    )
    p_grid = np.geomspace(2.0, 10.0, 7)
    col0 = np.abs(fld.values[:, 0])
    u_grid = np.unique(np.quantile(col0, np.linspace(0.5, 0.98, 14)))
    report = ut.uniform_tail_report(fld, p_grid, 2, u_grid, lower={"beta": 1.0})
    comp = ut.compare_curves(
        report.curves["empirical"],
        upper=report.curves["upper"],
        lower=report.curves["lower"],
        sigma=3.0,
    )
    assert comp.ok
    assert comp.upper_violations == 0 and comp.lower_violations == 0
    assert report.certified
    assert report.curves["lower"].meta["beta"] == 1.0
    ok(9, f"lower/empirical/upper ordering holds at 3 sigma on all {u_grid.size} levels, certified")


def test_criterion_10_deterministic_artifacts(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "run.seed = 7\n"
        "run.n = 16\n"
        "run.reps = 800\n"
        "sampler.name = rademacher\n"
        "kernel.name = gprod\n"
        "kernel.g = tanh\n"
        "kernel.t_grid = 0.5,1.0,2.0\n"
        "grids.p = log:2:8:5\n"
        "grids.u = quantile:0.5:0.95:10\n"
        "output.plot = true\n"
    )
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(["run", str(cfg), "--out", str(out)])
        assert rc in (0, 2)
        blob = {}
        for name in sorted(os.listdir(out)):
            with open(out / name, "rb") as fh:
                blob[name] = fh.read()
        outs.append(blob)
    assert outs[0].keys() == outs[1].keys()
    assert outs[0] == outs[1]
    ok(10, f"two identical runs wrote byte-identical artifacts ({len(outs[0])} files)")
