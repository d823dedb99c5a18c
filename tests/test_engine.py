import dataclasses
import importlib
import math
import os
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustattails import (
    alphabet_sampler,
    decompose_field,
    deviation_scale,
    draw_data,
    hoeffding_decompose,
    lognormal_sampler,
    make_kernel,
    normal_sampler,
    pareto_sampler,
    rademacher_sampler,
    simulate_panel,
    u_statistic_panel,
    uniform_sampler,
    variance_value,
)
from ustattails import engine
from ustattails.cli import build_law, build_sampler
from ustattails.config import Config, ConfigError
from ustattails.empirics import FieldSamples, distinct_rows
from ustattails.engine import _LANE_SALTS, _philox_chunks, _sample_tuples, _stream


def sampler_from(text):
    return build_sampler(Config.from_text(text, path="cfg"))


def replicated(fld, j):
    """Column j of the field with each distinct row repeated by its count: one value per
    replication, grouped by row."""
    return np.repeat(fld.values[:, j], fld.counts.astype(int))


class TestStreams:
    def test_reproducible(self):
        a = _stream(5, 3).standard_normal(8)
        b = _stream(5, 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_replication_separation(self):
        a = _stream(5, 3).standard_normal(8)
        b = _stream(5, 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_lane_separation(self):
        a = _stream(5, 3, "data").standard_normal(8)
        b = _stream(5, 3, "tuples").standard_normal(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 11, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("lane", sorted(_LANE_SALTS))
    def test_vectorized_philox_matches_numpy(self, seed, lane):
        for words in (1, 5, 7, 10):
            raw = np.vstack([block for _, block in _philox_chunks(seed, 3, words, lane)])
            for rep in range(3):
                key = [(seed ^ _LANE_SALTS[lane]) & engine._U64, rep]
                want = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(words)
                assert np.array_equal(raw[rep], want), (words, rep)

    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    @pytest.mark.parametrize("lane", sorted(_LANE_SALTS))
    def test_chunked_philox_matches_numpy_at_chunk_boundaries(self, seed, lane):
        # the block runs over chunks of replications; the rows on each side of a chunk
        # boundary, and the last row of a short last chunk, are numpy's words
        for words in (1, 4, 5, 24):
            chunk = engine._PHILOX_CHUNK_WORDS // -(-words // 4)
            for reps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
                starts, blocks = zip(*_philox_chunks(seed, reps, words, lane))
                assert starts == tuple(range(0, reps, chunk))
                raw = np.vstack(blocks)
                assert raw.shape == (reps, words)
                edges = {0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, reps - 1}
                for rep in sorted(edges & set(range(reps))):
                    key = np.array([(seed ^ _LANE_SALTS[lane]) & engine._U64, rep], dtype=np.uint64)
                    want = np.random.Philox(key=key).random_raw(words)
                    assert np.array_equal(raw[rep], want), (words, reps, rep)


DRAW_SAMPLERS = {
    "rademacher": rademacher_sampler(),
    "weighted": alphabet_sampler([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5]),
    "unnormalised": alphabet_sampler([-1.0, 0.5, 2.0], [2.0, 3.0, 5.0]),
    "zero_weight": alphabet_sampler([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),
    "dyadic": alphabet_sampler([-1.0, 0.0, 1.0], [0.5, 0.25, 0.25]),
    "uniform": uniform_sampler(-2.0, 5.0),
}


class TestDrawData:
    @pytest.mark.parametrize("name", sorted(DRAW_SAMPLERS))
    @pytest.mark.parametrize("n", [1, 3, 4, 7, 24])
    def test_matches_per_replication_streams(self, name, n):
        sampler = DRAW_SAMPLERS[name]
        X = draw_data(sampler, n, 6, seed=2**63 + 5)
        want = np.array([sampler.draw(_stream(2**63 + 5, i), n) for i in range(6)])
        assert X.shape == (6, n)
        assert np.array_equal(X.view(np.uint64), want.view(np.uint64))

    def test_alphabet_ties_go_right(self):
        # Generator.choice searches its cdf from the right: u = 0.5, the word 2^63, draws +1,
        # and the word below it, u = 0.5 - 2^-53, draws -1
        words = np.array([0, 2**63 - 1, 2**63], dtype=np.uint64)
        assert rademacher_sampler().from_words(words).tolist() == [-1.0, -1.0, 1.0]

    @pytest.mark.parametrize("name", ["weighted", "zero_weight", "dyadic"])
    def test_words_at_a_cut_draw_as_their_doubles(self, name):
        # words whose double is a cdf value, or a neighbour of one, pick the symbol that
        # Generator.choice's search of its cdf for that double picks
        sampler = DRAW_SAMPLERS[name]
        values, weights = sampler.alphabet
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        # word >> 11 around each cut c 2^53, with the low 11 bits clear and set
        near = {int(c * 2.0**53) + k for c in cdf for k in (-1, 0, 1)} | {0, 2**53 - 1}
        words = np.array([(s << 11) | low for s in sorted(near) if 0 <= s < 2**53
                          for low in (0, 2047)], dtype=np.uint64)
        codes = cdf.searchsorted((words >> np.uint64(11)) * 2.0**-53, "right")
        assert np.array_equal(sampler.from_words(words.copy()), values[codes])
        # simulate_panel's symbol counts read the same map of the weights: one word per row
        counts = engine._symbol_counts(engine._symbols(weights)(words[:, None]), values.size)
        assert np.array_equal(counts, np.eye(values.size, dtype=int)[codes])

    @pytest.mark.parametrize("name", sorted(DRAW_SAMPLERS))
    def test_builds_no_generator(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-replication generator was built")

        monkeypatch.setattr(engine, "_stream", refuse)
        assert draw_data(DRAW_SAMPLERS[name], 5, 4, seed=11).shape == (4, 5)

    def test_word_mapped_draw_peak_memory(self):
        # each Philox chunk is mapped into the float panel as it is made: the peak holds the
        # 20 000 x 24 panel (3.7 MiB) and a chunk's buffers, not a uint64 copy of the panel
        draw_data(uniform_sampler(-2, 5), 24, 100, seed=11)
        tracemalloc.start()
        try:
            draw_data(uniform_sampler(-2, 5), 24, 20_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSamplers:
    def test_alphabet_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            alphabet_sampler([1.0, 1.0])
        with pytest.raises(ValueError, match="weights"):
            alphabet_sampler([1.0, 2.0], [0.5])

    def test_alphabet_weights_normalized(self):
        s = alphabet_sampler([0.0, 1.0], [2.0, 6.0])
        assert np.allclose(s.alphabet[1], [0.25, 0.75])

    def test_rademacher_balance(self):
        x = rademacher_sampler().draw(_stream(1, 0), 20000)
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert abs(x.mean()) < 0.03

    def test_pareto_magnitude_and_sign(self):
        x = pareto_sampler(3.0).draw(_stream(2, 0), 20000)
        assert np.all(np.abs(x) >= 1.0)
        assert abs(np.mean(np.sign(x))) < 0.03

    def test_lognormal_moments(self):
        x = lognormal_sampler(0.8).draw(_stream(3, 0), 400000)
        want = math.exp(0.8 ** 2 * 2.0 / 2.0)  # |X|_2 = exp(sigma^2 p / 2), p = 2
        got = math.sqrt(np.mean(x * x))
        assert got == pytest.approx(want, rel=0.05)

    def test_parse_round_trips(self):
        assert sampler_from("sampler.name = normal").name == "normal"
        assert sampler_from("sampler.name = pareto\nsampler.a = 3").name == "pareto"
        assert sampler_from("sampler.name = lognormal\nsampler.sigma = 0.5").name == "lognormal"
        s = sampler_from(
            "sampler.name = alphabet\nsampler.values = -1,0,1\nsampler.weights = 0.25,0.5,0.25"
        )
        assert np.allclose(s.alphabet[0], [-1.0, 0.0, 1.0])
        assert np.allclose(s.alphabet[1], [0.25, 0.5, 0.25])
        with pytest.raises(ConfigError, match="must be one of"):
            sampler_from("sampler.name = cauchy")
        with pytest.raises(ConfigError, match="missing required key 'sampler.a'"):
            sampler_from("sampler.name = pareto")
        with pytest.raises(ConfigError, match="cfg:2: sampler.a must be a finite number"):
            sampler_from("sampler.name = pareto\nsampler.a = a=3")

    def test_uniform_bounds(self):
        x = uniform_sampler(-2.0, 5.0).draw(_stream(4, 0), 1000)
        assert x.min() >= -2.0 and x.max() < 5.0
        with pytest.raises(ValueError):
            uniform_sampler(1.0, 1.0)


class TestKernels:
    def test_product_and_sum_values(self):
        kp = make_kernel("product")
        ks = make_kernel("sum", shift=1.0)
        xs = (np.array([2.0]), np.array([3.0]))
        assert kp.fn(xs, "t0")[0] == 6.0
        assert ks.fn(xs, "t0")[0] == 3.0

    def test_half_sq_diff(self):
        k = make_kernel("half_sq_diff")
        assert k.fn((np.array([3.0]), np.array([1.0])), "t0")[0] == 2.0
        with pytest.raises(ValueError, match="degree 2"):
            make_kernel("half_sq_diff", 3)

    def test_gprod_shapes(self):
        k = make_kernel("gprod", 2, g="sin", t_grid=[0.5, 1.0])
        xs = (np.array([1.0]), np.array([2.0]))
        assert k.fn(xs, 0.5)[0] == pytest.approx(math.sin(0.5) * math.sin(1.0))
        with pytest.raises(ValueError, match="gprod"):
            make_kernel("gprod", 2, g="cos", t_grid=[1.0])
        with pytest.raises(ValueError, match="t_grid"):
            make_kernel("gprod", 2)

    def test_table_kernel_lookup(self):
        k = make_kernel("table", values=[-1.0, 1.0], table=[[10.0, 0.0], [20.0, 5.0]])
        assert k.degree == 1
        assert k.fn((np.array([1.0]),), "t0")[0] == 20.0
        assert k.fn((np.array([-1.0]),), "t1")[0] == 0.0
        # off its values the table has no entry: no neighbouring row is read instead
        for x in (0.5, -3.0, 2.0, np.nan):
            with pytest.raises(ValueError, match="table kernel"):
                k.fn((np.array([1.0, x]),), "t0")


class TestUStatistic:
    def test_pairs_oracle(self):
        vals, kind, count, _ = u_statistic_panel(make_kernel("product"), [[1.0, 2.0, 3.0]])
        assert vals[0, 0] == pytest.approx(11.0 / 3.0, abs=1e-12)
        assert kind == "exact"
        assert count == 3

    def test_needs_more_than_degree(self):
        with pytest.raises(ValueError, match="degree"):
            u_statistic_panel(make_kernel("product"), [[1.0, 2.0]])

    def test_half_sq_diff_is_sample_variance(self):
        x = np.array([0.3, -1.2, 2.0, 0.7, -0.4])
        vals = u_statistic_panel(make_kernel("half_sq_diff"), x[None, :])[0]
        assert vals[0, 0] == pytest.approx(np.var(x, ddof=1), abs=1e-12)

    def test_budget_switches_to_incomplete(self, monkeypatch):
        # a user kernel, with no closed form, gathers tuples and so has a budget
        monkeypatch.setattr(engine, "EXACT_TUPLE_BUDGET", 1000)
        x = _stream(0, 0).standard_normal(300)
        k = dataclasses.replace(make_kernel("product"), closed_form=None)
        _, kind, count, notes = u_statistic_panel(k, x[None, :])
        assert kind == "incomplete"
        assert count == 1000
        assert notes

    def test_budget_leaves_closed_form_exact(self):
        x = draw_data(rademacher_sampler(), 2100, 4, seed=3)
        k = make_kernel("product")
        vals, kind, count, notes = u_statistic_panel(k, x)
        assert (kind, count, notes) == ("exact", math.comb(2100, 2), [])
        assert math.comb(2100, 2) > engine.EXACT_TUPLE_BUDGET
        # ((sum x)^2 - n) / 2 pairs, exact in integers for +-1 data
        sums = x.sum(axis=1)
        assert np.array_equal(vals[:, 0], (sums**2 - 2100) / 2 / math.comb(2100, 2))

    def test_incomplete_clamps_to_exact(self):
        k = make_kernel("product")
        _, kind, _, notes = u_statistic_panel(k, [[1.0, 2.0, 3.0]], 3)
        assert kind == "exact"
        assert notes
        assert u_statistic_panel(k, [[1.0, 2.0, 3.0]], 2)[1] == "incomplete"

    def test_incomplete_needs_positive(self):
        with pytest.raises(ValueError, match="at least one"):
            u_statistic_panel(make_kernel("product"), [[1.0, 2.0, 3.0]], 0)

    @pytest.mark.parametrize("law", ["normal", "rademacher", "pareto"])
    def test_closed_form_matches_gather(self, law):
        sampler = {
            "normal": normal_sampler(), "rademacher": rademacher_sampler(),
            "pareto": pareto_sampler(1.5),
        }[law]
        X = draw_data(sampler, 9, 40, seed=3)
        grid = [0.3, 1.0, 2.5]
        kernels = [make_kernel("half_sq_diff")]
        table = make_kernel("table", values=[-1.0, 1.0], table=[[0.5, -2.0], [3.0, 1.0]])
        if law == "rademacher":
            kernels.append(table)
        else:  # a table kernel is defined on its values alone
            with pytest.raises(ValueError, match="table kernel"):
                u_statistic_panel(table, X)
        for d in range(1, 5):
            kernels += [make_kernel("product", d, shift=0.4), make_kernel("sum", d)]
            kernels += [make_kernel("gprod", d, g=g, t_grid=grid) for g in ("sin", "tanh", "identity")]
        for k in kernels:
            assert k.closed_form is not None, k.name
            gather = dataclasses.replace(k, closed_form=None)
            size = dataclasses.replace(gather, fn=lambda xs, t, fn=k.fn: np.abs(fn(xs, t)))
            closed = u_statistic_panel(k, X)[0]
            scale = u_statistic_panel(size, X)[0]
            err = np.abs(closed - u_statistic_panel(gather, X)[0])
            assert np.all(err <= 1e-12 * scale), (k.name, k.degree, float(np.max(err / scale)))

    def test_incomplete_unbiased(self):
        # average incomplete estimates over replications against the exact value
        rad = rademacher_sampler()
        k = make_kernel("sum")
        X = draw_data(rad, 12, 4000, seed=77)
        exact = u_statistic_panel(k, X)[0]
        inc = u_statistic_panel(k, X, 20, seed=77)[0]
        assert np.mean(inc - exact) == pytest.approx(0.0, abs=0.01)


def _permute_rows(X, seed):
    """X with an independent random permutation applied to each row."""
    rng = _stream(seed, 0)
    return np.array([row[rng.permutation(row.size)] for row in X])


def _user_kernel():
    """A symmetric degree-2 kernel with no closed form, averaged by gathering tuples."""
    def fn(xs, t):
        return np.abs(xs[0] - xs[1]) * (xs[0] + xs[1]) + t * xs[0] * xs[1]

    return engine.Kernel("user", 2, (0.5, 2.0), fn)


class TestOrderInvariance:
    KERNELS = {
        "product": lambda: make_kernel("product", 3, shift=0.25),
        "sum": lambda: make_kernel("sum", 2),
        "gprod": lambda: make_kernel("gprod", 2, g="tanh", t_grid=[0.4, 1.3, 2.6]),
        "half_sq_diff": lambda: make_kernel("half_sq_diff"),
        "table": lambda: make_kernel("table", values=[-1.3, 0.1, 2.7],
                                     table=[[0.5, -2.0], [3.0, 1.0], [-0.7, 0.1]]),
        "user": _user_kernel,
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("law", ["alphabet", "normal"])
    def test_exact_rows_ignore_sample_order(self, name, law):
        # exact averaging reads each sample in a canonical order, bit for bit
        sampler = {"alphabet": alphabet_sampler([-1.3, 0.1, 2.7]), "normal": normal_sampler()}[law]
        X = draw_data(sampler, 9, 300, seed=31)
        k = self.KERNELS[name]()
        if (name, law) == ("table", "normal"):  # a table kernel is defined on its values alone
            with pytest.raises(ValueError, match="table kernel"):
                u_statistic_panel(k, X)
            return
        base, kind, _, _ = u_statistic_panel(k, X)
        assert kind == "exact"
        for seed in (1, 2):
            assert np.array_equal(u_statistic_panel(k, _permute_rows(X, seed))[0], base), seed

    def test_equal_samples_give_equal_rows(self):
        # 10 Rademacher observations have 11 types, so at most 11 distinct field rows
        k = make_kernel("gprod", 2, g="tanh", t_grid=[0.4, 1.3, 2.6])
        X = draw_data(rademacher_sampler(), 10, 2000, seed=32)
        vals = u_statistic_panel(k, X)[0]
        sums = X.sum(axis=1)  # the type: how many observations are +1
        for s in np.unique(sums):
            same = vals[sums == s]
            assert np.array_equal(same, np.broadcast_to(same[0], same.shape)), s
        assert np.unique(vals, axis=0).shape[0] <= 11

    def test_simulate_sorts_its_draw_as_a_copy_would(self):
        k = make_kernel("gprod", 2, g="tanh", t_grid=[0.4, 1.3])
        rad = rademacher_sampler()
        fld = simulate_panel(k, rad, 12, 500, seed=33)
        X = draw_data(rad, 12, 500, seed=33)
        U = u_statistic_panel(k, X)[0]
        assert not np.all(X[:, 1:] >= X[:, :-1])  # the caller's panel is not reordered
        means = np.array([dec.mean for dec in fld.decomposition])
        rows, counts = distinct_rows(deviation_scale(12, fld.meta["rank"]) * (U - means))
        assert np.array_equal(fld.values, rows) and np.array_equal(fld.counts, counts)

    def test_incomplete_reads_the_drawn_order(self):
        # the index tuples address drawn positions, so the values are those of a gather
        # over the drawn tuples; the pinned values would move if the sample were sorted
        k = make_kernel("gprod", 2, g="sin", t_grid=[0.5, 1.5])
        X = draw_data(normal_sampler(), 10, 3, seed=21)
        got, kind, count, _ = u_statistic_panel(k, X, 7, seed=21)
        assert (kind, count) == ("incomplete", 7)
        for i in range(3):
            idx = _sample_tuples(_stream(21, i, "tuples"), 10, 2, 7)
            assert np.array_equal(got[i], engine.u_statistic_matrix(k, X[i : i + 1], idx)[0])
        assert got.tolist() == [
            [0.08049173248244924, 0.21700390568048158],
            [-0.0669124163508255, -0.022127013133791108],
            [0.012493099234320551, 0.08812059016528437],
        ]
        fld = simulate_panel(k, normal_sampler(), 10, 3, 21, rank=1, mean_per_t=[0.0, 0.0],
                             subsets=7)
        assert np.array_equal(fld.values, math.sqrt(10.0) * got)


def _one_replication_at_a_time(k, X):
    """Exact averaging of each row on its own: the closed form, else a gather of every subset."""
    rows = []
    for x in np.sort(X, axis=1):
        x = x[None, :]
        if k.closed_form is not None:
            rows.append([k.closed_form(x, t)[0] for t in k.t_grid])
        else:
            rows.append(engine.u_statistic_matrix(k, x, engine._index_tuples(x.size, k.degree))[0])
    return np.array(rows)


class TestDistinctSamples:
    @pytest.mark.parametrize("name", sorted(TestOrderInvariance.KERNELS))
    @pytest.mark.parametrize("law, reps", [("alphabet", 400), ("normal", 60), ("alphabet", 1)])
    def test_matches_one_replication_at_a_time(self, name, law, reps):
        # each distinct sorted sample is averaged once, and its row copied bit for bit
        sampler = {"alphabet": alphabet_sampler([-1.3, 0.1, 2.7]), "normal": normal_sampler()}[law]
        X = draw_data(sampler, 7, reps, seed=41)
        k = TestOrderInvariance.KERNELS[name]()
        if (name, law) == ("table", "normal"):  # a table kernel is defined on its values alone
            with pytest.raises(ValueError, match="table kernel"):
                u_statistic_panel(k, X)
            return
        got, kind, _, _ = u_statistic_panel(k, X)
        assert kind == "exact"
        assert np.array_equal(got, _one_replication_at_a_time(k, X))

    @pytest.mark.parametrize("law", ["rademacher", "weighted", "uniform"])
    @pytest.mark.parametrize("subsets", [None, 7])
    def test_field_is_the_law_of_the_replication_panel(self, law, subsets):
        # simulate_panel folds an alphabet draw before averaging; its field equals, in
        # values, counts and row order, the fold of the panel averaged replication by
        # replication, centred and scaled
        k = make_kernel("gprod", 2, g="tanh", t_grid=[0.4, 1.3, 2.6])
        sampler = DRAW_SAMPLERS[law]
        given = {"rank": 1, "mean_per_t": [0.1, -0.2, 0.3]} if law == "uniform" else {}
        fld = simulate_panel(k, sampler, 9, 700, 37, subsets=subsets, **given)
        U = u_statistic_panel(k, draw_data(sampler, 9, 700, 37), subsets, seed=37)[0]
        means = given.get("mean_per_t") or [dec.mean for dec in fld.decomposition]
        want = FieldSamples(k.t_grid, deviation_scale(9, fld.meta["rank"]) * (U - means))
        assert fld.values.shape[0] < 700 or law == "uniform"
        assert np.array_equal(fld.values.view(np.uint64), want.values.view(np.uint64))
        assert np.array_equal(fld.counts, want.counts)

    def test_narrow_exact_averages_one_sample_per_type(self, monkeypatch):
        # the closed form sees one row per Rademacher type, n + 1 = 25, not 20000 replications
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        workload = importlib.import_module("workloads").WORKLOADS["narrow_exact"]
        cfg = Config.from_text(workload.config_text(), path="narrow_exact")
        kernel, sampler = build_law(cfg)
        n, reps, seed = (cfg.get_int(key) for key in ("run.n", "run.reps", "run.seed"))
        rows = []

        def counted(X, t, closed_form=kernel.closed_form):
            rows.append(X.shape[0])
            return closed_form(X, t)

        fld = simulate_panel(dataclasses.replace(kernel, closed_form=counted), sampler, n, reps, seed)
        assert (n, reps, seed) == (24, 20000, 11)
        assert len(rows) == len(kernel.t_grid) and max(rows) <= n + 1
        assert np.array_equal(fld.values, simulate_panel(kernel, sampler, n, reps, seed).values)


class TestSampleTuples:
    @given(st.integers(0, 1000))
    def test_rows_distinct_and_in_range(self, seed):
        idx = _sample_tuples(_stream(seed, 0), 9, 3, 50)
        assert idx.shape == (50, 3)
        assert idx.min() >= 0 and idx.max() < 9
        assert all(len(set(row)) == 3 for row in idx)


class TestDecomposition:
    def test_rademacher_product(self):
        dec = hoeffding_decompose(make_kernel("product"), rademacher_sampler())
        assert np.allclose(dec.zetas, [0.0, 1.0])
        assert dec.rank == 2
        assert dec.mean == pytest.approx(0.0, abs=1e-15)

    def test_rademacher_sum(self):
        dec = hoeffding_decompose(make_kernel("sum"), rademacher_sampler())
        assert np.allclose(dec.zetas, [1.0, 0.0])
        assert dec.rank == 1

    def test_constant_kernel_degenerate(self):
        k = make_kernel("table", values=[-1.0, 1.0], table=[[2.0], [2.0]])
        dec = hoeffding_decompose(k, rademacher_sampler())
        assert dec.degenerate
        assert dec.mean == pytest.approx(2.0)
        assert dec.rank == 1  # rank pinned at the degree for constant kernels

    def test_requires_alphabet(self):
        with pytest.raises(ValueError, match="sampler 'normal' has no finite alphabet"):
            hoeffding_decompose(make_kernel("product"), normal_sampler())

    def test_projection_orthogonality_weighted_alphabet(self):
        values = np.array([-1.0, 0.5, 2.0])
        probs = np.array([0.2, 0.3, 0.5])
        dec = hoeffding_decompose(make_kernel("product", shift=0.3), alphabet_sampler(values, probs))
        g1, g2 = dec.terms
        assert float(g1 @ probs) == pytest.approx(0.0, abs=1e-14)
        assert float(probs @ g2 @ probs) == pytest.approx(0.0, abs=1e-14)
        # conditional mean of the canonical second term vanishes coordinatewise
        assert np.allclose(g2 @ probs, 0.0, atol=1e-14)
        # cross term E[g1(X1) g2(X1, X2)]
        cross = float(g1 @ (g2 @ probs) * 1.0)
        assert cross == pytest.approx(0.0, abs=1e-14)

    def test_variance_matches_brute_force_small(self):
        values = np.array([-1.0, 0.5, 2.0])
        probs = np.array([0.2, 0.3, 0.5])
        dec = hoeffding_decompose(make_kernel("product", shift=0.3), alphabet_sampler(values, probs))
        n = 4
        pairs = list(combinations(range(n), 2))
        mean, second = 0.0, 0.0
        for assign in np.ndindex(*([3] * n)):
            w = float(np.prod(probs[list(assign)]))
            x = values[list(assign)]
            u = float(np.mean([(x[i] - 0.3) * (x[j] - 0.3) for i, j in pairs]))
            mean += w * u
            second += w * u * u
        assert dec.mean == pytest.approx(mean, abs=1e-12)
        assert variance_value(dec, n) == pytest.approx(second - mean ** 2, abs=1e-12)

    def test_degree_one_variance(self):
        k = make_kernel("table", values=[-1.0, 1.0], table=[[-1.0], [1.0]])
        dec = hoeffding_decompose(k, rademacher_sampler())
        assert variance_value(dec, 10) == pytest.approx(0.1)

    @given(st.integers(0, 200))
    def test_orthogonality_random_alphabets(self, seed):
        rng = np.random.default_rng(seed)
        values = np.sort(rng.normal(size=3)) + np.array([0.0, 0.5, 1.0])
        probs = rng.dirichlet(np.ones(3))
        k = make_kernel("product", shift=float(rng.normal()))
        dec = hoeffding_decompose(k, alphabet_sampler(values, probs))
        g1, g2 = dec.terms
        scale = max(1.0, float(np.max(np.abs(g2))))
        assert abs(float(g1 @ probs)) < 1e-12 * scale
        assert np.all(np.abs(g2 @ probs) < 1e-12 * scale)

    @pytest.mark.parametrize("name", ["product", "sum", "gprod", "table"])
    def test_closed_form_matches_tensor_table(self, name):
        # the factor kernels' closed form against the brute-force tensor decomposition
        rng = np.random.default_rng(["product", "sum", "gprod", "table"].index(name))
        for _ in range(40):
            k_values = int(rng.integers(1, 5))
            values = np.sort(rng.normal(size=k_values)) + np.arange(k_values)
            probs = rng.dirichlet(np.ones(k_values))
            d = 1 if name == "table" else int(rng.integers(1, 5))
            if name == "gprod":
                g = ("sin", "tanh", "identity")[int(rng.integers(3))]
                k = make_kernel(name, d, g=g, t_grid=[float(rng.uniform(0.2, 3.0))])
            elif name == "table":
                k = make_kernel(name, values=values, table=rng.normal(size=(k_values, 1)))
            else:
                k = make_kernel(name, d, shift=float(rng.normal()))
            sampler = alphabet_sampler(values, probs)
            closed = hoeffding_decompose(k, sampler)
            tabulated = dataclasses.replace(k, alphabet_decomposition=None)
            table = hoeffding_decompose(tabulated, sampler)
            assert abs(closed.mean - table.mean) <= 1e-12 * max(1.0, abs(table.mean))
            scale = max(float(table.zetas.max()), 1e-300)
            assert np.all(np.abs(closed.zetas - table.zetas) <= 1e-12 * scale)
            assert (closed.rank, closed.degenerate) == (table.rank, table.degenerate)
            for got, want in zip(closed.terms, table.terms):
                assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


class TestVariance:
    def test_degenerate_product_values(self):
        dec = hoeffding_decompose(make_kernel("product"), rademacher_sampler())
        assert variance_value(dec, 4) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_rank_one_sum_slope(self):
        dec = hoeffding_decompose(make_kernel("sum"), rademacher_sampler())
        # U reduces to twice the sample mean, so Var = 4/n exactly, a log-log slope of -1
        assert variance_value(dec, 64) == pytest.approx(4.0 / 64.0, abs=1e-15)
        grid = np.array([16, 32, 64, 128, 256])
        logs = np.log([variance_value(dec, int(n)) for n in grid])
        assert np.polyfit(np.log(grid), logs, 1)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_needs_n_beyond_degree(self):
        dec = hoeffding_decompose(make_kernel("product"), rademacher_sampler())
        with pytest.raises(ValueError, match="n > degree"):
            variance_value(dec, 2)


class TestNormalization:
    def test_scales(self):
        assert deviation_scale(16, 2) == pytest.approx(16.0)
        assert deviation_scale(16, 1) == pytest.approx(4.0)


class TestSimulatePanel:
    def test_reproducible_and_chunk_invariant(self):
        k = make_kernel("product")
        rad = rademacher_sampler()
        a = simulate_panel(k, rad, 12, 400, seed=5)
        b = simulate_panel(k, rad, 12, 400, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self):
        k = make_kernel("product")
        rad = rademacher_sampler()
        a = simulate_panel(k, rad, 12, 50, seed=5)
        b = simulate_panel(k, rad, 12, 50, seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_rank_required_without_alphabet(self):
        with pytest.raises(ValueError, match="rank"):
            simulate_panel(make_kernel("product"), normal_sampler(), 10, 20, seed=1)

    @pytest.mark.parametrize("rank", [0, -3, 1.5, np.inf])
    def test_rank_is_a_positive_integer(self, rank):
        for sampler in (normal_sampler(), rademacher_sampler()):
            with pytest.raises(ValueError, match="rank must be an integer of at least 1"):
                simulate_panel(make_kernel("product"), sampler, 10, 20, seed=1, rank=rank)

    def test_constant_column_centred_exactly(self):
        # a grand-MC column whose replications all give one statistic deviates by exactly 0;
        # its rounded average misses that statistic by ulps (9.6e-17 here)
        def fn(xs, t):
            return np.full(np.shape(xs[0]), 0.3) if t == "flat" else xs[0]

        law = uniform_sampler(-1.0, 2.0)
        k = engine.Kernel("flat", 1, ("flat", "x"), fn)
        fld = simulate_panel(k, law, 3, 27, seed=11, rank=1)
        assert fld.meta["mean_source"] == "grand_mc"
        assert not fld.values[:, 0].any() and fld.values[:, 1].any()
        k = engine.Kernel("flat", 1, ("flat", "flat too"), lambda xs, t: fn(xs, "flat"))
        with pytest.raises(ValueError, match="identically zero"):
            simulate_panel(k, law, 3, 27, seed=11, rank=1)

    def test_non_finite_cells_are_counted_over_replications(self):
        # an alphabet draw is folded to its distinct samples before averaging; the refusal
        # still counts the cells of every replication.  The law's variance overflows, so
        # its decomposition is refused before any draw unless the (zero) mean is given.
        law = alphabet_sampler([-1e200, 1e200])
        with pytest.raises(ValueError, match="decomposition at t = t0 is not finite"):
            simulate_panel(make_kernel("product"), law, 8, 600, seed=5, rank=1)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^600 of 600 field cells are not finite"):
                simulate_panel(make_kernel("product"), law, 8, 600, seed=5, rank=1,
                               mean_per_t=[0.0])

    @pytest.mark.parametrize("law", [
        ([-1.0, 1.0], None),
        ([2.0, -1.0, 0.5], [5.0, 2.0, 3.0]),  # unsorted, weights not normalised
        ([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),
        # more symbols than observations, so most counts of a type are 0
        ([0.3, -2.0, 1.5, 0.0, -0.7, 4.0, 2.2, -1.1, 0.9], [3, 1, 0, 2, 5, 1, 1, 4, 2]),
    ], ids=["rademacher", "unsorted", "zero_weight", "many_symbols"])
    @pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
    def test_alphabet_fold_matches_the_sorted_panel(self, law, seed):
        # exact averaging under an alphabet law keys the draw by type chunk by chunk; the field is
        # bit for bit the distinct rows of the row-sorted panel, averaged and centred
        sampler = alphabet_sampler(*law)
        k = make_kernel("gprod", 2, g="tanh", t_grid=[0.4, 1.3])
        for n in (7, 8, 256):
            chunk = engine._PHILOX_CHUNK_WORDS // -(-n // 4)
            for reps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
                fld = simulate_panel(k, sampler, n, reps, seed)
                rows, counts = distinct_rows(np.sort(draw_data(sampler, n, reps, seed), axis=1))
                U = u_statistic_panel(k, rows)[0]
                means = np.array([dec.mean for dec in fld.decomposition])
                want = FieldSamples(k.t_grid, deviation_scale(n, fld.meta["rank"]) * (U - means),
                                    counts)
                assert np.array_equal(fld.values.view(np.uint64), want.values.view(np.uint64))
                assert np.array_equal(fld.counts, want.counts), (n, reps)
                assert fld.replications == reps

    def test_alphabet_fold_counts_a_sample_of_one_symbol(self):
        # every one of n = 256 draws is the heavy symbol, a count one byte cannot hold
        sampler = alphabet_sampler([1.0, 0.0], [1.0, 1e-12])
        X, counts = engine._draw_types(sampler, 256, 5, seed=0)
        assert np.array_equal(X, np.ones((1, 256))) and np.array_equal(counts, [5.0])

    def test_alphabet_fold_builds_no_panel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew the panel")

        monkeypatch.setattr(engine, "draw_data", refuse)
        fld = simulate_panel(make_kernel("product"), rademacher_sampler(), 10, 500, seed=3)
        assert fld.replications == 500
        with pytest.raises(AssertionError, match="drew the panel"):  # incomplete draws it
            simulate_panel(make_kernel("product"), rademacher_sampler(), 10, 500, seed=3,
                           subsets=7)

    def test_hand_built_alphabet_is_counted_by_type(self, monkeypatch):
        # a Sampler given only a draw and an alphabet is drawn from its weights, counted by
        # type and averaged once per distinct sorted sample: the field is alphabet_sampler's
        law = ([2.0, -1.0, 0.5], [0.5, 0.2, 0.3])
        bare = engine.Sampler("bare", alphabet_sampler(*law).draw, alphabet_sampler(*law).alphabet)
        k = make_kernel("gprod", 2, g="tanh", t_grid=[0.4, 1.3])
        seen, average = [], engine.u_statistic_panel

        def counted(kernel, X, *args, **kwargs):
            seen.append(len(X))
            return average(kernel, X, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("drew the panel")

        monkeypatch.setattr(engine, "u_statistic_panel", counted)
        monkeypatch.setattr(engine, "draw_data", refuse)
        fld = simulate_panel(k, bare, 6, 300, seed=12)
        want = simulate_panel(k, alphabet_sampler(*law), 6, 300, seed=12)
        assert seen == [len(fld.counts), len(want.counts)] and len(fld.counts) < 300
        assert np.array_equal(fld.values.view(np.uint64), want.values.view(np.uint64))
        assert np.array_equal(fld.counts, want.counts)

    def test_alphabet_fold_peak_memory(self):
        # the fold holds a Philox chunk and a byte per symbol and replication, not the
        # 20 000 x 24 panel (3.7 MiB a copy, 11.6 MiB at the peak of the sort-and-unique
        # fold it replaced)
        k = make_kernel("gprod", 2, g="tanh", t_grid=np.linspace(0.2, 3.05, 20))
        simulate_panel(k, rademacher_sampler(), 24, 100, seed=11)
        tracemalloc.start()
        try:
            simulate_panel(k, rademacher_sampler(), 24, 20_000, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_no_replication_refused(self):
        with pytest.raises(ValueError, match="at least one replication"):
            simulate_panel(make_kernel("product"), rademacher_sampler(), 10, 0, seed=1)

    def test_grand_mc_mean_flagged(self):
        fld = simulate_panel(
            make_kernel("product"), normal_sampler(), 10, 200, seed=1, rank=2
        )
        assert fld.meta["mean_source"] == "grand_mc"
        assert np.allclose(fld.values.mean(axis=0), 0.0, atol=1e-12)

    def test_given_means_centre_the_field(self):
        # a continuous law centred at means the caller knows, not the panel's grand mean
        k = make_kernel("gprod", 2, g="tanh", t_grid=[0.5, 1.0, 2.0])
        given = np.array([0.1, -0.2, 0.3])
        fld = simulate_panel(k, normal_sampler(), 10, 200, seed=1, rank=1, mean_per_t=given)
        assert fld.meta["mean_source"] == "given"
        U = u_statistic_panel(k, draw_data(normal_sampler(), 10, 200, seed=1))[0]
        want = deviation_scale(10, 1) * (U - given)
        assert np.array_equal(fld.values.view(np.uint64), want.view(np.uint64))

    def test_exact_means_centre_exactly(self):
        k = make_kernel("product", shift=0.5)
        fld = simulate_panel(k, rademacher_sampler(), 10, 2000, seed=2)
        assert fld.meta["mean_source"] == "exact"
        # mean of (x-.5)(y-.5) is .25, removed before scaling, so the field is centred
        col = replicated(fld, 0)
        assert col.size == 2000
        assert abs(col.mean()) < 4.0 * col.std() / math.sqrt(2000)

    def test_normalized_variance_matches_formula(self):
        k = make_kernel("product")
        fld = simulate_panel(k, rademacher_sampler(), 16, 20000, seed=9)
        want = 2.0 * 16.0 / 15.0
        assert replicated(fld, 0).var() == pytest.approx(want, rel=0.05)

    def test_field_rank_partition(self):
        k = make_kernel("gprod", 2, g="identity", t_grid=[1.0, 2.0])
        rad = rademacher_sampler()
        decs = decompose_field(k, rad)
        assert [dec.rank for dec in decs] == [2, 2]
        fld = simulate_panel(k, rad, 12, 50, seed=5)
        assert fld.meta["rank"] == 2
        assert [dec.rank for dec in fld.decomposition] == [2, 2]

    def test_law_comes_from_sampler(self):
        # product of {0, 1} draws: mean 1/4, first projection nonzero, so rank 1
        fld = simulate_panel(make_kernel("product"), alphabet_sampler([0, 1]), 16, 2000, seed=1)
        assert fld.meta["rank"] == 1
        assert fld.decomposition[0].mean == pytest.approx(0.25)
        col = replicated(fld, 0)
        assert col.size == 2000
        assert abs(col.mean()) < 4.0 * col.std() / math.sqrt(2000)

    def test_factor_mean_matches_enumeration(self):
        values, weights = np.array([-1.0, 0.5, 2.0]), np.array([0.2, 0.3, 0.5])
        for name in ("product", "sum"):
            k = make_kernel(name, 5, shift=0.3)
            want = 0.0
            for cells in product(range(3), repeat=5):
                xs = tuple(values[list(cells)])
                want += float(np.prod(weights[list(cells)])) * float(k.fn(xs, "t0"))
            mean = k.alphabet_decomposition(values, weights, "t0")[0]
            assert mean == pytest.approx(want, rel=1e-13), name

    def test_given_rank_takes_factor_mean_without_decomposing(self, monkeypatch):
        # a factor kernel decomposes in closed form, at any degree, without the tensor table
        def refuse(*args, **kwargs):
            raise AssertionError("tabulated")

        monkeypatch.setattr(engine, "_tensor_decomposition", refuse)
        sampler = alphabet_sampler([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
        k = make_kernel("product", 5, shift=0.3)
        fld = simulate_panel(k, sampler, 8, 50, seed=1, rank=1)
        assert fld.meta["mean_source"] == "exact"
        assert fld.meta["rank"] == 1
        assert [dec.mean for dec in fld.decomposition] == [hoeffding_decompose(k, sampler).mean]

    def test_no_decomposition_without_alphabet(self):
        fld = simulate_panel(make_kernel("product"), normal_sampler(), 10, 20, seed=1, rank=2)
        assert fld.decomposition is None
