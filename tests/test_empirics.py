import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustattails import (
    FieldSamples,
    TailCurve,
    column_moments,
    empirical_moments,
    empirical_tail,
    envelope_distance,
    envelope_norm,
    natural_envelope,
    power_log_envelope,
)
from ustattails.config import resolve_grid
from ustattails.empirics import _atom_moments, _power_means, distinct_rows
from ustattails.envelopes import MomentTable, make_envelope
from ustattails.engine import _stream


LAWS = {
    "normal": lambda rng, size: rng.standard_normal(size),
    "lognormal": lambda rng, size: rng.lognormal(0.0, 3.0, size),
    "pareto": lambda rng, size: rng.pareto(1.5, size) + 1.0,
    "scaled_1e200": lambda rng, size: 1e200 * rng.choice([-1.0, 1.0], size) * rng.random(size),
    "zeros": lambda rng, size: rng.choice([0.0, -1.0, 3.0], size),
}


class TestPowerMeans:
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_matches_exact_arithmetic(self, law):
        # mean |x|^p summed in exact rationals, unweighted and weighted by counts c as
        # sum c |x|^p / sum c; the estimates are within a few ulps of it
        p = [2, 3, 4, 8, 16, 32]
        for seed in range(4):
            x = LAWS[law](_stream(seed, 0), 64)
            counts = _stream(seed, 1).integers(1, 50, x.size).astype(float)
            got = empirical_moments(x, np.array(p, dtype=float)).values
            weighted = _power_means(np.abs(x)[None, :], counts, p)[0]
            for c, values in ((np.ones(x.size), got), (counts, weighted)):
                total = sum(Fraction(ci) for ci in c.tolist())
                for pj, value in zip(p, values.tolist()):
                    mean = sum(
                        Fraction(ci) * Fraction(abs(v)) ** pj for ci, v in zip(c.tolist(), x.tolist())
                    ) / total
                    error = abs(Fraction(value) ** pj / mean - 1) / pj
                    assert error <= 1e-15, (seed, pj, float(error))

    def test_columns_with_different_zero_counts(self):
        X = _stream(16, 0).standard_normal((50, 4))
        X[:10, 1] = X[:35, 2] = X[:, 3] = 0.0
        p = np.array([2.0, 5.0, 16.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _atom_moments(*distinct_rows(X), p)
            want = [empirical_moments(X[:, j], p).values for j in range(4)]
        assert not np.isnan(got).any()
        assert np.all(got[3] == 0.0)
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _atom_moments(*distinct_rows(np.array([[1.0], [2.0], [bad], [-2.0]])), [2.0])


class TestDistinctRows:
    def test_distinct_rows_come_back_unchanged(self):
        # a continuous law: every row differs, so the order is kept and every count is 1
        X = _stream(17, 0).standard_normal((200, 5))
        rows, counts = distinct_rows(X)
        assert rows.tobytes() == X.tobytes()
        assert counts.dtype == float and np.all(counts == 1.0)

    def test_first_occurrence_order_and_counts(self):
        X = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3.0, -1.0], [0.0, 0.0], [1.0, 2.0]])
        rows, counts = distinct_rows(X)
        assert rows.tolist() == [[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]
        assert counts.tolist() == [3.0, 2.0, 1.0]

    def test_uneven_repeats_match_exact_arithmetic(self):
        # 9 distinct rows repeated 1..40 times in shuffled order; column moments and
        # distances at integer p agree with sums of c |x|^p over the atoms in rationals
        rng = _stream(18, 0)
        atoms = rng.standard_normal((9, 4))
        reps = np.array([1, 2, 3, 5, 8, 13, 21, 34, 40])
        values = rng.permutation(np.repeat(atoms, reps, axis=0))
        p = [2, 3, 4, 8, 16]
        total = int(reps.sum())

        def exact_mean(x, pj):
            return sum(c * Fraction(abs(v)) ** pj for c, v in zip(reps.tolist(), x.tolist())) / total

        def error(value, x, pj):
            return float(abs(Fraction(value) ** pj / exact_mean(x, pj) - 1) / pj)

        moments = _atom_moments(*distinct_rows(values), np.array(p, dtype=float))
        for j in range(4):
            for k, pj in enumerate(p):
                assert error(moments[j, k], atoms[:, j], pj) <= 1e-15, (j, pj)
        fld = FieldSamples(tuple("abcd"), values)
        unit = make_envelope("constant", value=1.0, p_sup=16.0)
        for pj in p:
            d = envelope_distance(fld, unit, p_grid=np.array([float(pj)]))
            for i in range(4):
                for j in range(i + 1, 4):
                    assert error(d[i, j], atoms[:, i] - atoms[:, j], pj) <= 1e-15, (i, j, pj)


class TestEmpiricalMoments:
    def test_constant_sample(self):
        tab = empirical_moments(np.full(50, 3.0), np.array([2.0, 4.0, 8.0]))
        assert np.allclose(tab.values, 3.0, atol=1e-12)

    def test_rademacher_sample(self):
        x = np.array([-1.0, 1.0] * 25)
        tab = empirical_moments(x, np.array([2.0, 5.0, 11.0]))
        assert np.allclose(tab.values, 1.0, atol=1e-12)

    def test_huge_values_survive(self):
        x = np.array([1e200, -1e200, 1e199, 5e199])
        tab = empirical_moments(x, np.array([2.0, 32.0, 64.0]))
        assert np.all(np.isfinite(tab.values))
        assert tab.values[-1] > 1e199

    def test_zeros_contribute_nothing(self):
        x = np.array([0.0, 0.0, 2.0, -2.0])
        tab = empirical_moments(x, np.array([2.0]))
        # second moment is (2 * 4) / 4 = 2, norm sqrt(2)
        assert tab.values[0] == pytest.approx(math.sqrt(2.0))

    def test_all_zero_sample(self):
        tab = empirical_moments(np.zeros(10), np.array([2.0, 4.0]))
        assert np.all(tab.values == 0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            empirical_moments(np.array([1.0]), np.array([2.0]))

    def test_low_confidence_flags(self):
        x = _stream(0, 0).standard_normal(20)
        tab = empirical_moments(x, np.array([2.0, 50.0]))
        assert not tab.low_confidence[0]
        assert tab.low_confidence[1]  # 50 > 4 ln 20

    def test_normal_fourth_moment(self):
        x = _stream(1, 0).standard_normal(200000)
        tab = empirical_moments(x, np.array([4.0]))
        assert tab.values[0] == pytest.approx(3.0 ** 0.25, rel=0.02)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "pareto", "lognormal", "sign", "zeros"]),
    )
    def test_lyapunov_monotone(self, seed, law):
        # power means are nondecreasing in p, so no repair step is needed
        rng = _stream(seed, 0)
        x = {
            "normal": lambda: rng.standard_normal(64),
            "pareto": lambda: rng.pareto(1.5, 64) + 1.0,
            "lognormal": lambda: rng.lognormal(0.0, 3.0, 64),
            "sign": lambda: 2.5 * rng.choice([-1.0, 1.0], 64),
            "zeros": lambda: rng.choice([0.0, -1.0, 3.0], 64),
        }[law]()
        p = np.geomspace(2.0, 32.0, 9)
        tab = empirical_moments(x, p)
        assert np.all(np.diff(tab.values) >= -1e-9 * max(1.0, tab.values.max()))
        la = [math.log(abs(v)) for v in x if v != 0.0]
        top = max(la)
        for pj, got in zip(p, tab.values):
            total = math.fsum(math.exp(pj * (v - top)) for v in la)
            want = math.exp(top + (math.log(total) - math.log(x.size)) / pj)
            assert got == pytest.approx(want, rel=1e-13)


class TestFieldSamples:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            FieldSamples(("a",), np.zeros(3))
        with pytest.raises(ValueError, match="label count"):
            FieldSamples(("a", "b"), np.zeros((3, 3)))

    def test_sup_abs(self):
        fld = FieldSamples(("a", "b"), np.array([[1.0, -3.0], [0.5, 2.0]]))
        assert np.allclose(fld.sup_abs(), [3.0, 2.0])

    def test_counts_validation(self):
        with pytest.raises(ValueError, match="one count per row"):
            FieldSamples(("a",), np.zeros((3, 1)), [1.0, 2.0])
        for bad in (0.0, -1.0, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive integers"):
                FieldSamples(("a",), np.zeros((2, 1)), [1.0, bad])

    def test_values_cannot_change_under_the_kept_atoms(self):
        # the field is folded to its distinct rows and counts once, and the sup sample is
        # computed once, so the field is frozen and its arrays read-only; the array handed
        # in stays the caller's, writable
        given = np.array([[1.0, -3.0], [1.0, -3.0], [0.5, 2.0]])
        fld = FieldSamples(("a", "b"), given)
        assert np.array_equal(fld.values, [[1.0, -3.0], [0.5, 2.0]])
        assert fld.counts.tolist() == [2.0, 1.0] and fld.replications == 3
        assert fld.sup_abs() is fld.sup_abs()
        with pytest.raises(dataclasses.FrozenInstanceError):
            fld.values = np.zeros((3, 2))
        for kept in (fld.values, fld.counts, fld.sup_abs()):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 7.0
        assert given.flags.writeable


class TestFoldInvariance:
    # five atoms: the first two share their supremum (2.0), the third and fourth differ
    # only by the sign of a zero
    ATOMS = np.array([
        [0.5, -1.0, 2.0],
        [-2.0, 0.5, 1.0],
        [0.0, 1.0, -0.25],
        [-0.0, 1.0, -0.25],
        [1.5, 0.0, -1.0],
    ])
    REPS = np.array([5, 3, 4, 2, 6])

    def fields(self):
        """The replication matrix X, and the field built from X, from its distinct rows with
        counts, and from two halves of X each folded apart (rows repeated across halves)."""
        X = _stream(19, 0).permutation(np.repeat(self.ATOMS, self.REPS, axis=0))
        labels = ("a", "b", "c")
        halves = [distinct_rows(half) for half in (X[:9], X[9:])]
        rows, counts = distinct_rows(X)
        return X, [
            FieldSamples(labels, X),
            FieldSamples(labels, rows, counts),
            FieldSamples(labels, np.concatenate([r for r, _ in halves]),
                         np.concatenate([c for _, c in halves])),
        ]

    def test_folds_agree_bit_for_bit(self):
        X, fields = self.fields()
        p = np.geomspace(2.0, 12.0, 6)
        u = np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5])
        first = fields[0]
        assert first.values.shape[0] == 5 and first.replications == X.shape[0]
        env = natural_envelope(first, p)
        sup = np.max(np.abs(X), axis=1)  # one supremum per replication

        def bits(x):
            return np.asarray(x, dtype=float).tobytes()

        seen = list(dict.fromkeys(row.tobytes() for row in X))  # first-occurrence order
        for fld in fields:
            assert [row.tobytes() for row in fld.values] == seen
            assert fld.counts.tolist() == [sum(r.tobytes() == k for r in X) for k in seen]
            assert [bits(t.values) for t in column_moments(fld, p)] == [
                bits(t.values) for t in column_moments(first, p)]
            assert bits(envelope_distance(fld, env, p_grid=p)) == bits(
                envelope_distance(first, env, p_grid=p))
            sup_table = empirical_moments(fld.sup_abs(), p, fld.counts)
            assert bits(sup_table.values) == bits(empirical_moments(sup, p).values)
            assert sup_table.sample_count == X.shape[0]
            levels = resolve_grid(("quantile", (0.5, 0.97, 12)),
                                  np.repeat(fld.sup_abs(), fld.counts.astype(int)))
            assert bits(levels) == bits(np.unique(np.quantile(sup, np.linspace(0.5, 0.97, 12))))
            for got, x in [(empirical_tail(fld.sup_abs(), u, fld.counts), sup)] + [
                (empirical_tail(fld.values[:, j], u, fld.counts), X[:, j]) for j in range(3)
            ]:
                # counted directly: the larger one-sided exceedance over all replications
                want = [max(np.sum(x > v), np.sum(x < -v)) / x.size for v in u]
                assert bits(got.probs) == bits(want) and got.sample_count == x.size


class TestNaturalEnvelope:
    def test_dominates_every_column(self):
        rng = _stream(7, 0)
        fld = FieldSamples(
            ("a", "b", "c"), rng.standard_normal((500, 3)) * np.array([1.0, 2.0, 0.5])
        )
        p = np.geomspace(2.0, 12.0, 6)
        env = natural_envelope(fld, p)
        norms = [envelope_norm(t, env) for t in column_moments(fld, p)]
        assert max(norms) == pytest.approx(1.0, abs=1e-12)
        assert all(x <= 1.0 + 1e-12 for x in norms)

    def test_zero_field_rejected(self):
        fld = FieldSamples(("a",), np.zeros((10, 1)))
        with pytest.raises(ValueError, match="identically zero"):
            natural_envelope(fld, np.array([2.0, 4.0]))


class TestEnvelopeDistance:
    def test_symmetry_and_diagonal(self):
        rng = _stream(8, 0)
        fld = FieldSamples(tuple("abc"), rng.standard_normal((300, 3)))
        env = power_log_envelope(2.0, 0.0)
        d = envelope_distance(fld, env, p_grid=np.geomspace(2, 8, 5))
        assert np.allclose(d, d.T)
        assert np.all(np.diagonal(d) == 0.0)
        assert np.all(d >= 0.0)

    def test_independent_normals_distance_near_one(self):
        rng = _stream(9, 0)
        fld = FieldSamples(("a", "b"), rng.standard_normal((200000, 2)))
        env = power_log_envelope(2.0, 0.0)
        d = envelope_distance(fld, env, p_grid=np.array([2.0, 4.0, 8.0]))
        assert d[0, 1] == pytest.approx(1.0, rel=0.03)

    def test_identical_columns_distance_zero(self):
        col = _stream(10, 0).standard_normal(100)
        fld = FieldSamples(("a", "b"), np.stack([col, col], axis=1))
        env = power_log_envelope(2.0, 0.0)
        d = envelope_distance(fld, env, p_grid=np.array([2.0, 4.0]))
        assert d[0, 1] == 0.0

    @pytest.mark.parametrize("tabulated", [True, False])
    def test_matches_per_pair_tables_bit_for_bit(self, tabulated):
        # columns 0 and 2 are equal (an all-zero difference); the field has zero cells.
        # Each distance is the per-pair table of the difference over the field's distinct
        # rows and counts, bit for bit, and that of the difference's own sample within ulps
        rng = _stream(15, 0)
        values = rng.choice([0.0, -1.0, 0.5, 2.0], (400, 4))
        values[:, 2] = values[:, 0]
        fld = FieldSamples(tuple("abcd"), values)
        p = np.geomspace(2.0, 8.0, 5)
        env = natural_envelope(fld, p) if tabulated else power_log_envelope(2.0, 0.5)
        d = envelope_distance(fld, env, p_grid=p)
        assert d[0, 2] == 0.0
        rows, counts = distinct_rows(values)
        for i in range(4):
            for j in range(4):
                atoms = np.abs(rows[:, i] - rows[:, j])[None, :]
                table = MomentTable(p, _power_means(atoms, counts, p)[0], len(values))
                want = envelope_norm(table, env)
                assert d[i, j].tobytes() == np.float64(want).tobytes(), (i, j)
                diff = values[:, i] - values[:, j]
                own = envelope_norm(empirical_moments(diff, p), env)
                assert d[i, j] == pytest.approx(own, rel=1e-15, abs=0.0), (i, j)


class TestEmpiricalTail:
    def test_hand_counts(self):
        x = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
        curve = empirical_tail(x, np.array([1.0, 2.5, 3.5]))
        # u=1: 2 above (2,4), 1 below (-3) -> 2/5
        # u=2.5: 1 above (4), 1 below (-3) -> 1/5
        # u=3.5: 1 above (4), 0 below -> 1/5
        assert np.allclose(curve.probs, [0.4, 0.2, 0.2])

    def test_one_sided_max_not_two_sided_sum(self):
        x = np.array([-2.0, 2.0, 2.0, 0.0])
        curve = empirical_tail(x, np.array([1.0]))
        assert curve.probs[0] == pytest.approx(0.5)  # max(2/4, 1/4), not 3/4

    def test_normal_tail_at_one(self):
        z = _stream(13, 0).standard_normal(100000)
        curve = empirical_tail(z, np.array([1.0]))
        assert curve.probs[0] == pytest.approx(0.1587, abs=0.005)

    def test_nonincreasing(self):
        z = _stream(14, 0).standard_normal(5000)
        curve = empirical_tail(z, np.linspace(0.1, 3.0, 20))
        assert np.all(np.diff(curve.probs) <= 1e-12)


class TestTailCurve:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            TailCurve(np.array([1.0, 2.0]), np.array([0.5, 0.4]), "wrong")
        with pytest.raises(ValueError, match="increasing"):
            TailCurve(np.array([2.0, 1.0]), np.array([0.5, 0.4]), "empirical")
        with pytest.raises(ValueError, match="nonincreasing"):
            TailCurve(np.array([1.0, 2.0]), np.array([0.4, 0.5]), "empirical")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TailCurve(np.array([1.0, 2.0]), np.array([1.5, 0.5]), "empirical")
