import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from residualdep import BivariateSample, DataError, Margin, PseudoSample, TieError, TiePolicy, \
    compute_ranks, joint_exceedance_count

T, V, VSTAR = Margin.PARETO_T, Margin.FRECHET_UNSHIFTED, Margin.FRECHET_SHIFTED


def _sample(x, y):
    return BivariateSample(np.asarray(x, float), np.asarray(y, float))


class TestRanks:
    def test_sorted_distinct(self):
        rx, _ = compute_ranks(_sample([1.0, 2.0, 3.0], [0, 1, 2]))
        assert_array_equal(rx, [1, 2, 3])

    def test_hand_counted_permutation(self):
        # rank = #{j : x_j <= x_i}
        rx, _ = compute_ranks(_sample([3.0, 1.0, 2.0], [0, 1, 2]))
        assert_array_equal(rx, [3, 1, 2])

    def test_tie_first_occurrence(self):
        rx, _ = compute_ranks(_sample([1.0, 1.0], [0, 1]))
        assert_array_equal(rx, [1, 2])

    def test_tie_strict_raises_with_value(self):
        with pytest.raises(TieError, match="2.5"):
            compute_ranks(_sample([2.5, 2.5, 1.0], [0, 1, 2]), TiePolicy.STRICT)

    def test_tie_jitter_is_deterministic_permutation(self):
        s = _sample([1.0, 1.0, 1.0, 4.0], [0, 1, 2, 3])
        rx1, _ = compute_ranks(s, TiePolicy.JITTER, jitter_seed=5)
        rx2, _ = compute_ranks(s, TiePolicy.JITTER, jitter_seed=5)
        assert_array_equal(rx1, rx2)
        assert sorted(rx1) == [1, 2, 3, 4]
        assert rx1[3] == 4  # ties are reordered, distinct values never

    def test_tie_jitter_at_large_magnitude(self):
        # ties near 1e8 sit far below the spacing of their neighbours
        u = np.random.default_rng(8).random(500)
        x = 1e8 + np.round(u, 1)
        s = _sample(x, np.arange(500))
        first, _ = compute_ranks(s, TiePolicy.FIRST_OCCURRENCE)
        rx1, _ = compute_ranks(s, TiePolicy.JITTER, jitter_seed=3)
        rx2, _ = compute_ranks(s, TiePolicy.JITTER, jitter_seed=3)
        assert_array_equal(rx1, rx2)
        assert not np.array_equal(rx1, first)
        by_rank = np.empty_like(x)
        by_rank[rx1 - 1] = x
        assert (np.diff(by_rank) >= 0).all()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_rank_definition_matches_count(self, xs):
        xs = np.asarray(xs)
        rx, _ = compute_ranks(_sample(xs, np.arange(len(xs))))
        counts = [(xs <= xi).sum() for xi in xs]
        assert_array_equal(rx, counts)


LATTICE = st.lists(st.integers(-6, 6), min_size=2, max_size=400).map(
    lambda v: np.asarray(v) * 0.25)
CONTINUOUS = st.lists(st.one_of(st.floats(allow_nan=False),
                                st.sampled_from([0.0, -0.0, np.inf, -np.inf])),
                      min_size=2, max_size=400).map(np.asarray)


def _stable_ranks(x):
    ranks = np.empty(len(x), dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, len(x) + 1)
    return ranks


def _unique_rule_message(x):
    # the np.unique form of the strict check; None when x has no tie
    uniq, counts = np.unique(x, return_counts=True)
    if not (counts > 1).any():
        return None
    return f"tied value {uniq[counts > 1][0]!r} in x under strict tie policy"


class TestTieCheckedRanking:
    """The default sort plus a neighbour check against the stable-sort rule."""

    @given(st.one_of(LATTICE, CONTINUOUS))
    @settings(max_examples=200, deadline=None)
    def test_first_occurrence_is_inverse_stable_argsort(self, x):
        rx, ry = compute_ranks(_sample(x, -x))
        assert_array_equal(rx, _stable_ranks(x))
        assert_array_equal(ry, _stable_ranks(-x))

    @given(st.one_of(LATTICE, CONTINUOUS))
    @settings(max_examples=200, deadline=None)
    def test_strict_names_the_unique_rule_value(self, x):
        expected = _unique_rule_message(x)
        sample = _sample(x, np.arange(len(x)))
        if expected is None:
            rx, _ = compute_ranks(sample, TiePolicy.STRICT)
            assert_array_equal(rx, _stable_ranks(x))
        else:
            with pytest.raises(TieError) as exc:
                compute_ranks(sample, TiePolicy.STRICT)
            assert str(exc.value) == expected

    @pytest.mark.parametrize("kind", ["lattice", "continuous", "signed_zeros"])
    def test_large_n(self, kind):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(20_000)
        if kind == "lattice":
            x = np.round(x, 1)
        elif kind == "signed_zeros":
            x[rng.choice(20_000, 40, replace=False)] = rng.choice([0.0, -0.0], 40)
        rx, _ = compute_ranks(_sample(x, np.arange(20_000)))
        assert_array_equal(rx, _stable_ranks(x))
        expected = _unique_rule_message(x)
        if kind == "continuous":
            assert expected is None
        else:
            with pytest.raises(TieError) as exc:
                compute_ranks(_sample(x, np.arange(20_000)), TiePolicy.STRICT)
            assert str(exc.value) == expected


class TestPseudoValues:
    def test_pareto_example_n3(self):
        t = PseudoSample.from_ranks(np.array([1, 2, 3]), np.array([2, 1, 3])).top(T)
        assert_allclose(t, [4 / 3, 4 / 3, 4.0], rtol=0, atol=0)

    def test_pareto_comonotone_is_plotting_position(self):
        r = np.array([2, 4, 1, 3])
        t = PseudoSample.from_ranks(r, r).top(T)
        assert_allclose(t, 5.0 / (5.0 - np.sort(r)), atol=0)

    def test_top_rank_hits_maximum(self):
        n = 6
        rx = np.arange(1, n + 1)
        t = PseudoSample.from_ranks(rx, rx).top(T)
        assert t.max() == n + 1

    def test_frechet_example_n3(self):
        # min(rx, ry) = (3, 1, 1): the largest V is the one of rank 3
        p = PseudoSample.from_ranks(np.array([3, 1, 2]), np.array([3, 2, 1]))
        assert p.top(V)[-1] == pytest.approx(3.476059496782207, abs=1e-12)
        assert p.top(VSTAR)[-1] == pytest.approx(3.976059496782207, abs=1e-12)

    def test_frechet_equal_ranks(self):
        r = np.array([2, 4, 1, 3])
        v = PseudoSample.from_ranks(r, r).top(V)
        assert_allclose(v, -1.0 / np.log(np.sort(r) / 5.0), atol=1e-15)

    def test_bottom_rank_smallest_value(self):
        n = 1000
        rx = np.arange(1, n + 1)
        v = PseudoSample.from_ranks(rx, rx).top(V)
        assert v.min() == pytest.approx(1.0 / np.log(n + 1), rel=1e-12)

    def test_value_ranges(self):
        rng = np.random.default_rng(3)
        n = 200
        s = _sample(rng.random(n), rng.random(n))
        p = PseudoSample.from_sample(s)
        assert p.top(T).min() >= (n + 1) / n
        assert p.top(T).max() <= n + 1
        assert np.all(np.isfinite(p.top(V)))
        assert p.top(V).min() >= 1.0 / np.log(n + 1) - 1e-12
        assert p.top(V).max() <= -1.0 / np.log(n / (n + 1)) + 1e-12
        assert_allclose(p.top(VSTAR), p.top(V) + 0.5, rtol=0, atol=0)

    def test_rank_invariance_under_monotone_transforms(self):
        rng = np.random.default_rng(8)
        x, y = rng.random(100), rng.random(100)
        sample, warped_sample = _sample(x, y), _sample(np.exp(3 * x), np.arctan(y) - 2)
        base = PseudoSample.from_sample(sample)
        warped = PseudoSample.from_sample(warped_sample)
        assert_array_equal(compute_ranks(sample)[0], compute_ranks(warped_sample)[0])
        assert_allclose(base.top(T), warped.top(T), rtol=0, atol=0)
        assert_allclose(base.top(V), warped.top(V), rtol=0, atol=0)

    def test_order_statistic_identity_brute_force(self):
        rng = np.random.default_rng(21)
        for n in (5, 17, 50):
            s = _sample(rng.random(n), rng.random(n))
            p = PseudoSample.from_sample(s)
            rmin = np.minimum(*compute_ranks(s))
            brute = np.sort((n + 1.0) / (n + 1.0 - np.sort(rmin)))
            assert_allclose(p.top(T), brute, rtol=0, atol=0)

    def test_from_ranks_matches_sorting_each_sequence(self):
        # from_ranks sorts min(rx, ry) once; sorting T and V themselves is the reference
        rng = np.random.default_rng(31)
        for n in [*range(2, 70), 257, 1000, 20000]:
            rx, ry = rng.permutation(n) + 1, rng.permutation(n) + 1
            for ranks in ((rx, ry), (rx, rx), (rx, n + 1 - rx)):
                p = PseudoSample.from_ranks(*ranks)
                rmin = np.minimum(*ranks)
                t_ref = np.sort((n + 1.0) / (n + 1.0 - rmin))
                v_ref = np.sort(-1.0 / np.log(rmin / (n + 1.0)))
                assert p.top(T).tobytes() == t_ref.tobytes(), n
                assert p.top(V).tobytes() == v_ref.tobytes(), n
                assert p.top(VSTAR).tobytes() == (v_ref + 0.5).tobytes(), n

    @pytest.mark.parametrize("rx,ry", [([0, 2, 3], [1, 3, 2]), ([4, 2, 3], [4, 3, 2]),
                                       ([1, 2, -3], [1, 2, 3])])
    def test_from_ranks_rejects_ranks_outside_1_to_n(self, rx, ry):
        with pytest.raises(DataError, match="ranks must lie in 1..n = 3"):
            PseudoSample.from_ranks(np.array(rx), np.array(ry))

    def test_rejects_nan_and_mismatched(self):
        with pytest.raises(DataError):
            BivariateSample(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
        with pytest.raises(DataError):
            BivariateSample(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(DataError):
            BivariateSample(np.array([1.0]), np.array([1.0]))


class TestTop:
    @pytest.mark.parametrize("n", [2, 3, 69, 500, 20000])
    def test_top_m_is_the_last_m_of_all_n(self, n):
        rng = np.random.default_rng(n)
        p = PseudoSample.from_ranks(rng.permutation(n) + 1, rng.permutation(n) + 1)
        for margin in Margin:
            full = p.top(margin)
            assert len(full) == n
            for m in (0, 1, n // 2, n):
                assert p.top(margin, m).tobytes() == full[n - m:].tobytes(), (margin, m)
                assert p.top(margin.value, m).tobytes() == full[n - m:].tobytes(), (margin, m)

    @pytest.mark.parametrize("m", [-1, 11])
    def test_m_outside_0_to_n_raises(self, m):
        p = PseudoSample.from_ranks(np.arange(1, 11), np.arange(1, 11))
        for margin in Margin:
            with pytest.raises(ValueError, match=f"need 0 <= m <= n = 10, got m = {m}"):
                p.top(margin, m)

    @pytest.mark.parametrize("margin", ["pareto", "T", "", None])
    def test_unknown_margin_raises(self, margin):
        p = PseudoSample.from_ranks(np.arange(1, 11), np.arange(1, 11))
        with pytest.raises(ValueError, match=f"{margin!r} is not a valid Margin"):
            p.top(margin)


class TestJointExceedance:
    def test_comonotone_counts_m(self):
        x = np.arange(20.0)
        s = _sample(x, 2 * x + 1)
        for m in (1, 5, 20):
            assert joint_exceedance_count(s, m, 1.0) == m

    def test_antimonotone_zero(self):
        x = np.arange(20.0)
        s = _sample(x, -x)
        for m in range(1, 11):
            assert joint_exceedance_count(s, m, 1.0) == 0

    def test_matches_indicator_count_brute_force(self):
        rng = np.random.default_rng(99)
        n = 20
        s = _sample(rng.random(n), rng.random(n))
        p = PseudoSample.from_sample(s)
        for m in range(1, n + 1):
            # O(n^2) recount: pairwise comparisons define the order statistics
            xs, ys = np.sort(s.x), np.sort(s.y)
            brute = sum(
                1 for i in range(n)
                if s.x[i] >= xs[n - m] and s.y[i] >= ys[n - m]
            )
            via_t = int(np.sum(p.top(T) >= (n + 1) / m))
            assert brute == joint_exceedance_count(s, m, 1.0) == via_t

    def test_indicator_identity_many_samples(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            n = int(rng.integers(2, 101))
            s = _sample(rng.random(n), rng.random(n))
            p = PseudoSample.from_sample(s)
            ms = np.arange(1, n + 1)
            counts = np.array([joint_exceedance_count(s, int(m), 1.0) for m in ms])
            via_t = (p.top(T)[None, :] >= (n + 1) / ms[:, None]).sum(axis=1)
            assert_array_equal(counts, via_t)

    def test_bounds_checked(self):
        s = _sample(np.arange(5.0), np.arange(5.0))
        with pytest.raises(ValueError):
            joint_exceedance_count(s, 6, 1.0)
        with pytest.raises(ValueError):
            joint_exceedance_count(s, 1, 0.1)
