import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from residualdep import BivariateSample, CopulaModel, EstimatorSpec, Margin, \
    NumericDomainError, PseudoSample, VarianceDomainError, asymptotic_bias, \
    asymptotic_variance, compute_ranks, eta_hat, m_ab, point_estimate, \
    replicate_generator, sample_copula
from residualdep.estimators import _ndtri, m_ab_path, uncertainty
from residualdep.simulate import DEFAULT_Q_GRID

TAIL_842 = np.array([1.0, 2.0, 4.0, 8.0])  # threshold 1, ratios {2, 4, 8}


def naive_m_ab(tail, k, a, b):
    """Straight-line reference implementation (independent oracle)."""
    thr = tail[0]
    total = 0.0
    for z in tail[1:]:
        ratio = z / thr
        total += math.log(ratio) if a == 0.0 else ratio ** a
    mean = total / k
    log_a = mean if a == 0.0 else math.log(mean) / a
    if b == 0.0:
        return log_a
    return (math.exp(b * log_a) - 1.0) / b


class TestKernel:
    def test_constant_tail_gives_zero(self):
        tail = np.full(6, 3.7)
        for a, b in [(0.0, 0.0), (1.0, -1.0), (-0.5, 0.5), (2.0, 3.0)]:
            assert m_ab(tail, 5, a, b) == 0.0

    def test_hill_on_842(self):
        assert m_ab(TAIL_842, 3, 0.0, 0.0) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_a1_bm1_on_842(self):
        # A_1 = 14/3, (A^-1 - 1)/(-1) = 11/14
        assert m_ab(TAIL_842, 3, 1.0, -1.0) == pytest.approx(11 / 14, abs=1e-14)

    def test_conjugate_q2_on_842(self):
        spec = EstimatorSpec.conjugate(2.0)
        assert (spec.a, spec.b) == (0.5, -0.5)
        expected = naive_m_ab(TAIL_842, 3, 0.5, -0.5)
        got = m_ab(TAIL_842, 3, spec.a, spec.b)
        assert got == pytest.approx(expected, abs=1e-13)
        assert got == pytest.approx(1.0388684, abs=1e-6)

    @pytest.mark.parametrize("a,b", [
        (0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (1.0, -1.0), (-2.0, 2.0),
        (0.3, 0.7), (-1.5, -0.25),
    ])
    def test_matches_naive_loop(self, a, b):
        rng = np.random.default_rng(17)
        tail = np.sort(1.0 + rng.pareto(2.0, size=41))
        assert m_ab(tail, 40, a, b) == pytest.approx(naive_m_ab(tail, 40, a, b), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        tail = np.sort(1.0 + rng.pareto(1.5, size=31))
        base = m_ab(tail, 30, 0.5, -0.5)
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert m_ab(c * tail, 30, 0.5, -0.5) == pytest.approx(base, abs=1e-12)

    @given(st.floats(-3.0, 0.9), st.floats(-3.0, 3.0), st.floats(1e-3, 1e5))
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance_property(self, a, b, c):
        rng = np.random.default_rng(11)
        tail = np.sort(1.0 + rng.pareto(2.0, size=13))
        assert m_ab(c * tail, 12, a, b) == pytest.approx(m_ab(tail, 12, a, b), abs=1e-10)

    def test_hill_is_limit_of_m_a_minus_a(self):
        rng = np.random.default_rng(6)
        tail = np.sort(1.0 + rng.pareto(2.0, size=51))
        hill = m_ab(tail, 50, 0.0, 0.0)
        for a in (1e-6, -1e-6):
            assert m_ab(tail, 50, a, -a) == pytest.approx(hill, abs=1e-4)

    def test_large_magnitude_a_stays_finite(self):
        # ratios up to n+1 would overflow a naive power mean at large positive a
        tail = np.sort(np.concatenate([[1.0], np.linspace(1.5, 501.0, 60)]))
        for a in (-80.0, 80.0):
            val = m_ab(tail, 60, a, -a)
            assert math.isfinite(val)

    def test_errors(self):
        with pytest.raises(ValueError):
            m_ab(TAIL_842, 0, 0.0, 0.0)
        with pytest.raises(NumericDomainError):
            m_ab(np.array([0.0, 1.0, 2.0]), 2, 0.0, 0.0)
        with pytest.raises(ValueError):
            m_ab(TAIL_842, 2, 0.0, 0.0)  # wrong tail length
        with pytest.raises(NumericDomainError, match="overflows"):
            m_ab(np.array([1.0, 2.0, 3.0]), 2, 0.0, 1000.0)


def random_tail(seed, n, levels):
    """n ascending standard-Pareto pseudo-observations (levels + 1) / (levels + 1 - r)
    of random integer ranks r in 1..levels: tied wherever a rank repeats, and
    one constant run when levels = 1."""
    r = np.random.default_rng(seed).integers(1, levels + 1, size=n)
    return np.sort((levels + 1.0) / (levels + 1.0 - r))


def naive_log_a(tail, k, a):
    # log A_a, with the power mean scaled by its largest term
    logs = [math.log(z / tail[0]) for z in tail[1:]]
    shift = max(a * x for x in logs)
    return (shift + math.log(math.fsum(math.exp(a * x - shift) for x in logs) / k)) / a


tails = st.builds(random_tail, st.integers(0, 2**32 - 1), st.integers(2, 200),
                  st.integers(1, 400))


class TestPathKernel:
    @given(tails, st.sampled_from(DEFAULT_Q_GRID), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_loop_property(self, tail, q, data):
        # |a| up to 9 (q = 0.1), the shortest and the longest tail, ties
        n = len(tail)
        ks = sorted({1, n - 1, data.draw(st.integers(1, n - 1))})
        spec = EstimatorSpec.conjugate(q)
        got = m_ab_path(tail, ks, spec.a, spec.b)
        for k, value in zip(ks, got):
            want = naive_m_ab(tail[n - k - 1:], k, spec.a, spec.b)
            assert abs(value - want) <= 1e-12 * abs(want)

    @given(tails, st.floats(-9.0, 0.9), st.floats(-9.0, 9.0), st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_entry_is_the_single_k_kernel(self, tail, a, b, data):
        n = len(tail)
        ks = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1)))
        path = m_ab_path(tail, ks, a, b)
        for k, value in zip(ks, path):
            if math.isnan(value):
                with pytest.raises(NumericDomainError):
                    m_ab(tail[-k - 1:], k, a, b)
            else:
                assert value == m_ab(tail[-k - 1:], k, a, b)

    @given(tails, st.lists(st.tuples(st.floats(-9.0, 0.9), st.floats(-9.0, 9.0))), st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_row_is_the_scalar_path(self, tail, pairs, data):
        # rows of a vector call over the q grid (q = 1 is the Hill row, q = 1e-3 takes the
        # log-space sums, q = 1e-6 overflows) and of random (a, b) pairs
        n = len(tail)
        ks = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1)))
        specs = [EstimatorSpec.conjugate(q) for q in (1e-6, 1e-3, *DEFAULT_Q_GRID)]
        pairs = [(spec.a, spec.b) for spec in specs] + pairs
        a, b = (np.array(column) for column in zip(*pairs))
        rows = m_ab_path(tail, ks, a, b)
        assert rows.shape == (len(pairs), len(ks))
        for row, (a_j, b_j) in zip(rows, pairs):
            assert row.tobytes() == m_ab_path(tail, ks, a_j, b_j).tobytes()

    def test_sums_past_the_float_range(self):
        # a = -999 (q = 1e-3): the prefix sums overflow and are taken in log
        # space; b = 0 keeps the result finite
        tail = np.sort(1.0 + np.random.default_rng(8).pareto(1.0, size=301))
        got = m_ab_path(tail, [1, 150, 300], -999.0, 0.0)
        for k, value in zip([1, 150, 300], got):
            assert value == pytest.approx(naive_log_a(tail[-k - 1:], k, -999.0), rel=1e-12)

    def test_stacked_rows_are_one_tail_calls(self):
        # row r of a stacked call is the one-tail call on tail tail_index[r], bit for
        # bit, log-space (q = 1e-3) and overflowing (q = 1e-6) rows included
        rng = np.random.default_rng(5)
        tails = np.sort(1.0 + rng.pareto([[1.0], [2.0], [0.5]], size=(3, 301)), axis=-1)
        specs = [EstimatorSpec.conjugate(q) for q in (1e-6, 1e-3, *DEFAULT_Q_GRID)]
        pairs = [(spec.a, spec.b, t) for spec in specs for t in (2, 0, 1)]
        a, b, index = (np.array(column) for column in zip(*pairs))
        ks = [1, 2, 10, 150, 300]
        rows = m_ab_path(tails, ks, a, b, index)
        assert rows.shape == (len(pairs), len(ks))
        for row, (a_j, b_j, t) in zip(rows, pairs):
            assert row.tobytes() == m_ab_path(tails[t], ks, a_j, b_j).tobytes()
        for index in ([0, 3], [-1, 0], [0]):
            with pytest.raises(ValueError, match="tail_index"):
                m_ab_path(tails, ks, [0.5, 0.0], [-0.5, 0.0], index)

    def test_empty_and_out_of_range_ks(self):
        assert m_ab_path(TAIL_842, [], 0.5, -0.5).shape == (0,)
        assert m_ab_path(TAIL_842, [], [0.5, 0.0, -2.0], [-0.5, 0.0, 2.0]).shape == (3, 0)
        with pytest.raises(ValueError, match="shape mismatch"):
            m_ab_path(TAIL_842, [1], [0.5, 0.0], [-0.5, 0.0, 0.5])
        for ks in ([0], [4], [1, 2, 4]):
            with pytest.raises(ValueError):
                m_ab_path(TAIL_842, ks, 0.5, -0.5)


class TestParametrizations:
    def test_q1_resolves_symbolically_to_hill(self):
        for spec in (EstimatorSpec.conjugate(1.0), EstimatorSpec.mean_of_order_p(1.0)):
            assert spec.a == 0.0 and spec.b == 0.0

    def test_q1_bit_equal_to_hill(self):
        rng = np.random.default_rng(2)
        u, v = rng.random(300), rng.random(300)
        pseudo = PseudoSample.from_sample(BivariateSample(u, v))
        hill = m_ab(pseudo.top(Margin.PARETO_T)[300 - 31:], 30, 0.0, 0.0)
        assert eta_hat(pseudo, 30, EstimatorSpec.conjugate(1.0)) == hill
        assert eta_hat(pseudo, 30, EstimatorSpec.mean_of_order_p(1.0)) == hill

    def test_conjugate_resolution(self):
        spec = EstimatorSpec.conjugate(2.0)
        assert (spec.a, spec.b) == (0.5, -0.5)
        spec = EstimatorSpec.conjugate(0.5)
        assert (spec.a, spec.b) == (-1.0, 1.0)

    def test_mean_of_order_p_resolution(self):
        spec = EstimatorSpec.mean_of_order_p(2.0)
        assert (spec.a, spec.b) == (-1.0, 1.0)
        spec = EstimatorSpec.mean_of_order_p(0.5)
        assert (spec.a, spec.b) == (0.5, -0.5)

    def test_invalid_q(self):
        with pytest.raises(NumericDomainError):
            EstimatorSpec.conjugate(0.0)
        with pytest.raises(NumericDomainError):
            EstimatorSpec.mean_of_order_p(-1.0)

    def test_continuity_at_confluence(self):
        # deterministic Pareto plotting-position tail: both parametrisations
        # stay within 1e-6 of Hill (and of each other) at q = 1 +/- 1e-4
        k = 2000
        tail = np.sort(((k + 1) / np.arange(1, k + 2)) ** 0.5)
        hill = m_ab(tail, k, 0.0, 0.0)
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            cq = EstimatorSpec.conjugate(q)
            mp = EstimatorSpec.mean_of_order_p(q)
            v_cq = m_ab(tail, k, cq.a, cq.b)
            v_mp = m_ab(tail, k, mp.a, mp.b)
            assert abs(v_cq - hill) < 1e-6
            assert abs(v_mp - hill) < 1e-6
            assert abs(v_cq - v_mp) < 1e-6


class TestClosedForms:
    def test_hill_variance_is_eta_squared(self):
        for eta in (0.1, 0.25, 0.5, 0.8, 1.0):
            assert asymptotic_variance(0.0, eta) == pytest.approx(eta * eta, abs=1e-15)

    def test_hill_bias_is_one_over_one_plus_tau(self):
        for tau in (0.1, 0.5, 1.0, 2.0):
            assert asymptotic_bias(0.0, 0.5, tau) == pytest.approx(1 / (1 + tau), abs=1e-15)

    def test_plug_in_values(self):
        assert asymptotic_variance(0.5, 0.5) == pytest.approx(0.28125, abs=1e-15)
        assert asymptotic_bias(0.0, 0.5, 0.5) == pytest.approx(2 / 3, abs=1e-15)

    def test_variance_dominates_hill_variance(self):
        # sigma_a^2 >= eta^2 with equality only at a = 0
        for eta in (0.2, 0.5, 0.9):
            for a in np.linspace(-3, 0.49 / eta, 41):
                var = asymptotic_variance(a, eta)
                if a == 0.0:
                    assert var == eta * eta
                else:
                    assert var > eta * eta * (1 - 1e-12)

    def test_variance_domain_error(self):
        with pytest.raises(VarianceDomainError):
            asymptotic_variance(1.0, 0.5)
        with pytest.raises(VarianceDomainError):
            asymptotic_variance(2.0, 0.3)

    def test_bias_domain_error(self):
        with pytest.raises(NumericDomainError):
            asymptotic_bias(4.0, 1.0, 2.0)


class TestConfidenceInterval:
    def test_half_width_plug_in(self):
        low, high = uncertainty(0.5, 100, 0.0, 0.95)[1:]
        half = (high - low) / 2
        assert half == pytest.approx(0.098, abs=1e-3)
        assert (low + high) / 2 == pytest.approx(0.5, abs=1e-15)

    def test_width_shrinks_like_sqrt_k(self):
        w = []
        for k in (100, 400, 1600):
            low, high = uncertainty(0.5, k, 0.0)[1:]
            w.append(high - low)
        assert w[0] / w[1] == pytest.approx(2.0, rel=1e-12)
        assert w[1] / w[2] == pytest.approx(2.0, rel=1e-12)

    def test_unavailable_when_a_eta_too_big(self):
        with pytest.raises(VarianceDomainError):
            asymptotic_variance(1.0, 0.6)
        assert all(math.isnan(bound) for bound in uncertainty(0.6, 50, 1.0)[1:])

    @pytest.mark.parametrize("k, level, match", [
        (50, 0.0, r"level must be in \(0, 1\), got 0.0"),
        (50, 1.5, r"level must be in \(0, 1\), got 1.5"),
        (0, 0.95, "need k >= 1, got 0"),
    ])
    def test_level_and_k_checked(self, k, level, match):
        with pytest.raises(ValueError, match=match):
            uncertainty(0.5, k, 0.0, level)


def test_ndtri_port_equals_scipy_bit_for_bit():
    """The in-package Cephes ndtri against the installed scipy's, on the centre, both
    tails down to 1e-300 and the exact points; ==, so any last-bit difference fails."""
    from scipy.special import ndtri

    rng = np.random.default_rng(20211)
    p = np.concatenate([
        rng.random(200_000),
        10.0 ** -rng.uniform(0.0, 300.0, 50_000),
        1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 50_000),
        [0.0, 1.0, 0.5, 0.975, 0.95, 0.995, 0.9, 0.8],
    ])
    got = np.array([_ndtri(x) for x in p.tolist()])
    assert len(p) >= 300_000
    assert got.view(np.int64).tolist() == ndtri(p).view(np.int64).tolist()
    assert _ndtri(0.0) == -math.inf and _ndtri(1.0) == math.inf
    assert repr(_ndtri(0.975)) == "1.959963984540054"


class TestExactParetoTails:
    """The paper's sigma_a^2 against Monte Carlo on exact Pareto tails T = U^(-eta).

    On such a tail the top k ratios over the threshold are k iid Pareto(eta)
    values whatever n is, so M_(a,-a) has no second-order bias and k Var(eta_hat)
    tends to sigma_a^2(eta).  Sampling error sets the bounds: the sample
    variance's ratio to its mean has standard error about sqrt(2/R) and a coverage
    fraction sqrt(0.95 * 0.05 / R); at R = 2000 that is 0.032 and 0.0049, and the
    bounds below are 0.1 and 0.015 (3.2 and 3.1 standard errors).  The ratio
    converges where the fourth moment of the kernel's summands exists,
    a * eta < 1/4; past it the plug-in sigma_a(eta_hat) is noisy and the intervals
    over-cover (about 0.96-0.97 at a * eta = 0.38), so there coverage is only
    bounded below.
    """

    R, N, K = 2000, 1000, 500
    QS, ETAS = (0.5, 0.8, 1.0, 1.5, 1.9), (0.25, 0.5, 0.8)
    RATIO_BOUND, COVERAGE_BOUND = 0.1, 0.015

    def test_variance_ratio_and_coverage(self):
        a = np.array([EstimatorSpec.conjugate(q).a for q in self.QS for _ in self.ETAS])
        eta = np.array([e for _ in self.QS for e in self.ETAS])
        estimates = np.empty((self.R, len(a)))
        for r in range(self.R):
            # M_(a,-a) on U^(-eta) is eta * M_(a eta, -a eta) on U^(-1), so one call on
            # 1/U runs every (q, eta) pair of replicate r
            inv_u = np.sort(1.0 / replicate_generator(303, r).random(self.N))
            estimates[r] = eta * m_ab_path(inv_u, [self.K], a * eta, -a * eta)[:, 0]
        # the last row is the true eta: its variance column is sigma_a^2(eta) / k
        variance, low, high = uncertainty(np.vstack([estimates, eta]), self.K, a)
        ratio = estimates.var(axis=0, ddof=1) / variance[-1]
        coverage = ((low[:-1] <= eta) & (eta <= high[:-1])).mean(axis=0)
        inner = a * eta <= 0.25
        assert inner.sum() == 13
        assert np.all(np.abs(ratio[inner] - 1.0) <= self.RATIO_BOUND), ratio
        assert np.all(np.abs(coverage[inner] - 0.95) <= self.COVERAGE_BOUND), coverage
        assert np.all(coverage >= 0.95 - self.COVERAGE_BOUND), coverage


class TestEtaHat:
    def test_margin_dispatch(self):
        # each margin's tail mapped here from the sorted min(rx, ry), not through top()
        rng = np.random.default_rng(12)
        sample = BivariateSample(rng.random(200), rng.random(200))
        pseudo = PseudoSample.from_sample(sample)
        rmin = np.sort(np.minimum(*compute_ranks(sample)))
        v = -1.0 / np.log(rmin / 201.0)
        k = 30
        for margin, arr in [
            (Margin.PARETO_T, 201.0 / (201.0 - rmin)),
            (Margin.FRECHET_SHIFTED, v + 0.5),
            (Margin.FRECHET_UNSHIFTED, v),
        ]:
            spec = EstimatorSpec.conjugate(1.2, margin=margin)
            expected = m_ab(arr[200 - k - 1:], k, spec.a, spec.b)
            assert eta_hat(pseudo, k, spec) == expected

    def test_k_bounds(self):
        rng = np.random.default_rng(12)
        pseudo = PseudoSample.from_sample(BivariateSample(rng.random(50), rng.random(50)))
        with pytest.raises(ValueError):
            eta_hat(pseudo, 0, EstimatorSpec.conjugate(1.0))
        with pytest.raises(ValueError):
            eta_hat(pseudo, 50, EstimatorSpec.conjugate(1.0))

    def test_hill_on_exact_pareto_tail(self):
        # T ~ Pareto(1/eta): Hill within 3*eta/sqrt(k) for the bulk of seeds
        eta, n, k = 0.5, 10_000, 500
        hits = 0
        for seed in range(60):
            rng = replicate_generator(606, seed)
            t = np.sort(rng.random(n) ** (-eta))
            val = m_ab(t[n - k - 1:], k, 0.0, 0.0)
            hits += abs(val - eta) <= 3 * eta / math.sqrt(k)
        assert hits >= 57  # ~99.7% expected; 95% required

    def test_pareto_vs_shifted_frechet_close(self):
        # same estimate from both marginal scales, |diff| < 5/sqrt(k) in
        # >= 95% of replicates (empirically calibrated tolerance)
        model = CopulaModel("frank", 0.5)
        n, k = 500, 25
        close = 0
        for r in range(200):
            u, v = sample_copula(model, n, replicate_generator(37, r))
            pseudo = PseudoSample.from_sample(BivariateSample(u, v))
            d = abs(
                eta_hat(pseudo, k, EstimatorSpec.conjugate(1.0, Margin.PARETO_T))
                - eta_hat(pseudo, k, EstimatorSpec.conjugate(1.0, Margin.FRECHET_SHIFTED))
            )
            close += d < 5 / math.sqrt(k)
        assert close >= 190


class TestPointEstimate:
    def test_record_fields(self):
        rng = np.random.default_rng(19)
        pseudo = PseudoSample.from_sample(BivariateSample(rng.random(400), rng.random(400)))
        est = point_estimate(pseudo, 40, EstimatorSpec.conjugate(1.0), tau=0.5)
        assert est.ci_low <= est.eta <= est.ci_high
        assert est.variance == pytest.approx(est.eta ** 2 / 40, rel=1e-12)
        # at a = 0 the bias factor is 1/(1 + tau) independently of eta
        assert est.bias_term == pytest.approx(1 / 1.5, abs=1e-12)
        assert est.margin is Margin.PARETO_T

    def test_ci_unavailable_reported_as_nan(self):
        rng = np.random.default_rng(19)
        pseudo = PseudoSample.from_sample(BivariateSample(rng.random(400), rng.random(400)))
        est = point_estimate(pseudo, 40, EstimatorSpec.from_ab(5.0, -5.0))
        if est.a_used * est.eta >= 0.5:
            assert math.isnan(est.ci_low) and math.isnan(est.variance)
