import math

import numpy as np
import pytest

from residualdep import BivariateSample, ConstraintError, CopulaModel, DataError, \
    EstimationError, EstimatorSpec, Margin, NumericDomainError, ParameterDomainError, \
    PseudoSample, SecondOrderParams, asymptotic_bias, default_k0, effective_tau, \
    estimate_second_order, eta_hat, m_ab_path, reduced_bias_eta, replicate_generator, \
    sample_copula
from residualdep.bias import _corrected


def _pseudo(seed, n, model=None):
    if model is None:
        rng = np.random.default_rng(seed)
        return PseudoSample.from_sample(BivariateSample(rng.random(n), rng.random(n)))
    u, v = sample_copula(model, n, seed)
    return PseudoSample.from_sample(BivariateSample(u, v))


PARETO = np.random.default_rng(1).pareto(2.0, 200) + 1.0  # Pareto(2), unsorted


class TestEffectiveTau:
    def test_eta_dominates_when_tau_large(self):
        assert effective_tau(1 / 3, 2 / 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_boundary_tau_equals_eta(self):
        assert effective_tau(0.5, 0.5) == 0.5

    def test_tau_branch(self):
        assert effective_tau(0.8, 0.1) == 0.1

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_tau(0.0, 0.5)
        with pytest.raises(ValueError):
            effective_tau(0.5, 0.0)


class TestSecondOrderParams:
    def test_user_supplied_passthrough(self):
        so = SecondOrderParams(tau_hat=0.5, beta_hat=0.2, k0=0)
        assert so.tau_hat == 0.5 and so.beta_hat == 0.2
        assert so.k0 == 0  # k0 = 0 marks given values

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(NumericDomainError):
            SecondOrderParams(tau_hat=0.0, beta_hat=0.1, k0=10)

    @pytest.mark.parametrize("tau,beta,k0", [
        (0.5, math.nan, 10), (0.5, math.inf, 0), (0.5, -math.inf, 10), (0.5, 0.1, 1),
        (0.5, 0.1, -1), (math.inf, 0.1, 10), (-math.inf, 0.1, 0),
    ], ids=["nan-10", "inf-0", "-inf-10", "0.1-1", "0.1--1", "tau_inf", "tau_-inf"])
    def test_unusable_beta_or_k0_rejected(self, tau, beta, k0):
        # a NaN beta makes every reduced-bias estimate NaN and an infinite tau makes the
        # correction a no-op; k0 is 0 (given) or an integer >= 2 (estimated)
        with pytest.raises(NumericDomainError, match="tau_hat|beta_hat|k0"):
            SecondOrderParams(tau_hat=tau, beta_hat=beta, k0=k0)
        assert SecondOrderParams(0.5, 0.1, 2).k0 == 2
        with pytest.raises(ValueError, match="k0 2.5 is not an integer"):
            SecondOrderParams(0.5, 0.1, 2.5)

    def test_default_k0_rule(self):
        assert default_k0(500) == 496
        assert default_k0(5000) == 4957


class TestEstimateSecondOrder:
    def test_burr_oracle_recovers_beta(self):
        # Burr with quantile t(1 - 2 t^{-1/2} + t^{-1}): tau = 0.5, beta = 1
        betas, taus = [], []
        for r in range(50):
            rng = replicate_generator(88, r)
            u = rng.random(5000)
            x = np.sort((u ** -0.5 - 1.0) ** 2)
            so = estimate_second_order(x)
            taus.append(so.tau_hat)
            betas.append(so.beta_hat)
        assert 0.8 <= np.median(betas) <= 1.2
        assert 0.3 <= np.median(taus) <= 1.1
        assert so.k0 == default_k0(5000)  # an estimate records its threshold

    def test_frank_copula_tau_band(self):
        # ground truth tau = 1/2; wide band reflects the hardness of
        # second-order estimation (threshold [n^0.9]: the near-full-sample
        # default is dominated by the non-tail shape of rank data)
        model = CopulaModel("frank", 0.5)
        n = 5000
        k0 = int(n ** 0.9)
        taus = []
        for r in range(200):
            pseudo = _pseudo(replicate_generator(2024, r), n, model)
            taus.append(estimate_second_order(pseudo, k0).tau_hat)
        assert 0.25 <= np.median(taus) <= 0.75

    def test_degenerate_tail_raises(self):
        # a constant sorted sample, and a bundle whose min(rx, ry) is constant (built
        # directly: from_ranks never yields one)
        for sample in (np.full(100, 2.0), PseudoSample(n=100, rmin=np.full(100, 50))):
            with pytest.raises(EstimationError, match="degenerate"):
                estimate_second_order(sample, 50)

    def test_bundle_reads_what_its_sorted_t_gives(self):
        pseudo = _pseudo(3, 400)
        for k0 in (3, 57, 399, None):
            assert estimate_second_order(pseudo, k0) == \
                estimate_second_order(pseudo.top(Margin.PARETO_T), k0), k0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            estimate_second_order(_pseudo(1, 40))
        with pytest.raises(DataError):
            estimate_second_order(_pseudo(1, 40))

    def test_sorted_sample_estimate_unchanged(self):
        so = estimate_second_order(np.sort(PARETO))
        assert (so.tau_hat.hex(), so.beta_hat.hex(), so.k0) == \
            ("0x1.3141145c76a37p-1", "-0x1.3429eafb5b9e3p-5", 198)

    @pytest.mark.parametrize("sample", [
        PARETO,  # unchecked, tau = 5.34 where the same values sorted give 0.596
        -np.sort(PARETO),  # unchecked, np.log warned, then a NaN statistics ratio
        *(np.concatenate([[first], np.sort(PARETO)[1:]]) for first in (0.0, -1.0, math.nan)),
        np.stack([np.sort(PARETO)] * 2, axis=1),  # unchecked, numpy's ValueError
    ], ids=["unsorted", "negated", "from_zero", "from_negative", "from_nan", "two_columns"])
    def test_array_not_ascending_and_positive_refused(self, sample):
        with pytest.raises(DataError, match="needs an ascending, positive 1-d sample"):
            estimate_second_order(sample)

    def test_k0_out_of_range_is_a_domain_error(self):
        for k0 in (1, 100):
            with pytest.raises(ParameterDomainError):
                estimate_second_order(_pseudo(1, 100), k0)


class TestCorrectedEta:
    # the plug-in arithmetic of the correction, _corrected(eta_s, a, tau, beta_term, v_kstar),
    # which reduced_bias_path applies to whole paths
    def test_plug_in_arithmetic(self):
        # eta 0.5, a=0, beta-term 0.1, V = 4.5, tau = 0.5:
        # factor = 1 - 0.2/1.5, eta_rb = 0.5 * 13/15
        got = float(_corrected(0.5, 0.0, 0.5, 0.1, 4.5))
        assert got == pytest.approx(0.5 * 13 / 15, abs=1e-15)
        assert got == pytest.approx(0.43333333, abs=1e-6)

    def test_denominator_domain(self):
        # 1 - a*eta + tau = -0.5 <= 0: undefined, NaN
        assert math.isnan(_corrected(0.5, 4.0, 0.5, 0.1, 4.5))

    def test_correction_vanishes(self):
        # beta = 0 and a huge V order statistic: factor -> 1
        assert float(_corrected(0.5, 0.0, 0.5, 0.0, 1e14)) == pytest.approx(0.5, abs=1e-12)


class TestBiasTheory:
    """The paper's dominant bias on a tail T = V^-eta (1 + c V^tau), V uniform, whose
    second-order parameters are tau and beta = -tau c / eta: M_{a,-a} at level k has bias
    about eta beta (n/k)^-tau b_a(eta, tau), and the correction with the true (tau, beta)
    and no shift term (V_(n, n-k*) = inf) removes it.  R = 1000 replicates give a standard
    error of about 0.0008 per q against a raw bias of 0.017-0.024.  Each of the 10 checks
    allows 4 standard errors: 3.3 keeps the chance that any of them fails by sampling
    error alone under 1% (Bonferroni), and the rest covers the next-order term, of
    relative size (k/n)^tau = 0.02 (0.0005, about 0.6 standard errors)."""

    eta, tau, c = 0.5, 1.0, 2.0
    n, k, R = 20_000, 400, 1000
    a = np.array([EstimatorSpec.conjugate(q).a for q in (0.5, 0.8, 1.0, 1.5, 1.9)])

    @pytest.fixture(scope="class")
    def estimates(self):
        eta, tau, c, n, k, a = self.eta, self.tau, self.c, self.n, self.k, self.a
        beta_term = -tau * c / eta * (n / k) ** -tau
        raw = np.empty((self.R, len(a)))
        for r in range(self.R):
            v = replicate_generator(404, r).random(n)
            tail = np.sort(v ** -eta * (1 + c * v ** tau))[n - k - 1:]
            raw[r] = m_ab_path(tail, [k], a, -a)[:, 0]
        return raw, _corrected(raw, a, tau, beta_term, math.inf)

    def _bias_and_se(self, values):
        return values.mean(axis=0) - self.eta, values.std(axis=0, ddof=1) / math.sqrt(self.R)

    def test_raw_bias_matches_theory(self, estimates):
        bias, se = self._bias_and_se(estimates[0])
        beta = -self.tau * self.c / self.eta
        theory = [self.eta * beta * (self.n / self.k) ** -self.tau
                  * asymptotic_bias(a, self.eta, self.tau) for a in self.a]
        assert np.all(np.abs(bias - theory) <= 4 * se), (bias, theory, se)

    def test_correction_removes_the_bias(self, estimates):
        bias, se = self._bias_and_se(estimates[1])
        assert np.all(np.abs(bias) <= 4 * se), (bias, se)


class TestReducedBias:
    def test_kstar_constraint(self):
        pseudo = _pseudo(5, 300)
        so = SecondOrderParams(0.5, 0.1, k0=0)
        with pytest.raises(ConstraintError):
            reduced_bias_eta(pseudo, 25, 6, 0.0, so)  # 6 > sqrt(25)
        reduced_bias_eta(pseudo, 36, 6, 0.0, so)  # boundary is allowed

    def test_domain_errors(self):
        pseudo = _pseudo(5, 300)
        so = SecondOrderParams(0.5, 0.1, k0=0)
        with pytest.raises(ValueError, match="need 1 <= k_star <= n - 1, got 0"):
            reduced_bias_eta(pseudo, 36, 0, 0.0, so)
        with pytest.raises(NumericDomainError, match="reduced-bias estimate undefined"):
            reduced_bias_eta(pseudo, 36, 6, 1 - 1 / 1e-6, so)  # M_(a,-a) overflows

    def test_beta_zero_leaves_only_shift_term(self):
        pseudo = _pseudo(5, 300)
        k, kstar, a = 40, 6, 0.0
        so = SecondOrderParams(0.5, 0.0, k0=0)
        eta_s = eta_hat(pseudo, k, EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED))
        v_k = pseudo.top(Margin.FRECHET_UNSHIFTED)[pseudo.n - 1 - kstar]
        expected = eta_s * (1 - (1 / (1 + 2 * v_k)) / 1.5)
        assert reduced_bias_eta(pseudo, k, kstar, a, so).eta == pytest.approx(
            expected, abs=1e-15)

    def test_correction_direction_nonincreasing_when_beta_nonneg(self):
        so = SecondOrderParams(0.5, 0.05, k0=0)
        for seed in range(20):
            pseudo = _pseudo(seed, 400)
            for a in (-0.5, 0.0, 0.5):
                raw = eta_hat(pseudo, 40, EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED))
                red = reduced_bias_eta(pseudo, 40, 6, a, so).eta
                assert red <= raw

    def test_shift_term_monotone_in_kstar(self):
        pseudo = _pseudo(11, 500)
        n = pseudo.n
        v = pseudo.top(Margin.FRECHET_UNSHIFTED)
        terms = [1 / (1 + 2 * v[n - 1 - ks]) for ks in (2, 4, 8, 16)]
        # smaller kstar picks a larger order statistic, shrinking the term
        assert all(t1 <= t2 + 1e-15 for t1, t2 in zip(terms, terms[1:]))

    def test_amh_bias_reduced_at_k_over_n_010(self):
        # truth 1/3; oracle (tau, beta) = (effective tau, 0)
        model = CopulaModel("amh", -1.0)
        truth = 1.0 / 3.0
        n, k, q = 500, 50, 0.9
        a = 1 - 1 / q
        so = SecondOrderParams(effective_tau(1 / 3, 2 / 3), 0.0, k0=0)
        kstar = min(int(n ** 0.3), math.isqrt(k))
        raw, red = [], []
        for r in range(80):
            pseudo = _pseudo(replicate_generator(606, r), n, model)
            raw.append(eta_hat(pseudo, k, EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED)))
            red.append(reduced_bias_eta(pseudo, k, kstar, a, so).eta)
        assert abs(np.mean(red) - truth) < abs(np.mean(raw) - truth)

    def test_variance_within_factor_of_raw(self):
        # the correction must not inflate the sampling variance
        model = CopulaModel("amh", -1.0)
        n, k, a = 500, 25, 0.0
        so = SecondOrderParams(effective_tau(1 / 3, 2 / 3), 0.0, k0=0)
        raw, red = [], []
        for r in range(200):
            pseudo = _pseudo(replicate_generator(607, r), n, model)
            raw.append(eta_hat(pseudo, k, EstimatorSpec.from_ab(a, -a, Margin.FRECHET_SHIFTED)))
            red.append(reduced_bias_eta(pseudo, k, 5, a, so).eta)
        ratio = np.var(red) / np.var(raw)
        assert 1 / 1.5 <= ratio <= 1.5

    def test_ci_attached(self):
        pseudo = _pseudo(5, 300)
        so = SecondOrderParams(0.5, 0.1, k0=0)
        est = reduced_bias_eta(pseudo, 36, 6, 0.0, so)
        assert est.ci_low <= est.eta <= est.ci_high
        assert est.variance == pytest.approx(est.eta ** 2 / 36, rel=1e-12)
        assert est.margin is Margin.FRECHET_SHIFTED
