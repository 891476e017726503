"""Single-cell views against copies of the rules they replace.

``uncertainty`` stands for the three places that each caught the a * eta >= 1/2
domain error around a variance and/or a confidence interval, and
``EstimatorSpec._from_q`` for the two q constructors that each held the q check
and the Hill case.  The references below are copies of those blocks;
every result must match them by ``repr`` (so NaN, and the sign of a zero, count).
"""
import math

import numpy as np
import pytest

from residualdep import BivariateSample, EstimatorSpec, Margin, NumericDomainError, \
    PseudoSample, VarianceDomainError, asymptotic_variance, confidence_interval, eta_hat, m_ab
from residualdep.estimators import uncertainty
from residualdep.simulate import DEFAULT_Q_GRID


def ref_point_estimate_block(eta, k, a, level):
    try:
        variance = asymptotic_variance(a, eta) / k
        low, high = confidence_interval(eta, k, a, level)
    except VarianceDomainError:
        variance = math.nan
        low = high = math.nan
    return variance, low, high


def ref_reduced_bias_block(eta_rb, k, a, level):
    try:
        variance = asymptotic_variance(a, eta_rb) / k
        low, high = confidence_interval(eta_rb, k, a, level)
    except NumericDomainError:
        variance = math.nan
        low = high = math.nan
    return variance, low, high


def ref_estimate_block(eta, k, a, level):
    try:
        low, high = confidence_interval(eta, k, a, level)
    except NumericDomainError:
        low = high = math.nan
    return low, high


def ref_conjugate(q, margin=Margin.PARETO_T):
    q = float(q)
    if not 0.0 < q < math.inf:
        raise NumericDomainError(f"conjugate parametrisation needs 0 < q < inf, got {q}")
    if q == 1.0:
        return EstimatorSpec(a=0.0, b=0.0, margin=Margin(margin), tag="conjugate", q=q)
    a = 1.0 - 1.0 / q
    return EstimatorSpec(a=a, b=-a, margin=Margin(margin), tag="conjugate", q=q)


def ref_mean_of_order_p(q, margin=Margin.PARETO_T):
    q = float(q)
    if not 0.0 < q < math.inf:
        raise NumericDomainError(
            f"mean-of-order-p parametrisation needs 0 < q < inf, got {q}")
    if q == 1.0:
        return EstimatorSpec(a=0.0, b=0.0, margin=Margin(margin), tag="mean_of_order_p", q=q)
    a = 1.0 - q
    return EstimatorSpec(a=a, b=-a, margin=Margin(margin), tag="mean_of_order_p", q=q)


def _etas_around_half(a):
    """eta with a * eta just below, exactly at and just above 1/2 (a != 0)."""
    eta = 0.5 / a
    return [np.nextafter(eta, -math.inf), eta, np.nextafter(eta, math.inf)]


A_VALUES = [-2.0, -0.5, -1e-12, 0.0, 1e-12, 1.0 / 3.0, 0.5, 0.9, 2.0]
ETAS = [math.nan, 0.0, -0.0, 5e-324, 1e-300, 1e-12, 0.25, 0.5, 1.0, 3.0]


def uncertainty_cases():
    for a in A_VALUES:
        etas = ETAS + (_etas_around_half(a) if a else [])
        for eta in etas:
            for k in (1, 2, 37, 10_000):
                for level in (0.5, 0.95, 0.999):
                    yield float(eta), k, a, level


class TestUncertainty:
    def test_matches_the_three_replaced_blocks(self):
        cases = list(uncertainty_cases())
        nan_cases = 0
        for eta, k, a, level in cases:
            got = uncertainty(eta, k, a, level)
            case = (eta, k, a, level)
            assert repr(got) == repr(ref_point_estimate_block(eta, k, a, level)), case
            assert repr(got) == repr(ref_reduced_bias_block(eta, k, a, level)), case
            assert repr(got[1:]) == repr(ref_estimate_block(eta, k, a, level)), case
            nan_cases += math.isnan(got[0])
        assert 0 < nan_cases < len(cases)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 1.0 / 3.0, 0.9, -0.5])
    def test_nan_exactly_where_a_eta_reaches_half(self, a):
        for eta in map(float, _etas_around_half(a)):
            undefined = a * eta >= 0.5
            assert [math.isnan(x) for x in uncertainty(eta, 10, a)] == [undefined] * 3

    def test_variance_overflow_is_infinite(self):
        # at eta = 1e153, a = -499 the square (1 - a*eta)^2 overflows a float, where
        # ** raises; at eta = 1e150 only the product with eta^2 overflows, to inf
        for eta in (1e150, 1e153):
            assert asymptotic_variance(-499.0, eta) == math.inf
            assert uncertainty(eta, 10, -499.0) == (math.inf, -math.inf, math.inf)


class TestQConstructors:
    QS = list(DEFAULT_Q_GRID) + [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                                 1e-9, 1e9, 0.1 + 0.2, 7]

    @pytest.mark.parametrize("margin", list(Margin))
    @pytest.mark.parametrize("ctor,ref", [
        (EstimatorSpec.conjugate, ref_conjugate),
        (EstimatorSpec.mean_of_order_p, ref_mean_of_order_p),
    ], ids=["conjugate", "mean_of_order_p"])
    def test_fields_match(self, ctor, ref, margin):
        for q in self.QS:
            got, want = ctor(q, margin), ref(q, margin)
            assert got == want
            assert repr((got.a, got.b, got.q)) == repr((want.a, want.b, want.q)), q
            assert math.copysign(1.0, got.b) == math.copysign(1.0, want.b), q
            assert got.tag == want.tag and got.margin is want.margin

    def test_hill_at_one_has_positive_zeros(self):
        for ctor in (EstimatorSpec.conjugate, EstimatorSpec.mean_of_order_p):
            spec = ctor(1.0)
            assert spec.is_hill
            assert repr((spec.a, spec.b)) == "(0.0, 0.0)"

    @pytest.mark.parametrize("q", [0, 0.0, -1, math.nan, math.inf, float("1e309")],
                             ids=["int0", "zero", "minus1", "nan", "inf", "1e309"])
    @pytest.mark.parametrize("ctor,ref", [
        (EstimatorSpec.conjugate, ref_conjugate),
        (EstimatorSpec.mean_of_order_p, ref_mean_of_order_p),
    ], ids=["conjugate", "mean_of_order_p"])
    def test_errors_match(self, ctor, ref, q):
        with pytest.raises(NumericDomainError) as want:
            ref(q)
        with pytest.raises(NumericDomainError) as got:
            ctor(q)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestEtaHatBounds:
    @pytest.fixture
    def pseudo(self):
        rng = np.random.default_rng(5)
        return PseudoSample.from_sample(BivariateSample(rng.random(40), rng.random(40)))

    @pytest.mark.parametrize("k,message", [
        (0, "need k >= 1, got 0"), (-1, "need k >= 1, got -1"),
        (40, r"k \+ 1 = 41 values, got shape \(40,\)"),
        (41, r"k \+ 1 = 42 values, got shape \(40,\)"),
        (200, r"k \+ 1 = 201 values, got shape \(40,\)"),
    ])
    def test_out_of_range_k_raises(self, pseudo, k, message):
        for margin in Margin:
            with pytest.raises(ValueError, match=message):
                eta_hat(pseudo, k, EstimatorSpec.conjugate(0.7, margin))

    def test_in_range_k_is_the_kernel_on_the_top_k(self, pseudo):
        for margin in Margin:
            spec = EstimatorSpec.conjugate(0.7, margin)
            for k in (1, 20, 39):
                tail = {Margin.PARETO_T: pseudo.t_sorted,
                        Margin.FRECHET_SHIFTED: pseudo.vstar_sorted,
                        Margin.FRECHET_UNSHIFTED: pseudo.v_sorted}[margin][40 - k - 1:]
                assert len(tail) == k + 1
                assert eta_hat(pseudo, k, spec) == m_ab(tail, k, spec.a, spec.b)
