"""Accuracy of the M_{a,b} path kernel against 40-digit decimal arithmetic.

``m_ab_path`` evaluates M_{a,b} in an anchored form (logs, excesses over the top
log, one cumulative sum per row), on one tail or on stacked tails with a tail per
row.  Here every entry, from either call, is compared with M_{a,b} taken
from its definition in ``decimal`` at 40 significant digits, on the same
float64 tail values (a float converts to a Decimal exactly), and must lie within a
forward-error bound derived below for each entry from the reference's own values.

The bound, to first order in the unit roundoff e = 2^-53.  Every transcendental
(log, expm1, log1p, logaddexp) is taken as correct to 4 ulp, every basic operation
to 1.  Descending logs L_0 >= L_1 >= ... of the tail, L = max(|L_0|, |L_k|) (all
L_i lie between them), excesses x_i = L_i - L_0, terms t_i = expm1(a x_i) and
weights w_i = 1 + t_i = (z_i / z_0)^a > 0 for i < k; S = sum t_i, W = sum w_i = S + k.
For a != 0 every t_i has the sign of -a, so sum |t_i| = |S|.

1. L_i = log z_i:            |dL_i| <= 4e L.
2. x_i = L_i - L_0:          |dx_i| <= 8e L + e |x_i| <= 10e L      (|x_i| <= 2L).
3. a x_i, then expm1:        |dt_i| <= w_i (10e L |a| + e |a x_i|) + 4e |t_i|
                                    <= w_i 12e L |a| + 4e |t_i|.
4. S by a cumulative sum:    |dS| <= sum |dt_i| + (k - 1) e sum |t_i|
   (recursive summation: about k e relative to the sum of |terms|).
5. log1p(S / k), then / a:   the division adds e |S| / k, and log1p's argument error
   is divided by 1 + S/k = W / k, so, with sum w_i / W = 1,
       d log_mean <= 12e L + (k + 5) e |S| / (|a| W) + 5e |log1p(S / k) / a|.
6. The gap L_0 - L_k (<= 10e L) and the final sum (e |log A|); |log1p(S/k) / a|
   <= |log A| + 2L, so
       d log A <= 32e L + (k + 5) e |S| / (|a| W) + 6e |log A|.
   Hill (a = 0) sums the x_i themselves: d log A <= 20e L + (k + 1) e mean|x_i|
   + 2e |log A|, the a -> 0 limit of the same form.
   A row whose float sum S passes the float range takes log A from the running
   logaddexp of a x_i instead: k steps of 4e of a partial result at most
   |a| 2L + log k each, divided by |a|, so the sum term becomes
   4k e (2L + log(k) / |a|).  Near the float range (S > 1e307) either can apply, and
   the larger bound is taken.
7. M = expm1(b log A) / b:   |dM| <= |1 + bM| (d log A + e |log A|) + 5e |M|,
   and M = log A for b = 0.
The bound asserted is twice this first-order sum, for the terms of second order.
Where expm1(b log A) passes the float range (b log A > log of the largest float)
the kernel returns NaN, and must do so exactly there.
"""
import decimal
import math
from itertools import chain

import numpy as np
import pytest

from residualdep import BivariateSample, CopulaModel, EstimatorSpec, PseudoSample, \
    replicate_generator, sample_copula
from residualdep.estimators import m_ab_path
from residualdep.simulate import ALL_MARGINS, DEFAULT_Q_GRID

EPS = 2.0 ** -53
N = 500
KS = (1, 2, 10, 150, N - 1)
Q_GRID = (0.001, 0.005) + DEFAULT_Q_GRID
CTX = decimal.Context(prec=40)
LOG_FLOAT_MAX = CTX.ln(CTX.create_decimal(np.finfo(float).max))
NEAR_FLOAT_MAX = decimal.Decimal("1e307")


def seeded_tails(seed):
    """Every margin's n pseudo-observations of one frank(0.5) sample, ascending."""
    u, v = sample_copula(CopulaModel("frank", 0.5), N, replicate_generator(seed, 0))
    pseudo = PseudoSample.from_sample(BivariateSample(u, v))
    return {margin: pseudo.top(margin) for margin in ALL_MARGINS}


def reference(tail, a, b):
    """Per k of KS: M and the bound on its float error, at 40 digits (M is None where
    expm1(b log A) passes the float range)."""
    a_d, b_d = CTX.create_decimal(a), CTX.create_decimal(b)
    logs = [CTX.ln(CTX.create_decimal(z)) for z in tail[::-1].tolist()]  # L_0 >= L_1 >= ...
    prefix = [decimal.Decimal(0)]  # sum_{i<k} w_i, exactly enough, as P_k exp(-a L_0)
    for log_z in logs[:max(KS)]:
        prefix.append(prefix[-1] + (CTX.exp(a_d * (log_z - logs[0])) if a else log_z - logs[0]))
    out = []
    for k in KS:
        big_l = float(max(abs(logs[0]), abs(logs[k])))
        gap = logs[0] - logs[k]
        if a == 0.0:  # prefix holds sum x_i
            log_a = prefix[k] / k + gap
            d_log_a = 20 * big_l + (k + 1) * float(-prefix[k] / k) + 2 * abs(float(log_a))
        else:
            weights = prefix[k]
            s = weights - k
            log_a = CTX.ln(weights / k) / a_d + gap
            direct = (k + 5) * float(abs(s) / (abs(a_d) * weights))
            log_space = 4 * k * (2 * big_l + math.log(k) / abs(a))
            d_sum = max(direct, log_space) if s > NEAR_FLOAT_MAX else direct
            d_log_a = 32 * big_l + d_sum + 6 * abs(float(log_a))
        if b == 0.0:
            out.append((log_a, 2 * EPS * d_log_a))
            continue
        exponent = b_d * log_a
        if exponent > LOG_FLOAT_MAX:
            out.append((None, None))
            continue
        m = (CTX.exp(exponent) - 1) / b_d
        growth = float(abs(1 + b_d * m))
        out.append((m, 2 * EPS * (growth * (d_log_a + abs(float(log_a)))
                                          + 5 * abs(float(m)))))
    return out


@pytest.fixture(scope="module")
def cases():
    """Per seed, (margin, spec, tail, reference per k) for every margin and q."""
    found = {}
    for seed in (3, 41):
        found[seed] = [(margin, spec, tail, reference(tail, spec.a, spec.b))
                       for margin, tail in seeded_tails(seed).items()
                       for spec in map(EstimatorSpec.conjugate, Q_GRID)]
    return found


def check(got, margin, spec, want):
    for k, value, (m, bound) in zip(KS, got.tolist(), want):
        where = (margin, spec.q, k)
        if m is None:
            assert math.isnan(value), where
            continue
        assert math.isfinite(value), where
        error = abs(decimal.Decimal(value) - m)
        assert error <= decimal.Decimal(bound), (where, float(error), bound, float(m))


def test_one_margin_calls_within_the_forward_error_bound(cases):
    for margin, spec, tail, want in chain.from_iterable(cases.values()):
        check(m_ab_path(tail, KS, spec.a, spec.b), margin, spec, want)


def test_stacked_call_within_the_forward_error_bound(cases):
    # one call per seed: the three margins' tails stacked, a row per (margin, q)
    for seed_cases in cases.values():
        margins = list(dict.fromkeys(margin for margin, *_ in seed_cases))
        tails = np.stack([tail for margin, _, tail, _ in seed_cases[::len(Q_GRID)]])
        got = m_ab_path(tails, KS, [spec.a for _, spec, _, _ in seed_cases],
                        [spec.b for _, spec, _, _ in seed_cases],
                        [margins.index(margin) for margin, *_ in seed_cases])
        assert got.shape == (3 * len(Q_GRID), len(KS))
        for row, (margin, spec, _, want) in zip(got, seed_cases):
            check(row, margin, spec, want)


def test_bound_is_tight_where_nothing_overflows(cases):
    # the derived bound is no licence for slack: on the default q grid it stays below
    # 1e-11 relative to M (1.7e-12 at most here, at k = n - 1, where the summation
    # term k e dominates), and the errors seen use part of it
    worst = 0.0
    for margin, spec, tail, want in chain.from_iterable(cases.values()):
        if spec.q not in DEFAULT_Q_GRID:
            continue
        got = m_ab_path(tail, KS, spec.a, spec.b)
        for value, (m, bound) in zip(got.tolist(), want):
            assert bound <= 1e-11 * max(abs(float(m)), 1e-300), (margin, spec.q)
            worst = max(worst, float(abs(decimal.Decimal(value) - m)) / bound)
    assert 0.0 < worst <= 1.0
