"""The power-mean estimator kernel for the residual dependence index.

The kernel is the two-parameter functional

    M_{a,b}(tail) = (A_a^b - 1) / b,
    A_a = [ (1/k) sum_{i=0}^{k-1} (z_(n-i) / z_(n-k))^a ]^{1/a},

over the top k order statistics of a pseudo-observation sequence, with
the a = 0 and/or b = 0 members understood as log-limits; a = b = 0 is
the Hill estimator.  Members with b = -a estimate eta directly, and two
conjugate parametrisations in a single distortion parameter q > 0 are
provided, both collapsing symbolically to Hill at q = 1:

    conjugate:        a = 1 - 1/q,  b = -a
    mean-of-order-p:  a = 1 - q,    b = -a

Closed-form asymptotic variance and dominant bias of the b = -a subclass
accompany the point estimates, together with plug-in normal confidence
intervals (valid only while a * eta < 1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .errors import NumericDomainError, VarianceDomainError
from .pseudo import PseudoSample

__all__ = [
    "Margin",
    "EstimatorSpec",
    "EtaEstimate",
    "m_ab_path",
    "m_ab",
    "sorted_margin",
    "eta_hat",
    "point_estimate",
    "asymptotic_variance",
    "asymptotic_bias",
    "confidence_interval",
    "uncertainty",
]


class Margin(str, Enum):
    PARETO_T = "pareto_t"
    FRECHET_SHIFTED = "frechet_shifted"
    FRECHET_UNSHIFTED = "frechet_unshifted"


@dataclass(frozen=True)
class EstimatorSpec:
    """Resolved (a, b) pair plus the margin the estimator runs on.

    Build through one of the constructors; ``tag`` records which
    parametrisation produced the pair and ``q`` its distortion value
    (``None`` for raw pairs).
    """

    a: float
    b: float
    margin: Margin = Margin.PARETO_T
    tag: str = "raw"
    q: float | None = None

    @classmethod
    def from_ab(cls, a: float, b: float, margin=Margin.PARETO_T) -> "EstimatorSpec":
        return cls(a=float(a), b=float(b), margin=Margin(margin))

    @classmethod
    def conjugate(cls, q: float, margin=Margin.PARETO_T) -> "EstimatorSpec":
        """Primary parametrisation a = 1 - 1/q, b = 1/q - 1 (0 < q < inf)."""
        return cls._from_q("conjugate", lambda q: 1.0 - 1.0 / q, q, margin)

    @classmethod
    def mean_of_order_p(cls, q: float, margin=Margin.PARETO_T) -> "EstimatorSpec":
        """Alternative parametrisation a = 1 - q, b = q - 1 (0 < q < inf)."""
        return cls._from_q("mean-of-order-p", lambda q: 1.0 - q, q, margin)

    @classmethod
    def _from_q(cls, name: str, a_of_q, q: float, margin) -> "EstimatorSpec":
        # a = a_of_q(q), b = -a; at q = 1 exactly Hill, a = b = +0.0 (-a would be -0.0)
        q = float(q)
        if not 0.0 < q < math.inf:
            raise NumericDomainError(f"{name} parametrisation needs 0 < q < inf, got {q}")
        tag = name.replace("-", "_")
        if q == 1.0:
            return cls(a=0.0, b=0.0, margin=Margin(margin), tag=tag, q=q)
        a = a_of_q(q)
        return cls(a=a, b=-a, margin=Margin(margin), tag=tag, q=q)

    @property
    def is_hill(self) -> bool:
        return self.a == 0.0 and self.b == 0.0


def m_ab_path(tail: np.ndarray, ks, a, b) -> np.ndarray:
    """Evaluate M_{a,b} at every k of ``ks`` (each in 1 .. len(tail) - 1).

    Entry j is M_{a,b} over the top ``ks[j]`` values of the ascending,
    positive ``tail`` above the threshold ``tail[-ks[j] - 1]``, or NaN where
    that is not finite.  Vectors ``a`` and ``b`` give one such path per (a, b)
    pair, a row each.  With L_0 >= L_1 >= ... the descending logs,

        log A_a(k) = log1p(S_k / k) / a + (L_0 - L_k),
        S_k = sum_{i<k} expm1(a (L_i - L_0)),

    and the a = 0 (log-limit) member is sum_{i<k} (L_i - L_0) / k + (L_0 - L_k),
    so one cumulative sum per row serves every k.  The anchor L_0 is the top
    value, which makes entry j depend on ``tail[-ks[j] - 1:]`` alone.  For
    a < 0 the terms grow with i; prefix sums past the float range are taken
    in log space instead.
    """
    ks = np.asarray(ks, dtype=np.intp)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if ks.size == 0:
        return np.empty(a.shape + (0,))
    tail = np.asarray(tail, dtype=float)
    top = int(ks.max())
    if ks.min() < 1 or top >= len(tail):
        raise ValueError(f"need 1 <= k <= {len(tail) - 1} for {len(tail)} values, "
                         f"got k in {ks.min()}..{top}")
    a_col, b_col = a.reshape(-1, 1), b.reshape(-1, 1)
    hill = a_col == 0.0
    with np.errstate(all="ignore"):
        logs = np.log(tail[len(tail) - top - 1:])[::-1]
        excess = logs[:-1] - logs[0]
        sums = np.cumsum(np.where(hill, excess, np.expm1(a_col * excess)), axis=-1)[:, ks - 1]
        log_mean = np.log1p(sums / ks)
        for row in np.flatnonzero(~np.isfinite(sums).all(axis=-1)):
            lse = np.logaddexp.accumulate(a_col[row] * excess)[ks - 1]
            log_mean[row] = np.where(np.isfinite(sums[row]), log_mean[row], lse - np.log(ks))
        log_a = np.where(hill, sums / ks, log_mean / a_col) + (logs[0] - logs[ks])
        m = np.where(b_col == 0.0, log_a, np.expm1(b_col * log_a) / b_col)
    return np.where(np.isfinite(m), m, np.nan).reshape(a.shape + ks.shape)


def m_ab(tail: np.ndarray, k: int, a: float, b: float) -> float:
    """Evaluate M_{a,b} on an ascending tail slice z_(n-k) .. z_(n).

    The single-k view of ``m_ab_path``.

    Parameters
    ----------
    tail : 1d array, length k + 1
        The threshold order statistic followed by the top k order
        statistics, ascending; all entries must be positive.
    k : int
        Number of top order statistics above the threshold.
    a, b : float
        Functional parameters; 0 selects the respective log-limit branch.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    tail = np.asarray(tail, dtype=float)
    if tail.shape != (k + 1,):
        raise ValueError(f"tail must hold k + 1 = {k + 1} values, got shape {tail.shape}")
    if tail[0] <= 0.0:
        raise NumericDomainError(f"threshold order statistic must be positive, got {tail[0]}")
    value = float(m_ab_path(tail, [k], a, b)[0])
    if math.isnan(value):
        raise NumericDomainError(f"M_(a,b) overflows at a={a}, b={b}, k={k}")
    return value


_MARGIN_ATTR = {
    Margin.PARETO_T: "t_sorted",
    Margin.FRECHET_SHIFTED: "vstar_sorted",
    Margin.FRECHET_UNSHIFTED: "v_sorted",
}


def sorted_margin(pseudo: PseudoSample, margin) -> np.ndarray:
    """The ascending pseudo-observations z_(1) .. z_(n) of the requested margin."""
    return getattr(pseudo, _MARGIN_ATTR[Margin(margin)])


def eta_hat(pseudo: PseudoSample, k: int, spec: EstimatorSpec) -> float:
    """Point estimate of eta at level k (1 <= k <= n - 1) under the given estimator spec."""
    tail = sorted_margin(pseudo, spec.margin)[max(pseudo.n - k - 1, 0):]
    return m_ab(tail, k, spec.a, spec.b)


def asymptotic_variance(a: float, eta: float) -> float:
    """sigma_a^2(eta) = eta^2 (1 - a eta)^2 / (1 - 2 a eta), for a eta < 1/2."""
    ae = a * eta
    if ae >= 0.5:
        raise VarianceDomainError(
            f"a * eta = {ae:.6g} >= 1/2: asymptotic variance undefined for a={a}, eta={eta}"
        )
    try:
        square = (1.0 - ae) ** 2
    except OverflowError:  # float ** raises where float * gives inf
        square = math.inf
    return eta * eta * square / (1.0 - 2.0 * ae)


def asymptotic_bias(a: float, eta: float, tau: float) -> float:
    """Dominant bias factor b_a(eta, tau) = (1 - a eta) / (1 - a eta + tau)."""
    denom = 1.0 - a * eta + tau
    if denom <= 0.0:
        raise NumericDomainError(
            f"1 - a*eta + tau = {denom:.6g} <= 0: bias factor undefined"
        )
    return (1.0 - a * eta) / denom


@cache
def _ndtri():
    """scipy's normal quantile, imported at the first confidence interval: importing
    scipy.special takes longer than importing numpy and this package."""
    from scipy.special import ndtri
    return ndtri


def confidence_interval(estimate: float, k: int, a: float, level: float = 0.95):
    """Plug-in normal CI: estimate +/- z_(1+level)/2 * sigma_a(estimate)/sqrt(k).

    Raises ``VarianceDomainError`` when a * estimate >= 1/2, in which case
    no interval exists for this (a, eta) combination.
    """
    return _interval(estimate, k, asymptotic_variance(a, estimate), level)


def _interval(estimate: float, k: int, sigma2: float, level: float):
    # the interval of an estimate whose sigma_a^2 is already known
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    half_width = _ndtri()((1.0 + level) / 2.0) * math.sqrt(sigma2) / math.sqrt(k)
    return estimate - half_width, estimate + half_width


@dataclass(frozen=True)
class EtaEstimate:
    """A point estimate with its asymptotic uncertainty report.

    ``variance`` is on the sigma_a^2 / k scale (the plug-in variance of the
    estimate itself); ``bias_term`` is the dominant bias factor b_a, reported
    but never subtracted, and NaN when tau is unknown.  CI bounds are NaN
    when a * eta >= 1/2 makes the variance formula inapplicable.
    """

    eta: float
    k: int
    a_used: float
    variance: float
    bias_term: float
    ci_low: float
    ci_high: float
    margin: Margin


def uncertainty(estimate: float, k: int, a: float, level: float = 0.95):
    """(sigma_a^2(estimate) / k, ci_low, ci_high): the plug-in variance of an estimate
    at level k and its ``confidence_interval``, all three NaN where a * estimate >= 1/2
    leaves neither defined."""
    try:
        sigma2 = asymptotic_variance(a, estimate)
    except VarianceDomainError:
        return math.nan, math.nan, math.nan
    return sigma2 / k, *_interval(estimate, k, sigma2, level)


def point_estimate(pseudo: PseudoSample, k: int, spec: EstimatorSpec,
                   level: float = 0.95, tau: float | None = None) -> EtaEstimate:
    """eta_hat plus variance, bias factor and confidence bounds in one record."""
    eta = eta_hat(pseudo, k, spec)
    variance, low, high = uncertainty(eta, k, spec.a, level)
    bias = asymptotic_bias(spec.a, eta, tau) if tau is not None else math.nan
    return EtaEstimate(
        eta=eta, k=k, a_used=spec.a, variance=variance, bias_term=bias,
        ci_low=low, ci_high=high, margin=spec.margin,
    )
