"""Reduced-bias estimation of the residual dependence index.

The corrected estimator multiplies the shifted-Frechet estimate
eta_s = M_{a,-a} on the V* order statistics by

    1 - ( beta (n/k)^(-tau) + 1/(1 + 2 V_(n, n-k*)) ) * (1 - a eta_s) / (1 - a eta_s + tau)

with k* an auxiliary top-order-statistic count constrained by
k* <= sqrt(k).  The (tau, beta) pair can be estimated from the data
(statistics-ratio tau estimator plus its companion beta estimator,
both on the T order statistics), supplied by the caller, or taken
from a model's ground truth through ``effective_tau``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._workspace import Workspace, second_order
from .errors import ConstraintError, DataError, EstimationError, NumericDomainError, \
    ParameterDomainError, _integral
from .estimators import EtaEstimate, _bias_factor, m_ab_path, uncertainty
from .pseudo import Margin, PseudoSample

# Not called here (the reduced-bias estimate reaches the kernel through
# ``m_ab_path``), but the benchmark's tracer, bench/runner.py, wraps it under
# this name.
from .estimators import eta_hat  # noqa: F401

__all__ = [
    "SecondOrderParams",
    "effective_tau",
    "default_k0",
    "estimate_second_order",
    "reduced_bias_path",
    "reduced_bias_eta",
]


@dataclass(frozen=True)
class SecondOrderParams:
    tau_hat: float
    beta_hat: float
    k0: int  # 0 for given values, else the count of top order statistics estimated on

    def __post_init__(self):
        if not 0.0 < self.tau_hat < math.inf:  # an infinite tau makes the correction a no-op
            raise NumericDomainError(f"tau_hat must be finite and positive, got {self.tau_hat}")
        if not math.isfinite(self.beta_hat):
            raise NumericDomainError(f"beta_hat must be finite, got {self.beta_hat}")
        object.__setattr__(self, "k0", _integral("k0", self.k0))
        if not (self.k0 == 0 or self.k0 >= 2):
            raise NumericDomainError(
                f"k0 must be 0 (given values) or >= 2 (an estimate), got {self.k0}")


def effective_tau(eta: float, tau: float) -> float:
    """Second-order parameter governing the shifted sequence: tau if
    tau < eta, else eta."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return tau if tau < eta else eta


def default_k0(n: int) -> int:
    """Customary near-full-sample threshold [n^0.999] for second-order estimation."""
    return min(int(n ** 0.999), n - 1)


def estimate_second_order(pseudo, k0: int | None = None, *,
                          workspace: Workspace | None = None) -> SecondOrderParams:
    """Estimate (tau, beta) from the top k0 standard-Pareto pseudo-observations.

    tau comes from the three-moment statistics-ratio estimator (log tuning),
    negated into this package's positive-tau convention; beta from the
    companion scaled-log-spacings estimator evaluated at the same threshold.

    Parameters
    ----------
    pseudo : PseudoSample or 1d array
        Either a pseudo-observation bundle (its top k0 + 1 T values are
        read) or an already-sorted positive sample.
    k0 : int, optional
        Number of top order statistics to use; defaults to [n^0.999].
    workspace : optional
        A study's reusable buffers, which take the tail and every temporary; the
        estimate is the same either way.

    Raises
    ------
    DataError
        When fewer than 50 observations are given, or an array that is not 1-d, not
        ascending, or whose first value is not positive.
    ParameterDomainError
        When k0 lies outside 2..n-1.
    EstimationError
        On degenerate tails (constant top order statistics) or when the
        statistics ratio degenerates so that no positive tau results.
    """
    n = pseudo.n if isinstance(pseudo, PseudoSample) else len(pseudo)
    if n < 50:
        raise DataError(f"second-order estimation needs n >= 50, got {n}")
    if k0 is None:
        k0 = default_k0(n)
    if not 2 <= k0 <= n - 1:
        raise ParameterDomainError(f"need 2 <= k0 <= n - 1 = {n - 1}, got {k0}")
    if not isinstance(pseudo, PseudoSample):  # a PseudoSample is sorted by construction
        pseudo = np.asarray(pseudo)
        if pseudo.ndim != 1 or not (pseudo[0] > 0.0 and np.all(pseudo[1:] >= pseudo[:-1])):
            raise DataError("second-order estimation needs an ascending, positive 1-d sample")

    # each step writes to its ``out`` (None allocates), in the order of the formula
    out, *outs, i, x = second_order(workspace, n, k0)
    tail = pseudo.top(Margin.PARETO_T, k0 + 1, out=out) if isinstance(pseudo, PseudoSample) \
        else pseudo[n - k0 - 1:]
    log_t = np.log(tail, out=out)  # z_(n-k0) .. z_(n)
    excess = np.subtract(log_t[1:], log_t[0], out=outs[0])
    if not excess.any():
        raise EstimationError(f"degenerate tail: top {k0} pseudo-observations are constant")
    m1 = float(np.mean(excess))
    m2 = float(np.mean(np.power(excess, 2, out=outs[1])))
    m3 = float(np.mean(np.power(excess, 3, out=outs[1])))
    if m2 <= 0.0 or m3 <= 0.0:
        raise EstimationError("degenerate tail moments; cannot form the statistics ratio")
    num = math.log(m1) - 0.5 * math.log(m2 / 2.0)
    den = 0.5 * math.log(m2 / 2.0) - math.log(m3 / 6.0) / 3.0
    if den == 0.0:
        raise EstimationError("statistics ratio degenerate (zero denominator)")
    t_stat = num / den
    if t_stat == 3.0 or not math.isfinite(t_stat):
        raise EstimationError(f"statistics ratio {t_stat} admits no finite tau")
    tau = abs(3.0 * (t_stat - 1.0) / (t_stat - 3.0))
    if not (math.isfinite(tau) and tau > 0.0):
        raise EstimationError(
            f"adapted tau = {tau} is not a positive real "
            f"(statistics ratio {t_stat:.6g} on k0={k0} of n={n})"
        )

    beta = _beta_companion(log_t, n, k0, tau, i, x, outs)
    if not math.isfinite(beta):
        raise EstimationError(f"beta estimate diverged at k0={k0}")
    return SecondOrderParams(tau_hat=tau, beta_hat=beta, k0=k0)


def _beta_companion(log_t: np.ndarray, n: int, k0: int, tau: float, i: np.ndarray,
                    x: np.ndarray, outs) -> float:
    # scaled log-spacings U_i = i (log z_(n-i+1) - log z_(n-i)) for i = 1..k0 and
    # x = i / k0; each step writes to one of the three ``outs`` (None allocates)
    rho = -tau
    desc = log_t[::-1]
    spacings = np.multiply(i, np.subtract(desc[:k0], desc[1:k0 + 1], out=outs[0]), out=outs[0])
    x_rho = np.power(x, -rho, out=outs[1])
    d_rho = float(np.mean(x_rho))
    big_d0 = float(np.mean(spacings))
    big_dr = float(np.mean(np.multiply(x_rho, spacings, out=outs[2])))
    big_d2r = float(np.mean(np.multiply(np.power(x, -2.0 * rho, out=outs[2]), spacings,
                                        out=outs[2])))
    denom = d_rho * big_dr - big_d2r
    if denom == 0.0:
        raise EstimationError("beta estimator denominator vanished")
    return (k0 / n) ** rho * (d_rho * big_d0 - big_dr) / denom


def _corrected(eta_s, a, tau: float, beta_term, v_kstar):
    # the correction, elementwise; NaN where eta_s is NaN or 1 - a*eta_s + tau <= 0
    correction = _bias_factor(a, eta_s, tau, beta_term + 1.0 / (1.0 + 2.0 * v_kstar))
    return eta_s * (1.0 - correction)


def reduced_bias_path(pseudo: PseudoSample, ks, kstars, a, so: SecondOrderParams,
                      eta_s) -> np.ndarray:
    """Reduced-bias estimates of eta at every (k, k*) pair; NaN where undefined.

    ``eta_s`` holds the base estimates M_{a,-a} on the V* order statistics at
    every k of ``ks``: one path for a scalar ``a``, one row per entry of a
    vector ``a``.  The pairs are taken as given: ``reduced_bias_eta`` is the
    single-pair view that checks k* against sqrt(k).
    """
    ks = np.asarray(ks, dtype=np.intp)
    beta_term = so.beta_hat * (pseudo.n / ks) ** (-so.tau_hat)
    kstars = np.asarray(kstars, dtype=np.intp)
    v_kstar = pseudo.top(Margin.FRECHET_UNSHIFTED, int(kstars.max(initial=0)) + 1)[-1 - kstars]
    a_col = np.asarray(a, dtype=float)[..., None]
    return _corrected(eta_s, a_col, so.tau_hat, beta_term, v_kstar)


def reduced_bias_eta(pseudo: PseudoSample, k: int, k_star: int, a: float,
                     so: SecondOrderParams, level: float = 0.95) -> EtaEstimate:
    """Reduced-bias estimate of eta on the shifted-Frechet margin.

    Parameters
    ----------
    pseudo : PseudoSample
    k : int
        Number of top order statistics for the base estimate.
    k_star : int
        Auxiliary count selecting V_(n, n-k*); must satisfy k_star <= sqrt(k).
    a : float
        Distortion parameter of the M_{a,-a} subclass.
    so : SecondOrderParams
        The (tau, beta) pair driving the correction.
    """
    n = pseudo.n
    if not 1 <= k_star <= n - 1:
        raise ValueError(f"need 1 <= k_star <= n - 1, got {k_star}")
    if k_star > math.isqrt(k):
        raise ConstraintError(
            f"k_star = {k_star} exceeds sqrt(k) = sqrt({k}); the correction is "
            "only valid for k_star <= sqrt(k)"
        )
    eta_s = m_ab_path(pseudo.top(Margin.FRECHET_SHIFTED, min(k + 1, n)), [k], a, -a)
    eta_rb = float(reduced_bias_path(pseudo, [k], [k_star], a, so, eta_s)[0])
    if math.isnan(eta_rb):
        raise NumericDomainError(
            f"reduced-bias estimate undefined at a={a}, k={k}: M_(a,-a) overflows "
            "or 1 - a*eta + tau <= 0"
        )
    variance, low, high = uncertainty(eta_rb, k, a, level)
    return EtaEstimate(
        eta=eta_rb, k=k, a_used=a, variance=variance, bias_term=math.nan,
        ci_low=low, ci_high=high, margin=Margin.FRECHET_SHIFTED,
    )
