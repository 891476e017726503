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

import numpy as np

from ._workspace import Workspace
from .errors import NumericDomainError, VarianceDomainError
from .pseudo import Margin, PseudoSample

__all__ = [
    "EstimatorSpec",
    "EtaEstimate",
    "m_ab_path",
    "m_ab",
    "eta_hat",
    "point_estimate",
    "asymptotic_variance",
    "asymptotic_bias",
    "uncertainty",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """Resolved (a, b) pair plus the margin the estimator runs on.

    Build through one of the constructors; ``q`` records the distortion
    value of a q parametrisation (``None`` for raw pairs).
    """

    a: float
    b: float
    margin: Margin = Margin.PARETO_T
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
        if q == 1.0:
            return cls(a=0.0, b=0.0, margin=Margin(margin), q=q)
        a = a_of_q(q)
        return cls(a=a, b=-a, margin=Margin(margin), q=q)


def m_ab_path(tail: np.ndarray, ks, a, b, tail_index=None, *,
              workspace: Workspace | None = None) -> np.ndarray:
    """Evaluate M_{a,b} at every k of ``ks`` (each in 1 .. len(tail) - 1).

    Entry j is M_{a,b} over the top ``ks[j]`` values of the ascending,
    positive ``tail`` above the threshold ``tail[-ks[j] - 1]``, or NaN where
    that is not finite.  Vectors ``a`` and ``b`` give one such path per (a, b)
    pair, a row each.  A 2-D ``tail`` stacks several tails (a margin's each,
    say), and row r of ``a`` and ``b`` runs on tail ``tail_index[r]`` (the
    first by default); a 1-D ``tail`` serves every row.  With L_0 >= L_1 >= ...
    the descending logs,

        log A_a(k) = log1p(S_k / k) / a + (L_0 - L_k),
        S_k = sum_{i<k} expm1(a (L_i - L_0)),

    and the a = 0 (log-limit) member is sum_{i<k} (L_i - L_0) / k + (L_0 - L_k),
    so one cumulative sum per row serves every k, and the logs and excesses
    L_i - L_0 of a tail serve all its rows.  The anchor L_0 is the top value,
    which makes entry j depend on ``tail[-ks[j] - 1:]`` alone.  For a < 0 the
    terms grow with i; prefix sums past the float range are taken in log space
    instead, on the row's own tail.

    Given a study's ``workspace``, the logs, the excesses, the (rows, k_max) terms
    and the (rows, len(ks)) values are written to its kernel buffers, with the same
    ufuncs in the same order, so the result is the same to the bit; ``tail`` may be
    the workspace's stacked-tails buffer, which then holds the logs.
    """
    ks = np.asarray(ks, dtype=np.intp)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if ks.size == 0:
        return np.empty(a.shape + (0,))
    tail = np.asarray(tail, dtype=float)
    top, length = int(ks.max()), tail.shape[-1]
    if ks.min() < 1 or top >= length:
        raise ValueError(f"need 1 <= k <= {length - 1} for {length} values, "
                         f"got k in {ks.min()}..{top}")
    tails = tail.reshape(-1, length)[:, length - top - 1:]
    a_col, b_col = a.reshape(-1, 1), b.reshape(-1, 1)
    rows = np.zeros(len(a_col), dtype=np.intp) if tail_index is None else \
        np.asarray(tail_index, dtype=np.intp).reshape(-1)
    if rows.shape != (len(a_col),) or \
            len(rows) and not 0 <= rows.min() <= rows.max() < len(tails):
        raise ValueError(f"tail_index must give one of the {len(tails)} tails per (a, b) row")
    hill = a_col == 0.0
    logs_out, excess_out, terms_out, sums_out, log_a_out = (None,) * 5 if workspace is None \
        else workspace.kernel(len(tails), len(a_col), top, len(ks))
    with np.errstate(all="ignore"):
        logs = np.log(tails, out=logs_out)[:, ::-1]
        excess = np.subtract(logs[:, :-1], logs[:, :1], out=excess_out)
        # each row's excesses (every index is in range, and mode "raise" would buffer a
        # copy of ``out``), expm1(a x) in place, and the Hill rows' excesses again
        terms = np.take(excess, rows, axis=0, out=terms_out, mode="clip")
        np.expm1(np.multiply(a_col, terms, out=terms), out=terms)
        for row in np.flatnonzero(hill):
            terms[row] = excess[rows[row]]
        sums = np.take(np.cumsum(terms, axis=-1, out=terms), ks - 1, axis=-1, out=sums_out,
                       mode="clip")
        log_a = np.log1p(np.divide(sums, ks, out=log_a_out), out=log_a_out)  # log_mean, first
        for row in np.flatnonzero(~np.isfinite(sums).all(axis=-1)):
            lse = np.logaddexp.accumulate(a_col[row] * excess[rows[row]])[ks - 1]
            log_a[row] = np.where(np.isfinite(sums[row]), log_a[row], lse - np.log(ks))
        # log_mean / a, or sums / k on the Hill rows, plus L_0 - L_k of each row's tail
        np.divide(log_a, a_col, out=log_a)
        for row in np.flatnonzero(hill):
            np.divide(sums[row], ks, out=log_a[row])
        np.add(log_a, np.take(logs[:, :1] - logs[:, ks], rows, axis=0, out=sums, mode="clip"),
               out=log_a)
        # (A^b - 1) / b, or log A on the b = 0 rows
        m = np.divide(np.expm1(np.multiply(b_col, log_a, out=sums), out=sums), b_col, out=sums)
        for row in np.flatnonzero(b_col == 0.0):
            m[row] = log_a[row]
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


def eta_hat(pseudo: PseudoSample, k: int, spec: EstimatorSpec) -> float:
    """Point estimate of eta at level k (1 <= k <= n - 1) under the given estimator spec."""
    tail = pseudo.top(spec.margin, min(max(k + 1, 0), pseudo.n))  # m_ab rejects a bad k
    return m_ab(tail, k, spec.a, spec.b)


def _sigma2(a, eta):
    # sigma_a^2(eta), elementwise; a float product overflows to inf where ** would raise
    ae = a * eta
    return eta * eta * ((1.0 - ae) * (1.0 - ae)) / (1.0 - 2.0 * ae)


def asymptotic_variance(a: float, eta: float) -> float:
    """sigma_a^2(eta) = eta^2 (1 - a eta)^2 / (1 - 2 a eta), for a eta < 1/2."""
    ae = a * eta
    if ae >= 0.5:
        raise VarianceDomainError(
            f"a * eta = {ae:.6g} >= 1/2: asymptotic variance undefined for a={a}, eta={eta}"
        )
    return float(_sigma2(a, eta))


def _bias_factor(a, eta, tau, scale=1.0):
    # scale * b_a(eta, tau), elementwise, as (scale * (1 - a eta)) / (1 - a eta + tau) in
    # that order; NaN where eta is NaN or 1 - a eta + tau <= 0
    numerator = 1.0 - a * eta
    denom = numerator + tau
    return scale * numerator / np.where(denom > 0.0, denom, np.nan)


def asymptotic_bias(a: float, eta: float, tau: float) -> float:
    """Dominant bias factor b_a(eta, tau) = (1 - a eta) / (1 - a eta + tau)."""
    denom = 1.0 - a * eta + tau
    if denom <= 0.0:
        raise NumericDomainError(
            f"1 - a*eta + tau = {denom:.6g} <= 0: bias factor undefined"
        )
    return float(_bias_factor(a, eta, tau))


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989), the
# algorithm of scipy.special.ndtri: a rational approximation in y - 1/2 for the centre and
# in 1/sqrt(-2 log y) for the tails, coefficients highest degree first.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coefs, acc: float = 0.0) -> float:
    # Horner from coefs[0]; acc = 1.0 gives Cephes' p1evl (an implicit leading 1)
    for c in coefs:
        acc = acc * x + c
    return acc


def _ndtri(p: float) -> float:
    """The standard normal quantile, as Cephes computes it (no scipy import needed)."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    flipped = p > 1.0 - _EXP_M2
    y = 1.0 - p if flipped else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, 1.0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p_tail, q_tail = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _polevl(z, p_tail) / _polevl(z, q_tail, 1.0)
    return x if flipped else -x


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


def uncertainty(estimate, k, a, level: float = 0.95):
    """(sigma_a^2(estimate) / k, ci_low, ci_high) elementwise over broadcast ``estimate``, ``k``
    and ``a`` (Python floats for scalars): the plug-in variance and normal CI estimate +/-
    z_(1+level)/2 * sigma_a / sqrt(k), all three NaN where a * estimate >= 1/2 or it is NaN."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if np.min(k) < 1:
        raise ValueError(f"need k >= 1, got {np.min(k)}")
    eta = np.asarray(estimate, dtype=float)
    with np.errstate(all="ignore"):
        sigma2 = np.where(a * eta < 0.5, _sigma2(a, eta), math.nan)
        half_width = _ndtri((1.0 + level) / 2.0) * np.sqrt(sigma2) / np.sqrt(k)
        out = sigma2 / k, eta - half_width, eta + half_width
    return tuple(map(float, out)) if sigma2.ndim == 0 else out


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
