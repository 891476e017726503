"""Bivariate copula models with exact samplers and closed-form CDFs.

Four families are supported: Farlie-Gumbel-Morgenstern, Frank,
Ali-Mikhail-Haq and Gaussian.  Each model carries its theoretical
residual dependence index ``true_eta`` and second-order parameter
``true_tau`` (where known), so simulation studies can measure bias
against ground truth:

    family    theta range   (eta, tau)
    --------  -----------   -----------------------------
    fgm       [-1, 1]       (1/2, 1/2)
    frank     (0, 20]       (1/2, 1/2)
    amh       [-1, 1]       (1/3, 2/3) at theta = -1, else unknown
    gaussian  (-1, 1)       ((1+theta)/2, 0)

Sampling is exact: conditional inversion with closed-form (quadratic or
logarithmic) inverses for the three Archimedean-type families, and a 2x2
Cholesky construction for the Gaussian family.  No rejection steps, so
sampler error cannot leak into bias measurements.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

from ._workspace import Workspace, floats
from .errors import ParameterDomainError, _real

__all__ = [
    "Family",
    "CopulaModel",
    "sample_copula",
    "copula_cdf",
    "replicate_generator",
]


class Family(str, Enum):
    FGM = "fgm"
    FRANK = "frank"
    AMH = "amh"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CopulaModel:
    """A copula family plus parameter, with ground-truth (eta, tau) attached.

    ``true_eta``/``true_tau`` are ``None`` when no closed-form ground truth
    is available (AMH with theta != -1).
    """

    family: Family
    theta: float
    true_eta: float | None = field(init=False, default=None)
    true_tau: float | None = field(init=False, default=None)

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        theta = float(_real("model theta", self.theta))
        object.__setattr__(self, "theta", theta)
        if fam is Family.FGM:
            if not -1.0 <= theta <= 1.0:
                raise ParameterDomainError(f"fgm requires theta in [-1, 1], got {theta}")
            eta, tau = 0.5, 0.5
        elif fam is Family.FRANK:
            if not 0.0 < theta <= 20.0:  # the sampler loses ~eps e^theta/theta in v
                raise ParameterDomainError(f"frank requires theta in (0, 20], got {theta}")
            eta, tau = 0.5, 0.5
        elif fam is Family.AMH:
            if not -1.0 <= theta <= 1.0:
                raise ParameterDomainError(f"amh requires theta in [-1, 1], got {theta}")
            if theta == -1.0:
                eta, tau = 1.0 / 3.0, 2.0 / 3.0
            else:
                eta, tau = None, None
        elif fam is Family.GAUSSIAN:
            if not -1.0 < theta < 1.0:
                raise ParameterDomainError(f"gaussian requires theta in (-1, 1), got {theta}")
            eta, tau = (1.0 + theta) / 2.0, 0.0
        object.__setattr__(self, "true_eta", eta)
        object.__setattr__(self, "true_tau", tau)


def replicate_generator(master_seed, replicate=None):
    """Counter-based generator for one replicate of a seeded study.

    Stream ``replicate`` is derived from ``(master_seed, replicate)`` alone,
    so a study sharded across any number of workers draws identical samples.
    Built on Philox, which is counter-based and cheap to spawn.
    """
    spawn_key = () if replicate is None else (int(replicate),)
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


@cache
def _special():
    """scipy.special, imported at the first Gaussian-family call: no other family needs
    it, and importing it takes longer than importing numpy and this package."""
    import scipy.special
    return scipy.special


def sample_copula(model: CopulaModel, n: int, seed, *,
                  workspace: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` pairs from the copula, uniform marginals on (0, 1).

    Parameters
    ----------
    model : CopulaModel
        Family and parameter to sample from.
    n : int
        Number of pairs, at least 2.
    seed : int or numpy.random.Generator
        Source of randomness; an int seeds ``replicate_generator``.
    workspace : optional
        A study's reusable buffers: u, v and the temporaries are written there, and
        u and v hold until its next use.  The values are the same either way.

    Returns
    -------
    (u, v) : pair of 1d arrays of length ``n``
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else replicate_generator(seed)
    theta = model.theta
    fam = model.family
    # each step writes to its ``out`` (None allocates), in the order of the formula
    u_out, v_out, t1, t2, t3, t4 = floats(workspace, n)
    if fam is Family.GAUSSIAN:
        ndtr = _special().ndtr
        z1 = rng.standard_normal(n, out=t1)
        z2 = rng.standard_normal(n, out=t2)
        u = ndtr(z1, out=u_out)
        # v = ndtr(theta z1 + sqrt(1 - theta^2) z2)
        z = np.add(np.multiply(theta, z1, out=t1),
                   np.multiply(np.sqrt(1.0 - theta * theta), z2, out=t2), out=t1)
        return u, ndtr(z, out=v_out)
    u = rng.random(n, out=u_out)
    w = rng.random(n, out=v_out)
    if fam is Family.FGM:
        # dC/du = v + A v(1-v) with A = theta(1-2u); solve the quadratic in v
        # via the rationalised root, stable through A -> 0:
        # v = 2 w / (1 + A + sqrt((1 + A)^2 - 4 A w))
        A = np.multiply(theta, np.subtract(1.0, np.multiply(2.0, u, out=t1), out=t1), out=t1)
        one_a = np.add(1.0, A, out=t2)
        disc = np.subtract(np.power(one_a, 2, out=t3),
                           np.multiply(np.multiply(4.0, A, out=t1), w, out=t1), out=t3)
        return u, np.divide(np.multiply(2.0, w, out=v_out),
                            np.add(one_a, np.sqrt(disc, out=t3), out=t3), out=v_out)
    if fam is Family.FRANK:
        # g(z) = 1 - exp(-theta z); conditional inverse g(v) = w g(1) / (e^{-theta u} + w g(u)),
        # v = -log1p(-g(v)) / theta
        g1 = -np.expm1(-theta)
        gu = np.negative(np.expm1(np.multiply(-theta, u, out=t1), out=t1), out=t1)
        den = np.add(np.exp(np.multiply(-theta, u, out=t2), out=t2),
                     np.multiply(w, gu, out=t1), out=t2)
        gv = np.divide(np.multiply(w, g1, out=v_out), den, out=v_out)
        return u, np.divide(np.negative(np.log1p(np.negative(gv, out=v_out), out=v_out),
                                        out=v_out), theta, out=v_out)
    # AMH: conditional CDF v(1 - theta(1-v)) / (1 - theta(1-u)(1-v))^2 = w,
    # a quadratic a2 v^2 + a1 v + a0 = 0 in v with b = theta (1 - u),
    # a2 = theta - w b^2, a1 = 1 - theta - 2 w b (1 - b), a0 = -w (1 - b)^2;
    # rationalised positive root v = -2 a0 / (a1 + sqrt(a1^2 - 4 a2 a0)).
    b = np.multiply(theta, np.subtract(1.0, u, out=t1), out=t1)
    a2 = np.subtract(theta, np.multiply(np.multiply(w, b, out=t2), b, out=t2), out=t2)
    one_b = np.subtract(1.0, b, out=t3)
    a1 = np.subtract(1.0 - theta, np.multiply(
        np.multiply(np.multiply(2.0, w, out=t4), b, out=t4), one_b, out=t4), out=t4)
    a0 = np.multiply(np.negative(w, out=v_out), np.power(one_b, 2, out=t3), out=v_out)
    disc = np.subtract(np.multiply(a1, a1, out=t1),
                       np.multiply(np.multiply(4.0, a2, out=t2), a0, out=t2), out=t1)
    return u, np.divide(np.multiply(-2.0, a0, out=v_out),
                        np.add(a1, np.sqrt(disc, out=t1), out=t1), out=v_out)


def copula_cdf(model: CopulaModel, u, v):
    """Evaluate C_theta(u, v); accepts scalars or arrays, broadcast together.

    Values on the boundary of the unit square follow the uniform-margin
    rules C(0, v) = 0, C(1, v) = v (and symmetrically in u).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)) or np.any((v < 0.0) | (v > 1.0)):
        raise ValueError("u and v must lie in [0, 1]")
    theta = model.theta
    fam = model.family
    if fam is Family.FGM:
        out = u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))
    elif fam is Family.FRANK:
        out = -np.log1p(np.expm1(-theta * u) * np.expm1(-theta * v) / np.expm1(-theta)) / theta
    elif fam is Family.AMH:
        out = u * v / (1.0 - theta * (1.0 - u) * (1.0 - v))
    else:
        out = _gaussian_cdf(u, v, theta)
    if out.ndim == 0:
        return float(out)
    return out


def _gaussian_cdf(u, v, rho):
    """P(X <= ndtri(u), Y <= ndtri(v)) for the standard bivariate normal with correlation
    ``rho``, exact via Owen's T and clipped to the Frechet-Hoeffding bounds
    [max(u + v - 1, 0), min(u, v)], which the Owen's T sum can leave by a few ulps where it
    cancels; u or v on {0, 1} gives the Frechet boundary values."""
    special = _special()
    ndtr, owens_t = special.ndtr, special.owens_t
    h, k = special.ndtri(u), special.ndtri(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        if rho == 0.0:
            inner = ndtr(h) * ndtr(k)
        else:
            s = np.sqrt(1.0 - rho * rho)
            t1 = owens_t(h, (k - rho * h) / (h * s))
            t2 = owens_t(k, (h - rho * k) / (k * s))
            inner = np.where(h == 0.0, 0.5 * ndtr(k) - owens_t(k, -rho / s),
                             np.where(k == 0.0, 0.5 * ndtr(h) - owens_t(h, -rho / s),
                                      0.5 * (ndtr(h) + ndtr(k)) - t1 - t2
                                      - np.where(h * k < 0.0, 0.5, 0.0)))
    inner = np.clip(inner, np.maximum(u + v - 1.0, 0.0), np.minimum(u, v))
    return np.where((u == 0.0) | (v == 0.0), 0.0,
                    np.where(u == 1.0, v, np.where(v == 1.0, u, inner)))
