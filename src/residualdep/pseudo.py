"""Rank-based pseudo-observations for bivariate tail dependence.

A paired sample (x_i, y_i) with marginal ranks (rx_i, ry_i) keeps one
integer per row, r_i = min(rx_i, ry_i), and three margins map it:

* ``pareto_t``           standard Pareto,   T_i = (n+1)/(n+1-r_i)
* ``frechet_unshifted``  unit Frechet,      V_i = -1 / log(r_i/(n+1))
* ``frechet_shifted``    location-shifted,  V*_i = V_i + 1/2

All three increase with r_i and are invariant under strictly increasing
transforms of either margin; their upper order statistics feed the estimators.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._workspace import Workspace, floats
from .errors import DataError, TieError

__all__ = [
    "Margin",
    "TiePolicy",
    "BivariateSample",
    "PseudoSample",
    "compute_ranks",
    "joint_exceedance_count",
]


class Margin(str, Enum):
    PARETO_T = "pareto_t"
    FRECHET_SHIFTED = "frechet_shifted"
    FRECHET_UNSHIFTED = "frechet_unshifted"


class TiePolicy(str, Enum):
    FIRST_OCCURRENCE = "first_occurrence"
    STRICT = "strict"
    JITTER = "jitter"


@dataclass(frozen=True)
class BivariateSample:
    """Paired observations; the raw input to everything downstream."""

    x: np.ndarray
    y: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise DataError("x and y must be 1d arrays of equal length")
        if len(x) < 2:
            raise DataError(f"need at least 2 observations, got {len(x)}")
        if np.isnan(x).any() or np.isnan(y).any():
            raise DataError("NaN values must be filtered out before constructing a sample")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.x)


def _rank_one_margin(values, policy, rng, name, workspace, slot):
    # with a workspace, the sorted values go to float slot 2, since a study's u and v,
    # the values being ranked, are in slots 0 and 1
    n = len(values)
    ordered_out = floats(workspace, n)[2]
    if policy is TiePolicy.JITTER:
        # a seeded random key orders ties only; distinct values keep their order
        order = np.lexsort((rng.random(len(values)), values))
    else:
        # distinct values have one sorting permutation, so the fast default
        # sort ranks them as the stable sort would; 0.0 == -0.0 and
        # inf == inf count as ties
        order = np.argsort(values)
        # every index is in range; mode "raise" would buffer a copy of ``out``
        ordered = np.take(values, order, out=ordered_out, mode="clip")
        tied = np.equal(ordered[1:], ordered[:-1],
                        out=None if workspace is None else workspace.tied)
        if tied.any():
            if policy is TiePolicy.STRICT:
                # the value as np.sort orders it: argsort may put -0.0 and
                # 0.0 the other way round
                offender = np.sort(values)[tied.argmax()]
                raise TieError(f"tied value {offender!r} in {name} under strict tie policy")
            # stable sort => ties ranked by order of first occurrence
            order = np.argsort(values, kind="stable")
    if workspace is None:
        ranks, counts = np.empty(n, dtype=np.int64), np.arange(1, n + 1)
    else:
        ranks, counts = workspace.ranks[slot], workspace.counts
    ranks[order] = counts
    return ranks


def compute_ranks(sample: BivariateSample, tie_policy=TiePolicy.FIRST_OCCURRENCE,
                  jitter_seed: int = 0, *, workspace: Workspace | None = None):
    """Marginal ranks rx, ry, each a permutation of 1..n.

    For distinct values rx[i] equals the count of x_j <= x_i.  Ties are
    resolved by the policy: ``first_occurrence`` assigns stable ordinal
    ranks in input order, ``strict`` raises ``TieError``, and ``jitter``
    orders each group of tied values by a uniform random key drawn from
    ``jitter_seed`` (logged, so the run stays reproducible).  Given a study's
    ``workspace``, rx and ry are its rank buffers and hold until its next use.
    """
    policy = TiePolicy(tie_policy)
    rng = None
    if policy is TiePolicy.JITTER:
        rng = np.random.default_rng(jitter_seed)
        import logging  # only this branch logs
        logging.getLogger(__name__).info("jitter tie policy active, seed=%d", jitter_seed)
    rx = _rank_one_margin(sample.x, policy, rng, "x", workspace, 0)
    ry = _rank_one_margin(sample.y, policy, rng, "y", workspace, 1)
    return rx, ry


def _pareto(rmin, n: int, out) -> np.ndarray:
    return np.divide(n + 1.0, np.subtract(n + 1.0, rmin, out=out), out=out)


def _frechet(rmin, n: int, out) -> np.ndarray:
    return np.divide(-1.0, np.log(np.divide(rmin, n + 1.0, out=out), out=out), out=out)


# (r, n, out) -> margin, written to out (None allocates)
_TRANSFORMS = {
    Margin.PARETO_T: _pareto,
    Margin.FRECHET_UNSHIFTED: _frechet,
    Margin.FRECHET_SHIFTED: lambda rmin, n, out: np.add(_frechet(rmin, n, out), 0.5, out=out),
}


@dataclass(frozen=True)
class PseudoSample:
    """The ascending r = min(rx, ry) of one sample of size n."""

    n: int
    rmin: np.ndarray

    def top(self, margin, m: int | None = None, *, out: np.ndarray | None = None) -> np.ndarray:
        """The top m values of ``margin`` (a Margin or its value), ascending; all n by
        default.  Written to ``out[:m]`` when a float64 array ``out`` is given."""
        transform = _TRANSFORMS[Margin(margin)]
        m = self.n if m is None else m
        if not 0 <= m <= self.n:
            raise ValueError(f"need 0 <= m <= n = {self.n}, got m = {m}")
        return transform(self.rmin[self.n - m:], self.n, None if out is None else out[:m])

    @classmethod
    def from_sample(cls, sample: BivariateSample,
                    tie_policy=TiePolicy.FIRST_OCCURRENCE,
                    jitter_seed: int = 0, *,
                    workspace: Workspace | None = None) -> "PseudoSample":
        """Rank ``sample`` and keep min(rx, ry).  Given a study's ``workspace``, the
        ranking runs in its buffers, and ``rmin`` is one of them until its next use."""
        rx, ry = compute_ranks(sample, tie_policy, jitter_seed, workspace=workspace)
        return cls.from_ranks(rx, ry, out=None if workspace is None else rx)

    @classmethod
    def from_ranks(cls, rx: np.ndarray, ry: np.ndarray, *,
                   out: np.ndarray | None = None) -> "PseudoSample":
        """From marginal ranks; min(rx, ry) must lie in 1..n.  Written to ``out`` (an
        int64 array of length n, which may be rx or ry) when it is given."""
        n = len(rx)
        # T and V both increase with r = min(rx, ry) in floating point too: n + 1 - r is
        # exact and a correctly rounded division keeps the order, and np.log's error of
        # a few ulps is far below the gap 1/(n+1) between neighbouring ratios r/(n+1).
        # Sorting the integer r once therefore sorts every margin.
        rmin = np.asarray(np.minimum(rx, ry, out=out), dtype=np.int64)
        rmin.sort()  # a new array, or ``out``
        if rmin.size and not 1 <= rmin[0] <= rmin[-1] <= n:
            raise DataError(f"ranks must lie in 1..n = {n}, "
                            f"got min(rx, ry) from {rmin[0]} to {rmin[-1]}")
        return cls(n=n, rmin=rmin)


def joint_exceedance_count(sample: BivariateSample, k: int, x: float) -> int:
    """Count of pairs jointly exceeding their m-th largest order statistics.

    With m = floor(k * x), counts the i for which x_i >= x_(n-m+1) and
    y_i >= y_(n-m+1) (order statistics ascending).  Serves as a brute-force
    oracle for the count of T_i above the matching threshold.
    """
    n = sample.n
    m = int(np.floor(k * x))
    if not 1 <= m <= n:
        raise ValueError(f"floor(k*x) = {m} out of range 1..{n}")
    xs = np.sort(sample.x)
    ys = np.sort(sample.y)
    return int(np.count_nonzero((sample.x >= xs[n - m]) & (sample.y >= ys[n - m])))
