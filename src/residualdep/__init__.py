"""Estimation of the residual dependence index for bivariate extremes.

The package covers the full workflow: exact copula samplers with known
ground truth, rank-based pseudo-observations on Pareto and (shifted)
Frechet scales, the power-mean estimator class with its asymptotic
variance/bias formulas and confidence intervals, a reduced-bias variant
driven by second-order parameter estimates, a reproducible Monte Carlo
harness, and CSV ingestion for applied analyses.

Each module's ``__all__`` is its public API; the package exports their union.
"""
from . import bias, copulas, errors, estimators, ingest, pseudo, simulate

__version__ = "0.1.0"

__all__ = [*bias.__all__, *copulas.__all__, *errors.__all__, *estimators.__all__,
           *ingest.__all__, *pseudo.__all__, *simulate.__all__]

# after this, ``ingest`` names the function, not the module
from .bias import *  # noqa: E402, F403
from .copulas import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .estimators import *  # noqa: E402, F403
from .ingest import *  # noqa: E402, F403
from .pseudo import *  # noqa: E402, F403
from .simulate import *  # noqa: E402, F403
