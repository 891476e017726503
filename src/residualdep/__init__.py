"""Estimation of the residual dependence index for bivariate extremes.

The package covers the full workflow: exact copula samplers with known
ground truth, rank-based pseudo-observations on Pareto and (shifted)
Frechet scales, the power-mean estimator class with its asymptotic
variance/bias formulas and confidence intervals, a reduced-bias variant
driven by second-order parameter estimates, a reproducible Monte Carlo
harness, and CSV ingestion for applied analyses.
"""
from .bias import SecondOrderParams, default_k0, effective_tau, estimate_second_order, \
    reduced_bias_eta, reduced_bias_path
from .copulas import CopulaModel, Family, copula_cdf, replicate_generator, sample_copula
from .errors import ConstraintError, DataError, EstimationError, NumericDomainError, \
    ParameterDomainError, ResidualDepError, TieError, VarianceDomainError
from .estimators import EstimatorSpec, EtaEstimate, asymptotic_bias, asymptotic_variance, \
    eta_hat, m_ab, m_ab_path, point_estimate
from .ingest import IngestionSpec, empirical_quantile, ingest
from .pseudo import BivariateSample, Margin, PseudoSample, TiePolicy, compute_ranks, \
    joint_exceedance_count
from .simulate import CellResult, KstarRule, SecondOrderSpec, SimulationReport, \
    StudyConfig, config_from_dict, emit_report, load_config, run_study, write_report

__version__ = "0.1.0"

__all__ = [
    "BivariateSample",
    "CellResult",
    "ConstraintError",
    "CopulaModel",
    "DataError",
    "EstimationError",
    "EstimatorSpec",
    "EtaEstimate",
    "Family",
    "IngestionSpec",
    "KstarRule",
    "Margin",
    "NumericDomainError",
    "ParameterDomainError",
    "PseudoSample",
    "ResidualDepError",
    "SecondOrderParams",
    "SecondOrderSpec",
    "SimulationReport",
    "StudyConfig",
    "TieError",
    "TiePolicy",
    "VarianceDomainError",
    "asymptotic_bias",
    "asymptotic_variance",
    "compute_ranks",
    "config_from_dict",
    "copula_cdf",
    "default_k0",
    "effective_tau",
    "emit_report",
    "empirical_quantile",
    "estimate_second_order",
    "eta_hat",
    "ingest",
    "joint_exceedance_count",
    "load_config",
    "m_ab",
    "m_ab_path",
    "point_estimate",
    "reduced_bias_eta",
    "reduced_bias_path",
    "replicate_generator",
    "run_study",
    "sample_copula",
    "write_report",
]
