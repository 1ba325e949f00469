"""Equalization probability of a Polya urn.

Exact closed forms (`exact`), an exact dynamic-programming oracle for
finite horizons (`dp`), seeded Monte Carlo estimators (`simulate`),
asymptotic approximations and bounds (`approx`), and a CLI (`cli`).
"""

from .approx import ApproxResult, chernoff_bound, normal_approximation, standard_normal_cdf
from .dp import (
    DPTable,
    SequenceProbability,
    enumerate_sequences,
    first_passage_dp,
    marginal_black_distribution,
)
from .errors import DomainError, PolyaUrnError, ResourceLimitError
from .exact import (
    BetaParams,
    ExactProbability,
    UrnConfig,
    beta_cdf_rational,
    beta_cdf_real,
    beta_density,
    binomial_coefficient,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
)
from .simulate import (
    EstimateWithCI,
    RngSeed,
    definetti_estimator,
    estimate_equalization,
    limit_fraction_samples,
    sample_beta_order_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ApproxResult",
    "BetaParams",
    "DomainError",
    "DPTable",
    "EstimateWithCI",
    "ExactProbability",
    "PolyaUrnError",
    "ResourceLimitError",
    "RngSeed",
    "SequenceProbability",
    "UrnConfig",
    "beta_cdf_rational",
    "beta_cdf_real",
    "beta_density",
    "binomial_coefficient",
    "chernoff_bound",
    "definetti_estimator",
    "enumerate_sequences",
    "equalization_probability",
    "equalization_probability_binomial",
    "equalization_probability_complement",
    "estimate_equalization",
    "first_passage_dp",
    "limit_fraction_samples",
    "marginal_black_distribution",
    "normal_approximation",
    "sample_beta_order_statistics",
    "standard_normal_cdf",
]
