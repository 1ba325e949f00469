"""Equalization probability of a Polya urn.

Exact closed forms (`exact`), an exact dynamic-programming oracle for
finite horizons (`dp`), seeded Monte Carlo estimators (`simulate`),
asymptotic approximations and bounds (`approx`), the cost rule that
refuses a run over its limits before any work (`cost`), and a CLI (`cli`).

Only `simulate` needs numpy, and it imports numpy inside the functions that
draw random numbers: importing the package, or running an exact route,
never loads it.
"""

from .approx import ApproxResult, chernoff_bound, normal_approximation
from .dp import DPTable, first_passage_dp
from .errors import DomainError, PolyaUrnError, ResourceLimitError
from .exact import (
    ExactProbability,
    UrnConfig,
    beta_cdf_rational,
    equalization_probability,
    equalization_probability_binomial,
    equalization_probability_complement,
)
from .simulate import EstimateWithCI, RngSeed, definetti_estimator, estimate_equalization

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ApproxResult",
    "DomainError",
    "DPTable",
    "EstimateWithCI",
    "ExactProbability",
    "PolyaUrnError",
    "ResourceLimitError",
    "RngSeed",
    "UrnConfig",
    "beta_cdf_rational",
    "chernoff_bound",
    "definetti_estimator",
    "equalization_probability",
    "equalization_probability_binomial",
    "equalization_probability_complement",
    "estimate_equalization",
    "first_passage_dp",
    "normal_approximation",
]
