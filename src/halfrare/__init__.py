"""Fréchet bounds of the 1st kind for finite event sets, with exact-rational
LP verification and half-rare projection machinery."""

from .bounds import (
    BoundaryDistributions,
    CovarianceBounds,
    boundary_distributions,
    covariance_bounds_doublet,
    doublet_bounds,
    lower_bound_general,
    lower_bound_half_rare,
    upper_bound_general,
)
from .core import (
    EventSet,
    HalfRareMarginalSet,
    MarginalSet,
    TerraceDistribution,
    indicator_string,
    make_event_set,
    marginals_from_values,
    validate_marginals,
)
from .oracle import (
    VerificationReport,
    lp_extremize_terrace,
    random_marginals,
    verify_bounds,
)
from .transforms import (
    PhenomenonMap,
    apply_phenomenon,
    independent_epd,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryDistributions",
    "CovarianceBounds",
    "EventSet",
    "HalfRareMarginalSet",
    "MarginalSet",
    "PhenomenonMap",
    "TerraceDistribution",
    "VerificationReport",
    "apply_phenomenon",
    "boundary_distributions",
    "covariance_bounds_doublet",
    "doublet_bounds",
    "independent_epd",
    "indicator_string",
    "lower_bound_general",
    "lower_bound_half_rare",
    "lp_extremize_terrace",
    "make_event_set",
    "marginals_from_values",
    "random_marginals",
    "upper_bound_general",
    "validate_marginals",
    "verify_bounds",
]
