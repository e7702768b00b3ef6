"""Realize prescribed orders on pairwise distances at the optimal dimension.

Any total preorder on the distances among n points can be induced by an
explicit configuration in R^(n-1) (R^(n-2) if the order is linear, and
R^min(n,m) for orders on cross distances between two collections), and
these dimensions are optimal. The package constructs such configurations,
verifies them, generates the order families witnessing the lower bounds,
and numerically probes infeasibility below the optimal dimension.
"""
from .constructions import (EpsilonSearch, RealizationReport, choose_epsilon,
                            default_search, perturbed_distances, realize,
                            realize_linear_complete,
                            realize_preorder_bipartite,
                            realize_preorder_complete)
from .counterexamples import (FalsifierConfig, FalsifierReport, falsify,
                              gallery, infeasible_dimension,
                              simplex_diameter_bound, stress_loss)
from .errors import (BadIndex, BadSize, DimTooSmall, DistanceMismatch,
                     DuplicatePair, EmptyClass, EpsilonExhausted,
                     IndexOutOfRange, MissingPair, NonFiniteEntry, NotLinear,
                     NotPSD, OrdembedError, ShapeMismatch, SpecError,
                     UnknownName)
from .orders import OrderSpec, bipartite_pairs, complete_pairs, validate
from .schoenberg import (GramMatrix, PointConfig, distances_of, factor_points,
                         gram_from_distances, min_eigenvalue)
from .verifier import VerifyReport, induced_preorder, verify

__version__ = "0.1.0"

__all__ = [
    "BadIndex", "BadSize", "DimTooSmall", "DistanceMismatch",
    "DuplicatePair", "EmptyClass", "EpsilonExhausted", "EpsilonSearch",
    "FalsifierConfig", "FalsifierReport", "GramMatrix",
    "IndexOutOfRange", "MissingPair", "NonFiniteEntry",
    "NotLinear", "NotPSD", "OrderSpec", "OrdembedError", "PointConfig",
    "RealizationReport", "ShapeMismatch", "SpecError", "UnknownName",
    "VerifyReport", "bipartite_pairs", "choose_epsilon", "complete_pairs",
    "default_search", "distances_of", "factor_points", "falsify", "gallery",
    "gram_from_distances", "induced_preorder", "infeasible_dimension",
    "min_eigenvalue", "perturbed_distances", "realize",
    "realize_linear_complete",
    "realize_preorder_bipartite", "realize_preorder_complete",
    "simplex_diameter_bound", "stress_loss", "validate", "verify",
    "__version__",
]
