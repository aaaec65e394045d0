"""Exact invariants of Fibonacci cubes, Lucas cubes and hypercubes.

Closed forms, generating functions, labeled Fibonacci trees and the
hypercube density functional, each paired with a brute-force route so
every value can be cross-checked.
"""

from .cube import (
    CubeGraph,
    EccHistogram,
    average_degree,
    average_ecc,
    average_ecc_over_n,
    ecc_sum_closed,
    eccentricity_fast,
    edge_count,
    vertex_count,
    weight_count,
    weight_ratio_average,
)
from .density import ExplicitGraph, cartesian_power, cartesian_product, rho, rho_limit
from .fibtree import LabelingKind, LeafTree, build, depth_sum, verify_depth_eccentricity
from .numeric import DIGITS, fibonacci, golden_ratio, lucas
from .series import BiSeries, expand_rational, fibonacci_ecc_gf, lucas_ecc_gf
from .words import BitWord, WordClass, enumerate_words, is_fibonacci, is_lucas

__all__ = [
    "BitWord",
    "BiSeries",
    "CubeGraph",
    "DIGITS",
    "EccHistogram",
    "ExplicitGraph",
    "LabelingKind",
    "LeafTree",
    "WordClass",
    "average_degree",
    "average_ecc",
    "average_ecc_over_n",
    "build",
    "cartesian_power",
    "cartesian_product",
    "depth_sum",
    "ecc_sum_closed",
    "eccentricity_fast",
    "edge_count",
    "enumerate_words",
    "expand_rational",
    "fibonacci",
    "fibonacci_ecc_gf",
    "golden_ratio",
    "is_fibonacci",
    "is_lucas",
    "lucas",
    "lucas_ecc_gf",
    "rho",
    "rho_limit",
    "verify_depth_eccentricity",
    "vertex_count",
    "weight_count",
    "weight_ratio_average",
]

__version__ = "0.1.0"
