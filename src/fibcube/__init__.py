"""Exact invariants of Fibonacci cubes, Lucas cubes and hypercubes.

Closed forms, generating functions, labeled Fibonacci trees and the
hypercube density functional, each paired with a brute-force route so
every value can be cross-checked.

The public names below load on first use (PEP 562), so importing the
package, or one of its modules, compiles only the modules that it uses.
"""

# module -> the public names it exports; __all__ and __getattr__ both read it
_EXPORTS = {
    "cube": (
        "CubeGraph", "EccHistogram", "average_degree", "average_ecc", "average_ecc_over_n", "ecc_sum_closed",
        "eccentricity_fast", "edge_count", "vertex_count", "weight_count", "weight_ratio_average",
    ),
    "density": ("ExplicitGraph", "cartesian_power", "cartesian_product", "rho", "rho_limit"),
    "fibtree": ("LabelingKind", "LeafTree", "build", "depth_sum", "verify_depth_eccentricity"),
    "numeric": ("DIGITS", "fibonacci", "golden_ratio", "lucas"),
    "series": ("BiSeries", "expand_rational", "fibonacci_ecc_gf", "lucas_ecc_gf"),
    "words": ("BitWord", "WordClass", "enumerate_words", "is_fibonacci", "is_lucas"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
