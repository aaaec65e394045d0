"""One call of the library workload: public-API calls beyond the CLI's caps.

    PYTHONPATH=src python3 perfbench/library.py ecc_histograms lucas 36
    PYTHONPATH=src python3 perfbench/library.py density_lemma 25

Each call's result is checked against a second route: histogram totals
against ``vertex_count``, eccentricity sums against ``ecc_sum_closed``,
the integer density lemma against a 50-digit logarithm, and the
tree-depth check's own verdict. The result goes to stdout; a failed
check goes to stderr and the process exits 2.
"""

from __future__ import annotations

import sys
from decimal import localcontext

from fibcube import cube, density, fibtree, numeric, series
from fibcube.words import WordClass

KINDS = {"fib": WordClass.FIBONACCI, "lucas": WordClass.LUCAS}


class CheckFailed(Exception):
    pass


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def ecc_histograms(kind: str, n_max: str):
    """Eccentricity histograms for n = 0..n_max, read off the series."""
    k, n_max = KINDS[kind], int(n_max)
    hists = (series.fibonacci_ecc_gf if k is WordClass.FIBONACCI else series.lucas_ecc_gf)(n_max)
    for n, h in enumerate(hists):
        _check(h.total() == cube.vertex_count(n, k), f"vertex total at n={n}")
        if n >= 1:
            _check(h.ecc_sum() == cube.ecc_sum_closed(n, k), f"eccentricity sum at n={n}")
    return [sorted(h.counts.items()) for h in hists]


def ecc_sums(kind: str, n_max: str):
    """Eccentricity sums for n = 0..n_max from the series' y-derivative."""
    k, n_max = KINDS[kind], int(n_max)
    sums = series.ecc_sum_from_gf(n_max, k)
    for n in range(1, n_max + 1):
        _check(sums[n] == cube.ecc_sum_closed(n, k), f"eccentricity sum at n={n}")
    return sums


def density_lemma(n: str):
    """The exact bound 2E <= V log2 V on the Fibonacci cube of dimension n."""
    n = int(n)
    nv, ne = cube.vertex_count(n, WordClass.FIBONACCI), cube.edge_count(n, WordClass.FIBONACCI)
    holds, equality = density.density_lemma_check(nv, ne)
    with localcontext(numeric.decimal_context()):
        strict = 2 * ne < nv * numeric.log2_int(nv)
    # a Fibonacci cube of dimension >= 2 is no hypercube, so the bound is strict
    _check(holds and not equality and strict, f"density lemma at n={n}")
    return holds, equality


def depth_eccentricity(n: str):
    """Leaf depth against eccentricity over the Fibonacci cube of dimension n."""
    check = fibtree.verify_depth_eccentricity(int(n))
    _check(check.ok, f"depth differs from eccentricity at {check.counterexample}")
    _check(check.leaf_count == cube.vertex_count(int(n), WordClass.FIBONACCI), "leaf count")
    return check.ok, check.leaf_count


CALLS = {f.__name__: f for f in (ecc_histograms, ecc_sums, density_lemma, depth_eccentricity)}


def main(argv: list[str]) -> int:
    name, *args = argv
    try:
        result = CALLS[name](*args)
    except CheckFailed as e:
        print(f"{name} {' '.join(args)}: check failed: {e}", file=sys.stderr)
        return 2
    print(repr(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
