"""Eccentricity generating functions, expanded as exact power series.

Each kind's generating function, typed in ``_ECC_GF``, is folded into one
ratio N/D of polynomials, and expanding such a ratio is the only operation
on series: counts per eccentricity are coefficients of N/D, and
eccentricity sums those of its y-derivative at y = 1. No graph is enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .words import WordClass

if TYPE_CHECKING:
    from .cube import EccHistogram

Poly = dict[tuple[int, int], int | Fraction]  # {(i, j): coefficient of x^i y^j}


class BiSeries(NamedTuple):
    """coeff[i][j] is the coefficient of x^i y^j, 0 <= i <= max_x, 0 <= j <= max_y."""

    max_x: int
    max_y: int
    coeff: tuple[tuple[int | Fraction, ...], ...]


def expand_rational(num: Poly, den: Poly, max_x: int, max_y: int) -> BiSeries:
    """num/den to x^max_x y^max_y, exactly (ints where exact), by long division over
    den's nonzero terms c x^p y^r other than its constant c0:
    q[i][j] = (num[i][j] - sum of c * q[i-p][j-r]) / c0.
    When no nonzero term of num or den has r > p, neither has the quotient, so
    row i is computed only up to j = i and left zero beyond."""
    if any(i < 0 or j < 0 for i, j in [*num, *den, (max_x, max_y)]):
        raise ValueError("exponents and orders must be >= 0")
    c0 = den.get((0, 0), 0)
    if c0 == 0:
        raise ZeroDivisionError("denominator has zero constant term")
    terms = [(p, r, c) for (p, r), c in den.items() if c and (p, r) != (0, 0)]
    q = [[0] * (max_y + 1) for _ in range(max_x + 1)]
    for (i, j), c in num.items():
        if i <= max_x and j <= max_y:
            q[i][j] = c
    triangular = all(r <= p for (p, r), c in [*num.items(), *den.items()] if c)
    for i, row in enumerate(q):
        earlier = [(q[i - p], r, c) for p, r, c in terms if p <= i]
        for j in range(min(i, max_y) + 1 if triangular else max_y + 1):
            s = row[j]
            for qp, r, c in earlier:
                if r <= j:
                    s -= c * qp[j - r]
            quot, rem = divmod(s, c0)
            row[j] = quot if rem == 0 else Fraction(s, c0)
    return BiSeries(max_x, max_y, tuple(map(tuple, q)))


def _mul(a: Poly, b: Poly) -> Poly:
    out = {}
    for (i, j), c in a.items():
        for (p, r), d in b.items():
            out[i + p, j + r] = out.get((i + p, j + r), 0) + c * d
    return out


def _add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


def _count(c: int | Fraction, where: str) -> int:
    if c.denominator != 1 or c < 0:
        raise ArithmeticError(f"expected a non-negative integer at {where}, got {c}")
    return c.numerator


# Eccentricity generating functions (Castro and Mollard, 2012), as in the docstrings
# below: per kind, the sum of the listed numerator/denominator pairs.
_FIB_DEN = {(0, 0): 1, (1, 1): -1, (2, 1): -1}
_ECC_GF = {
    WordClass.FIBONACCI: [({(0, 0): 1, (1, 1): 1}, _FIB_DEN)],
    WordClass.LUCAS: [
        ({(0, 0): 1, (2, 1): 1}, _FIB_DEN),
        ({(0, 0): 1}, {(0, 0): 1, (1, 1): 1}),
        ({(0, 0): -1, (1, 0): 1}, {(0, 0): 1, (2, 1): -1}),
    ],
}


def _ecc_ratio(kind: WordClass) -> tuple[Poly, Poly]:
    """The kind's generating function as one ratio N/D, D the product of its denominators."""
    if kind not in _ECC_GF:
        raise ValueError("eccentricity series exist for the Fibonacci and Lucas kinds only")
    num, den = {}, {(0, 0): 1}
    for n, d in _ECC_GF[kind]:
        num, den = _add(_mul(num, d), _mul(n, den)), _mul(den, d)
    return num, den


def _histograms(max_n: int, kind: WordClass) -> list[dict[int, int]]:
    """Vertex counts per eccentricity for n = 0..max_n, as dicts, so ecc-hist's gf route needs no cube."""
    series = expand_rational(*_ecc_ratio(kind), max_n, max_n)
    return [
        {k: _count(c, f"x^{n} y^{k}") for k, c in enumerate(row[: n + 1]) if c} for n, row in enumerate(series.coeff)
    ]


def _records(max_n: int, kind: WordClass) -> list[EccHistogram]:
    from .cube import EccHistogram

    return [EccHistogram(n, counts) for n, counts in enumerate(_histograms(max_n, kind))]


def fibonacci_ecc_gf(max_n: int) -> list[EccHistogram]:
    """Eccentricity histograms of the Fibonacci cubes for n = 0..max_n,
    read off the series (1 + xy) / (1 - xy - x^2 y)."""
    return _records(max_n, WordClass.FIBONACCI)


def lucas_ecc_gf(max_n: int) -> list[EccHistogram]:
    """Eccentricity histograms of the Lucas cubes for n = 0..max_n, from
    (1 + x^2 y)/(1 - xy - x^2 y) + 1/(1 + xy) - (1 - x)/(1 - x^2 y).

    Every row matches BFS, the single-vertex cubes at n = 0 and 1
    included: both read {0: 1}.
    """
    return _records(max_n, WordClass.LUCAS)


def _at_y1(poly: Poly) -> tuple[Poly, Poly]:
    """poly(x, 1) and its y-derivative at y = 1, as polynomials in x alone."""
    p, p_y = {}, {}
    for (i, j), c in poly.items():
        p[i, 0] = p.get((i, 0), 0) + c
        p_y[i, 0] = p_y.get((i, 0), 0) + j * c
    return p, p_y


def ecc_sum_from_gf(max_n: int, kind: WordClass) -> list[int]:
    """Eccentricity sums e(0)..e(max_n), the generating function's y-derivative
    at y = 1: (N_y D - N D_y) / D^2 at y = 1, a series in x alone."""
    (n1, n_y), (d1, d_y) = map(_at_y1, _ecc_ratio(kind))
    num = _add(_mul(n_y, d1), _mul(n1, {k: -c for k, c in d_y.items()}))
    series = expand_rational(num, _mul(d1, d1), max_n, 0)
    return [_count(row[0], f"x^{n}") for n, row in enumerate(series.coeff)]
