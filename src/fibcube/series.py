"""Truncated bivariate power series over exact rationals.

These carry the eccentricity generating functions, so vertex counts per
eccentricity come out of plain series arithmetic with no graph
enumeration at all. Coefficients are ``Fraction``; truncation orders are
explicit and binary operations truncate to the smaller order of the two
operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cube import EccHistogram
from .words import WordClass

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BiSeries:
    """coeff[i][j] is the coefficient of x^i y^j, 0 <= i <= max_x, 0 <= j <= max_y."""

    max_x: int
    max_y: int
    coeff: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], int | Fraction], max_x: int, max_y: int) -> "BiSeries":
        grid = [[_ZERO] * (max_y + 1) for _ in range(max_x + 1)]
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be >= 0")
            if i <= max_x and j <= max_y:
                grid[i][j] = Fraction(c)
        return cls(max_x, max_y, tuple(tuple(row) for row in grid))

    def get(self, i: int, j: int) -> Fraction:
        if 0 <= i <= self.max_x and 0 <= j <= self.max_y:
            return self.coeff[i][j]
        return _ZERO

    def _common_orders(self, other: "BiSeries") -> tuple[int, int]:
        return min(self.max_x, other.max_x), min(self.max_y, other.max_y)

    def __add__(self, other: "BiSeries") -> "BiSeries":
        mx, my = self._common_orders(other)
        grid = tuple(
            tuple(self.coeff[i][j] + other.coeff[i][j] for j in range(my + 1))
            for i in range(mx + 1)
        )
        return BiSeries(mx, my, grid)

    def __neg__(self) -> "BiSeries":
        grid = tuple(tuple(-c for c in row) for row in self.coeff)
        return BiSeries(self.max_x, self.max_y, grid)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        mx, my = self._common_orders(other)
        a, b = self.coeff, other.coeff
        grid = []
        for i in range(mx + 1):
            row = []
            for j in range(my + 1):
                s = _ZERO
                for p in range(i + 1):
                    ap = a[p]
                    bq = b[i - p]
                    for q in range(j + 1):
                        if ap[q] and bq[j - q]:
                            s += ap[q] * bq[j - q]
                row.append(s)
            grid.append(tuple(row))
        return BiSeries(mx, my, tuple(grid))

    def __truediv__(self, den: "BiSeries") -> "BiSeries":
        """Long division; the denominator needs a nonzero constant term."""
        c0 = den.get(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("denominator has zero constant term")
        mx, my = self._common_orders(den)
        d = den.coeff
        q: list[list[Fraction]] = [[_ZERO] * (my + 1) for _ in range(mx + 1)]
        for i in range(mx + 1):
            for j in range(my + 1):
                s = self.coeff[i][j]
                for p in range(i + 1):
                    qp = q[p]
                    dp = d[i - p]
                    for r in range(j + 1):
                        if (p, r) != (i, j) and qp[r] and dp[j - r]:
                            s -= qp[r] * dp[j - r]
                q[i][j] = s / c0
        return BiSeries(mx, my, tuple(tuple(row) for row in q))

    def d_dy(self) -> "BiSeries":
        """Formal partial derivative in y; the y-order drops by one."""
        if self.max_y == 0:
            return BiSeries(self.max_x, 0, tuple((_ZERO,) for _ in range(self.max_x + 1)))
        grid = tuple(
            tuple((j + 1) * self.coeff[i][j + 1] for j in range(self.max_y))
            for i in range(self.max_x + 1)
        )
        return BiSeries(self.max_x, self.max_y - 1, grid)

    def eval_y1(self) -> list[Fraction]:
        """Coefficients in x after substituting y = 1."""
        return [sum(row, _ZERO) for row in self.coeff]


def expand_rational(
    num: dict[tuple[int, int], int | Fraction] | BiSeries,
    den: dict[tuple[int, int], int | Fraction] | BiSeries,
    max_x: int,
    max_y: int,
) -> BiSeries:
    """num/den truncated to the given orders, with exact coefficients."""
    if not isinstance(num, BiSeries):
        num = BiSeries.from_terms(num, max_x, max_y)
    if not isinstance(den, BiSeries):
        den = BiSeries.from_terms(den, max_x, max_y)
    return num / den


def _coeff_int(c: Fraction) -> int:
    if c.denominator != 1:
        raise ArithmeticError(f"expected an integer coefficient, got {c}")
    return c.numerator


def _histograms(series: BiSeries, max_n: int) -> list[EccHistogram]:
    out = []
    for n in range(max_n + 1):
        counts = {}
        for k in range(min(n, series.max_y) + 1):
            c = _coeff_int(series.get(n, k))
            if c < 0:
                raise ArithmeticError(f"negative count {c} at x^{n} y^{k}")
            if c:
                counts[k] = c
        out.append(EccHistogram(n, counts))
    return out


# Eccentricity generating functions, as written in the docstrings of
# fibonacci_ecc_gf and lucas_ecc_gf: per kind, the sum of the listed
# numerator/denominator pairs, each polynomial {(i, j): coeff of x^i y^j}.
_FIB_DEN = {(0, 0): 1, (1, 1): -1, (2, 1): -1}
_ECC_GF = {
    WordClass.FIBONACCI: [({(0, 0): 1, (1, 1): 1}, _FIB_DEN)],
    WordClass.LUCAS: [
        ({(0, 0): 1, (2, 1): 1}, _FIB_DEN),
        ({(0, 0): 1}, {(0, 0): 1, (1, 1): 1}),
        ({(0, 0): -1, (1, 0): 1}, {(0, 0): 1, (2, 1): -1}),
    ],
}


def _ecc_series(max_n: int, kind: WordClass) -> BiSeries:
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if kind not in _ECC_GF:
        raise ValueError("eccentricity series exist for the Fibonacci and Lucas kinds only")
    terms = [expand_rational(num, den, max_n, max_n) for num, den in _ECC_GF[kind]]
    return sum(terms[1:], terms[0])


def fibonacci_ecc_gf(max_n: int) -> list[EccHistogram]:
    """Eccentricity histograms of the Fibonacci cubes for n = 0..max_n,
    read off the series (1 + xy) / (1 - xy - x^2 y)."""
    return _histograms(_ecc_series(max_n, WordClass.FIBONACCI), max_n)


def lucas_ecc_gf(max_n: int) -> list[EccHistogram]:
    """Eccentricity histograms of the Lucas cubes for n = 0..max_n, from
    (1 + x^2 y)/(1 - xy - x^2 y) + 1/(1 + xy) - (1 - x)/(1 - x^2 y).

    Every row matches BFS, the single-vertex cubes at n = 0 and 1
    included: both read {0: 1}.
    """
    return _histograms(_ecc_series(max_n, WordClass.LUCAS), max_n)


def ecc_sum_from_gf(max_n: int, kind: WordClass) -> list[int]:
    """Eccentricity sums e(0)..e(max_n) via the formal y-derivative of the
    generating function evaluated at y = 1."""
    return [_coeff_int(c) for c in _ecc_series(max_n, kind).d_dy().eval_y1()]
