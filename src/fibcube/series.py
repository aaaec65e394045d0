"""Truncated bivariate power series over exact rationals.

These carry the eccentricity generating functions, so vertex counts per
eccentricity come out of plain series arithmetic with no graph
enumeration at all. Coefficients are exact rationals, kept as ints
where exact. Division runs over the denominator's nonzero terms, and
multiplication over those of the sparser operand. Truncation orders are
explicit and binary operations truncate to the smaller order of the two
operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cube import EccHistogram
from .words import WordClass


@dataclass(frozen=True)
class BiSeries:
    """coeff[i][j] is the coefficient of x^i y^j, 0 <= i <= max_x, 0 <= j <= max_y."""

    max_x: int
    max_y: int
    coeff: tuple[tuple[int | Fraction, ...], ...]

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], int | Fraction], max_x: int, max_y: int) -> "BiSeries":
        grid = [[0] * (max_y + 1) for _ in range(max_x + 1)]
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError("exponents must be >= 0")
            if i <= max_x and j <= max_y:
                grid[i][j] = c
        return cls(max_x, max_y, tuple(tuple(row) for row in grid))

    def get(self, i: int, j: int) -> int | Fraction:
        if 0 <= i <= self.max_x and 0 <= j <= self.max_y:
            return self.coeff[i][j]
        return 0

    def _common_orders(self, other: "BiSeries") -> tuple[int, int]:
        return min(self.max_x, other.max_x), min(self.max_y, other.max_y)

    def _terms(self, mx: int, my: int) -> list[tuple[int, int, int | Fraction]]:
        """The nonzero terms (i, j, c) with i <= mx and j <= my."""
        rows = enumerate(self.coeff[: mx + 1])
        return [(i, j, c) for i, row in rows for j, c in enumerate(row[: my + 1]) if c]

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
        """Shifted copies of one operand, one per nonzero term of the sparser one."""
        mx, my = self._common_orders(other)
        mine, theirs = self._terms(mx, my), other._terms(mx, my)
        terms, b = (mine, other.coeff) if len(mine) <= len(theirs) else (theirs, self.coeff)
        grid = [[0] * (my + 1) for _ in range(mx + 1)]
        for p, r, c in terms:
            for i in range(p, mx + 1):
                row = grid[i]
                row[r:] = [g + c * v for g, v in zip(row[r:], b[i - p])]
        return BiSeries(mx, my, tuple(tuple(row) for row in grid))

    def __truediv__(self, den: "BiSeries") -> "BiSeries":
        """Long division, q[i][j] = (a[i][j] - sum of c * q[i-p][j-r]) / c0, over
        the denominator's nonzero terms c x^p y^r but its constant c0 != 0."""
        c0 = den.get(0, 0)
        if c0 == 0:
            raise ZeroDivisionError("denominator has zero constant term")
        mx, my = self._common_orders(den)
        terms = [t for t in den._terms(mx, my) if t[:2] != (0, 0)]
        q = [list(row[: my + 1]) for row in self.coeff[: mx + 1]]
        for i, row in enumerate(q):
            earlier = [(q[i - p], r, c) for p, r, c in terms if p <= i]
            for j in range(my + 1):
                s = row[j]
                for qp, r, c in earlier:
                    if r <= j:
                        s -= c * qp[j - r]
                quot, rem = divmod(s, c0)
                row[j] = quot if rem == 0 else Fraction(s, c0)
        return BiSeries(mx, my, tuple(tuple(row) for row in q))

    def d_dy(self) -> "BiSeries":
        """Formal partial derivative in y; the y-order drops by one."""
        if self.max_y == 0:
            return BiSeries(self.max_x, 0, tuple((0,) for _ in range(self.max_x + 1)))
        grid = tuple(
            tuple((j + 1) * self.coeff[i][j + 1] for j in range(self.max_y))
            for i in range(self.max_x + 1)
        )
        return BiSeries(self.max_x, self.max_y - 1, grid)

    def eval_y1(self) -> list[int | Fraction]:
        """Coefficients in x after substituting y = 1."""
        return [sum(row) for row in self.coeff]


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


def _coeff_int(c: int | Fraction) -> int:
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


def _ecc_pairs(max_n: int, kind: WordClass) -> list[tuple[dict, dict]]:
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if kind not in _ECC_GF:
        raise ValueError("eccentricity series exist for the Fibonacci and Lucas kinds only")
    return _ECC_GF[kind]


def _ecc_series(max_n: int, kind: WordClass) -> BiSeries:
    terms = [expand_rational(num, den, max_n, max_n) for num, den in _ecc_pairs(max_n, kind)]
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


def _at_y1(poly: dict[tuple[int, int], int], max_n: int) -> tuple[BiSeries, BiSeries]:
    """poly(x, 1) and its y-derivative at y = 1, as series in x alone."""
    p, p_y = {}, {}
    for (i, j), c in poly.items():
        p[i, 0] = p.get((i, 0), 0) + c
        p_y[i, 0] = p_y.get((i, 0), 0) + j * c
    return BiSeries.from_terms(p, max_n, 0), BiSeries.from_terms(p_y, max_n, 0)


def ecc_sum_from_gf(max_n: int, kind: WordClass) -> list[int]:
    """Eccentricity sums e(0)..e(max_n), the generating function's y-derivative
    at y = 1: per pair N/D, F = N/D and F_y = (N_y - F D_y) / D at y = 1, all
    series in x alone."""
    total = BiSeries.from_terms({}, max_n, 0)
    for num, den in _ecc_pairs(max_n, kind):
        (n1, n_y), (d1, d_y) = _at_y1(num, max_n), _at_y1(den, max_n)
        f = expand_rational(n1, d1, max_n, 0)
        total += expand_rational(n_y - f * d_y, d1, max_n, 0)
    return [_coeff_int(c) for c in total.eval_y1()]
