from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcube.cube import CubeGraph, ecc_sum_closed, vertex_count
from fibcube.series import (
    _ECC_GF,
    _add,
    _ecc_ratio,
    _mul,
    ecc_sum_from_gf,
    expand_rational,
    fibonacci_ecc_gf,
    lucas_ecc_gf,
)
from fibcube.words import WordClass

FIB, LUC = WordClass.FIBONACCI, WordClass.LUCAS

ORDER = 30


def naive_fib(upto: int) -> list[int]:
    seq = [0, 1]
    while len(seq) <= upto:
        seq.append(seq[-1] + seq[-2])
    return seq


def uni(terms):
    """Univariate polynomial {i: c} as a polynomial in x and y."""
    return {(i, 0): c for i, c in terms.items()}


def x_series(num, den, order=ORDER):
    """Coefficients of the univariate series num/den to x^order."""
    return [row[0] for row in expand_rational(num, den, order, 0).coeff]


def _dense_divide(num, den, mx, my):
    """Test oracle: long division summing over every earlier coefficient."""
    c0 = den[0, 0]
    q = [[Fraction(0)] * (my + 1) for _ in range(mx + 1)]
    for i in range(mx + 1):
        for j in range(my + 1):
            s = Fraction(num.get((i, j), 0))
            for p in range(i + 1):
                for r in range(j + 1):
                    if (p, r) != (i, j):
                        s -= q[p][r] * den.get((i - p, j - r), 0)
            q[i][j] = s / c0
    return tuple(tuple(row) for row in q)


def test_geometric_series():
    assert x_series({(0, 0): 1}, {(0, 0): 1, (1, 0): -1}, 5) == [1, 1, 1, 1, 1, 1]


def test_fibonacci_generating_function():
    assert x_series({(1, 0): 1}, {(0, 0): 1, (1, 0): -1, (2, 0): -1}, 8) == naive_fib(8)[:9]


def test_bivariate_coefficient_example():
    s = expand_rational(
        {(0, 0): 1, (1, 1): 1},
        {(0, 0): 1, (1, 1): -1, (2, 1): -1},
        4,
        4,
    )
    assert s.coeff[3][3] == 2  # two vertices of the 3-cube with eccentricity 3


def test_zero_constant_term_rejected():
    with pytest.raises(ZeroDivisionError, match="zero constant term"):
        expand_rational({(0, 0): 1}, {(1, 0): 1}, 4, 0)


def test_fibonacci_histograms_from_series():
    hists = fibonacci_ecc_gf(3)
    assert hists[0].counts == {0: 1}
    assert hists[2].counts == {1: 1, 2: 2}
    assert hists[3].counts == {2: 3, 3: 2}


def test_fibonacci_histograms_match_brute_force():
    hists = fibonacci_ecc_gf(12)
    for n in range(0, 13):
        assert hists[n].counts == CubeGraph(FIB, n).ecc_histogram("bfs").counts, n


def test_lucas_histograms_from_series():
    hists = lucas_ecc_gf(4)
    assert hists[3].counts == {1: 1, 2: 3}
    assert hists[2].total() == 3
    assert hists[4].total() == 7


def test_lucas_histograms_match_brute_force_from_two():
    hists = lucas_ecc_gf(12)
    for n in range(0, 13):
        assert hists[n].counts == CubeGraph(LUC, n).ecc_histogram("bfs").counts, n


def test_lucas_degenerate_rows_are_recorded():
    # the dimension-0 and dimension-1 cubes are single vertices
    hists = lucas_ecc_gf(1)
    for n in (0, 1):
        assert hists[n].n == n
        assert hists[n].counts == {0: 1}
        assert hists[n].counts == CubeGraph(LUC, n).ecc_histogram("bfs").counts


def test_ecc_sums_from_series():
    assert ecc_sum_from_gf(6, FIB)[1:] == [2, 5, 12, 25, 50, 96]
    assert ecc_sum_from_gf(6, FIB)[0] == 0
    assert ecc_sum_from_gf(3, LUC)[3] == 7


def test_ecc_sums_match_closed_forms():
    fib = ecc_sum_from_gf(ORDER, FIB)
    luc = ecc_sum_from_gf(ORDER, LUC)
    for n in range(0, ORDER + 1):
        assert fib[n] == ecc_sum_closed(n, FIB)
    for n in range(1, ORDER + 1):
        assert luc[n] == ecc_sum_closed(n, LUC)


def test_three_way_agreement_to_16():
    # series histograms against enumerated ones for the larger dimensions;
    # the per-vertex routes used here are played against BFS elsewhere
    fib_hists = fibonacci_ecc_gf(16)
    lucas_hists = lucas_ecc_gf(16)
    for n in range(13, 17):
        assert fib_hists[n].counts == CubeGraph(FIB, n).ecc_histogram("fast").counts, n
        assert lucas_hists[n].counts == CubeGraph(LUC, n).ecc_histogram("hamming").counts, n
        assert fib_hists[n].ecc_sum() == ecc_sum_closed(n, FIB)
        assert lucas_hists[n].ecc_sum() == ecc_sum_closed(n, LUC)


# --- series identities behind the eccentricity sums, to order 30 ---

DEN = {0: 1, 1: -1, 2: -1}  # 1 - x - x^2


def test_identity_derivative_of_bivariate_series():
    # d/dy of (1+xy)/(1-xy-x^2 y) at y=1 equals (2x+x^2)/(1-x-x^2)^2
    f = expand_rational(
        {(0, 0): 1, (1, 1): 1},
        {(0, 0): 1, (1, 1): -1, (2, 1): -1},
        ORDER,
        ORDER,
    )
    lhs = [sum(j * c for j, c in enumerate(row)) for row in f.coeff]
    assert lhs == x_series(uni({1: 2, 2: 1}), _mul(uni(DEN), uni(DEN)))


def test_identity_n_fib_plus_one():
    # sum of n*F(n+1)*x^n = (x + 2x^2)/(1-x-x^2)^2
    f = naive_fib(ORDER + 1)
    series = x_series(uni({1: 1, 2: 2}), _mul(uni(DEN), uni(DEN)))
    assert series == [n * f[n + 1] for n in range(ORDER + 1)]


def test_identity_n_fib():
    # sum of n*F(n)*x^n = (x + x^3)/(1-x-x^2)^2
    f = naive_fib(ORDER)
    series = x_series(uni({1: 1, 3: 1}), _mul(uni(DEN), uni(DEN)))
    assert series == [n * f[n] for n in range(ORDER + 1)]


def test_identity_partial_fraction_combination():
    # (2x+x^2)/(1-x-x^2)^2 =
    #   (1/5) * (3*x/(1-x-x^2) + 4*(x+2x^2)/(1-x-x^2)^2 + 3*(x+x^3)/(1-x-x^2)^2)
    den = uni(DEN)
    den_sq = _mul(den, den)
    lhs = x_series(uni({1: 2, 2: 1}), den_sq)
    a = x_series(uni({1: 1}), den)
    b = x_series(uni({1: 1, 2: 2}), den_sq)
    c = x_series(uni({1: 1, 3: 1}), den_sq)
    rhs = [Fraction(3 * ai + 4 * bi + 3 * ci, 5) for ai, bi, ci in zip(a, b, c)]
    assert lhs == rhs


def test_polynomial_product_and_sum():
    one, x = uni({0: 1}), uni({1: 1})
    minus_x = {k: -c for k, c in x.items()}
    assert _mul(_add(one, x), _add(one, minus_x)) == {(0, 0): 1, (1, 0): 0, (2, 0): -1}
    assert _mul({(0, 0): 1, (1, 1): 3}, {(1, 2): 2}) == {(1, 2): 2, (2, 3): 6}
    assert _add({(0, 0): 1}, {}) == {(0, 0): 1} and _mul({(0, 0): 1}, {}) == {}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_division_inverts_multiplication(data):
    order = 8
    coeffs = st.integers(min_value=-4, max_value=4)
    a_terms = {
        (i, j): data.draw(coeffs) for i in range(3) for j in range(3)
    }
    b_terms = {
        (i, j): data.draw(coeffs) for i in range(3) for j in range(3)
    }
    b_terms[(0, 0)] = data.draw(st.integers(min_value=1, max_value=4))
    a = expand_rational(a_terms, {(0, 0): 1}, order, order)
    assert expand_rational(_mul(a_terms, b_terms), b_terms, order, order) == a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_division_matches_dense_oracle(data):
    # sparse denominators with rows left empty and constant terms that
    # need not be units, so some quotients are inexact
    mx, my = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    coeffs = st.integers(min_value=-5, max_value=5)
    num_terms = data.draw(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)), coeffs, max_size=12))
    den_terms = data.draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=4))
    den_terms[(0, 0)] = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(2, 3)]))
    q = expand_rational(num_terms, den_terms, mx, my)
    assert q.coeff == _dense_divide(num_terms, den_terms, mx, my)
    assert (q.max_x, q.max_y) == (mx, my)


def test_unit_constant_term_keeps_int_coefficients():
    for c0 in (1, -1):
        q = expand_rational({(0, 0): 3, (1, 2): -7}, {(0, 0): c0, (1, 1): -1, (3, 0): 2}, 12, 12)
        assert all(type(c) is int for row in q.coeff for c in row)
    assert all(type(c) is int for c in _mul(uni({0: 1, 1: 2}), uni(DEN)).values())
    # an inexact division gives Fractions, and only where it is inexact
    q = x_series({(0, 0): 4, (1, 0): 1}, {(0, 0): 2}, 1)
    assert [type(c) for c in q] == [int, Fraction]
    assert q == [2, Fraction(1, 2)]


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_histograms_to_60_match_closed_forms(kind):
    hists = (fibonacci_ecc_gf if kind is FIB else lucas_ecc_gf)(60)
    for n, h in enumerate(hists):
        assert h.total() == vertex_count(n, kind), n
        if n >= 1 or kind is FIB:
            assert h.ecc_sum() == ecc_sum_closed(n, kind), n


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_triangular_expansion_matches_the_full_grid_at_60(kind):
    # no term of N or D has more y's than x's, so rows stop at j = i; times
    # (1 + y) over (1 + y), the same ratio has a y-only term and is expanded in full
    order = 60
    num, den = _ecc_ratio(kind)
    one_plus_y = {(0, 0): 1, (0, 1): 1}
    full = expand_rational(_mul(num, one_plus_y), _mul(den, one_plus_y), order, order)
    assert expand_rational(num, den, order, order) == full
    assert all(c == 0 for i, row in enumerate(full.coeff) for c in row[i + 1:])


def test_a_term_with_more_ys_than_xs_expands_every_column():
    assert expand_rational({(0, 0): 1}, {(0, 0): 1, (0, 1): -1}, 2, 3).coeff == ((1, 1, 1, 1), (0,) * 4, (0,) * 4)
    assert expand_rational({(0, 2): 1}, {(0, 0): 1, (1, 1): -1}, 2, 3).coeff == ((0, 0, 1, 0), (0, 0, 0, 1), (0,) * 4)


@pytest.mark.parametrize("kind", [FIB, LUC])
@pytest.mark.parametrize("max_n", [0, 1, 2, 3, 17, 40])
def test_univariate_sums_match_bivariate_derivative(kind, max_n):
    # a histogram's ecc_sum is the bivariate series' y-derivative at y = 1
    hists = (fibonacci_ecc_gf if kind is FIB else lucas_ecc_gf)(max_n)
    assert ecc_sum_from_gf(max_n, kind) == [h.ecc_sum() for h in hists]


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_folded_ratio_expands_to_the_sum_of_the_typed_pairs(kind):
    order = 40
    folded = expand_rational(*_ecc_ratio(kind), order, order).coeff
    parts = [expand_rational(num, den, order, order).coeff for num, den in _ECC_GF[kind]]
    assert folded == tuple(tuple(map(sum, zip(*rows))) for rows in zip(*parts))


@pytest.mark.parametrize("max_x, max_y", [(-1, 2), (2, -1), (-1, -1)])
def test_expansion_rejects_a_negative_order(max_x, max_y):
    # a BiSeries holds max_x + 1 rows of max_y + 1 coefficients, so neither order can be negative
    with pytest.raises(ValueError, match="orders"):
        expand_rational({(0, 0): 1}, {(0, 0): 1, (1, 0): -1}, max_x, max_y)


def test_expansion_rejects_negative_exponents():
    with pytest.raises(ValueError, match="exponents"):
        expand_rational({(0, -1): 1}, {(0, 0): 1}, 3, 3)
    with pytest.raises(ValueError, match="exponents"):
        expand_rational({(0, 0): 1}, {(0, 0): 1, (-1, 0): 1}, 3, 3)


@pytest.mark.parametrize(
    "pairs, bad",
    [
        ([({(0, 0): 1}, {(0, 0): 1, (1, 1): 1})], "-1"),  # 1/(1 + xy) has -xy
        ([({(0, 0): 1}, {(0, 0): 2, (1, 1): -1})], "1/2"),  # 1/(2 - xy) starts at 1/2
    ],
    ids=["negative", "fraction"],
)
def test_counts_and_sums_must_be_non_negative_integers(monkeypatch, pairs, bad):
    monkeypatch.setitem(_ECC_GF, FIB, pairs)
    with pytest.raises(ArithmeticError, match=f"non-negative integer at .*, got {bad}"):
        fibonacci_ecc_gf(3)
    with pytest.raises(ArithmeticError, match="non-negative integer at x\\^"):
        ecc_sum_from_gf(3, FIB)


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_ecc_sums_match_closed_forms_to_1000(kind):
    sums = ecc_sum_from_gf(1000, kind)
    assert len(sums) == 1001
    assert sums == [ecc_sum_closed(n, kind) for n in range(1001)]
