from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcube.cube import CubeGraph, ecc_sum_closed, vertex_count
from fibcube.series import (
    BiSeries,
    _ecc_series,
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


def uni(terms, order=ORDER):
    """Univariate polynomial as a BiSeries constant in y."""
    return BiSeries.from_terms({(i, 0): c for i, c in terms.items()}, order, 0)


def _dense_divide(num: BiSeries, den: BiSeries) -> BiSeries:
    """Test oracle: long division summing over every earlier coefficient."""
    c0 = den.get(0, 0)
    mx, my = min(num.max_x, den.max_x), min(num.max_y, den.max_y)
    q = [[Fraction(0)] * (my + 1) for _ in range(mx + 1)]
    for i in range(mx + 1):
        for j in range(my + 1):
            s = Fraction(num.coeff[i][j])
            for p in range(i + 1):
                for r in range(j + 1):
                    if (p, r) != (i, j):
                        s -= q[p][r] * den.get(i - p, j - r)
            q[i][j] = s / c0
    return BiSeries(mx, my, tuple(tuple(row) for row in q))


def test_geometric_series():
    s = expand_rational({(0, 0): 1}, {(0, 0): 1, (1, 0): -1}, 5, 0)
    assert s.eval_y1() == [1, 1, 1, 1, 1, 1]


def test_fibonacci_generating_function():
    s = expand_rational({(1, 0): 1}, {(0, 0): 1, (1, 0): -1, (2, 0): -1}, 8, 0)
    assert [int(c) for c in s.eval_y1()] == naive_fib(8)[:9]


def test_bivariate_coefficient_example():
    s = expand_rational(
        {(0, 0): 1, (1, 1): 1},
        {(0, 0): 1, (1, 1): -1, (2, 1): -1},
        4,
        4,
    )
    assert s.get(3, 3) == 2  # two vertices of the 3-cube with eccentricity 3


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
    lhs = f.d_dy().eval_y1()
    den_sq = uni(DEN) * uni(DEN)
    rhs = (uni({1: 2, 2: 1}) / den_sq).eval_y1()
    assert lhs == rhs


def test_identity_n_fib_plus_one():
    # sum of n*F(n+1)*x^n = (x + 2x^2)/(1-x-x^2)^2
    f = naive_fib(ORDER + 1)
    den_sq = uni(DEN) * uni(DEN)
    series = (uni({1: 1, 2: 2}) / den_sq).eval_y1()
    assert series == [Fraction(n * f[n + 1]) for n in range(ORDER + 1)]


def test_identity_n_fib():
    # sum of n*F(n)*x^n = (x + x^3)/(1-x-x^2)^2
    f = naive_fib(ORDER)
    den_sq = uni(DEN) * uni(DEN)
    series = (uni({1: 1, 3: 1}) / den_sq).eval_y1()
    assert series == [Fraction(n * f[n]) for n in range(ORDER + 1)]


def test_identity_partial_fraction_combination():
    # (2x+x^2)/(1-x-x^2)^2 =
    #   (1/5) * (3*x/(1-x-x^2) + 4*(x+2x^2)/(1-x-x^2)^2 + 3*(x+x^3)/(1-x-x^2)^2)
    den = uni(DEN)
    den_sq = den * den
    lhs = (uni({1: 2, 2: 1}) / den_sq).eval_y1()
    a = (uni({1: 1}) / den).eval_y1()
    b = (uni({1: 1, 2: 2}) / den_sq).eval_y1()
    c = (uni({1: 1, 3: 1}) / den_sq).eval_y1()
    rhs = [Fraction(3 * ai + 4 * bi + 3 * ci, 5) for ai, bi, ci in zip(a, b, c)]
    assert lhs == rhs


def test_series_algebra_basics():
    one = uni({0: 1}, 6)
    x = uni({1: 1}, 6)
    assert ((one + x) * (one - x)).eval_y1() == [1, 0, -1, 0, 0, 0, 0]
    assert (x * x).get(2, 0) == 1
    assert (-x).get(1, 0) == -1


def test_derivative_of_polynomial():
    # d/dy (1 + 3xy + x y^2) = 3x + 2xy
    p = BiSeries.from_terms({(0, 0): 1, (1, 1): 3, (1, 2): 1}, 3, 3)
    d = p.d_dy()
    assert d.get(1, 0) == 3
    assert d.get(1, 1) == 2
    assert d.get(0, 0) == 0
    assert d.max_y == 2


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
    a = BiSeries.from_terms(a_terms, order, order)
    b = BiSeries.from_terms(b_terms, order, order)
    assert ((a * b) / b).coeff == a.coeff


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
    num = BiSeries.from_terms(num_terms, mx, my)
    den = BiSeries.from_terms(den_terms, data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8)))
    q = num / den
    assert q.coeff == _dense_divide(num, den).coeff
    assert (q.max_x, q.max_y) == (min(mx, den.max_x), min(my, den.max_y))


def test_unit_constant_term_keeps_int_coefficients():
    for c0 in (1, -1):
        q = expand_rational({(0, 0): 3, (1, 2): -7}, {(0, 0): c0, (1, 1): -1, (3, 0): 2}, 12, 12)
        assert all(type(c) is int for row in q.coeff for c in row)
    assert all(type(c) is int for row in (uni({0: 1, 1: 2}) * uni(DEN)).coeff for c in row)
    # an inexact division gives Fractions, and only where it is inexact
    q = expand_rational({(0, 0): 4, (1, 0): 1}, {(0, 0): 2}, 1, 0)
    assert [type(c) for c in q.eval_y1()] == [int, Fraction]
    assert q.eval_y1() == [2, Fraction(1, 2)]


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_histograms_to_60_match_closed_forms(kind):
    hists = (fibonacci_ecc_gf if kind is FIB else lucas_ecc_gf)(60)
    for n, h in enumerate(hists):
        assert h.total() == vertex_count(n, kind), n
        if n >= 1 or kind is FIB:
            assert h.ecc_sum() == ecc_sum_closed(n, kind), n


@pytest.mark.parametrize("kind", [FIB, LUC])
@pytest.mark.parametrize("max_n", [0, 1, 2, 3, 17, 40])
def test_univariate_sums_match_bivariate_derivative(kind, max_n):
    assert ecc_sum_from_gf(max_n, kind) == _ecc_series(max_n, kind).d_dy().eval_y1()


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_ecc_sums_match_closed_forms_to_1000(kind):
    sums = ecc_sum_from_gf(1000, kind)
    assert len(sums) == 1001
    start = 0 if kind is FIB else 1  # the Lucas closed form starts at n = 1
    assert sums[start:] == [ecc_sum_closed(n, kind) for n in range(start, 1001)]
