from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibcube import numeric
from fibcube.numeric import (
    DIGITS,
    decimal_context,
    fibonacci,
    fibonacci_pair,
    golden_ratio,
    log2_binet,
    log2_int,
    lucas,
    sqrt5,
    to_decimal,
)


def naive_fibonacci(n: int) -> int:
    """Independent oracle: the plain linear recurrence."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_fibonacci_base_values():
    assert fibonacci(0) == 0
    assert fibonacci(1) == 1
    assert fibonacci(10) == 55


def test_lucas_base_values():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(7) == 29


def test_fast_doubling_matches_naive_recurrence():
    a, b = 0, 1
    for n in range(1001):
        assert fibonacci(n) == a
        a, b = b, a + b


def test_fibonacci_recurrence_exact():
    for n in range(2, 501):
        assert fibonacci(n) == fibonacci(n - 1) + fibonacci(n - 2)


def test_lucas_from_neighbouring_fibonacci():
    for n in range(1, 501):
        assert lucas(n) == fibonacci(n - 1) + fibonacci(n + 1)


def test_lucas_recurrence_exact():
    for n in range(2, 301):
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_huge_index_is_cheap_and_consistent():
    f = fibonacci(100000)
    # 20899 decimal digits (checked without str(), which caps at 4300 digits)
    assert 10**20898 <= f < 10**20899
    assert f == fibonacci(99999) + fibonacci(99998)


def test_fibonacci_pair_is_consecutive():
    for n in (0, 1, 2, 17, 90):
        a, b = fibonacci_pair(n)
        assert (a, b) == (fibonacci(n), fibonacci(n + 1))


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fibonacci(-1)
    with pytest.raises(ValueError):
        lucas(-3)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_fibonacci_addition_formula(m, n):
    # F(m+n) = F(m)F(n+1) + F(m-1)F(n)
    assert fibonacci(m + n) == fibonacci(m) * fibonacci(n + 1) + fibonacci(m - 1) * fibonacci(n)


def test_golden_ratio_digits():
    assert str(golden_ratio()).startswith("1.6180339887")


def test_golden_ratio_defining_polynomial():
    phi = golden_ratio()
    with localcontext(decimal_context()):
        assert abs(phi * phi - phi - 1) < Decimal("1e-47")


def test_golden_ratio_from_consecutive_fibonacci():
    ratio = to_decimal(Fraction(fibonacci(61), fibonacci(60)))
    assert abs(ratio - golden_ratio()) < Decimal("1e-20")


def test_sqrt5_squares_back():
    with localcontext(decimal_context()):
        assert abs(sqrt5() * sqrt5() - 5) < Decimal("1e-47")


def test_to_decimal_exact_cases():
    assert to_decimal(Fraction(1, 8)) == Decimal("0.125")
    assert to_decimal(7) == 7
    third = to_decimal(Fraction(1, 3))
    assert str(third).startswith("0." + "3" * 40)


def test_to_decimal_precision():
    # correctly rounded to DIGITS significant digits
    val = to_decimal(Fraction(2, 3))
    assert str(val) == "0." + "6" * (DIGITS - 1) + "7"


@given(st.integers(min_value=-10**60, max_value=10**60), st.integers(min_value=1, max_value=10**60))
def test_to_decimal_of_an_unreduced_quotient(num, den):
    # the same correctly rounded digits, exponent included, with no gcd taken
    assert str(to_decimal(num, den)) == str(to_decimal(Fraction(num, den)))


def test_log2_exact_powers():
    for k in range(3000):
        assert log2_int(1 << k) == k


def test_log2_known_value():
    # log2(6), 30 digits computed independently at higher precision
    assert abs(log2_int(6) - Decimal("2.58496250072115618145373894394782")) < Decimal("1e-29")


def test_log2_huge_argument_brackets_bit_length():
    v = fibonacci(5000)
    lg = log2_int(v)
    assert v.bit_length() - 1 <= lg < v.bit_length()


def test_log2_rejects_non_positive():
    with pytest.raises(ValueError):
        log2_int(0)


def test_log2_binet_is_log2_int_of_every_cube_vertex_count():
    # F(k+2) and L(k) for k = 1..20000: the vertex counts of every density row,
    # as ints and as the exact integer Decimals that count_rows passes
    f0, f1 = 1, 1  # F(k), F(k+1)
    for k in range(1, 20001):
        fib, luc = f0 + f1, 2 * f1 - f0
        fib_text, luc_text = str(log2_int(fib)), str(log2_int(luc))
        assert str(log2_binet(fib, k + 2)) == str(log2_binet(Decimal(fib), k + 2)) == fib_text, k
        assert str(log2_binet(luc, k, lucas=True)) == str(log2_binet(Decimal(luc), k, lucas=True)) == luc_text, k
        f0, f1 = f1, f0 + f1


def test_log2_binet_near_a_midpoint_takes_log2_int(monkeypatch):
    # a slack of one unit puts every sum near a midpoint, so each call falls back
    calls = []
    monkeypatch.setattr(numeric, "_BINET_SLACK", Decimal(1))
    monkeypatch.setattr(numeric, "log2_int", lambda v: calls.append(v) or log2_int(v))
    cases = [(fibonacci(j), j, False) for j in (170, 1002, 20002)] + [(lucas(j), j, True) for j in (170, 20000)]
    for v, j, is_lucas in cases:
        assert str(numeric.log2_binet(v, j, is_lucas)) == str(log2_int(v))
    assert calls == [v for v, _, _ in cases]


def test_log2_binet_near_an_integer_log2_takes_log2_int(monkeypatch):
    # an edge of one puts every log2 v near an integer, so each call falls back,
    # whether the count comes as an int or as an exact integer Decimal
    calls = []
    monkeypatch.setattr(numeric, "_BINET_EDGE", Decimal(1))
    monkeypatch.setattr(numeric, "log2_int", lambda v: calls.append(v) or log2_int(v))
    cases = [(fibonacci(j), j, False) for j in (170, 1002, 20002)] + [(lucas(j), j, True) for j in (170, 20000)]
    for v, j, is_lucas in cases:
        as_int, as_decimal = numeric.log2_binet(v, j, is_lucas), numeric.log2_binet(Decimal(v), j, is_lucas)
        assert str(as_int) == str(as_decimal) == str(log2_int(v))
    assert calls == [v for v, _, _ in cases for _ in range(2)]
