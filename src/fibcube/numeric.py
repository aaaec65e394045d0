"""Exact Fibonacci and Lucas integers plus shared high-precision decimals.

Integers are plain Python ints (arbitrary precision), exact ratios are
``fractions.Fraction``, and every approximate value produced by this
package is a ``decimal.Decimal`` carrying :data:`DIGITS` significant
digits. All functions are pure and the values immutable, so everything
here is safe to share between threads.
"""

from __future__ import annotations

import functools
from decimal import Context, Decimal, localcontext

#: Significant decimal digits carried by every Decimal this package produces.
DIGITS = 50

_CTX = Context(prec=DIGITS)


def decimal_context() -> Context:
    """A fresh context at package precision, for callers doing their own
    arithmetic on values returned here (the default context truncates)."""
    return Context(prec=DIGITS)

# Mantissa width used when taking logarithms of huge integers. 192 bits of
# mantissa leave a relative truncation error around 1e-57, far below DIGITS.
_LOG_MANTISSA_BITS = 192

_LN2 = _CTX.ln(Decimal(2))


def fibonacci_pair(n: int) -> tuple[int, int]:
    """Return ``(F(n), F(n+1))`` with F(0)=0, F(1)=1.

    Fast doubling: O(log n) big-integer multiplications, so indices up to
    10**5 and beyond stay cheap.
    """
    if n < 0:
        raise ValueError("Fibonacci index must be >= 0")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)
        d = a * a + b * b
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


def fibonacci(n: int) -> int:
    """F(n) with F(0)=0, F(1)=1."""
    return fibonacci_pair(n)[0]


def lucas(n: int) -> int:
    """L(n) with L(0)=2, L(1)=1, via the identity L(n) = 2*F(n+1) - F(n)."""
    if n < 0:
        raise ValueError("Lucas index must be >= 0")
    a, b = fibonacci_pair(n)
    return 2 * b - a


def sqrt5() -> Decimal:
    with localcontext(_CTX):
        return Decimal(5).sqrt()


def golden_ratio() -> Decimal:
    """(1 + sqrt 5) / 2 to DIGITS significant digits."""
    with localcontext(_CTX):
        return (1 + Decimal(5).sqrt()) / 2


def to_decimal(value: Fraction | int, denominator: int = 1) -> Decimal:
    """value / denominator, correctly rounded to DIGITS digits. The two
    need not be in lowest terms, so no gcd is taken."""
    with localcontext(_CTX):
        return Decimal(value.numerator) / Decimal(value.denominator * denominator)


def log2_int(v: int) -> Decimal:
    """Base-2 logarithm of a positive integer.

    The exponent comes from the bit length; only a normalized
    _LOG_MANTISSA_BITS-bit mantissa enters the Decimal logarithm, so the
    cost does not grow with the size of ``v``.
    """
    if v <= 0:
        raise ValueError("log2 is undefined for non-positive integers")
    if v & (v - 1) == 0:  # a power of two: its exact exponent, not a rounded logarithm
        return Decimal(v.bit_length() - 1)
    shift = max(0, v.bit_length() - _LOG_MANTISSA_BITS)
    with localcontext(_CTX):
        return shift + Decimal(v >> shift).ln() / _LN2


# log2_binet sums in _BINET_CTX, and leaves to log2_int a sum within _BINET_SLACK
# units in the last place of a rounding midpoint, or a log2 v within _BINET_EDGE of an integer.
_BINET_CTX = Context(prec=70)
_BINET_SLACK = Decimal("1e-6")
_BINET_EDGE = Decimal("1e-30")


@functools.cache
def _binet_logs() -> tuple[Decimal, Decimal, Decimal]:
    """ln phi, ln sqrt 5 and ln 2 at 90 digits."""
    wide = Context(prec=90)
    s5 = wide.sqrt(5)
    return wide.ln(wide.divide(wide.add(1, s5), 2)), wide.ln(s5), wide.ln(2)


def log2_binet(v: int | Decimal, j: int, lucas: bool = False) -> Decimal:
    """log2_int(v) for v = F(j), or v = L(j) when ``lucas``, from j alone.

    log2_int rounds ln m to DIGITS digits, for the mantissa m = v >> s and s the
    bit length of v less _LOG_MANTISSA_BITS, or 0. From j = 170, Binet's
    ln v = j ln phi [- ln sqrt 5] + ln(1 +- phi^(-2j)) has phi^(-2j) < 1e-70, so
    the 70-digit ln v is off by a few units in its 70th digit, and the integer
    part of ln v / ln 2 is the bit length of v less 1 unless the quotient lies
    within _BINET_EDGE of an integer. ln m = ln v - s ln 2 + ln(1 - r/v) for
    r = v - (m << s) < 2^-191 v: dropping that term moves ln m by about 3e-11
    units in its 50th digit. So unless ln v - s ln 2 lies within _BINET_SLACK
    units of a midpoint, it rounds to the correctly rounded Decimal.ln(m) of
    log2_int. Otherwise, and below j = 170, this returns log2_int(int(v)): only
    then is v, an int or an exact integer Decimal, read.
    """
    if j >= 170:
        ln_phi, ln_sqrt5, ln2 = _binet_logs()
        with localcontext(_BINET_CTX):
            ln_v = j * ln_phi if lucas else j * ln_phi - ln_sqrt5
            bits, frac = divmod(ln_v / ln2, 1)  # the bit length of v less 1, unless frac is near 0 or 1
            shift = max(0, int(bits) + 1 - _LOG_MANTISSA_BITS)
            ln_m = ln_v - shift * ln2
            to_edge = min(frac, 1 - frac)
            to_midpoint = abs(ln_m.scaleb(DIGITS - 1 - ln_m.adjusted()) % 1 - Decimal("0.5"))
        if to_edge >= _BINET_EDGE and to_midpoint >= _BINET_SLACK:
            with localcontext(_CTX):
                return shift + (+ln_m) / _LN2
    return log2_int(int(v))
