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
from fractions import Fraction

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
    q = Fraction(value)
    with localcontext(_CTX):
        return Decimal(q.numerator) / Decimal(q.denominator * denominator)


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


# log2_binet sums in _BINET_CTX, and leaves to log2_int a sum within
# _BINET_SLACK units in the last place of a rounding midpoint.
_BINET_CTX = Context(prec=70)
_BINET_SLACK = Decimal("1e-6")


@functools.cache
def _binet_logs() -> tuple[Decimal, Decimal, Decimal]:
    """ln phi, ln sqrt 5 and ln 2 at 90 digits."""
    wide = Context(prec=90)
    s5 = wide.sqrt(5)
    return wide.ln(wide.divide(wide.add(1, s5), 2)), wide.ln(s5), wide.ln(2)


def log2_binet(v: int, j: int, lucas: bool = False) -> Decimal:
    """log2_int(v) for v = F(j), or v = L(j) when ``lucas``, without Decimal.ln.

    log2_int rounds ln m, of the mantissa m = v >> s, to DIGITS digits. Binet
    gives ln v = j ln phi [- ln sqrt 5] + ln(1 +- phi^(-2j)), and the remainder
    r = v - (m << s) gives ln m = ln v - s ln 2 + ln(1 - r/v). From j = 170,
    phi^(-2j) < 1e-70; r/v < 2^-191, so (r/v)^2 < 1e-114; and r/v, taken from
    the top bits of v, is off by under 2^-255. So the 70-digit sum
    j ln phi [- ln sqrt 5] - s ln 2 - r/v is off ln m by a few units in its
    70th digit, about 1e-19 units in the 50th. Unless it lies within
    _BINET_SLACK units of a midpoint, it rounds to DIGITS digits as ln m does,
    to the correctly rounded Decimal.ln(m) of log2_int. Near a midpoint, and
    below j = 170, this returns log2_int(v) itself.
    """
    if j < 170:
        return log2_int(v)
    ln_phi, ln_sqrt5, ln2 = _binet_logs()
    shift = max(0, v.bit_length() - _LOG_MANTISSA_BITS)
    t = max(0, shift - 64)
    top = v >> t  # m, then the top shift - t bits of r
    with localcontext(_BINET_CTX):
        ln_m = j * ln_phi - shift * ln2 - Decimal(top & (1 << shift - t) - 1) / top
        if not lucas:
            ln_m -= ln_sqrt5
        if abs(ln_m.scaleb(DIGITS - 1 - ln_m.adjusted()) % 1 - Decimal("0.5")) < _BINET_SLACK:
            return log2_int(v)
    with localcontext(_CTX):
        return shift + (+ln_m) / _LN2
