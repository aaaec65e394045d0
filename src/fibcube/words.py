"""Binary words without adjacent 1s, their cyclic variant, and enumeration.

A word of length n is written b1...bn with b1 the leftmost symbol; the
integer encoding keeps b1 as the most significant bit, so numeric order
on equal-length words is exactly lexicographic order with 0 < 1.
Enumeration runs in lexicographic blocks, a prefix followed by each
allowed suffix, so a consumer that streams them holds one block at a time.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple


class WordClass(Enum):
    FIBONACCI = "fibonacci"  # no two adjacent 1s
    LUCAS = "lucas"  # additionally the first and last bit are not both 1
    UNRESTRICTED = "unrestricted"


class BitWord(NamedTuple("BitWord", [("n", int), ("bits", int)])):
    """A fixed-length binary word; position 1 is the leftmost symbol."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, bits: int) -> "BitWord":
        if n < 0:
            raise ValueError("word length must be >= 0")
        if not 0 <= bits < (1 << n):
            raise ValueError(f"bits 0b{bits:b} do not fit in length {n}")
        return super().__new__(cls, n, bits)

    @classmethod
    def from_string(cls, s: str) -> "BitWord":
        return cls(len(s), int(s, 2) if s else 0)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b") if self.n else ""

    def concat(self, other: "BitWord") -> "BitWord":
        return BitWord(self.n + other.n, (self.bits << other.n) | other.bits)


def _fibonacci_bits(bits: int) -> bool:
    return bits & (bits >> 1) == 0


def _lucas_bits(n: int, bits: int) -> bool:
    # first-and-last test: (bits >> (n-1)) & bits & 1 is 1 iff b1 = bn = 1
    return _fibonacci_bits(bits) and not (n >= 1 and (bits >> (n - 1)) & bits & 1)


def is_fibonacci(w: BitWord) -> bool:
    """True iff the word has no two consecutive 1s (the empty word passes)."""
    return _fibonacci_bits(w.bits)


def is_lucas(w: BitWord) -> bool:
    """True iff no two consecutive 1s, cyclically: first and last not both 1.

    For n = 1 the word "1" fails since its first and last symbol coincide.
    """
    return _lucas_bits(w.n, w.bits)


# Suffix length of an enumeration block: every word of length n is a
# prefix of n - k bits followed by a suffix of k = min(n, _BLOCK) bits.
_BLOCK = 14


def word_blocks(n: int, word_class: WordClass) -> tuple[int, tuple, Iterator[tuple[int, int]]]:
    """The words of the class and length n as ``(k, suffix_lists, blocks)``.

    ``blocks`` yields ``(prefix, j)`` in order, and the block's words are
    the prefix followed by each suffix in ``suffix_lists[j]``. A prefix
    ending in 1 takes only suffixes starting with 0, and a Lucas prefix
    starting with 1 only those ending in 0: j is its last bit plus twice
    its first.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    k = min(n, _BLOCK)
    m = n - k
    if word_class is WordClass.UNRESTRICTED:
        return k, (range(1 << k),), ((p, 0) for p in range(1 << m))
    lucas = word_class is WordClass.LUCAS
    shorter, suffixes = [0], [0]  # Fibonacci words of lengths i - 1 and i, in order
    for i in range(k):
        shorter, suffixes = suffixes, suffixes + [1 << i | s for s in shorter]
    if m == 0:
        return k, ([s for s in suffixes if _lucas_bits(n, s)] if lucas else suffixes,), iter([(0, 0)])
    lists = (suffixes, suffixes[: len(shorter)])  # "0" before each shorter word sorts first
    # a Fibonacci prefix's first bit restricts nothing
    lists += tuple([s for s in ss if not s & 1] for ss in lists) if lucas else lists
    prefixes = _iter_bits(m, WordClass.FIBONACCI)  # lazily, by these same blocks
    return k, lists, ((p, p & 1 | (p >> (m - 1) & 1) << 1) for p in prefixes)


def _iter_bits(n: int, word_class: WordClass) -> Iterator[int]:
    k, suffix_lists, blocks = word_blocks(n, word_class)
    # `for q in (p << k,)` shifts each prefix once per block, not per word
    return (q | s for p, j in blocks for q in (p << k,) for s in suffix_lists[j])


def enumerate_bits(n: int, word_class: WordClass) -> list[int]:
    """Integer encodings of all words of the class, in lexicographic order."""
    return list(_iter_bits(n, word_class))


def enumerate_words(n: int, word_class: WordClass) -> list[BitWord]:
    """All words of the class and length n, lexicographically ordered."""
    return [BitWord(n, b) for b in enumerate_bits(n, word_class)]

