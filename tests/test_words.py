import functools
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcube import words
from fibcube.numeric import fibonacci, lucas
from fibcube.words import (
    BitWord,
    WordClass,
    enumerate_bits,
    enumerate_words,
    is_fibonacci,
    is_lucas,
)

W = BitWord.from_string


def fib_str(s: str) -> bool:
    """Independent string oracle."""
    return "11" not in s


def lucas_str(s: str) -> bool:
    return fib_str(s) and not (s and s[0] == "1" and s[-1] == "1")


def brute_words(n: int, pred) -> list[str]:
    return ["".join(p) for p in product("01", repeat=n) if pred("".join(p))]


def test_is_fibonacci_examples():
    assert is_fibonacci(W("0101"))
    assert not is_fibonacci(W("0110"))
    assert is_fibonacci(W(""))


def test_is_lucas_examples():
    assert is_lucas(W("1010"))
    assert not is_lucas(W("1001"))
    assert not is_lucas(W("1"))
    assert is_lucas(W("0"))


def test_enumerate_small_cases():
    assert [str(w) for w in enumerate_words(3, WordClass.FIBONACCI)] == ["000", "001", "010", "100", "101"]
    assert [str(w) for w in enumerate_words(3, WordClass.LUCAS)] == ["000", "001", "010", "100"]
    assert [str(w) for w in enumerate_words(0, WordClass.FIBONACCI)] == [""]
    assert [str(w) for w in enumerate_words(2, WordClass.UNRESTRICTED)] == ["00", "01", "10", "11"]


def test_enumeration_takes_four_bytes_a_word_up_to_length_32(monkeypatch):
    for n in (0, 1, 20):
        assert enumerate_bits(n, WordClass.FIBONACCI).itemsize == 4
    # the widest words of each size, from a stand-in for the enumeration, which is too large to run
    for n, itemsize in ((32, 4), (33, 8), (64, 8)):
        monkeypatch.setattr(words, "_iter_bits", lambda n, word_class: iter([0, 2**n - 1]))
        bits = enumerate_bits(n, WordClass.UNRESTRICTED)
        assert (bits.itemsize, bits.tolist()) == (itemsize, [0, 2**n - 1])


def test_enumeration_counts_match_closed_forms():
    for n in range(21):
        assert len(enumerate_bits(n, WordClass.FIBONACCI)) == fibonacci(n + 2)
        assert len(enumerate_bits(n, WordClass.UNRESTRICTED)) == 2**n
    for n in range(1, 21):
        assert len(enumerate_bits(n, WordClass.LUCAS)) == lucas(n)


def test_enumeration_matches_brute_force_in_order():
    for n in range(13):
        assert [str(w) for w in enumerate_words(n, WordClass.FIBONACCI)] == brute_words(n, fib_str)
        assert [str(w) for w in enumerate_words(n, WordClass.LUCAS)] == brute_words(n, lucas_str)


def test_enumeration_is_lexicographic():
    for n in range(2, 16):
        ws = [str(w) for w in enumerate_words(n, WordClass.FIBONACCI)]
        assert ws == sorted(ws)


def _in_class(n: int, bits: int, word_class: WordClass) -> bool:
    """Membership by definition: no symbol is 1 together with its right
    neighbour, where a Lucas word's last symbol neighbours its first."""
    if word_class is WordClass.UNRESTRICTED:
        return True
    neighbours = bits >> 1
    if word_class is WordClass.LUCAS and n:
        neighbours |= (bits & 1) << (n - 1)
    return not bits & neighbours


@functools.cache
def _filtered_range(n: int, word_class: WordClass) -> list[int]:
    return [b for b in range(1 << n) if _in_class(n, b, word_class)]


@settings(deadline=None)
@given(st.data())
def test_block_enumeration_matches_filtered_range(data):
    # block lengths 3 and 5 split the words of length <= 20 into several
    # levels of prefixes, and the default into one
    word_class = data.draw(st.sampled_from(list(WordClass)))
    n = data.draw(st.integers(0, 16 if word_class is WordClass.UNRESTRICTED else 20))
    block = data.draw(st.sampled_from([3, 5, words._BLOCK]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(words, "_BLOCK", block)
        assert enumerate_bits(n, word_class).tolist() == _filtered_range(n, word_class)


def test_block_suffix_lists_per_class():
    for n in (0, 5, 14, 15, 20):
        k, suffix_lists, _ = words.word_blocks(n, WordClass.FIBONACCI)
        assert k == min(n, words._BLOCK)
        assert len({id(ss) for ss in suffix_lists}) == (1 if n <= k else 2)
        k, suffix_lists, _ = words.word_blocks(n, WordClass.LUCAS)
        assert len(suffix_lists) == (1 if n <= k else 4)
        assert len(words.word_blocks(n, WordClass.UNRESTRICTED)[1]) == 1
    with pytest.raises(ValueError):
        words.word_blocks(-1, WordClass.FIBONACCI)


def test_lucas_is_fibonacci_minus_wraparound():
    for n in range(1, 21):
        fib = enumerate_words(n, WordClass.FIBONACCI)
        luc = set(enumerate_words(n, WordClass.LUCAS))
        expected = {w for w in fib if not (str(w)[0] == "1" and str(w)[-1] == "1")}
        assert luc == expected


def test_bitword_accessors():
    w = W("0110")
    assert (w.n, w.bits) == (4, 0b0110)
    assert str(W("10").concat(W("01"))) == "1001"
    assert W("").concat(W("1")) == W("1")


def test_bitword_validation():
    with pytest.raises(ValueError):
        BitWord(-1, 0)
    with pytest.raises(ValueError):
        BitWord(2, 4)
    with pytest.raises(ValueError):  # a copy with a field replaced is validated too
        W("01")._replace(bits=4)


def test_bitword_is_an_immutable_tuple_of_its_fields():
    w = W("101")
    assert w == (3, 5) and hash(w) == hash((3, 5)) and tuple(w) == (3, 5) and w[1] == 5
    assert repr(w) == "BitWord(n=3, bits=5)"
    with pytest.raises(AttributeError):
        w.bits = 0


def test_bitword_ordering_is_lexicographic_for_equal_lengths():
    assert W("001") < W("010") < W("100")


@given(st.text(alphabet="01", max_size=40))
def test_predicates_match_string_oracle(s):
    w = W(s)
    assert is_fibonacci(w) == fib_str(s)
    assert is_lucas(w) == lucas_str(s)
    assert str(w) == s
