"""Graph invariants of Fibonacci cubes, Lucas cubes and hypercubes.

Vertices are the words of the chosen class; two vertices are adjacent
when they differ in precisely one position. Adjacency is derived on the
fly (flip one bit, test membership), which keeps memory linear in the
vertex count. BFS is the implementation of record for distances; the
Hamming route and the one-pass suffix recursion are separate routes
that the test suite plays against it. Both families are isometric
subgraphs of the hypercube, so the Hamming route takes a vertex's
eccentricity as the largest Hamming distance to a word of the class,
found by a DP over the class's automaton in O(n) per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import localcontext
from fractions import Fraction
from functools import cached_property

from .numeric import _CTX, fibonacci, fibonacci_pair, lucas, to_decimal
from .words import BitWord, WordClass, enumerate_bits, is_fibonacci


@dataclass(frozen=True)
class EccHistogram:
    """counts[k] = number of vertices with eccentricity k."""

    n: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def ecc_sum(self) -> int:
        return sum(k * c for k, c in self.counts.items())


class CubeGraph:
    """The graph induced on all words of one class and length.

    Vertex order is lexicographic everywhere, so per-vertex results are
    reproducible. Instances are immutable after construction and all
    methods are pure, so a graph can be shared between threads.
    """

    def __init__(self, word_class: WordClass, n: int):
        self.word_class = word_class
        self.n = n
        self._bits = enumerate_bits(n, word_class)
        self._adj: list[list[int]] | None = None

    @cached_property
    def _index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self._bits)}

    @property
    def num_vertices(self) -> int:
        return len(self._bits)

    @property
    def vertex_bits(self) -> list[int]:
        """Integer encodings of the vertices, lexicographic order."""
        return list(self._bits)

    def words(self) -> list[BitWord]:
        return [BitWord(self.n, b) for b in self._bits]

    def __contains__(self, w: BitWord) -> bool:
        return w.n == self.n and w.bits in self._index

    def index_of(self, w: BitWord) -> int:
        if w not in self:
            raise ValueError(f"{w!s} is not a vertex of this graph")
        return self._index[w.bits]

    def _adjacency(self) -> list[list[int]]:
        if self._adj is None:
            index = self._index
            adj = []
            for b in self._bits:
                nbrs = []
                for j in range(self.n):
                    i2 = index.get(b ^ (1 << j))
                    if i2 is not None:
                        nbrs.append(i2)
                nbrs.sort()
                adj.append(nbrs)
            self._adj = adj
        return self._adj

    def neighbors(self, w: BitWord) -> list[BitWord]:
        i = self.index_of(w)
        return [BitWord(self.n, self._bits[j]) for j in self._adjacency()[i]]

    def edge_count_brute(self) -> int:
        """Number of edges by direct enumeration (each counted once)."""
        return sum(map(len, self._adjacency())) // 2

    def bfs_levels(self, source_index: int) -> list[int]:
        """BFS distance from one vertex to every vertex, by vertex index."""
        adj = self._adjacency()
        dist = [-1] * len(adj)
        dist[source_index] = 0
        frontier = [source_index]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    def _connected_levels(self, source_index: int) -> list[int]:
        dist = self.bfs_levels(source_index)
        if min(dist) < 0:
            raise ValueError("graph is not connected")
        return dist

    def distance(self, u: BitWord, v: BitWord) -> int:
        """Number of edges on a shortest path, by BFS."""
        iu, iv = self.index_of(u), self.index_of(v)
        return self._connected_levels(iu)[iv]

    def eccentricity_bfs(self, u: BitWord) -> int:
        return max(self._connected_levels(self.index_of(u)))

    def eccentricity_hamming(self, u: BitWord) -> int:
        """Largest Hamming distance from u to any vertex."""
        self.index_of(u)
        return _farthest_word_distance(u.bits, self.n, self.word_class)

    def eccentricities(self, method: str = "bfs") -> list[int]:
        """Eccentricity of every vertex, aligned with ``words()``.

        method: "bfs" (implementation of record), "hamming" (largest
        Hamming distance to a word of the class, by a DP over the class's
        automaton), or "fast" (suffix recursion, Fibonacci cubes only).
        """
        if method == "bfs":
            return [max(self._connected_levels(i)) for i in range(len(self._bits))]
        if method == "hamming":
            return [_farthest_word_distance(b, self.n, self.word_class) for b in self._bits]
        if method == "fast":
            if self.word_class is not WordClass.FIBONACCI:
                raise ValueError("the suffix recursion applies to Fibonacci cubes only")
            return [_stripped_ecc(self.n, b) for b in self._bits]
        raise ValueError(f"unknown eccentricity method {method!r}")

    def ecc_histogram(self, method: str = "bfs") -> EccHistogram:
        counts: dict[int, int] = {}
        for e in self.eccentricities(method):
            counts[e] = counts.get(e, 0) + 1
        return EccHistogram(self.n, dict(sorted(counts.items())))


def _farthest_word_distance(bits: int, n: int, kind: WordClass) -> int:
    """Largest Hamming distance from the n-bit word u, given as ``bits``,
    to a word of the class.

    A max-plus DP over positions: d0 and d1 are the most positions at
    which u differs from a prefix of a word ending in 0 and in 1. A 1
    may follow only a 0. Fibonacci words start as if a 0 stood before
    them. Lucas words are read cyclically: one run per value c of the
    final bit, started as if c stood before the first bit and required
    to end in c.
    """
    if kind is WordClass.UNRESTRICTED:
        return n
    fib = kind is WordClass.FIBONACCI
    unreachable = -n - 1  # stays below every score
    best = 0
    for c in (0,) if fib else (0, 1):
        d0, d1 = (0, unreachable) if c == 0 else (unreachable, 0)
        for j in range(n):
            x = bits >> j & 1
            d0, d1 = max(d0, d1) + x, d0 + 1 - x
        best = max(best, max(d0, d1) if fib else (d0, d1)[c])
    return best


# Eccentricities on the trivial Fibonacci cubes, keyed by (length, bits).
_BASE_ECC = {(0, 0): 0, (1, 0): 1, (1, 1): 1, (2, 0b00): 1, (2, 0b01): 2, (2, 0b10): 2}


def eccentricity_fast(w: BitWord) -> int:
    """Eccentricity in the Fibonacci cube of the word's length, in O(n).

    Strips the word by its last two symbols (both symbols when it ends
    00, one symbol otherwise); every strip adds exactly 1.
    """
    if not is_fibonacci(w):
        raise ValueError(f"{w!s} has adjacent 1s")
    return _stripped_ecc(w.n, w.bits)


def _stripped_ecc(n: int, bits: int) -> int:
    steps = 0
    while n > 2:
        if bits & 3 == 0:
            n -= 2
            bits >>= 2
        else:
            n -= 1
            bits >>= 1
        steps += 1
    return steps + _BASE_ECC[(n, bits)]


def _require_kind(kind: WordClass) -> None:
    if kind not in (WordClass.FIBONACCI, WordClass.LUCAS):
        raise ValueError("closed forms exist for the Fibonacci and Lucas kinds only")


def vertex_count(n: int, kind: WordClass) -> int:
    """F(n+2), L(n), or 2**n vertices. The length-1 Lucas cube has one vertex."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if kind is WordClass.FIBONACCI:
        return fibonacci(n + 2)
    if kind is WordClass.LUCAS:
        return lucas(n) if n >= 1 else 1
    return 1 << n


def ecc_sum_closed(n: int, kind: WordClass) -> int:
    """Sum of all vertex eccentricities, by closed form.

    Fibonacci: (3F(n) + 4nF(n+1) + 3nF(n))/5, where the division is exact
    for every valid n (guarded anyway). Lucas (n >= 1):
    nF(n+1) + (-1)^n n + (-1)^(n+1) floor(n/2).
    """
    _require_kind(kind)
    if kind is WordClass.FIBONACCI:
        if n < 0:
            raise ValueError("dimension must be >= 0")
        fn, fn1 = fibonacci_pair(n)
        q, r = divmod(3 * fn + 4 * n * fn1 + 3 * n * fn, 5)
        if r:
            raise ArithmeticError(f"eccentricity sum for n={n} not divisible by 5")
        return q
    if n < 1:
        raise ValueError("the Lucas closed form needs n >= 1")
    fn, fn1 = fibonacci_pair(n)
    sign = -1 if n % 2 else 1
    return n * fn1 + sign * n - sign * (n // 2)


def average_ecc(n: int, kind: WordClass) -> Fraction:
    if n < 1:
        raise ValueError("average eccentricity needs n >= 1")
    return Fraction(ecc_sum_closed(n, kind), vertex_count(n, kind))


def average_ecc_over_n(n: int, kind: WordClass):
    """average_ecc(n)/n as a high-precision decimal."""
    return to_decimal(average_ecc(n, kind) / n)


def edge_count(n: int, kind: WordClass) -> int:
    """Closed-form edge counts: (nF(n+1) + 2(n+1)F(n))/5, nF(n-1), n*2^(n-1)."""
    if kind is WordClass.UNRESTRICTED:
        if n < 0:
            raise ValueError("dimension must be >= 0")
        return n << (n - 1) if n else 0
    _require_kind(kind)
    if kind is WordClass.FIBONACCI:
        if n < 0:
            raise ValueError("dimension must be >= 0")
        fn, fn1 = fibonacci_pair(n)
        q, r = divmod(n * fn1 + 2 * (n + 1) * fn, 5)
        if r:
            raise ArithmeticError(f"edge count for n={n} not divisible by 5")
        return q
    if n < 1:
        raise ValueError("the Lucas closed form needs n >= 1")
    return n * fibonacci(n - 1)


def average_degree(n: int, kind: WordClass) -> Fraction:
    if n < 1:
        raise ValueError("average degree needs n >= 1")
    return Fraction(2 * edge_count(n, kind), vertex_count(n, kind))


def weight_count(n: int, i: int, chi: int, kind: WordClass) -> int:
    """Vertices whose i-th coordinate equals chi, by closed form.

    Fibonacci: F(i+1)F(n-i+2) words with 0, F(i)F(n-i+1) with 1.
    Lucas: F(n+1) with 0 and F(n-1) with 1, independent of i.
    """
    _require_kind(kind)
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside 1..{n}")
    if chi not in (0, 1):
        raise ValueError("chi must be 0 or 1")
    if kind is WordClass.FIBONACCI:
        if chi == 0:
            return fibonacci(i + 1) * fibonacci(n - i + 2)
        return fibonacci(i) * fibonacci(n - i + 1)
    return fibonacci(n + 1) if chi == 0 else fibonacci(n - 1)


def weight_count_brute(n: int, i: int, chi: int, kind: WordClass) -> int:
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside 1..{n}")
    shift = n - i
    return sum(1 for b in enumerate_bits(n, kind) if (b >> shift) & 1 == chi)


def _weight_ratios(n: int, kind: WordClass):
    """Per position, (#words with 0 there) / (#words with 1 there), exact.

    Validates at the call; the length-1 Lucas cube has no word with a 1
    anywhere, so the ratios are undefined there.
    """
    _require_kind(kind)
    if n < 1:
        raise ValueError("weight ratios need n >= 1")
    if kind is WordClass.LUCAS and n == 1:
        raise ValueError("undefined for the length-1 Lucas cube: no word has a 1")
    return (
        Fraction(weight_count(n, i, 0, kind), weight_count(n, i, 1, kind))
        for i in range(1, n + 1)
    )


def weight_ratio_average(n: int, kind: WordClass) -> Fraction:
    """Mean over positions of (#words with 0 there) / (#words with 1 there). Exact."""
    return sum(_weight_ratios(n, kind), Fraction(0)) / n


def weight_ratio_average_decimal(n: int, kind: WordClass):
    """Same mean at package precision; preferred for large n, where the
    exact rational's denominator grows out of hand."""
    with localcontext(_CTX):
        return sum(map(to_decimal, _weight_ratios(n, kind))) / n
