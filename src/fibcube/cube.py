"""Graph invariants of Fibonacci cubes, Lucas cubes and hypercubes.

Vertices are the words of the chosen class; two vertices are adjacent
when they differ in precisely one position. The adjacency lists are built
on first use (flip each bit, look the word up among the vertices) and
cached: V lists of at most n vertex indices each. BFS is the
implementation of record for distances: from one vertex, or from all
sources at once in one bit-parallel sweep that gives every eccentricity.
The Hamming route and the fast route (a recursion over the lexicographic
blocks of the words) are separate routes that read no adjacency, and the
test suite plays them against it.
Both families are isometric subgraphs of the hypercube, so the Hamming
route takes a vertex's eccentricity as the largest Hamming distance to
a word of the class, found by a DP over the class's automaton in O(n)
per vertex.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import reduce
from operator import or_, xor
from typing import NamedTuple

from .numeric import _CTX, DIGITS, fibonacci, fibonacci_pair, to_decimal
from .words import BitWord, WordClass, enumerate_bits, is_fibonacci


class EccHistogram(NamedTuple):
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
    reproducible. The vertex list is fixed at construction; ``_adjacency``
    builds the neighbour lists on its first call and keeps them in
    ``self._adj`` for the graph's lifetime.
    """

    def __init__(self, word_class: WordClass, n: int):
        self.word_class = word_class
        self.n = n
        self._bits = enumerate_bits(n, word_class)
        self._adj: list[list[int]] | None = None

    @property
    def num_vertices(self) -> int:
        return len(self._bits)

    @property
    def vertex_bits(self) -> list[int]:
        """Integer encodings of the vertices, lexicographic order."""
        return list(self._bits)

    def words(self) -> list[BitWord]:
        return [BitWord(self.n, b) for b in self._bits]

    def _adjacency(self) -> list[list[int]]:
        if self._adj is None:
            index = {b: i for i, b in enumerate(self._bits)}
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

    def eccentricities(self, method: str = "bfs") -> list[int]:
        """Eccentricity of every vertex, aligned with ``words()``.

        method: "bfs" (implementation of record: a BFS from all sources at
        once, in one bit-parallel sweep), "hamming" (largest Hamming distance
        to a word of the class, by a DP over the class's automaton), or
        "fast" (one recursion over the lexicographic blocks of the words,
        Fibonacci cubes only; eccentricity_fast is its per-word reference).
        """
        if method == "bfs":
            return self._all_sources_bfs()
        if method == "hamming":
            return [_farthest_word_distance(b, self.n, self.word_class) for b in self._bits]
        if method == "fast":
            if self.word_class is not WordClass.FIBONACCI:
                raise ValueError("the fast route applies to Fibonacci cubes only")
            return list(_fast_eccentricities(self.n))
        raise ValueError(f"unknown eccentricity method {method!r}")

    def _all_sources_bfs(self) -> list[int]:
        """Every eccentricity by one level-synchronous multi-source BFS (Then et
        al., "The More the Merrier", PVLDB 2014): reach[v] is the bitset of the
        sources within distance d of v, and a source that no vertex first
        reaches at distance d + 1 has eccentricity d."""
        if min(self.bfs_levels(0)) < 0:  # one BFS reaches every vertex of a connected graph
            raise ValueError("graph is not connected")
        adj = self._adjacency()
        reach = [1 << v for v in range(len(adj))]
        ecc = [0] * len(adj)
        active = (1 << len(adj)) - 1  # sources whose farthest vertex is not yet found
        d = 0
        while active:
            nxt = [reduce(or_, map(reach.__getitem__, nbrs), r) for r, nbrs in zip(reach, adj)]
            gained = reduce(or_, map(xor, nxt, reach), 0)  # nxt[v] holds reach[v], so xor is "and not"
            done = active & ~gained
            for s, bit in enumerate(bin(done)[:1:-1]):  # the bits of done, lowest first
                if bit == "1":
                    ecc[s] = d
            active, reach, d = gained, nxt, d + 1
        return ecc

    def ecc_histogram(self, method: str = "bfs") -> EccHistogram:
        return EccHistogram(self.n, dict(sorted(Counter(self.eccentricities(method)).items())))


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


def eccentricity_fast(w: BitWord) -> int:
    """Eccentricity in the Fibonacci cube of the word's length, in O(n).

    Strips the word by its last two symbols (both symbols when it ends
    00, one symbol otherwise); every strip adds exactly 1, and a word of
    length 0 or 1 has eccentricity equal to its length.
    """
    if not is_fibonacci(w):
        raise ValueError(f"{w!s} has adjacent 1s")
    return _stripped_ecc(w.n, w.bits)


def _stripped_ecc(n: int, bits: int) -> int:
    steps = 0
    while n > 1:
        if bits & 3 == 0:
            n -= 2
            bits >>= 2
        else:
            n -= 1
            bits >>= 1
        steps += 1
    return steps + n


# adds 1 to every byte, by bytes.translate; eccentricities stay far below 255
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _fast_eccentricities(n: int) -> bytes:
    """Eccentricities of the length-n Fibonacci words, in lexicographic order.

    W_n = 0.W_{n-1} ++ 10.W_{n-2}, and the F(n) words of 0.W_{n-1} that
    start 00 come first. Stripping from the front (both symbols of a
    leading 00, one symbol otherwise) adds 1 per strip, so
    E_n = 1 + (E_{n-2} ++ E_{n-1}[F(n):] ++ E_{n-1}[:F(n)]). Stripping from
    the back, as _stripped_ecc does, gives the same values: both equal n
    minus the sum of floor(r/2) over the maximal runs of r 0s, which
    reversal keeps. E_{-1} = [0] lets the rule give E_1 = [1, 1] from E_0 = [0].
    """
    older, e = b"\0", b"\0"  # E_{-1}, E_0
    for _ in range(n):
        f = len(older)  # F(i) for the E_i being built
        # slices of a memoryview copy nothing, so each level allocates only its
        # joined and translated copies; "+" on bytes cost ~2.5 MB more peak RSS at n = 30
        rotated = memoryview(e)
        older, e = e, b"".join((older, rotated[f:], rotated[:f])).translate(_PLUS_ONE)
    return e


def _require_kind(kind: WordClass) -> None:
    if kind not in (WordClass.FIBONACCI, WordClass.LUCAS):
        raise ValueError("closed forms exist for the Fibonacci and Lucas kinds only")


def _require_dimension(n: int) -> None:
    if n < 0:
        raise ValueError("dimension must be >= 0")


def vertex_count(n: int, kind: WordClass) -> int:
    """F(n+2), L(n), or 2**n vertices. The length-0 Lucas cube has one vertex."""
    _require_dimension(n)
    if kind is WordClass.UNRESTRICTED:
        return 1 << n
    return _vertices(*fibonacci_pair(n), kind) if n or kind is WordClass.FIBONACCI else 1


def ecc_sum_closed(n: int, kind: WordClass) -> int:
    """Sum of all vertex eccentricities, by closed form.

    Fibonacci: (3F(n) + 4nF(n+1) + 3nF(n))/5, where the division is exact
    for every valid n (checked anyway). Lucas:
    nF(n+1) + (-1)^n n + (-1)^(n+1) floor(n/2).
    """
    _require_kind(kind)
    _require_dimension(n)
    return _ecc_sum(n, *fibonacci_pair(n), kind)


def average_ecc(n: int, kind: WordClass) -> Fraction:
    if n < 1:
        raise ValueError("average eccentricity needs n >= 1")
    return Fraction(ecc_sum_closed(n, kind), vertex_count(n, kind))


def average_ecc_over_n(n: int, kind: WordClass):
    """average_ecc(n)/n as a high-precision decimal."""
    return to_decimal(average_ecc(n, kind) / n)


def edge_count(n: int, kind: WordClass) -> int:
    """Closed-form edge counts: (nF(n+1) + 2(n+1)F(n))/5, nF(n-1), n*2^(n-1)."""
    _require_dimension(n)
    if kind is WordClass.UNRESTRICTED:
        return n << n >> 1  # n * 2^(n-1), and 0 at n = 0
    _require_kind(kind)
    return _edges(n, *fibonacci_pair(n), kind)


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


def weight_ratio_average(n: int, kind: WordClass) -> Fraction:
    """Mean over positions of (#words with 0 there) / (#words with 1 there). Exact."""
    return sum((Fraction(int(z), int(o)) for _, z, o in weight_rows(n, kind)), Fraction(0)) / n


def weight_ratio_average_decimal(n: int, kind: WordClass):
    """Same mean at package precision, from the last sum of weight_ratio_sums;
    preferred for large n, where the exact rational's denominator grows out of hand."""
    return _CTX.divide(deque(weight_ratio_sums(n, kind), maxlen=1)[0][-1], n)


# Exact integer arithmetic in Decimal for the table sweeps: libmpdec writes
# text in linear time, CPython's int in quadratic time. An inexact "/" at
# this precision raises MemoryError, not Inexact, so divide by _exact_div.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _exact_div(a: int | Decimal, d: int) -> int | Decimal:
    q, r = divmod(a, d)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {d}")
    return q


# The closed forms, from n and (F(n), F(n+1)) as ints or as exact integer
# Decimals; on Decimals they are evaluated in the _EXACT context.
def _vertices(f0, f1, kind: WordClass):
    """F(n+2) or L(n); vertex_count gives the length-0 Lucas cube its one vertex."""
    return f0 + f1 if kind is WordClass.FIBONACCI else 2 * f1 - f0


def _edges(n: int, f0, f1, kind: WordClass):
    if kind is WordClass.FIBONACCI:
        return _exact_div(n * f1 + 2 * (n + 1) * f0, 5)
    return n * (f1 - f0)


def _ecc_sum(n: int, f0, f1, kind: WordClass):
    if kind is WordClass.FIBONACCI:
        return _exact_div(3 * f0 + 4 * n * f1 + 3 * n * f0, 5)
    return n * f1 + (-1) ** n * (n - n // 2)


def count_rows(ks: range, kind: WordClass):
    """Rows (vertices, edges, vertices as an int) for the dimensions in ks, from
    one sweep of F(k), F(k+1) in exact integer Decimals and in ints (for log2_int),
    stepped by F(k+s) = F(k)F(s-1) + F(k+1)F(s), F(k+s+1) = F(k)F(s) + F(k+1)F(s+1)."""
    _require_kind(kind)
    # only a step between two rows needs F(s): a one-row table skips it, however large s is
    a, b = fibonacci_pair(ks.step - 1) if len(ks) > 1 else (0, 1)  # F(s-1), F(s)
    ints = fibonacci_pair(ks.start) + (a, b, a + b)  # F(k), F(k+1), F(s-1), F(s), F(s+1)
    fs = [ints, tuple(map(Decimal, ints))]
    for k in ks:
        with localcontext(_EXACT):
            if k != ks.start:
                fs = [(f0 * a + f1 * b, f0 * b + f1 * c, a, b, c) for f0, f1, a, b, c in fs]
            (f0, f1, *_), (d0, d1, *_) = fs  # ints, Decimals
            row = _vertices(d0, d1, kind), _edges(k, d0, d1, kind), _vertices(f0, f1, kind)
        yield row


def ecc_rows(n_max: int, kind: WordClass):
    """Rows (n, vertices, edges, ecc_sum, (p, q), avg_ecc_over_n), n = 1..n_max,
    from one sweep of (F(n), F(n+1)): exact integer Decimals by the closed
    forms that vertex_count, edge_count and ecc_sum_closed evaluate per
    dimension; p/q is the average eccentricity in lowest terms.

    g = gcd(ecc_sum, vertices) divides a small m. Fibonacci: 5 ecc_sum =
    (3 - n)F(n) mod F(n+2), prime to F(n), so m = |n - 3|, or m = F(5) at
    n = 3. Lucas: ecc_sum = c - nF(n-1) mod L(n), c = (-1)^n (n - n//2), and
    -5F(n-1)^2 = (-1)^n, so m = (-1)^n n^2 + 5c^2."""
    _require_kind(kind)
    f0 = f1 = Decimal(1)  # F(n), F(n+1)
    for n in range(1, n_max + 1):
        with localcontext(_EXACT):
            nv, ne, es = _vertices(f0, f1, kind), _edges(n, f0, f1, kind), _ecc_sum(n, f0, f1, kind)
            if kind is WordClass.FIBONACCI:
                m = abs(n - 3) or int(nv)
            else:
                m = (-1) ** n * n * n + 5 * (n - n // 2) ** 2
            g = math.gcd(m, int(es % m), int(nv % m))
            row = n, nv, ne, es, (_exact_div(es, g), _exact_div(nv, g)), _CTX.divide(es, nv * n)
            f0, f1 = f1, f0 + f1
        yield row


def weight_ratio_sums(n: int, kind: WordClass):
    """weight_rows(n, kind), each row with the sum of zero/one up to it. The ratios
    are divided and summed with len(str(n)) + 5 guard digits, so the last sum is off
    by under 1e-4 units in the last place of the mean. Rounded once, only a mean
    within that distance of a halfway point can round the other way."""
    guard = Context(prec=DIGITS + len(str(n)) + 5)
    total = Decimal(0)
    for i, zero, one in weight_rows(n, kind):
        total = guard.add(total, guard.divide(zero, one))
        yield i, zero, one, total


def weight_rows(n: int, kind: WordClass):
    """Rows (i, zero, one) for positions i = 1..n, from one sweep:
    the counts of words with 0 and with 1 at position i, as exact integer
    Decimals by the closed forms of weight_count, which stays the reference."""
    _require_kind(kind)
    if n < 1:
        raise ValueError("weight ratios need n >= 1")
    if kind is WordClass.LUCAS and n == 1:
        raise ValueError("undefined for the length-1 Lucas cube: no word has a 1")
    f0, f1 = fibonacci_pair(n - 1)  # F(n-1), F(n)
    # Fibonacci: F(i+1)F(n-i+2) and F(i)F(n-i+1) are each a constant plus
    # multiples of (-phi^2)^i and (-psi^2)^i, roots of x^2 + 3x + 1, so they
    # obey P(i+3) = P(i) + 2(P(i+1) - P(i+2)); so do Lucas's constant counts.
    if kind is WordClass.FIBONACCI:
        zero = f0 + f1, 2 * f1, 3 * f0  # F(2)F(n+1), F(3)F(n), F(4)F(n-1)
        one = f1, f0, 2 * (f1 - f0)  # F(1)F(n), F(2)F(n-1), F(3)F(n-2)
    else:
        zero, one = (f0 + f1,) * 3, (f0,) * 3  # F(n+1), F(n-1)
    (z0, z1, z2), (o0, o1, o2) = map(Decimal, zero), map(Decimal, one)
    for i in range(1, n + 1):
        yield i, z0, o0
        with localcontext(_EXACT):
            z0, z1, z2 = z1, z2, z0 + 2 * (z1 - z2)
            o0, o1, o2 = o1, o2, o0 + 2 * (o1 - o2)
