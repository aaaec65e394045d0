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
a word of the class, found by a DP over the class's automaton. The DP
reads a word from its last symbol, and the lexicographic recursion
prepends symbols, so it runs one step per suffix for all vertices at once
instead of n steps per vertex.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import NamedTuple

from .numeric import _CTX, DIGITS, fibonacci, fibonacci_pair, log2_binet, to_decimal
from .words import _PLUS_ONE, BitWord, WordClass, enumerate_bits, is_fibonacci


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

    def eccentricities(self, method: str = "bfs") -> bytes:
        """Eccentricity of every vertex, one byte each, aligned with ``words()``.

        method: "bfs" (implementation of record: a BFS from all sources at
        once, in one bit-parallel sweep), "hamming" (largest Hamming distance
        to a word of the class, by a DP over the class's automaton), or
        "fast" (one recursion over the lexicographic blocks of the words,
        Fibonacci cubes only; eccentricity_fast is its per-word reference).
        """
        if method == "bfs":
            return self._all_sources_bfs()
        if method == "hamming":
            return _farthest_word_distances(self.n, self.word_class)
        if method == "fast":
            if self.word_class is not WordClass.FIBONACCI:
                raise ValueError("the fast route applies to Fibonacci cubes only")
            return _fast_eccentricities(self.n)
        raise ValueError(f"unknown eccentricity method {method!r}")

    def _all_sources_bfs(self) -> bytes:
        """Every eccentricity by one level-synchronous multi-source BFS (Then et
        al., "The More the Merrier", PVLDB 2014): reach[v] is the bitset of the
        vertices within distance d of v, so v's eccentricity, byte v of the result, is
        the first d at which reach[v] holds every vertex. A full row stays full, so only
        the rows still open are grown, each from its neighbours' rows of level d - 1."""
        if min(self.bfs_levels(0)) < 0:  # one BFS reaches every vertex of a connected graph
            raise ValueError("graph is not connected")
        adj = self._adjacency()
        full = (1 << len(adj)) - 1
        reach = [1 << v for v in range(len(adj))]
        ecc = bytearray(len(adj))
        open_rows = [v for v in range(len(adj)) if reach[v] != full]
        d = 0
        while open_rows:
            d += 1
            grown = [reduce(or_, map(reach.__getitem__, adj[v]), reach[v]) for v in open_rows]
            for v, r in zip(open_rows, grown):
                reach[v] = r
                if r == full:
                    ecc[v] = d
            open_rows = [v for v in open_rows if ecc[v] == 0]
        return bytes(ecc)

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


def _farthest_word_distances(n: int, kind: WordClass) -> bytes:
    """_farthest_word_distance of every word of the class, in lexicographic order.

    The same DP, run once per suffix instead of once per word: read from the
    last symbol, as the reference reads, the words of length m are 0.W_{m-1}
    ++ 10.W_{m-2}, so the states of W_m are those of W_{m-1} stepped by 0,
    then those of W_{m-2} stepped by 0 and 1. The Lucas words are 0.W_{n-1}
    ++ 10.W_{n-3}.0, or 10 alone in place of the second part at n = 2. Each
    level's d0 and d1 are bytes, offset by n + 1 so that the reference's
    unreachable -n - 1 is 0, until one translate takes it off the maxima; the
    largest score, n, is then 2n + 1, so n <= 127, far above any enumerable cube.
    """
    if kind is WordClass.UNRESTRICTED:
        return bytes([n]) * (1 << n)
    if n > 127:
        raise ValueError("the byte-offset scores hold n <= 127")
    if kind is WordClass.LUCAS and n < 2:
        return b"\0"  # the one word is 0s, and so is the one word it can be compared with
    start, unreachable = bytes([n + 1]), b"\0"
    if kind is WordClass.FIBONACCI:
        ends = _word_states(n, (start, unreachable))  # d0 and d1
    else:  # d_c of the run for each final bit c, started as if c stood before the first symbol read
        ends = []
        for c, init in enumerate(((start, unreachable), (unreachable, start))):
            tails = init if n == 2 else _word_states(n - 3, _step(*init, 0))
            ends.append(_grow(_word_states(n - 1, init), tails)[c])
    return bytes(map(max, *ends)).translate(bytes(n + 1) + bytes(range(255 - n)))


def _step(d0: bytes, d1: bytes, x: int) -> tuple[bytes, bytes]:
    """One DP step of _farthest_word_distance on every state, reading the symbol x."""
    top = bytes(map(max, d0, d1))
    return (top.translate(_PLUS_ONE), d0) if x else (top, d0.translate(_PLUS_ONE))


def _grow(longer: tuple[bytes, bytes], shorter: tuple[bytes, bytes]) -> tuple[bytes, bytes]:
    """The states of 0.u for each u read into ``longer``, then of 10.v for each v in ``shorter``."""
    (a0, a1), (b0, b1) = _step(*longer, 0), _step(*_step(*shorter, 0), 1)
    return a0 + b0, a1 + b1


def _word_states(m: int, init: tuple[bytes, bytes]) -> tuple[bytes, bytes]:
    """The DP states from ``init`` after each word of W_m, in lexicographic order."""
    if m == 0:
        return init
    shorter, longer = init, tuple(map(bytes.__add__, _step(*init, 0), _step(*init, 1)))  # W_0, W_1
    for _ in range(m - 1):
        shorter, longer = longer, _grow(longer, shorter)
    return longer


def eccentricity_fast(w: BitWord) -> int:
    """Eccentricity in the Fibonacci cube of the word's length: n minus floor(r/2) summed
    over the maximal runs of r 0s. Strip the word by its last two symbols (both when it
    ends 00, one otherwise): each strip adds 1 to the eccentricity, and a word of length
    0 or 1 has its length as eccentricity. A strip of 00 shortens a run by 2, and any other
    strip removes a symbol that adds nothing to the sum, so each lowers n - sum floor(r/2) by 1."""
    if not is_fibonacci(w):
        raise ValueError(f"{w!s} has adjacent 1s")
    return w.n - sum(len(run) // 2 for run in str(w).split("1"))


def _fast_eccentricities(n: int) -> bytes:
    """Eccentricities of the length-n Fibonacci words, in lexicographic order.

    W_n = 0.W_{n-1} ++ 10.W_{n-2}, and the F(n) words of 0.W_{n-1} that
    start 00 come first. Stripping from the front (both symbols of a
    leading 00, one symbol otherwise) adds 1 per strip, so
    E_n = 1 + (E_{n-2} ++ E_{n-1}[F(n):] ++ E_{n-1}[:F(n)]). These equal eccentricity_fast's
    closed form, by its proof read from the front: reversal keeps the runs of 0s.
    E_{-1} = [0] lets the rule give E_1 = [1, 1] from E_0 = [0].
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
    return _vertices(n, *fibonacci_pair(n), kind)


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


def weight_counts_brute(n: int, kind: WordClass) -> list[tuple[int, int]]:
    """(words with 0, words with 1) at each position i = 1..n, from one enumeration:
    the 1s counted per position, the 0s the vertices left over."""
    bits = enumerate_bits(n, kind)
    ones = [sum(b >> (n - i) & 1 for b in bits) for i in range(1, n + 1)]
    return [(len(bits) - one, one) for one in ones]


def weight_ratio_average(n: int, kind: WordClass) -> Fraction:
    """Mean over positions of (#words with 0 there) / (#words with 1 there). Exact."""
    return sum((Fraction(int(z), int(o)) for _, z, o, _ in weight_rows(n, kind)), Fraction(0)) / n


def weight_ratio_average_decimal(n: int, kind: WordClass):
    """Same mean at package precision, from the last sum of weight_rows;
    preferred for large n, where the exact rational's denominator grows out of hand."""
    return _CTX.divide(deque(weight_rows(n, kind), maxlen=1)[0][-1], n)


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
def _vertices(n: int, f0, f1, kind: WordClass):
    """F(n+2), or L(n) for n >= 1; the length-0 Lucas cube has one vertex, F(1)."""
    return f0 + f1 if kind is WordClass.FIBONACCI else 2 * f1 - f0 if n else f1


def _edges(n: int, f0, f1, kind: WordClass):
    if kind is WordClass.FIBONACCI:
        return _exact_div(n * f1 + 2 * (n + 1) * f0, 5)
    return n * (f1 - f0)


def _ecc_sum(n: int, f0, f1, kind: WordClass):
    if kind is WordClass.FIBONACCI:
        return _exact_div(3 * f0 + 4 * n * f1 + 3 * n * f0, 5)
    return n * f1 + (-1) ** n * (n - n // 2)


def count_rows(ks: range, kind: WordClass):
    """Rows (vertices, edges, log2_int(vertices)) for the dimensions in ks, a range with
    a positive step, from one sweep of F(k), F(k+1) in exact integer Decimals stepped by
    F(k+s) = F(k)F(s-1) + F(k+1)F(s), F(k+s+1) = F(k)F(s) + F(k+1)F(s+1). The logarithm
    is log2_binet of F(k+2) or L(k): it reads the count only where it falls back."""
    _require_kind(kind)
    if ks.step < 0:
        raise ValueError("count_rows steps up: need a positive step")
    # only a step between two rows needs F(s): a one-row table skips it, however large s is
    a, b = fibonacci_pair(ks.step - 1) if len(ks) > 1 else (0, 1)  # F(s-1), F(s)
    f0, f1, a, b, c = map(Decimal, fibonacci_pair(ks.start) + (a, b, a + b))  # F(k), F(k+1), F(s-1), F(s), F(s+1)
    lucas = kind is WordClass.LUCAS
    for k in ks:
        with localcontext(_EXACT):
            if k != ks.start:
                f0, f1 = f0 * a + f1 * b, f0 * b + f1 * c
            nv, ne = _vertices(k, f0, f1, kind), _edges(k, f0, f1, kind)
        yield nv, ne, log2_binet(nv, k if lucas else k + 2, lucas)


def _ecc_row(n: int, f0, f1, kind: WordClass):
    """The row (n, vertices, edges, ecc_sum, (p, q), avg_ecc_over_n) from F(n), F(n+1)
    as exact integer Decimals, in the _EXACT context; p/q is the average
    eccentricity in lowest terms, and p, q are ecc_sum and vertices themselves
    when g = 1.

    g = gcd(ecc_sum, vertices) divides a small m. Fibonacci: 5 ecc_sum =
    (3 - n)F(n) mod F(n+2), prime to F(n), so m = |n - 3|, or m = F(5) at
    n = 3. Lucas: ecc_sum = c - nF(n-1) mod L(n), c = (-1)^n (n - n//2), and
    -5F(n-1)^2 = (-1)^n, so m = (-1)^n n^2 + 5c^2."""
    nv, ne, es = _vertices(n, f0, f1, kind), _edges(n, f0, f1, kind), _ecc_sum(n, f0, f1, kind)
    if kind is WordClass.FIBONACCI:
        m = abs(n - 3) or int(nv)
    else:
        m = (-1) ** n * n * n + 5 * (n - n // 2) ** 2
    g = math.gcd(m, int(es % m), int(nv % m))
    pq = (es, nv) if g == 1 else (_exact_div(es, g), _exact_div(nv, g))
    return n, nv, ne, es, pq, _CTX.divide(es, nv * n)


def ecc_rows(ns: range, kind: WordClass):
    """The rows of _ecc_row for the dimensions n >= 1 in ns, a range of step 1, from
    one fibonacci_pair(ns.start) stepped by F(n+2) = F(n) + F(n+1): exact integer
    Decimals by the closed forms that vertex_count, edge_count and ecc_sum_closed
    evaluate per dimension."""
    _require_kind(kind)
    if ns.step != 1 or 0 in ns:  # a negative index is refused by fibonacci_pair
        raise ValueError("ecc_rows steps by 1 through dimensions n >= 1")
    f0, f1 = map(Decimal, fibonacci_pair(ns.start))  # F(n), F(n+1)
    for n in ns:
        with localcontext(_EXACT):
            row = _ecc_row(n, f0, f1, kind)
            f0, f1 = f1, f0 + f1
        yield row


def weight_rows(n: int, kind: WordClass):
    """Rows (i, zero, one, total) for positions i = 1..n, from one sweep: the count
    one of words with 1 at position i by the closed form of weight_count, which stays
    the reference, and the count zero of words with 0 there as the vertex count less
    one, both exact integer Decimals; total is the sum of zero/one up to i. The ratios
    are divided and summed with len(str(n)) + 5 guard digits, so the last sum is off
    by under 1e-4 units in the last place of the mean. Rounded once, only a mean
    within that distance of a halfway point can round the other way."""
    _require_kind(kind)
    if n < 1:
        raise ValueError("weight ratios need n >= 1")
    if kind is WordClass.LUCAS and n == 1:
        raise ValueError("undefined for the length-1 Lucas cube: no word has a 1")
    f0, f1 = fibonacci_pair(n - 1)  # F(n-1), F(n)
    # Fibonacci: F(i)F(n-i+1) is a constant plus multiples of (-phi^2)^i and (-psi^2)^i,
    # roots of x^2 + 3x + 1, so P(i+3) = P(i) + 2(P(i+1) - P(i+2)); so does Lucas's F(n-1)
    ones = (f1, f0, 2 * (f1 - f0)) if kind is WordClass.FIBONACCI else (f0,) * 3  # F(1)F(n), F(2)F(n-1), F(3)F(n-2)
    one, o1, o2 = map(Decimal, ones)
    vertices = Decimal(_vertices(n, f1, f0 + f1, kind))
    guard = Context(prec=DIGITS + len(str(n)) + 5)
    total = Decimal(0)
    for i in range(1, n + 1):
        zero = _EXACT.subtract(vertices, one)
        total = guard.add(total, guard.divide(zero, one))
        yield i, zero, one, total
        with localcontext(_EXACT):
            one, o1, o2 = o1, o2, one + 2 * (o1 - o2)
