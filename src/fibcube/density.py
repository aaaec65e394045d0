"""Hypercube density: averaged degree against log2 of the vertex count, on explicit vertex/edge
data when graphs are small enough to build, and on closed-form (vertices, edges) counts otherwise,
since the density of a graph depends on nothing else; and the Cartesian powers that make families
of fixed density."""

from __future__ import annotations

import itertools
from decimal import Context, Decimal, localcontext
from functools import reduce
from typing import Callable, Iterator, NamedTuple

from .cube import CubeGraph, count_rows, edge_count, vertex_count
from .numeric import _CTX, log2_int, to_decimal
from .words import BitWord, WordClass


class ExplicitGraph(NamedTuple("ExplicitGraph", [("vertices", tuple), ("edges", tuple)])):
    """A concrete hypercube subgraph: labeled vertices plus an edge list.

    Vertices are equal-length distinct words; edges are distinct index pairs (i, j), i < j,
    whose labels differ in exactly one position. The constructor, _make and _replace check
    all of that, so an ExplicitGraph is a hypercube-subgraph witness. from_cube and
    cartesian_product skip the check: cubes, and products of witnesses, are valid by construction.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, vertices: tuple[BitWord, ...], edges: tuple[tuple[int, int], ...]) -> "ExplicitGraph":
        # tuples before any check, so the record holds what was checked and hashes
        vertices, edges = tuple(vertices), tuple(map(tuple, edges))
        if not vertices:
            raise ValueError("a graph needs at least one vertex")
        seen = set()
        for w in vertices:
            if w.n != vertices[0].n:
                raise ValueError("vertex labels must share one length")
            if w.bits in seen:
                raise ValueError(f"duplicate vertex label {w!s}")
            seen.add(w.bits)
        edge_set = set()
        for i, j in edges:
            if not (0 <= i < j < len(vertices)):
                raise ValueError(f"bad edge indices ({i}, {j})")
            if (i, j) in edge_set:
                raise ValueError(f"duplicate edge ({i}, {j})")
            edge_set.add((i, j))
            if (vertices[i].bits ^ vertices[j].bits).bit_count() != 1:
                raise ValueError(f"edge {vertices[i]!s} -- {vertices[j]!s} does not flip exactly one position")
        return super().__new__(cls, vertices, edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def from_cube(cls, g: CubeGraph) -> "ExplicitGraph":
        # neighbour lists are sorted, so the edges come out sorted; built unchecked (see above)
        edges = tuple((i, j) for i, nbrs in enumerate(g._adjacency()) for j in nbrs if i < j)
        return tuple.__new__(cls, (tuple(g.words()), edges))


def rho(graph: ExplicitGraph | tuple[int | Decimal, int | Decimal]) -> Decimal:
    """Average degree divided by log2 of the vertex count, from the counts alone: of an
    ExplicitGraph, or a bare (vertices, edges) pair of integers, as ints or as exact integer
    Decimals. A count that is not an integer, or a negative edge count, raises ValueError."""
    counts = (graph.num_vertices, graph.num_edges) if isinstance(graph, ExplicitGraph) else tuple(graph)
    nv, ne = map(int, counts)
    if (nv, ne) != counts or ne < 0:
        raise ValueError("counts must be integers, and the edge count non-negative")
    if nv <= 1:
        raise ValueError("density undefined for graphs with fewer than two vertices")
    return _CTX.divide(to_decimal(2 * ne, nv), log2_int(nv))


def density_lemma_check(nv: int, ne: int) -> tuple[bool, bool]:
    """Exact check of 2*E <= V*log2(V), the same as 4**E <= V**V: (holds, is_equality), equality
    only on full hypercubes. When V = 2**k both sides are the integers 2E and Vk. Otherwise log2 V
    is irrational, so equality is impossible, and a Decimal interval around V*log2(V), narrowed by
    doubling the precision, excludes 2E."""
    if nv < 1 or ne < 0:
        raise ValueError("need at least one vertex and a non-negative edge count")
    twice_e = 2 * ne
    if nv & (nv - 1) == 0:
        v_log = nv * (nv.bit_length() - 1)
        return twice_e <= v_log, twice_e == v_log
    prec = 28
    while True:
        with localcontext(Context(prec=prec)):
            x = nv * Decimal(nv).ln() / Decimal(2).ln()
            # four correctly rounded steps leave x far inside this slack
            if abs(twice_e - x) > x.scaleb(3 - prec):
                return twice_e < x, False
        prec *= 2


def subdivided_complete(k: int) -> tuple[int, int]:
    """Counts of the complete graph on k vertices, every edge subdivided: k + C(k,2) and 2*C(k,2)."""
    if k < 2:
        raise ValueError("need k >= 2")
    pairs = k * (k - 1) // 2
    return k + pairs, 2 * pairs


def cartesian_product(g: ExplicitGraph, h: ExplicitGraph) -> ExplicitGraph:
    """Box product: vertex labels concatenate; an edge moves along exactly
    one factor. |V| and |E| obey |Vg||Vh| and |Vg||Eh| + |Vh||Eg|. The edges
    come in construction order, unsorted: those along g, then those along h."""
    nh = h.num_vertices
    verts = tuple(u.concat(v) for u in g.vertices for v in h.vertices)
    edges = [(a * nh + iv, b * nh + iv) for a, b in g.edges for iv in range(nh)]
    edges += [(base + a, base + b) for base in range(0, len(verts), nh) for a, b in h.edges]
    return tuple.__new__(ExplicitGraph, (verts, tuple(edges)))  # a witness by construction: no check


def cartesian_power(g: ExplicitGraph, k: int) -> ExplicitGraph:
    if k < 1:
        raise ValueError("need k >= 1")
    return reduce(cartesian_product, itertools.repeat(g, k - 1), g)


def _fold(labels: list[int], g: ExplicitGraph) -> list[int]:  # each label followed by each of g's
    return [a << g.vertices[0].n | w.bits for a in labels for w in g.vertices]


def _flip_pairs(labels: list[int], width: int) -> int:
    present = set(labels)  # pairs one bit apart among the low width bits, each found from both ends
    return sum(a ^ 1 << j in present for a in labels for j in range(width)) // 2


def power_counts_brute(g: ExplicitGraph, ks: range):
    """(num_vertices, num_edges) of cartesian_power(g, k) for each k in ks, lazily: g^k of a base induced
    in Q_n is induced in Q_nk on the concatenated labels, so its edges are the label pairs one bit apart.
    A range that does not step up, or a base that is not induced, is refused before any row."""
    if ks.step < 0:
        raise ValueError("powers step up: need a positive step")
    if _flip_pairs([w.bits for w in g.vertices], g.vertices[0].n) != g.num_edges:
        raise ValueError("the base must be an induced subgraph")
    for i, k in enumerate(ks):  # the first row folds k times from the empty label
        labels = reduce(_fold, itertools.repeat(g, ks.step if i else k), labels if i else [0])
        yield len(labels), _flip_pairs(labels, g.vertices[0].n * k)


class GraphFamily(NamedTuple):
    """An increasing family given by closed-form counts per index."""

    name: str
    first_index: int
    counts: Callable[[int], tuple[int, int]]


class _CubeCounts(NamedTuple):
    """The counts of a cube family: closed forms per dimension, and count_rows, rho included, for a table."""

    kind: WordClass

    def __call__(self, n: int) -> tuple[int, int]:
        return vertex_count(n, self.kind), edge_count(n, self.kind)


FIBONACCI_CUBES = GraphFamily("fibonacci-cubes", 1, _CubeCounts(WordClass.FIBONACCI))
# starts at 2: the length-1 cube has a single vertex, so no density
LUCAS_CUBES = GraphFamily("lucas-cubes", 2, _CubeCounts(WordClass.LUCAS))
SUBDIVIDED_COMPLETE = GraphFamily("subdivided-complete", 2, subdivided_complete)
# cycles on 2k vertices: max degree 2, so the density drains to zero
EVEN_CYCLES = GraphFamily("even-cycles", 2, lambda k: (2 * k, 2 * k))


def power_family(base_vertices: int, base_edges: int) -> GraphFamily:
    """Cartesian powers of a fixed base graph, by counts alone."""
    if base_vertices < 2:
        raise ValueError("the base graph needs at least two vertices")
    return GraphFamily("powers", 1, lambda k: (base_vertices**k, k * base_vertices ** (k - 1) * base_edges))


class RhoRow(NamedTuple):
    """One density row. Its counts are exact integer Decimals, up to thousands of digits long: arithmetic on
    them in a context of fewer digits (the default has 28) rounds, so use int(count) or an exact context."""

    k: int
    num_vertices: Decimal
    num_edges: Decimal
    rho: Decimal


def sampled_indices(family: GraphFamily, k_max: int, step: int = 1) -> range:
    """The indices rho_limit samples: every ``step``-th counted down from k_max,
    down to the family's first index."""
    if k_max < family.first_index:
        raise ValueError(f"k_max below the family's first index {family.first_index}")
    if step < 1:
        raise ValueError("step must be >= 1")
    return range(k_max - (k_max - family.first_index) // step * step, k_max + 1, step)


def rho_limit(family: GraphFamily, k_max: int, step: int = 1) -> Iterator[RhoRow]:
    """Densities along the family at sampled_indices(family, k_max, step), yielded. A cube family's rows,
    rho included, are those of its count_rows sweep; other families' rho comes from rho."""
    ks = sampled_indices(family, k_max, step)
    if isinstance(family.counts, _CubeCounts):
        counts = count_rows(ks, family.counts.kind)
    else:
        counts = ((*family.counts(k), None) for k in ks)
    prev_nv = 0
    for k, (nv, ne, r) in zip(ks, counts):
        if nv <= prev_nv:
            raise ArithmeticError(f"family {family.name} is not increasing at k={k}")
        prev_nv = nv
        yield RhoRow(k, Decimal(nv), Decimal(ne), rho((nv, ne)) if r is None else r)

