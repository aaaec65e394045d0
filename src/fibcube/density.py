"""Hypercube density: averaged degree against log2 of the vertex count.

Works on explicit vertex/edge data when graphs are small enough to
build, and on closed-form (vertices, edges) counts otherwise, since the
density of a graph depends on nothing else. Includes the Cartesian
product machinery used to manufacture families with prescribed density.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from typing import Callable, NamedTuple

from .cube import _EXACT, CubeGraph, count_rows, edge_count, vertex_count
from .numeric import _CTX, log2_int, to_decimal
from .words import BitWord, WordClass


class ExplicitGraph(NamedTuple("ExplicitGraph", [("vertices", tuple), ("edges", tuple)])):
    """A concrete hypercube subgraph: labeled vertices plus an edge list.

    Vertices are equal-length distinct words; edges are index pairs
    (i, j) with i < j whose endpoint labels differ in exactly one
    position. The constructor enforces all of that, so holding an
    ExplicitGraph is holding a hypercube-subgraph witness.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, vertices: tuple[BitWord, ...], edges: tuple[tuple[int, int], ...]) -> "ExplicitGraph":
        if not vertices:
            raise ValueError("a graph needs at least one vertex")
        length = vertices[0].n
        seen = set()
        for w in vertices:
            if w.n != length:
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
                raise ValueError(
                    f"edge {vertices[i]!s} -- {vertices[j]!s} "
                    "does not flip exactly one position"
                )
        return super().__new__(cls, vertices, edges)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def from_cube(cls, g: CubeGraph) -> "ExplicitGraph":
        # neighbour lists are sorted, so the edges come out sorted
        edges = tuple((i, j) for i, nbrs in enumerate(g._adjacency()) for j in nbrs if i < j)
        return cls(tuple(g.words()), edges)


def rho(graph: ExplicitGraph | tuple[int | Decimal, int | Decimal], nv_int: int | None = None) -> Decimal:
    """Average degree divided by log2 of the vertex count. It depends on the counts
    alone: of an ExplicitGraph, or a bare (vertices, edges) pair of ints or of exact
    integer Decimals. For Decimals, ``nv_int``, the vertex count as an int, spares
    converting it back; it is trusted to equal the count."""
    if isinstance(graph, ExplicitGraph):
        nv, ne = graph.num_vertices, graph.num_edges
    else:
        nv, ne = graph
    if nv <= 1:
        raise ValueError("density undefined for graphs with fewer than two vertices")
    if isinstance(ne, Decimal):
        log2_nv = log2_int(int(nv) if nv_int is None else nv_int)
        return _CTX.divide(_CTX.divide(_EXACT.multiply(2, ne), nv), log2_nv)
    return _CTX.divide(to_decimal(2 * ne, nv), log2_int(nv))


def density_lemma_check(nv: int, ne: int) -> tuple[bool, bool]:
    """Exact check of 2*E <= V*log2(V), the same as 4**E <= V**V.

    Returns (holds, is_equality); equality characterizes full hypercubes.
    When V = 2**k both sides are the integers 2E and Vk. Otherwise log2 V
    is irrational, so equality is impossible, and a Decimal interval
    around V*log2(V), narrowed by doubling the precision, excludes 2E.
    """
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
    """Vertex and edge counts of the complete graph on k vertices with
    every edge subdivided once: k + C(k,2) vertices, 2*C(k,2) edges."""
    if k < 2:
        raise ValueError("need k >= 2")
    pairs = k * (k - 1) // 2
    return k + pairs, 2 * pairs


def cartesian_product(g: ExplicitGraph, h: ExplicitGraph) -> ExplicitGraph:
    """Box product: vertex labels concatenate; an edge moves along exactly
    one factor. |V| and |E| obey |Vg||Vh| and |Vg||Eh| + |Vh||Eg|."""
    nh = h.num_vertices
    verts = tuple(u.concat(v) for u in g.vertices for v in h.vertices)
    edges = []
    for a, b in g.edges:
        for iv in range(nh):
            edges.append((a * nh + iv, b * nh + iv))
    for iu in range(g.num_vertices):
        base = iu * nh
        for a, b in h.edges:
            edges.append((base + a, base + b))
    edges.sort()
    return ExplicitGraph(verts, tuple(edges))


def cartesian_power(g: ExplicitGraph, k: int) -> ExplicitGraph:
    if k < 1:
        raise ValueError("need k >= 1")
    out = g
    for _ in range(k - 1):
        out = cartesian_product(out, g)
    return out


class GraphFamily(NamedTuple):
    """An increasing family given by closed-form counts per index."""

    name: str
    first_index: int
    counts: Callable[[int], tuple[int, int]]


class _CubeCounts(NamedTuple):
    """The counts of a cube family: closed forms per dimension, and count_rows for a table."""

    kind: WordClass

    def __call__(self, n: int) -> tuple[int, int]:
        return vertex_count(n, self.kind), edge_count(n, self.kind)


def fibonacci_cube_family() -> GraphFamily:
    return GraphFamily("fibonacci-cubes", 1, _CubeCounts(WordClass.FIBONACCI))


def lucas_cube_family() -> GraphFamily:
    # starts at 2: the length-1 cube has a single vertex, so no density
    return GraphFamily("lucas-cubes", 2, _CubeCounts(WordClass.LUCAS))


def subdivided_complete_family() -> GraphFamily:
    return GraphFamily("subdivided-complete", 2, subdivided_complete)


def even_cycle_family() -> GraphFamily:
    """Cycles on 2k vertices: max degree 2, so the density drains to zero."""
    return GraphFamily("even-cycles", 2, lambda k: (2 * k, 2 * k))


def power_family(base_vertices: int, base_edges: int, name: str = "powers") -> GraphFamily:
    """Cartesian powers of a fixed base graph, by counts alone."""
    if base_vertices < 2:
        raise ValueError("the base graph needs at least two vertices")
    return GraphFamily(
        name,
        1,
        lambda k: (base_vertices**k, k * base_vertices ** (k - 1) * base_edges),
    )


class RhoRow(NamedTuple):
    """One density row. Its counts are exact integer Decimals, up to thousands of
    digits long: arithmetic on them in a context of fewer digits rounds
    (the default has 28), so compute with int(count) or an exact context."""

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


def rho_limit(family: GraphFamily, k_max: int, step: int = 1) -> tuple[RhoRow, ...]:
    """Densities along the family at sampled_indices(family, k_max, step)."""
    ks = sampled_indices(family, k_max, step)
    if isinstance(family.counts, _CubeCounts):  # one exact sweep for the whole table
        counts = count_rows(ks, family.counts.kind)
    else:
        counts = ((*family.counts(k), None) for k in ks)
    rows = []
    prev_nv = 0
    for k, (nv, ne, nv_int) in zip(ks, counts):
        if nv <= prev_nv:
            raise ArithmeticError(f"family {family.name} is not increasing at k={k}")
        prev_nv = nv
        rows.append(RhoRow(k, Decimal(nv), Decimal(ne), rho((nv, ne), nv_int)))
    return tuple(rows)

