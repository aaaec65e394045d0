from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcube import cube, density
from fibcube.cube import CubeGraph, edge_count, vertex_count, weight_ratio_average
from fibcube.density import (
    EVEN_CYCLES,
    FIBONACCI_CUBES,
    LUCAS_CUBES,
    SUBDIVIDED_COMPLETE,
    ExplicitGraph,
    GraphFamily,
    cartesian_power,
    cartesian_product,
    density_lemma_check,
    power_counts_brute,
    power_family,
    rho,
    rho_limit,
    subdivided_complete,
)
from fibcube.numeric import fibonacci, log2_int, to_decimal
from fibcube.words import BitWord, WordClass

W = BitWord.from_string
# the case ids the cube families had as factory functions, kept so the ids stay stable
_CUBE_IDS = ["fibonacci_cube_family", "lucas_cube_family"]
FIB, LUC = WordClass.FIBONACCI, WordClass.LUCAS

PHI_SQ = Decimal("2.61803398874989484820458683437")
RHO_CUBES = Decimal("0.796244642748782602792754415725")  # (5-sqrt5)/(5*log2(phi))


def fib_graph(n):
    return ExplicitGraph.from_cube(CubeGraph(FIB, n))


def lucas_graph(n):
    return ExplicitGraph.from_cube(CubeGraph(LUC, n))


def hypercube_graph(k):
    return ExplicitGraph.from_cube(CubeGraph(WordClass.UNRESTRICTED, k))


def test_rho_hypercube_is_one():
    # the equality case of the density lemma: exactly 1, not rounded near it
    assert rho(hypercube_graph(3)) == 1
    assert rho(hypercube_graph(1)) == 1
    for k in range(1, 1001):
        assert rho((2**k, k * 2 ** (k - 1))) == 1


def test_rho_from_closed_counts():
    # dimension-10 Fibonacci cube: 144 vertices, 420 edges
    value = rho((vertex_count(10, FIB), edge_count(10, FIB)))
    assert abs(value - Decimal("0.813583591482")) < Decimal("1e-11")
    assert value == rho(fib_graph(10))


def test_rho_undefined_for_tiny_graphs():
    with pytest.raises(ValueError):
        rho((1, 0))


def test_density_lemma_exact_check():
    assert density_lemma_check(8, 12) == (True, True)  # Q3
    assert density_lemma_check(5, 5) == (True, False)  # Fibonacci 3-cube
    assert density_lemma_check(8, 13) == (False, False)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(min_value=1, max_value=199), st.integers(0, 7).map(lambda k: 1 << k)),
    st.data(),
)
def test_density_lemma_matches_integer_powers(nv, data):
    ne = data.draw(st.integers(min_value=0, max_value=10 * nv))
    lhs, rhs = 4**ne, nv**nv
    assert density_lemma_check(nv, ne) == (lhs <= rhs, lhs == rhs)


def test_density_lemma_at_the_boundary():
    # the largest E with 4**E <= V**V, and one more, for every V < 200
    for nv in range(1, 200):
        rhs = nv**nv
        top = (rhs.bit_length() - 1) // 2
        for ne in (top, top + 1):
            lhs = 4**ne
            assert density_lemma_check(nv, ne) == (lhs <= rhs, lhs == rhs), (nv, ne)


def test_density_lemma_on_everything_built_here():
    graphs = [fib_graph(n) for n in range(1, 11)]
    graphs += [lucas_graph(n) for n in range(1, 11)]
    graphs += [hypercube_graph(k) for k in range(1, 9)]
    graphs.append(cartesian_product(fib_graph(2), hypercube_graph(1)))
    graphs.append(cartesian_power(fib_graph(3), 3))
    for g in graphs:
        holds, equal = density_lemma_check(g.num_vertices, g.num_edges)
        assert holds
        if g.num_vertices > 1:
            assert 0 <= rho(g) <= 1
        is_hypercube = g.num_vertices == 1 << (g.num_vertices.bit_length() - 1) and (
            2 * g.num_edges == g.num_vertices * (g.num_vertices.bit_length() - 1)
        )
        assert equal == is_hypercube


def test_subdivided_complete_counts():
    assert subdivided_complete(3) == (6, 6)
    assert subdivided_complete(4) == (10, 12)
    assert subdivided_complete(2) == (3, 2)
    with pytest.raises(ValueError):
        subdivided_complete(1)


def test_subdivided_complete_density_sinks():
    values = [rho(subdivided_complete(k)) for k in (2, 5, 10, 100, 1000, 100000)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < Decimal("0.13")


def test_cartesian_product_examples():
    k2 = hypercube_graph(1)
    q3 = cartesian_power(k2, 3)
    assert (q3.num_vertices, q3.num_edges) == (8, 12)
    holds, equal = density_lemma_check(q3.num_vertices, q3.num_edges)
    assert holds and equal

    p = cartesian_product(fib_graph(2), k2)
    assert (p.num_vertices, p.num_edges) == (6, 7)


def test_cartesian_product_count_formulas():
    g, h = fib_graph(3), lucas_graph(4)
    p = cartesian_product(g, h)
    assert p.num_vertices == g.num_vertices * h.num_vertices
    assert p.num_edges == g.num_vertices * h.num_edges + h.num_vertices * g.num_edges


def test_cartesian_power_counts_and_rho_invariance():
    for base in (fib_graph(2), fib_graph(3), lucas_graph(4)):
        base_rho = rho(base)
        for k in (1, 2, 3):
            g = cartesian_power(base, k)
            assert g.num_vertices == base.num_vertices**k
            assert g.num_edges == k * base.num_vertices ** (k - 1) * base.num_edges
            assert abs(rho(g) - base_rho) < Decimal("1e-12")


def test_explicit_graph_validation():
    with pytest.raises(ValueError):  # labels of mixed lengths
        ExplicitGraph((W("0"), W("00")), ())
    with pytest.raises(ValueError):  # duplicate label
        ExplicitGraph((W("0"), W("0")), ())
    with pytest.raises(ValueError):  # edge endpoints two flips apart
        ExplicitGraph((W("00"), W("11")), ((0, 1),))
    with pytest.raises(ValueError):  # unordered edge indices
        ExplicitGraph((W("00"), W("01")), ((1, 0),))
    with pytest.raises(ValueError):  # a copy with a field replaced is validated too
        ExplicitGraph((W("00"), W("01")), ((0, 1),))._replace(edges=((1, 0),))


@pytest.mark.parametrize(
    "labels, edges, message",
    [
        # each input carries two defects; the error names the first the check meets: vertices, then edges in turn
        (("0", "00", "00"), (), "vertex labels must share one length"),
        (("0", "0", "00"), (), "duplicate vertex label 0"),
        (("00", "01", "01", "00"), (), "duplicate vertex label 01"),
        (("00", "01", "00"), ((0, 2),), "duplicate vertex label 00"),
        (("00", "01", "11"), ((1, 0), (0, 5)), r"bad edge indices \(1, 0\)"),
        (("00", "01", "11"), ((0, 1), (0, 7), (0, 2)), r"bad edge indices \(0, 7\)"),
        (("00", "01", "11"), ((0, 1), (0, 1), (0, 2)), r"duplicate edge \(0, 1\)"),
        (("00", "01", "11"), ((0, 2), (0, 1), (0, 1)), "edge 00 -- 11 does not flip exactly one position"),
        (("00", "01", "10", "11"), ((0, 1), (1, 2), (9, 0)), "edge 01 -- 10 does not flip exactly one position"),
    ],
)
def test_explicit_graph_names_the_first_defect(labels, edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExplicitGraph(tuple(map(W, labels)), edges)


def test_explicit_graph_accepts_what_the_ordered_checks_accept():
    # the check takes edges as lists too, and the record stores them as tuples
    g = ExplicitGraph((W("00"), W("01"), W("10")), [[0, 1], [0, 2]])
    assert (g.num_vertices, g.num_edges) == (3, 2)
    with pytest.raises(ValueError, match="^too many values to unpack"):  # an edge of three indices
        ExplicitGraph((W("00"), W("01"), W("10")), ((0, 1, 2), (0, 2)))


def test_explicit_graph_checks_an_edge_iterator_it_stores():
    # an edge iterator is read once, into the stored tuple, and the check scans that tuple
    with pytest.raises(ValueError, match="^edge 00 -- 11 does not flip exactly one position$"):
        ExplicitGraph(tuple(map(W, ("00", "01", "11"))), iter([(0, 2)]))
    g = ExplicitGraph(iter(map(W, ("00", "01", "11"))), iter([(0, 1), (1, 2)]))
    assert g == ((W("00"), W("01"), W("11")), ((0, 1), (1, 2)))
    assert g.num_edges == 2


def test_explicit_graph_from_lists_hashes_like_a_tuple():
    g = ExplicitGraph([W("00"), W("01"), W("10")], [[0, 1], [0, 2]])
    plain = ((W("00"), W("01"), W("10")), ((0, 1), (0, 2)))
    assert g == plain and hash(g) == hash(plain)
    assert ExplicitGraph(*plain) == plain


@pytest.mark.parametrize(
    "ks, folds",
    [
        (range(1, 6), 5),  # k folds from the empty label for the first row, then one a row
        (range(2, 8, 2), 6),  # two folds for the first row, then two a row
        (range(1, 8, 3), 7),
        (range(3, 4), 3),  # one row: no fold past it
        (range(4, 4), 0),
    ],
)
def test_power_counts_brute_equal_cartesian_power_with_one_fold_a_row(monkeypatch, ks, folds):
    made = []
    fold = density._fold
    monkeypatch.setattr(density, "_fold", lambda labels, g: made.append(1) or fold(labels, g))
    for base in (fib_graph(1), fib_graph(2), lucas_graph(3)):
        made.clear()
        counts = list(power_counts_brute(base, ks))
        assert len(made) == folds
        assert counts == [(p.num_vertices, p.num_edges) for p in (cartesian_power(base, k) for k in ks)]


def test_power_counts_brute_refuse_a_descending_range_before_any_row():
    # a fold by g cannot step down: it would repeat a row instead
    counts = power_counts_brute(fib_graph(2), range(3, 0, -1))
    with pytest.raises(ValueError, match="positive step"):
        next(counts)


def test_a_one_row_power_sequence_builds_no_stride(monkeypatch):
    # a single row folds in no stride, however large the step
    fold = density._fold

    def bounded_fold(labels, g):
        assert len(labels) < 3**3, "folded past the row"
        return fold(labels, g)

    monkeypatch.setattr(density, "_fold", bounded_fold)
    base = fib_graph(2)
    assert list(power_counts_brute(base, range(3, 4, 10**12))) == [(27, 54)]


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_power_counts_brute_match_cartesian_power_on_cube_bases(kind):
    for n in range(5):
        base = ExplicitGraph.from_cube(CubeGraph(kind, n))
        powers = [cartesian_power(base, k) for k in range(1, 5)]
        assert list(power_counts_brute(base, range(1, 5))) == [(p.num_vertices, p.num_edges) for p in powers], n


def test_power_counts_brute_match_power_family_up_to_5000_vertices():
    for n in range(1, 13):
        fam = power_family(vertex_count(n, FIB), edge_count(n, FIB))
        ks = range(1, max(k for k in range(1, 13) if fam.counts(k)[0] <= 5000) + 1)
        assert list(power_counts_brute(fib_graph(n), ks)) == [fam.counts(k) for k in ks], n


def test_even_cycles_bounded_degree():
    fam = EVEN_CYCLES
    counts = [fam.counts(k) for k in (2, 4, 16, 2**10, 2**20)]
    # handshake: max degree 2 gives 2E <= 2V, so the densities must sink
    assert all(2 * ne <= 2 * nv for nv, ne in counts)
    values = [rho(c) for c in counts]
    assert abs(values[0] - 1) < Decimal("1e-40")  # the 4-cycle is Q2
    assert all(b < a for a, b in zip(values, values[1:]))
    # 2/log2(2k) at k = 2**20 is 2/21, about 0.095
    assert abs(values[-1] - to_decimal(Fraction(2, 21))) < Decimal("1e-40")


def test_rho_limit_fibonacci_and_lucas():
    rows = tuple(rho_limit(FIBONACCI_CUBES, 10000, step=500))
    assert [r.k for r in rows] == list(range(500, 10001, 500))
    assert abs(rows[-1].rho - RHO_CUBES) < Decimal("1e-3")

    rows = tuple(rho_limit(LUCAS_CUBES, 10000, step=500))
    assert abs(rows[-1].rho - RHO_CUBES) < Decimal("1e-3")


def _sampled_k(family, k_max, step):
    return list(range(k_max - (k_max - family.first_index) // step * step, k_max + 1, step))


def _assert_rows_match_the_int_counts(family, rows):
    # counts equal the int closed forms, and rho equals rho of the int pair in every digit
    for r in rows:
        nv, ne = family.counts(r.k)
        assert (r.num_vertices, r.num_edges) == (nv, ne), r.k
        assert str(r.rho) == str(rho((nv, ne))), r.k


@pytest.mark.parametrize("family", [FIBONACCI_CUBES, LUCAS_CUBES], ids=_CUBE_IDS)
@pytest.mark.parametrize("k_max", ["first", 2, 3, 1000, 20000])
@pytest.mark.parametrize("step", [1, 7, 100, 500, "k_max"])
def test_cube_rows_equal_rho_of_the_int_counts(family, k_max, step):
    k_max = family.first_index if k_max == "first" else k_max
    step = k_max if step == "k_max" else step
    rows = tuple(rho_limit(family, k_max, step))
    assert [r.k for r in rows] == _sampled_k(family, k_max, step)
    # the int reference costs ~1 ms a row at k = 20000, so a long table is
    # checked at about 300 rows spread over it, its last row included
    _assert_rows_match_the_int_counts(family, rows[:: -(-len(rows) // 300)] + rows[-1:])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([FIBONACCI_CUBES, LUCAS_CUBES]), st.integers(2, 1500), st.integers(1, 1600))
def test_cube_rows_equal_rho_of_the_int_counts_at_any_step(family, k_max, step):
    rows = tuple(rho_limit(family, k_max, step))
    assert [r.k for r in rows] == _sampled_k(family, k_max, step)
    _assert_rows_match_the_int_counts(family, rows)


def test_a_cube_table_evaluates_two_fibonacci_pairs(monkeypatch):
    calls = []
    evaluate = cube.fibonacci_pair
    monkeypatch.setattr(cube, "fibonacci_pair", lambda n: calls.append(n) or evaluate(n))
    rows = tuple(rho_limit(FIBONACCI_CUBES, 20000, 100))
    assert len(rows) == 200
    assert calls == [99, 100]  # the stride (F(99), F(100)), then the first row's (F(100), F(101))


@pytest.mark.parametrize("family", [FIBONACCI_CUBES, LUCAS_CUBES], ids=_CUBE_IDS)
def test_a_one_row_table_evaluates_no_stride(monkeypatch, family):
    calls = []
    evaluate = cube.fibonacci_pair

    def counted(n):
        calls.append(n)
        assert n <= 20000, "F(step - 1) of a step of 10**12 would have about 2e11 digits"
        return evaluate(n)

    monkeypatch.setattr(cube, "fibonacci_pair", counted)
    rows = tuple(rho_limit(family, 20000, 10**12))
    assert [r.k for r in rows] == [20000]
    assert calls == [20000]
    _assert_rows_match_the_int_counts(family, rows)


@pytest.mark.parametrize("family", [FIBONACCI_CUBES, LUCAS_CUBES], ids=_CUBE_IDS)
def test_rho_of_a_cube_rows_counts_is_its_rho(family):
    # the Decimal counts of a row go back into rho without the int vertex count
    for r in rho_limit(family, 3000, 333):
        assert rho((r.num_vertices, r.num_edges)) == r.rho, r.k
        assert str(rho((int(r.num_vertices), int(r.num_edges)))) == str(r.rho), r.k


def test_rho_takes_the_counts_alone():
    # a second argument fails loudly, not as a wrong rho
    nv, ne = vertex_count(10, FIB), edge_count(10, FIB)
    with pytest.raises(TypeError):
        rho((nv, ne), log2_int(nv))
    with pytest.raises(TypeError):
        rho((nv, ne), log2_nv=log2_int(nv))
    assert rho((Decimal(nv), Decimal(ne))) == rho((nv, ne))
    # a count off the integers, or a negative edge count, as ints and as Decimals
    for counts in [(Decimal("144.5"), Decimal(420)), (Decimal(144), Decimal("420.5")), (144.5, 420),
                   (144, -3), (Decimal(144), Decimal(-3))]:
        with pytest.raises(ValueError):
            rho(counts)


@pytest.mark.parametrize(
    "family, k_max",
    [(FIBONACCI_CUBES, 300), (LUCAS_CUBES, 300), (power_family(5, 5), 40),
     (SUBDIVIDED_COMPLETE, 300), (EVEN_CYCLES, 300)],
)
def test_every_family_rows_hold_exact_integer_decimal_counts(family, k_max):
    for r in rho_limit(family, k_max, step=7):
        assert type(r.num_vertices) is Decimal and type(r.num_edges) is Decimal, r.k
        assert (r.num_vertices, r.num_edges) == family.counts(r.k), r.k
        assert r.num_vertices.as_tuple().exponent == r.num_edges.as_tuple().exponent == 0, r.k


def test_rho_limit_requires_increasing_family():
    constant = GraphFamily("constant", 1, lambda k: (4, 2))
    with pytest.raises(ArithmeticError):
        tuple(rho_limit(constant, 3))


def test_rho_limit_power_family_is_flat():
    base_nv, base_ne = 5, 5  # the dimension-3 Fibonacci cube
    rows = tuple(rho_limit(power_family(base_nv, base_ne), 6))
    first = rows[0].rho
    for row in rows:
        assert abs(row.rho - first) < Decimal("1e-12")


def test_subdivided_family_table():
    rows = tuple(rho_limit(SUBDIVIDED_COMPLETE, 40, step=1))
    assert [r.k for r in rows] == list(range(2, 41))
    values = [r.rho for r in rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def cesaro_product_mean(a):
    # mean of a(i) * a(n+1-i) over i = 1..n
    return sum(x * y for x, y in zip(a, reversed(a))) / len(a)


def fibonacci_ratios(n):
    return [Fraction(fibonacci(i + 1), fibonacci(i)) for i in range(1, n + 1)]


def test_cesaro_fibonacci_ratio_sequence():
    mean = cesaro_product_mean(fibonacci_ratios(200))
    assert abs(to_decimal(mean) - PHI_SQ) < Decimal("1e-2")


def test_cesaro_equals_weight_ratio_average():
    # position ratios factor as a(i) * a(n+1-i) with a(i) = F(i+1)/F(i)
    for n in range(1, 51):
        assert cesaro_product_mean(fibonacci_ratios(n)) == weight_ratio_average(n, FIB)


def test_product_with_fixed_factor_keeps_density():
    # rho(G box K2) - rho(G) along the Fibonacci cubes: positive, shrinking,
    # and below 1e-2 from dimension 1000 on
    diffs = []
    for n in range(100, 1001, 100):
        nv, ne = vertex_count(n, FIB), edge_count(n, FIB)
        diffs.append(rho((2 * nv, 2 * ne + nv)) - rho((nv, ne)))
    assert all(d > 0 for d in diffs)
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < Decimal("1e-2")


def random_subgraph(data, tag):
    """A random checked subgraph of a hypercube of dimension 1..4, with up to 8 vertices."""
    n = data.draw(st.integers(min_value=1, max_value=4), label=f"n_{tag}")
    cube_bits = list(range(1 << n))
    chosen = data.draw(
        st.lists(st.sampled_from(cube_bits), min_size=1, max_size=8, unique=True),
        label=f"verts_{tag}",
    )
    chosen.sort()
    index = {b: i for i, b in enumerate(chosen)}
    edges = []
    for i, b in enumerate(chosen):
        for j in range(n):
            other = index.get(b | (1 << j))
            if not (b >> j) & 1 and other is not None:
                edges.append((i, other))
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)),
        label=f"keep_{tag}",
    )
    kept = tuple(e for e, k in zip(edges, keep) if k)
    return ExplicitGraph(tuple(BitWord(n, b) for b in chosen), kept)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_count_formulas_on_random_subgraphs(data):
    g = random_subgraph(data, "g")
    h = random_subgraph(data, "h")
    p = cartesian_product(g, h)
    assert p.num_vertices == g.num_vertices * h.num_vertices
    assert p.num_edges == g.num_vertices * h.num_edges + h.num_vertices * g.num_edges
    holds, _ = density_lemma_check(p.num_vertices, p.num_edges)
    assert holds


@pytest.mark.parametrize("kind", [FIB, LUC, WordClass.UNRESTRICTED])
def test_cube_exports_pass_the_check_they_skip(kind):
    for n in range(11):
        g = ExplicitGraph.from_cube(CubeGraph(kind, n))
        assert ExplicitGraph(*g) == g, n


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_products_pass_the_check_they_skip(data):
    g, h = random_subgraph(data, "g"), random_subgraph(data, "h")
    start = data.draw(st.integers(1, 3), label="start")
    # powers up to g^3: at most 512 vertices
    ks = range(start, data.draw(st.integers(start, 4), label="stop"), data.draw(st.integers(1, 2), label="step"))
    for p in (cartesian_product(g, h), *(cartesian_power(g, k) for k in ks)):
        assert ExplicitGraph(*p) == p


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_power_counts_brute_count_induced_bases_and_refuse_the_rest(data):
    g = random_subgraph(data, "g")
    powers = [cartesian_power(g, k) for k in (1, 2)]
    # an induced base: an edge between every two labels one bit apart
    flips = sum((u.bits ^ v.bits).bit_count() == 1 for i, u in enumerate(g.vertices) for v in g.vertices[:i])
    if flips == g.num_edges:
        assert list(power_counts_brute(g, range(1, 3))) == [(p.num_vertices, p.num_edges) for p in powers]
    if g.num_edges:  # the same base with an edge removed is not induced
        drop = data.draw(st.integers(0, g.num_edges - 1), label="drop")
        missing = g._replace(edges=g.edges[:drop] + g.edges[drop + 1 :])
        with pytest.raises(ValueError, match="induced"):
            next(power_counts_brute(missing, range(1, 3)))
