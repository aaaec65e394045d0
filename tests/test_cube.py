import itertools
import math
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibcube import cube
from fibcube.cube import (
    CubeGraph,
    average_degree,
    average_ecc,
    average_ecc_over_n,
    count_rows,
    ecc_rows,
    ecc_sum_closed,
    eccentricity_fast,
    edge_count,
    vertex_count,
    weight_count,
    weight_counts_brute,
    weight_ratio_average,
    weight_ratio_average_decimal,
    weight_rows,
)
from fibcube.density import density_lemma_check, rho
from fibcube.numeric import DIGITS, fibonacci, lucas, to_decimal
from fibcube.words import BitWord, WordClass, enumerate_bits

W = BitWord.from_string
FIB, LUC, HYP = WordClass.FIBONACCI, WordClass.LUCAS, WordClass.UNRESTRICTED

# frozen by iterating the recurrences and brute-forcing the tiny graphs
ECC_SUMS_FIB_1_TO_6 = [2, 5, 12, 25, 50, 96]
ECC_SUMS_LUCAS_1_TO_6 = [0, 5, 7, 22, 37, 81]


def _at(g, w):
    """Index of the vertex w in g's lexicographic vertex order."""
    return g.vertex_bits.index(w.bits)


def _distance(g, u, v):
    return g.bfs_levels(_at(g, u))[_at(g, v)]


def test_distance_examples():
    g3 = CubeGraph(FIB, 3)
    assert _distance(g3, W("010"), W("101")) == 3
    assert _distance(g3, W("010"), W("010")) == 0
    q3 = CubeGraph(HYP, 3)
    assert _distance(q3, W("000"), W("111")) == 3


def test_eccentricity_bfs_examples():
    g2 = CubeGraph(FIB, 2)
    ecc2 = g2.eccentricities("bfs")
    assert ecc2[_at(g2, W("00"))] == 1
    assert ecc2[_at(g2, W("01"))] == 2
    l3 = CubeGraph(LUC, 3)
    assert l3.eccentricities("bfs")[_at(l3, W("000"))] == 1


def test_eccentricity_fast_examples():
    assert eccentricity_fast(W("010")) == 3
    assert eccentricity_fast(W("0000")) == 2
    assert eccentricity_fast(W("0")) == 1
    assert eccentricity_fast(W("")) == 0
    with pytest.raises(ValueError):
        eccentricity_fast(W("0110"))


def test_fast_route_on_the_graph_matches_per_word_and_hamming():
    for n in range(23):
        g = CubeGraph(FIB, n)
        fast = g.eccentricities("fast")
        assert fast == bytes(eccentricity_fast(w) for w in g.words())
        assert fast == g.eccentricities("hamming")


# words of length 0..64 without adjacent 1s: x & ~(x >> 1) keeps a 1 only where the symbol to its left is 0
_FIB_WORDS = st.integers(0, 64).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda x: BitWord(n, x & ~(x >> 1)))
)


@settings(max_examples=300, deadline=None)
@given(_FIB_WORDS)
def test_fast_eccentricity_is_the_run_formula_read_either_way(w):
    # the identity behind the fast route's block recursion: n minus floor(r/2)
    # over the maximal runs of r 0s, which is unchanged by reversing the word
    runs = str(w).split("1")
    assert eccentricity_fast(w) == w.n - sum(len(r) // 2 for r in runs)
    assert eccentricity_fast(W(str(w)[::-1])) == eccentricity_fast(w)
    assert eccentricity_fast(w) == _farthest_word_distance(w.bits, w.n, FIB)


def test_only_the_bfs_route_builds_the_adjacency():
    # the routes that read no neighbour build no adjacency
    g = CubeGraph(FIB, 6)
    g.eccentricities("fast")
    g.eccentricities("hamming")
    assert g._adj is None
    g.eccentricities("bfs")
    assert g._adj is not None


def test_histogram_examples():
    assert CubeGraph(FIB, 2).ecc_histogram().counts == {1: 1, 2: 2}
    assert CubeGraph(FIB, 3).ecc_histogram().counts == {2: 3, 3: 2}
    assert CubeGraph(LUC, 3).ecc_histogram().counts == {1: 1, 2: 3}


def test_ecc_sum_closed_fibonacci_sequence():
    assert [ecc_sum_closed(n, FIB) for n in range(1, 7)] == ECC_SUMS_FIB_1_TO_6
    assert ecc_sum_closed(0, FIB) == 0


def test_ecc_sum_closed_lucas_values():
    assert ecc_sum_closed(3, LUC) == 7
    assert [ecc_sum_closed(n, LUC) for n in range(1, 7)] == ECC_SUMS_LUCAS_1_TO_6
    assert ecc_sum_closed(0, LUC) == 0


def test_exact_division_refuses_a_remainder():
    assert cube._exact_div(10, 5) == 2
    with pytest.raises(ArithmeticError, match="7 is not divisible by 5"):
        cube._exact_div(7, 5)


def test_ecc_sum_closed_matches_brute_force():
    for kind in (FIB, LUC):
        for n in range(0, 13):
            brute = sum(CubeGraph(kind, n).eccentricities("bfs"))
            assert ecc_sum_closed(n, kind) == brute, (kind, n)


def test_average_ecc_examples():
    assert average_ecc(3, FIB) == Fraction(12, 5)
    assert average_ecc(3, LUC) == Fraction(7, 4)
    limit = Decimal("0.723606797749978969640917366873")
    assert abs(average_ecc_over_n(200, FIB) - limit) < Decimal("0.005")


def test_edge_count_examples():
    assert edge_count(3, FIB) == 5
    assert edge_count(3, LUC) == 3
    assert edge_count(1, FIB) == 1
    assert edge_count(3, HYP) == 12


def test_edge_count_matches_brute_force():
    for kind in (FIB, LUC):
        for n in range(0, 13):
            assert edge_count(n, kind) == CubeGraph(kind, n).edge_count_brute(), (kind, n)
    for n in range(1, 9):
        assert edge_count(n, HYP) == CubeGraph(HYP, n).edge_count_brute()


def test_average_degree_examples():
    assert average_degree(3, FIB) == 2
    assert average_degree(3, LUC) == Fraction(3, 2)
    limit = Decimal("0.552786404500042060718165266254")
    assert abs(to_decimal(average_degree(300, FIB) / 300) - limit) < Decimal("0.01")


def test_weight_count_examples():
    assert weight_count(3, 1, 0, FIB) == 3
    assert weight_count(3, 1, 1, FIB) == 2
    assert weight_count(3, 2, 1, LUC) == 1


def test_weight_count_matches_brute_force():
    for kind in (FIB, LUC):
        for n in range(1, 13):
            brute = weight_counts_brute(n, kind)
            assert len(brute) == n
            for i in range(1, n + 1):
                for chi in (0, 1):
                    assert weight_count(n, i, chi, kind) == brute[i - 1][chi]


def test_weight_count_validation():
    with pytest.raises(ValueError):
        weight_count(3, 0, 0, FIB)
    with pytest.raises(ValueError):
        weight_count(3, 4, 0, FIB)
    with pytest.raises(ValueError):
        weight_count(3, 1, 2, FIB)


def test_weight_ratio_average_examples():
    assert weight_ratio_average(3, FIB) == Fraction(7, 3)
    assert weight_ratio_average(3, LUC) == 3
    phi_sq = Decimal("2.61803398874989484820458683437")
    assert abs(weight_ratio_average_decimal(60, LUC) - phi_sq) < Decimal("1e-10")


def test_weight_ratio_average_lucas_length_one_undefined():
    with pytest.raises(ValueError):
        weight_ratio_average(1, LUC)


def _mean_to_200_digits(n, kind):
    with localcontext(Context(prec=200)):
        return sum(zero / one for _, zero, one, _ in weight_rows(n, kind)) / n


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_weight_ratio_decimal_matches_the_rounded_200_digit_mean(kind):
    for n in [*range(2, 401), 1000, 3000, 10000]:
        mean = weight_ratio_average_decimal(n, kind)
        assert mean == Context(prec=DIGITS).plus(_mean_to_200_digits(n, kind)), n
        if kind is LUC:  # every Lucas ratio is F(n+1)/F(n-1)
            assert mean == to_decimal(fibonacci(n + 1), fibonacci(n - 1)), n


def test_weight_ratio_decimal_agrees_with_exact():
    # the exact mean from weight_count's per-position closed forms, not from the weight_rows sweep both means read
    for n in range(2, 61):
        for kind in (FIB, LUC):
            ratios = (Fraction(weight_count(n, i, 0, kind), weight_count(n, i, 1, kind)) for i in range(1, n + 1))
            exact = to_decimal(sum(ratios, Fraction(0)) / n)
            assert weight_ratio_average_decimal(n, kind) == exact, (n, kind)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([FIB, LUC]), st.integers(min_value=1, max_value=400))
def test_ecc_rows_match_the_int_closed_forms(kind, n_max):
    rows = list(ecc_rows(range(1, n_max + 1), kind))
    assert [row[0] for row in rows] == list(range(1, n_max + 1))
    for n, nv, ne, es, (p, q), over_n in rows:
        counts = (vertex_count(n, kind), edge_count(n, kind), ecc_sum_closed(n, kind))
        avg = average_ecc(n, kind)
        # every cell renders as str() of the int it stands for
        assert list(map(str, (nv, ne, es, p, q))) == list(map(str, counts + (avg.numerator, avg.denominator)))
        assert str(over_n) == str(average_ecc_over_n(n, kind))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([FIB, LUC]), st.integers(min_value=1, max_value=400), st.integers(min_value=2, max_value=60))
@example(LUC, 1, 2)  # steps from L(0) = 2, where the length-0 Lucas cube has one vertex
@example(FIB, 2, 3)  # reduces by F(5) at n = 3
def test_ecc_rows_from_any_start_match_the_closed_forms(kind, start, k):
    # rows start - 1 and start come from the closed forms, and every later row from additions
    rows = list(ecc_rows(range(start, start + k), kind))
    assert [row[0] for row in rows] == list(range(start, start + k))
    for n, nv, ne, es, (p, q), over_n in rows:
        assert (int(nv), int(ne), int(es)) == (vertex_count(n, kind), edge_count(n, kind), ecc_sum_closed(n, kind))
        assert Fraction(int(p), int(q)) == average_ecc(n, kind) and math.gcd(int(p), int(q)) == 1, n
        assert (p is es and q is nv) == (math.gcd(int(es), int(nv)) == 1), n
        assert over_n == average_ecc_over_n(n, kind), n


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_ecc_rows_refuse_a_last_row_off_the_closed_forms(kind, monkeypatch):
    # the stepped sums are checked once, on the last row, against the closed forms on the stepped F(n), F(n+1)
    n_max, closed = 30, cube._ecc_sum
    monkeypatch.setattr(cube, "_ecc_sum", lambda n, f0, f1, kind: closed(n, f0, f1, kind) + (n == n_max))
    rows = ecc_rows(range(1, n_max + 1), kind)
    assert [row[0] for row in itertools.islice(rows, n_max - 1)] == list(range(1, n_max))
    with pytest.raises(ArithmeticError, match=f"row {n_max}"):
        next(rows)
    assert next(ecc_rows(range(n_max, n_max + 1), kind))[0] == n_max  # a one-row sweep is the closed form itself


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_ecc_rows_reduce_by_the_full_gcd_to_3000(kind):
    # the sweep takes the gcd modulo a small m, which is F(5) at Fibonacci n = 3
    for n, nv, _, es, (p, q), _ in ecc_rows(range(1, 3001), kind):
        g = math.gcd(int(es), int(nv))
        assert (int(p) * g, int(q) * g) == (int(es), int(nv)), n


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_ecc_rows_pass_coprime_ecc_sum_and_vertices_through(kind):
    # so the text of ecc-table renders p/q from the cells of ecc_sum and vertices
    for n, nv, _, es, (p, q), _ in ecc_rows(range(1, 3501), kind):
        assert (p is es and q is nv) == (math.gcd(int(es), int(nv)) == 1), n
        assert Fraction(int(p), int(q)) == Fraction(int(es), int(nv)), n


def test_ecc_rows_at_the_special_moduli():
    assert list(ecc_rows(range(1, 4), FIB))[2][4] == (12, 5)
    assert [row[4] for row in ecc_rows(range(1, 3), LUC)] == [(0, 1), (5, 3)]


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_one_row_ecc_rows_are_the_forward_sweeps_rows(kind):
    # ecc-table's width walk reads one-row sweeps down from n_max
    for n_max in [*range(1, 41), 3500]:
        rows = list(ecc_rows(range(1, n_max + 1), kind))
        assert [next(ecc_rows(range(n, n + 1), kind)) for n in range(n_max, 0, -1)] == rows[::-1], n_max


@pytest.mark.parametrize(
    "dims", [range(1, 10, 2), range(9, 0, -2), range(0, 3), range(3, -1, -1), range(-2, 3), range(5, 0, -1)]
)
def test_ecc_rows_step_the_dimension_by_one_through_positive_dimensions(dims):
    with pytest.raises(ValueError):
        next(ecc_rows(dims, FIB))


@pytest.mark.parametrize("kind", [FIB, LUC])
@pytest.mark.parametrize(
    "ks",
    # across index 170, where the logarithm leaves log2_int for Binet's formula;
    # one row with a step too large to evaluate F(step)
    [range(1, 400), range(2, 3000, 7), range(160, 2600, 123), range(5000, 5001), range(20000, 20001, 10**12),
     range(0, 300)],
)
def test_count_rows_match_the_int_closed_forms(kind, ks):
    # from the first dimension of at least two vertices: a one-vertex cube has no density
    ks = range(max(ks.start, {FIB: 1, LUC: 2}[kind]), ks.stop, ks.step)
    rows = list(count_rows(ks, kind))
    assert len(rows) == len(ks)
    for k, (nv, ne, r) in zip(ks, rows):
        assert type(nv) is Decimal and type(ne) is Decimal, k
        v, e = vertex_count(k, kind), edge_count(k, kind)
        assert (str(nv), str(ne), str(r)) == (str(v), str(e), str(rho((v, e)))), k


@pytest.mark.parametrize("kind, k", [(FIB, 0), (LUC, 0), (LUC, 1)])
def test_count_rows_give_a_one_vertex_cube_no_density(kind, k):
    with pytest.raises(ArithmeticError):
        next(count_rows(range(k, k + 1), kind))


@pytest.mark.parametrize("kind", [FIB, LUC])
@pytest.mark.parametrize("ks", [range(10, 3, -1), range(10, 9, -1)])
def test_count_rows_refuse_a_descending_range_before_any_row(kind, ks):
    # the sweep steps F(k) up only: a descending range would run it off its own rule
    rows = count_rows(ks, kind)
    with pytest.raises(ValueError, match="positive step"):
        next(rows)


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_ecc_rows_bound_the_table_widths_to_3500(kind):
    # what lets ecc-table take its text widths from its last rows
    rows = list(ecc_rows(range(1, 3501), kind))
    for (_, *low), (_, *high) in zip(rows, rows[1:]):
        assert all(a <= b for a, b in zip(low[:3], high[:3]))  # vertices, edges, ecc_sum
    for n, nv, _, es, _, over_n in rows[1:]:
        assert n // 2 * nv <= es <= n * nv, n
        assert Decimal(1) / 3 <= over_n <= 1, n


@pytest.mark.parametrize("kind, radius, diameter", [(FIB, lambda n: (n + 1) // 2, lambda n: n),
                                                     (LUC, lambda n: n // 2, lambda n: n // 2 * 2)])
def test_radius_and_diameter_by_bfs(kind, radius, diameter):
    for n in range(2, 14):
        eccs = CubeGraph(kind, n).eccentricities("bfs")
        assert (min(eccs), max(eccs)) == (radius(n), diameter(n)), n


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([FIB, LUC]), st.integers(min_value=1, max_value=300))
def test_weight_rows_match_the_int_closed_forms(kind, n):
    if kind is LUC and n == 1:
        with pytest.raises(ValueError):
            next(weight_rows(n, kind))
        return
    rows = list(weight_rows(n, kind))
    assert [row[0] for row in rows] == list(range(1, n + 1))
    for i, zero, one, _ in rows:
        w0, w1 = weight_count(n, i, 0, kind), weight_count(n, i, 1, kind)
        assert (str(zero), str(one)) == (str(w0), str(w1))


@pytest.mark.parametrize("kind", [FIB, LUC])
def test_edges_are_the_ones_of_the_weight_sweep(kind):
    # clearing a 1 never leaves the word class, so each edge is one (word, position of a 1)
    for n in range(1 if kind is FIB else 2, 401):
        assert sum(int(one) for _, _, one, _ in weight_rows(n, kind)) == edge_count(n, kind), n


def test_vertex_counts():
    for n in range(0, 15):
        assert vertex_count(n, FIB) == fibonacci(n + 2) == CubeGraph(FIB, n).num_vertices
        assert vertex_count(n, HYP) == 2**n
    for n in range(1, 15):
        assert vertex_count(n, LUC) == lucas(n) == CubeGraph(LUC, n).num_vertices


def test_oracle_equivalence_small():
    # three eccentricity routes agree vertex by vertex
    for n in range(0, 13):
        g = CubeGraph(FIB, n)
        bfs = g.eccentricities("bfs")
        assert bfs == g.eccentricities("hamming") == g.eccentricities("fast"), n
        l = CubeGraph(LUC, n)
        assert l.eccentricities("bfs") == l.eccentricities("hamming"), n


def test_oracle_equivalence_extended_to_16():
    for n in (15, 16):
        g = CubeGraph(FIB, n)
        bfs = g.eccentricities("bfs")
        assert bfs == g.eccentricities("hamming") == g.eccentricities("fast"), n
        hist = g.ecc_histogram("fast")
        assert hist.total() == fibonacci(n + 2)
        assert hist.ecc_sum() == ecc_sum_closed(n, FIB)
        l = CubeGraph(LUC, n)
        lecc = l.eccentricities("bfs")
        assert lecc == l.eccentricities("hamming"), n
        assert sum(lecc) == ecc_sum_closed(n, LUC)
        assert l.edge_count_brute() == edge_count(n, LUC)
        assert g.edge_count_brute() == edge_count(n, FIB)


def test_histogram_totals_and_sums_up_to_16():
    for n in range(0, 17):
        hist = CubeGraph(FIB, n).ecc_histogram("fast")
        assert hist.total() == fibonacci(n + 2)
        if n >= 1:
            assert hist.ecc_sum() == ecc_sum_closed(n, FIB)
    for n in range(1, 13):
        hist = CubeGraph(LUC, n).ecc_histogram("hamming")
        assert hist.total() == lucas(n)
        assert hist.ecc_sum() == ecc_sum_closed(n, LUC)


def test_isometry_distance_equals_hamming():
    # BFS distance equals Hamming distance for every vertex pair, n <= 14
    for kind in (FIB, LUC):
        for n in range(0, 15):
            g = CubeGraph(kind, n)
            bits = g.vertex_bits
            for i, b in enumerate(bits):
                dist = g.bfs_levels(i)
                hamming = [(b ^ c).bit_count() for c in bits]
                assert dist == hamming, (kind, n, i)


def test_density_lemma_bound_on_cubes():
    # 2E <= V log2 V with equality exactly on full hypercubes
    for kind in (FIB, LUC):
        for n in range(1, 17):
            holds, equal = density_lemma_check(vertex_count(n, kind), edge_count(n, kind))
            assert holds
            # degenerate low dimensions are themselves hypercubes:
            # the dimension-1 Fibonacci cube is K2 = Q1 and the
            # dimension-1 Lucas cube is the single vertex K1 = Q0
            assert equal == (n == 1)
    for n in range(1, 11):
        holds, equal = density_lemma_check(2**n, edge_count(n, HYP))
        assert holds and equal


def test_neighbors_are_sorted_and_correct():
    g = CubeGraph(FIB, 4)
    words = g.words()

    def neighbors(w):
        return [words[j] for j in g._adjacency()[_at(g, w)]]

    nbrs = neighbors(W("0101"))
    assert [str(w) for w in nbrs] == ["0001", "0100"]
    assert str(sorted(neighbors(W("0000")))[0]) == "0001"


def test_ecc_histogram_rejects_fast_for_lucas():
    with pytest.raises(ValueError):
        CubeGraph(LUC, 3).ecc_histogram("fast")
    with pytest.raises(ValueError):
        CubeGraph(FIB, 3).ecc_histogram("nope")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_fast_recursion_matches_hamming_on_random_vertices(n, data):
    bits = enumerate_bits(n, FIB)
    b = data.draw(st.sampled_from(bits))
    assert eccentricity_fast(BitWord(n, b)) == _farthest_word_distance(b, n, FIB)


def _farthest_word_distance(bits: int, n: int, kind: WordClass) -> int:
    """The Hamming route's reference, one word at a time: the largest Hamming
    distance from the n-bit word u, given as ``bits``, to a word of the class.

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


def _hamming_scan(g):
    """Oracle: the all-pairs scan that the Hamming route's DP replaced."""
    bits = g.vertex_bits
    return [max((b ^ c).bit_count() for c in bits) for b in bits]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FIB, LUC, HYP]), st.integers(min_value=0, max_value=12))
def test_hamming_route_matches_all_pairs_scan(kind, n):
    g = CubeGraph(kind, n)
    scan = _hamming_scan(g)
    assert g.eccentricities("hamming") == bytes(scan)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FIB, LUC, HYP]), st.integers(min_value=0, max_value=14))
@example(LUC, 0)
@example(LUC, 1)
def test_hamming_table_matches_the_per_word_dp(kind, n):
    table = cube._farthest_word_distances(n, kind)
    assert table == bytes(_farthest_word_distance(b, n, kind) for b in enumerate_bits(n, kind))


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.sampled_from([FIB, LUC]), st.integers(0, 12)) | st.tuples(st.just(HYP), st.integers(0, 8)))
def test_all_sources_sweep_matches_a_bfs_per_vertex(kind_n):
    g = CubeGraph(*kind_n)
    assert g.eccentricities("bfs") == bytes(max(g.bfs_levels(i)) for i in range(g.num_vertices))


def test_all_sources_sweep_rejects_a_disconnected_graph(monkeypatch):
    g = CubeGraph(FIB, 2)  # 00, 01, 10: the path 01 - 00 - 10
    monkeypatch.setattr(g, "_adjacency", lambda: [[1], [0], []])  # 10 cut off
    with pytest.raises(ValueError, match="^graph is not connected$"):
        g.eccentricities("bfs")


def test_hamming_route_degenerate_and_hypercube_cases():
    for n in (0, 1):  # the single-vertex Lucas cubes
        g = CubeGraph(LUC, n)
        assert g.eccentricities("hamming") == bytes([0])
    for n in range(0, 11):
        g = CubeGraph(HYP, n)
        assert g.eccentricities("hamming") == bytes([n] * 2**n)
    with pytest.raises(ValueError, match="n <= 127"):  # the byte-offset scores would wrap
        cube._farthest_word_distances(128, FIB)


def _routes(kind):
    return ("bfs", "hamming", "fast") if kind is FIB else ("bfs", "hamming")


def test_every_route_returns_one_byte_per_vertex_and_the_routes_agree():
    for kind, top in ((FIB, 14), (LUC, 14), (HYP, 10)):
        for n in range(top + 1):
            g = CubeGraph(kind, n)
            eccs = [g.eccentricities(m) for m in _routes(kind)]
            assert all(type(e) is bytes and len(e) == g.num_vertices for e in eccs), (kind, n)
            assert all(e == eccs[0] for e in eccs), (kind, n)


def test_no_route_holds_a_list_of_eccentricities():
    # a list costs 8 bytes a vertex for its pointers alone; the routes return one byte each
    g = CubeGraph(FIB, 20)
    for method in _routes(FIB):
        assert sys.getsizeof(g.eccentricities(method)) < 2 * g.num_vertices, method


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    st.sampled_from([0, 1]),
    st.sampled_from([FIB, LUC]),
)
def test_weight_counts_partition_vertices(n, i, chi, kind):
    if i > n:
        i = 1 + (i % n)
    total = weight_count(n, i, 0, kind) + weight_count(n, i, 1, kind)
    assert total == vertex_count(n, kind)
