"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v``; every criterion prints
one ACCEPTANCE PASS line with its timing, or shows up as FAILED.
"""

import hashlib
import time
from collections import Counter
from decimal import Context, Decimal, localcontext

from fibcube.cli import run
from fibcube.cube import (
    CubeGraph,
    average_degree,
    average_ecc_over_n,
    ecc_sum_closed,
    edge_count,
    vertex_count,
    weight_ratio_average_decimal,
)
from fibcube.density import (
    ExplicitGraph,
    cartesian_power,
    cartesian_product,
    density_lemma_check,
    rho,
)
from fibcube.fibtree import LabelingKind, verify_depth_eccentricity
from fibcube.numeric import fibonacci, to_decimal
from fibcube.series import ecc_sum_from_gf, fibonacci_ecc_gf, lucas_ecc_gf
from fibcube.words import WordClass

FIB, LUC = WordClass.FIBONACCI, WordClass.LUCAS

# constants recomputed from their closed forms at 60 digits
_C = Context(prec=60)
with localcontext(_C):
    _SQRT5 = Decimal(5).sqrt()
    ECC_LIMIT = (5 + _SQRT5) / 10
    DEG_LIMIT = (5 - _SQRT5) / 5
    PHI_SQUARED = (3 + _SQRT5) / 2
    RHO_LIMIT = DEG_LIMIT / (((1 + _SQRT5) / 2).ln() / Decimal(2).ln())


def _report(number: int, detail: str, started: float) -> None:
    print(f"ACCEPTANCE PASS criterion {number}: {detail} [{time.perf_counter() - started:.2f}s]")


def hypercube_graph(k: int) -> ExplicitGraph:
    return ExplicitGraph.from_cube(CubeGraph(WordClass.UNRESTRICTED, k))


def test_criterion_1_eccentricity_sum_sequence(capsys):
    started = time.perf_counter()
    code = run(["ecc-table", "--kind", "fib", "--n-max", "6", "--verify", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    sums = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    assert sums == ["2", "5", "12", "25", "50", "96"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, "e(1..6) = 2,5,12,25,50,96 with BFS, series and closed form agreeing", started)


def test_criterion_2_oracle_equivalence_suite(capsys):
    started = time.perf_counter()
    fib_hists = fibonacci_ecc_gf(14)
    lucas_hists = lucas_ecc_gf(14)
    for n in range(0, 15):
        g = CubeGraph(FIB, n)
        bfs = g.eccentricities("bfs")
        assert bfs == g.eccentricities("hamming") == g.eccentricities("fast"), n
        assert dict(sorted(Counter(bfs).items())) == fib_hists[n].counts, n
        l = CubeGraph(LUC, n)
        lbfs = l.eccentricities("bfs")
        assert lbfs == l.eccentricities("hamming"), n
        assert dict(sorted(Counter(lbfs).items())) == lucas_hists[n].counts, n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        _report(2, "BFS = Hamming = fast eccentricities and series histograms, n <= 14", started)


def test_criterion_3_tree_depth_equals_eccentricity(capsys):
    started = time.perf_counter()
    code = run(["tree-check", "--n", "14", "--labeling", "theta"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "PASS 987 leaves\n"
    check = verify_depth_eccentricity(14, LabelingKind.THETA)
    assert check.ok and check.leaf_count == 987 == fibonacci(16)

    code = run(["tree-check", "--n", "2", "--labeling", "standard"])
    out = capsys.readouterr().out
    assert code == 2
    assert out == "FAIL at label 01: depth 1, eccentricity 2\n"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    with capsys.disabled():
        _report(3, "depth labeling passes for all 987 leaves; plain labeling fails at 01", started)


def test_criterion_4_edge_counts_exact(capsys):
    started = time.perf_counter()
    for kind in (FIB, LUC):
        for n in range(1, 15):
            assert edge_count(n, kind) == CubeGraph(kind, n).edge_count_brute(), (kind, n)
    with capsys.disabled():
        _report(4, "closed-form edge counts equal enumeration for n <= 14, both kinds", started)


def test_criterion_5_limit_constants_at_desk_scale(capsys):
    started = time.perf_counter()
    tol = Decimal("5e-3")
    assert abs(average_ecc_over_n(1000, FIB) - ECC_LIMIT) < tol
    assert abs(average_ecc_over_n(1000, LUC) - ECC_LIMIT) < tol

    assert abs(to_decimal(average_degree(1000, FIB) / 1000) - DEG_LIMIT) < tol
    assert abs(to_decimal(average_degree(1000, LUC) / 1000) - DEG_LIMIT) < tol

    assert abs(weight_ratio_average_decimal(1000, FIB) - PHI_SQUARED) < Decimal("1e-2")
    lucas_ratio = to_decimal(fibonacci(61)) / to_decimal(fibonacci(59))
    assert abs(lucas_ratio - PHI_SQUARED) < Decimal("1e-10")

    for kind in (FIB, LUC):
        value = rho((vertex_count(10000, kind), edge_count(10000, kind)))
        assert abs(value - RHO_LIMIT) < Decimal("1e-3"), kind
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    with capsys.disabled():
        _report(5, "eccentricity, degree, weight-ratio and density limits hit at scale", started)


def test_criterion_6_density_lemma_everywhere(capsys):
    started = time.perf_counter()
    built: list[tuple[ExplicitGraph, bool]] = []  # (graph, is a full hypercube)
    for kind in (FIB, LUC):
        for n in range(1, 15):
            g = ExplicitGraph.from_cube(CubeGraph(kind, n))
            built.append((g, n == 1))  # dimension 1 degenerates to Q1 resp. Q0
    for k in range(1, 11):
        built.append((hypercube_graph(k), True))
    fib2 = ExplicitGraph.from_cube(CubeGraph(FIB, 2))
    fib3 = ExplicitGraph.from_cube(CubeGraph(FIB, 3))
    luc4 = ExplicitGraph.from_cube(CubeGraph(LUC, 4))
    k2 = hypercube_graph(1)
    for base in (fib2, fib3, luc4):
        for k in range(1, 6):
            g = cartesian_power(base, k)
            if g.num_vertices <= 5000:
                built.append((g, False))
    built.append((cartesian_product(fib2, k2), False))
    built.append((cartesian_power(k2, 6), True))

    for g, is_hypercube in built:
        holds, equal = density_lemma_check(g.num_vertices, g.num_edges)
        assert holds, (g.num_vertices, g.num_edges)
        assert equal == is_hypercube, (g.num_vertices, g.num_edges)
    with capsys.disabled():
        _report(6, f"2E <= V log2 V exact on {len(built)} built graphs, equality only on hypercubes", started)


def test_criterion_7_power_density_invariance(capsys):
    started = time.perf_counter()
    for kind, n in ((FIB, 2), (FIB, 3), (LUC, 4)):
        base = ExplicitGraph.from_cube(CubeGraph(kind, n))
        base_rho = rho(base)
        nv, ne = base.num_vertices, base.num_edges
        for k in range(1, 6):
            g = cartesian_power(base, k)
            assert g.num_vertices == nv**k
            assert g.num_edges == k * nv ** (k - 1) * ne
            assert abs(rho(g) - base_rho) < Decimal("1e-12"), (kind, n, k)
    with capsys.disabled():
        _report(7, "rho(G^k) = rho(G) to 1e-12 for the three bases, k <= 5, built explicitly", started)


def test_criterion_8_series_identities_to_order_30(capsys):
    started = time.perf_counter()
    order = 30
    from fractions import Fraction

    from fibcube.series import _mul, expand_rational

    def uni(terms):
        return {(i, 0): c for i, c in terms.items()}

    def x_series(num, den):
        return [row[0] for row in expand_rational(num, den, order, 0).coeff]

    den = uni({0: 1, 1: -1, 2: -1})
    den_sq = _mul(den, den)
    fib = [fibonacci(n) for n in range(order + 2)]

    lhs = x_series(uni({1: 2, 2: 1}), den_sq)
    b = x_series(uni({1: 1, 2: 2}), den_sq)
    c = x_series(uni({1: 1, 3: 1}), den_sq)
    a = x_series(uni({1: 1}), den)

    assert b == [Fraction(n * fib[n + 1]) for n in range(order + 1)]
    assert c == [Fraction(n * fib[n]) for n in range(order + 1)]
    assert lhs == [Fraction(3 * ai + 4 * bi + 3 * ci, 5) for ai, bi, ci in zip(a, b, c)]

    # the same derivative series also reproduces the eccentricity sums
    assert ecc_sum_from_gf(order, FIB) == [int(v) for v in lhs]
    assert [int(v) for v in lhs] == [ecc_sum_closed(n, FIB) for n in range(order + 1)]
    with capsys.disabled():
        _report(8, "the three identities behind the eccentricity sum hold to order 30", started)


def test_criterion_9_cli_determinism(capsys):
    started = time.perf_counter()
    commands = [
        ["ecc-table", "--kind", "fib", "--n-max", "12", "--format", "csv"],
        ["ecc-table", "--kind", "lucas", "--n-max", "12", "--format", "csv"],
        ["enumerate", "--kind", "lucas", "--n", "9", "--format", "csv"],
        ["ecc-hist", "--kind", "fib", "--n", "10", "--method", "gf", "--format", "csv"],
        ["weights", "--kind", "fib", "--n", "12", "--format", "csv"],
        ["tree-print", "--n", "10", "--labeling", "theta"],
        ["density", "--family", "fib", "--k", "2000", "--format", "csv"],
        ["limits", "--format", "csv"],
    ]
    for argv in commands:
        digests = []
        for _ in range(2):
            code = run(argv)
            out = capsys.readouterr().out
            assert code == 0, argv
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests[0] == digests[1], argv
    with capsys.disabled():
        _report(9, f"{len(commands)} commands re-run byte-identical (sha256 compared)", started)
