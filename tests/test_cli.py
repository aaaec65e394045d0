import functools
import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcube import cli, cube, density, fibtree, series, words
from fibcube.cli import _KINDS, _agree, format_significant, run
from fibcube.numeric import DIGITS, decimal_context, fibonacci, lucas, to_decimal

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_enumerate_text(capsys):
    code, out = capture(capsys, ["enumerate", "--kind", "fib", "--n", "3"])
    assert code == 0
    assert out == "000\n001\n010\n100\n101\n"


def test_enumerate_empty_word(capsys):
    code, out = capture(capsys, ["enumerate", "--kind", "fib", "--n", "0"])
    assert code == 0
    assert out == "ε\n"
    code, out = capture(capsys, ["enumerate", "--kind", "fib", "--n", "0", "--format", "csv"])
    assert code == 0
    assert out == "word\n\n"


def test_enumerate_lucas_and_hyper(capsys):
    code, out = capture(capsys, ["enumerate", "--kind", "lucas", "--n", "3", "--format", "csv"])
    assert out == "word\n000\n001\n010\n100\n"
    code, out = capture(capsys, ["enumerate", "--kind", "hyper", "--n", "2"])
    assert out == "00\n01\n10\n11\n"


def _per_word_rendering(ws, fmt: str) -> str:
    """enumerate's output as it was rendered before streaming: one string per word."""
    if fmt == "csv":
        return "\n".join(["word"] + [str(w) for w in ws]) + "\n"
    return "\n".join(str(w) or "ε" for w in ws) + "\n"


@pytest.mark.parametrize("block", [3, 14])
def test_enumerate_blocks_match_per_word_rendering(capsys, block):
    for kind, cap in (("fib", 20), ("lucas", 20), ("hyper", 16)):
        for n in range(cap + 1):
            ws = words.enumerate_words(n, _KINDS[kind])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(words, "_BLOCK", block)
                mp.setattr(words, "_HYPER_BLOCK", min(block, words._HYPER_BLOCK))  # 14 leaves hyper at its default
                for fmt in ("text", "csv"):
                    code, out = capture(capsys, ["enumerate", "--kind", kind, "--n", str(n), "--format", fmt])
                    assert code == 0
                    assert out == _per_word_rendering(ws, fmt), (kind, n, fmt)


# Counts a child's stdout lines and reports its peak RSS from os.wait4.
# It runs as a fresh interpreter because on Linux a child's ru_maxrss
# starts at the resident size of the process that started it.
_COUNTING_PARENT = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
lines = 0
while chunk := child.stdout.read(1 << 16):
    lines += chunk.count(b"\\n")
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, lines, usage.ru_maxrss)
"""


def _exit_lines_and_peak_kb(argv):
    """A CLI child's exit code, stdout line count and peak RSS in KB (ru_maxrss on Linux)."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _COUNTING_PARENT, sys.executable, "-m", "fibcube.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


@pytest.mark.parametrize(
    "kind, n, count", [("fib", 30, fibonacci(32)), ("lucas", 30, lucas(30)), ("hyper", 20, 2**20)]
)
def test_enumerate_at_its_cap_runs_in_bounded_memory(kind, n, count):
    code, lines, maxrss_kb = _exit_lines_and_peak_kb(["enumerate", "--kind", kind, "--n", str(n)])
    assert (code, lines) == (0, count)
    assert maxrss_kb < 64 * 1024


@pytest.mark.parametrize(
    "argv, count",
    [
        (["ecc-table", "--kind", "lucas", "--n-max", "20000"], 20001),
        (["weights", "--kind", "fib", "--n", "10000"], 10002),
        (["ecc-hist", "--kind", "lucas", "--n", "500", "--method", "gf"], 252),
        (["density", "--family", "fib", "--k", "20000"], 201),
        (["density", "--family", "lucas", "--k", "20000"], 201),
        (["density", "--family", "fib", "--k", "20000", "--step", "1000000000000"], 2),
        (["ecc-table", "--kind", "fib", "--n-max", "20000", "--digits", "50"], 20001),
        (["weights", "--kind", "lucas", "--n", "10000"], 10002),
        (["ecc-hist", "--kind", "fib", "--n", "30", "--method", "fast"], 17),
    ],
)
def test_closed_form_tables_at_their_caps_run_in_bounded_memory(argv, count):
    code, lines, maxrss_kb = _exit_lines_and_peak_kb(argv)
    assert (code, lines) == (0, count)
    assert maxrss_kb < 64 * 1024


@pytest.mark.parametrize("kind", ["fib", "lucas"])
def test_every_ecc_hist_route_at_the_bfs_cap_runs_in_bounded_memory(kind):
    # eccentricities 8..16: a header and nine rows
    code, lines, maxrss_kb = _exit_lines_and_peak_kb(["ecc-hist", "--kind", kind, "--n", "16", "--verify"])
    assert (code, lines) == (0, 10)
    assert maxrss_kb < 64 * 1024


@pytest.mark.parametrize(
    "argv, count",
    [
        (["ecc-table", "--kind", "fib", "--n-max", "16", "--verify"], 17),
        (["weights", "--kind", "fib", "--n", "16", "--verify"], 18),
        # Q12, the largest explicit power under the 5000-vertex cap
        (["density", "--family", "power", "--base-n", "1", "--k", "12", "--verify"], 13),
    ],
)
def test_verify_at_its_caps_runs_in_bounded_memory(argv, count):
    code, lines, maxrss_kb = _exit_lines_and_peak_kb(argv)
    assert (code, lines) == (0, count)
    assert maxrss_kb < 64 * 1024


@pytest.mark.parametrize(
    "argv, count",
    [
        (["tree-print", "--n", "20"], fibonacci(21)),
        (["tree-print", "--n", "20", "--format", "csv"], fibonacci(21) + 1),
        (["tree-check", "--n", "16"], 1),
    ],
)
def test_tree_commands_at_their_caps_run_in_bounded_memory(argv, count):
    code, lines, maxrss_kb = _exit_lines_and_peak_kb(argv)
    assert (code, lines) == (0, count)
    assert maxrss_kb < 64 * 1024


def test_streaming_commands_at_their_caps_hold_about_one_block():
    # each holds its labels or one block of about a thousand words, not every line it writes:
    # at most 2 MB above a child that starts up, enumerates two words and exits
    _, _, start_up_kb = _exit_lines_and_peak_kb(["enumerate", "--kind", "fib", "--n", "1"])
    for argv, count in [
        (["tree-print", "--n", "20"], fibonacci(21)),
        (["tree-print", "--n", "20", "--format", "csv"], fibonacci(21) + 1),
        (["enumerate", "--kind", "hyper", "--n", "20"], 2**20),
        # a header and 20000 rows, the row bound: each streamed, with widths from the last row
        (["density", "--family", "fib", "--k", "20000", "--step", "1"], 20001),
        (["density", "--family", "lucas", "--k", "20000", "--step", "1", "--format", "csv"], 20000),
        (["density", "--family", "skk", "--k", "1000000", "--step", "50"], 20001),
    ]:
        code, lines, maxrss_kb = _exit_lines_and_peak_kb(argv)
        assert (code, lines) == (0, count)
        assert maxrss_kb - start_up_kb <= 2 * 1024, (argv, maxrss_kb - start_up_kb)


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--kind", "fib", "--n", "25"], ["ecc-table", "--kind", "lucas", "--n-max", "2000"],
     ["density", "--family", "fib", "--k", "20000", "--step", "1", "--format", "csv"], ["tree-print", "--n", "20"]],
)
def test_a_reader_that_closes_after_one_line_ends_the_command_quietly(argv):
    # each writes far more than a pipe holds, so its next write after the close fails
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.Popen(
        [sys.executable, "-m", "fibcube.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (141, b"")


def _old_table(header, rows, fmt):
    """Tables as rendered before streaming: every row held, widths over all rows."""
    if fmt == "csv":
        return "".join(",".join(r) + "\n" for r in [header] + rows)
    widths = [max(len(r[c]) for r in [header] + rows) for c in range(len(header))]
    return "".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip() + "\n" for r in [header] + rows)


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("kind, n_max", [("lucas", 6), ("lucas", 18), ("fib", 25), ("lucas", 1), ("fib", 40)])
def test_ecc_table_matches_the_int_rendering(capsys, fmt, kind, n_max):
    k = _KINDS[kind]
    rows = [
        [str(n), str(cube.vertex_count(n, k)), str(cube.edge_count(n, k)), str(cube.ecc_sum_closed(n, k)),
         str(cube.average_ecc(n, k)), format_significant(cube.average_ecc_over_n(n, k), 12)]
        for n in range(1, n_max + 1)
    ]
    header = ["n", "vertices", "edges", "ecc_sum", "avg_ecc", "avg_ecc_over_n"]
    code, out = capture(capsys, ["ecc-table", "--kind", kind, "--n-max", str(n_max), "--format", fmt])
    assert code == 0
    assert out == _old_table(header, rows, fmt)
    # where the last avg_ecc cell is not the widest: at lucas 6 among the
    # cells (37/11 against 9/2), at lucas 18 and fib 25 also past the header
    if (kind, n_max) in (("lucas", 6), ("lucas", 18), ("fib", 25)):
        assert len(rows[-1][4]) < max(len(r[4]) for r in rows)
    if (kind, n_max) in (("lucas", 18), ("fib", 25)):
        assert len(rows[-1][4]) < max(len(r[4]) for r in rows + [header])


@functools.cache
def _int_ecc_cells(kind):
    """ecc-table's cells but the last, n = 1..3500, from the int closed forms."""
    k = _KINDS[kind]
    return [
        [str(n), str(cube.vertex_count(n, k)), str(cube.edge_count(n, k)), str(cube.ecc_sum_closed(n, k)),
         str(cube.average_ecc(n, k))]
        for n in range(1, 3501)
    ]


@pytest.mark.parametrize("digits", [1, 2, 12, 50])
@pytest.mark.parametrize("kind", ["fib", "lucas"])
def test_ecc_table_widths_from_the_walk_match_the_widest_cells(capsys, kind, digits):
    # the text takes its widths from a few rows walked back from n_max; _old_table from every row
    k = _KINDS[kind]
    over_n = [format_significant(cube.average_ecc_over_n(n, k), digits) for n in range(1, 3501)]
    rows = [[*cells, o] for cells, o in zip(_int_ecc_cells(kind), over_n)]
    header = ["n", "vertices", "edges", "ecc_sum", "avg_ecc", "avg_ecc_over_n"]
    for n_max in [*range(1, 301), 3500]:
        code, out = capture(capsys, ["ecc-table", "--kind", kind, "--n-max", str(n_max), "--digits", str(digits)])
        assert code == 0
        assert out == _old_table(header, rows[:n_max], "text"), n_max


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("kind, n", [("fib", 1), ("fib", 9), ("lucas", 2), ("lucas", 30)])
def test_weights_match_the_int_rendering(capsys, fmt, kind, n):
    k = _KINDS[kind]
    counts = [(cube.weight_count(n, i, 0, k), cube.weight_count(n, i, 1, k)) for i in range(1, n + 1)]
    rows = [[str(i), str(w0), str(w1), format_significant(to_decimal(Fraction(w0, w1)), 12)]
            for i, (w0, w1) in enumerate(counts, 1)]
    rows.append(["avg", "", "", format_significant(cube.weight_ratio_average_decimal(n, k), 12)])
    code, out = capture(capsys, ["weights", "--kind", kind, "--n", str(n), "--format", fmt])
    assert code == 0
    assert out == _old_table(["i", "zero_count", "one_count", "ratio"], rows, fmt)


@pytest.mark.parametrize("kind", ["fib", "lucas"])
def test_weights_widths_from_the_first_rows_match_the_widest_cells(capsys, kind):
    # the text takes its widths from the first two rows; _old_table from every row
    k = _KINDS[kind]
    header = ["i", "zero_count", "one_count", "ratio"]
    for n in [*range(2 if kind == "lucas" else 1, 301), 3000, 10000]:
        counts = [(cube.weight_count(n, i, 0, k), cube.weight_count(n, i, 1, k)) for i in range(1, n + 1)]
        cells = [(str(i), str(w0), str(w1), to_decimal(w0, w1)) for i, (w0, w1) in enumerate(counts, 1)]
        mean = cube.weight_ratio_average_decimal(n, k)
        for digits in (1, 2, 12, 50):
            rows = [[i, w0, w1, format_significant(ratio, digits)] for i, w0, w1, ratio in cells]
            rows.append(["avg", "", "", format_significant(mean, digits)])
            code, out = capture(capsys, ["weights", "--kind", kind, "--n", str(n), "--digits", str(digits)])
            assert code == 0
            assert out == _old_table(header, rows, "text"), (n, digits)


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("digits", [12, 50])
@pytest.mark.parametrize(
    "family, k, step",
    [("fib", 1, None), ("lucas", 2, None), ("fib", 3, 1), ("lucas", 300, None), ("fib", 1000, 7),
     ("fib", 20000, None), ("lucas", 20000, None), ("lucas", 20000, 20000), ("lucas", 2000, 1)],
)
def test_density_matches_the_int_rendering(capsys, fmt, digits, family, k, step):
    fam = {"fib": density.FIBONACCI_CUBES, "lucas": density.LUCAS_CUBES}[family]
    stride = step or max(1, k // 200)
    rows = []
    for j in range(k - (k - fam.first_index) // stride * stride, k + 1, stride):
        nv, ne = fam.counts(j)
        rows.append([str(j), str(nv), str(ne), format_significant(density.rho((nv, ne)), digits)])
    argv = ["density", "--family", family, "--k", str(k), "--format", fmt, "--digits", str(digits)]
    code, out = capture(capsys, argv + (["--step", str(step)] if step else []))
    assert code == 0
    assert out == _old_table(["k", "vertices", "edges", "rho"], rows, fmt)


@pytest.mark.parametrize(
    "family, base_n, k, step",
    [("fib", None, 1, None), ("fib", None, 2, None), ("fib", None, 171, None), ("fib", None, 20000, 100),
     ("lucas", None, 2, None), ("lucas", None, 171, None), ("lucas", None, 20000, 100),
     ("cycles", None, 2, None), ("cycles", None, 2**19, None), ("cycles", None, 2**19 + 1, None),
     ("cycles", None, 10**12, 5 * 10**9), ("skk", None, 10**6, 5000),
     ("power", 1, 1000, 5), ("power", 2, 1000, 5), ("power", 20, 1000, 5)],
)
def test_density_widths_from_the_last_row_match_the_widest_cells(capsys, family, base_n, k, step):
    # the text takes its widths from the last row alone; _old_table from every row. Cycles cross rho = 0.1
    # at k = 2**19, and the first row of fib and cycles, and every row of powers of Q_1, has rho = 1
    fib = _KINDS["fib"]
    fam = (density.power_family(cube.vertex_count(base_n, fib), cube.edge_count(base_n, fib)) if base_n
           else getattr(density, cli._DENSITY_FAMILIES[family][0]))
    stride = step or max(1, k // 200)
    cells = []
    for j in range(k - (k - fam.first_index) // stride * stride, k + 1, stride):
        nv, ne = fam.counts(j)
        cells.append((str(j), str(nv), str(ne), density.rho((nv, ne))))
    argv = ["density", "--family", family, "--k", str(k), "--step", str(stride)]
    for digits in (1, 2, 12, 50):
        rows = [[j, nv, ne, format_significant(r, digits)] for j, nv, ne, r in cells]
        code, out = capture(capsys, argv + (["--base-n", str(base_n)] if base_n else []) + ["--digits", str(digits)])
        assert code == 0
        assert out == _old_table(["k", "vertices", "edges", "rho"], rows, "text"), digits


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_weights_sweeps_once_per_table_pass(capsys, monkeypatch, fmt):
    calls = []
    sweep = cube.weight_rows
    monkeypatch.setattr(cube, "weight_rows", lambda n, kind: calls.append(n) or sweep(n, kind))
    # the text takes its widths from the first two rows of the one sweep, which also sums the mean
    code, _ = capture(capsys, ["weights", "--kind", "fib", "--n", "9", "--format", fmt])
    assert code == 0
    assert calls == [9]


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("n_max", [1, 14, 3500, 20000])
def test_ecc_table_sweeps_once_and_walks_back_a_few_rows(capsys, monkeypatch, fmt, n_max):
    calls, walked = [], []
    rows = cube.ecc_rows

    def sweep_or_walk(ns, kind):
        # the forward sweep yields no row here, so only its calls and the walk's rows are counted;
        # the sweep has all n_max rows, and at n_max = 1, where a walk's one-row range is as long, comes first
        if len(ns) == n_max and (n_max > 1 or not calls):
            return calls.append(ns) or iter(())
        return (walked.append(r[0]) or r for r in rows(ns, kind))

    monkeypatch.setattr(cube, "ecc_rows", sweep_or_walk)
    code, _ = capture(capsys, ["ecc-table", "--kind", "fib", "--n-max", str(n_max), "--format", fmt])
    assert code == 0
    assert calls == [range(1, n_max + 1)]
    assert walked == list(range(n_max, n_max - len(walked), -1))
    assert 1 <= len(walked) <= 50 if fmt == "text" else walked == []


ALL_COMMANDS = [
    ["enumerate", "--kind", "fib", "--n", "3"],
    ["ecc-table", "--kind", "fib", "--n-max", "3"],
    ["ecc-hist", "--kind", "fib", "--n", "3"],
    ["weights", "--kind", "fib", "--n", "3"],
    ["tree-check", "--n", "3"],
    ["tree-print", "--n", "3"],
    ["density", "--family", "fib", "--k", "10"],
    ["limits"],
]


def test_streamed_tables_reject_bad_digits_before_writing(capsys):
    # every Decimal carries DIGITS = 50 significant digits; more would print padding
    for argv in ALL_COMMANDS:
        if argv[0] not in ("ecc-table", "weights", "density", "limits"):  # no decimal printed, no --digits
            assert run([*argv, "--digits", "12", "--format", "csv"]) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --digits 12" in captured.err
            continue
        for digits in ("0", "51", "1000000"):
            assert run([*argv, "--digits", digits, "--format", "csv"]) == 1, (argv, digits)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--digits" in captured.err and "1..50" in captured.err
        assert run([*argv, "--digits", "50", "--format", "csv"]) == 0, argv
        assert capsys.readouterr().out


def test_limits_at_fifty_digits(capsys):
    code, out = capture(capsys, ["limits", "--format", "csv", "--digits", "50"])
    assert code == 0
    limit = dict(line.split(",")[:2] for line in out.splitlines()[1:])["avg-ecc-over-n-fib"]
    assert len(Decimal(limit).as_tuple().digits) == 50
    with localcontext(decimal_context()):
        assert Decimal(limit) == (5 + Decimal(5).sqrt()) / 10


def test_density_row_bound_rejected_before_any_work(capsys, monkeypatch):
    sampled = []
    table = density.rho_limit
    monkeypatch.setattr(density, "rho_limit", lambda fam, k, step: sampled.append((k, step)) or table(fam, k, step))
    # cycles start at k = 2: 40001 with step 2 samples 20000 rows, 40003 one more
    for argv in (
        ["density", "--family", "cycles", "--k", "40003", "--step", "2"],
        ["density", "--family", "cycles", "--k", "1000000", "--step", "1"],
        ["density", "--family", "cycles", "--k", str(10**12), "--step", "1"],
    ):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 20000 rows" in captured.err
    assert sampled == []
    assert run(["density", "--family", "cycles", "--k", "40001", "--step", "2"]) == 0
    assert run(["density", "--family", "fib", "--k", "20000", "--step", "1"]) == 0
    # each table, then the one-row table at k that bounds its text widths
    assert sampled == [(40001, 2), (40001, 40001), (20000, 1), (20000, 20000)]


def test_ecc_table_csv_golden(capsys):
    code, out = capture(
        capsys, ["ecc-table", "--kind", "fib", "--n-max", "6", "--verify", "--format", "csv"]
    )
    assert code == 0
    assert out == (
        "n,vertices,edges,ecc_sum,avg_ecc,avg_ecc_over_n\n"
        "1,2,1,2,1,1.00000000000\n"
        "2,3,2,5,5/3,0.833333333333\n"
        "3,5,5,12,12/5,0.800000000000\n"
        "4,8,10,25,25/8,0.781250000000\n"
        "5,13,20,50,50/13,0.769230769231\n"
        "6,21,38,96,32/7,0.761904761905\n"
    )


def test_ecc_table_reports_known_sequence(capsys):
    code, out = capture(capsys, ["ecc-table", "--kind", "fib", "--n-max", "6", "--format", "csv"])
    sums = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    assert sums == ["2", "5", "12", "25", "50", "96"]


def test_ecc_table_lucas_verify(capsys):
    code, out = capture(
        capsys, ["ecc-table", "--kind", "lucas", "--n-max", "8", "--verify", "--format", "csv"]
    )
    assert code == 0
    sums = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
    assert sums == ["0", "5", "7", "22", "37", "81", "143", "276"]


def test_ecc_table_verify_checks_vertex_counts(capsys, monkeypatch):
    monkeypatch.setattr(cube.CubeGraph, "num_vertices", property(lambda g: len(g._bits) + 1))
    assert run(["ecc-table", "--kind", "fib", "--n-max", "3", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "consistency failure at n=1: counts brute=(3, 1) sweep=(2, 1)\n"


@pytest.mark.parametrize("kind, verified", [("fib", ["bfs", "gf", "hamming", "fast"]), ("lucas", ["bfs", "gf", "hamming"])])
def test_ecc_hist_computes_each_route_once(capsys, monkeypatch, kind, verified):
    log = []
    graph, histograms, histogram = cube.CubeGraph, series._histograms, cube.CubeGraph.ecc_histogram
    monkeypatch.setattr(cube, "CubeGraph", lambda k, n: log.append("graph") or graph(k, n))
    monkeypatch.setattr(series, "_histograms", lambda n, k: log.append("gf") or histograms(n, k))
    monkeypatch.setattr(graph, "ecc_histogram", lambda g, method: log.append(method) or histogram(g, method))
    for options, expected in [
        (["--method", "bfs", "--verify"], ["graph", *verified]),
        (["--method", "gf", "--verify"], ["graph", *verified]),
        (["--method", "bfs"], ["graph", "bfs"]),
        (["--method", "gf"], ["gf"]),
    ]:
        log.clear()
        assert run(["ecc-hist", "--kind", kind, "--n", "6", *options]) == 0
        assert log == expected, options
    capsys.readouterr()


def test_ecc_hist_methods_agree(capsys):
    expected = "k,count\n2,3\n3,2\n"
    for method in ("bfs", "gf", "fast"):
        code, out = capture(
            capsys,
            ["ecc-hist", "--kind", "fib", "--n", "3", "--method", method, "--format", "csv"],
        )
        assert code == 0
        assert out == expected


def test_ecc_hist_verify_paths(capsys):
    code, _ = capture(capsys, ["ecc-hist", "--kind", "lucas", "--n", "4", "--method", "gf", "--verify"])
    assert code == 0
    code, _ = capture(capsys, ["ecc-hist", "--kind", "lucas", "--n", "1", "--method", "bfs", "--verify"])
    assert code == 0  # the single-vertex cube: BFS and the series both give {0: 1}


def test_ecc_hist_gf_cap(capsys):
    from fibcube.cli import _ECC_HIST_CAPS, _KINDS

    cap = _ECC_HIST_CAPS["gf"]
    for kind in ("fib", "lucas"):
        code, out = capture(capsys, ["ecc-hist", "--kind", kind, "--n", str(cap), "--method", "gf", "--format", "csv"])
        assert code == 0
        rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[1:]]
        assert sum(c for _, c in rows) == cube.vertex_count(cap, _KINDS[kind])
        assert sum(k * c for k, c in rows) == cube.ecc_sum_closed(cap, _KINDS[kind])
        assert run(["ecc-hist", "--kind", kind, "--n", str(cap + 1), "--method", "gf"]) == 1
        assert capsys.readouterr().err == f"error: --n must be <= {cap} with --method gf\n"
    # the enumerating routes keep their caps
    assert run(["ecc-hist", "--kind", "fib", "--n", "31", "--method", "fast"]) == 1
    assert run(["ecc-hist", "--kind", "fib", "--n", "17", "--method", "bfs"]) == 1
    assert run(["ecc-hist", "--kind", "fib", "--n", "17", "--method", "gf", "--verify"]) == 1
    capsys.readouterr()


def test_fast_route_at_its_cap_matches_the_series(capsys):
    # two independent routes, compared far above --verify's cap; a child holds the 2,178,309 vertices
    cap = cli._ECC_HIST_CAPS["fast"]
    argv = ["ecc-hist", "--kind", "fib", "--n", str(cap)]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fast = subprocess.run(
        [sys.executable, "-m", "fibcube.cli", *argv, "--method", "fast"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (fast.returncode, fast.stderr) == (0, "")
    assert fast.stdout == capture(capsys, [*argv, "--method", "gf"])[1]


def test_ecc_hist_verify_builds_one_graph(capsys, monkeypatch):
    built = []

    class CountingGraph(cube.CubeGraph):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cube, "CubeGraph", CountingGraph)
    assert run(["ecc-hist", "--kind", "fib", "--n", "5", "--method", "gf"]) == 0
    assert built == []
    assert run(["ecc-hist", "--kind", "fib", "--n", "5", "--method", "gf", "--verify"]) == 0
    assert len(built) == 1  # shared by bfs, hamming and fast
    capsys.readouterr()


def test_density_power_verify_folds_one_stride_a_row(capsys, monkeypatch):
    made = []
    fold = density._fold
    monkeypatch.setattr(density, "_fold", lambda labels, g: made.append(len(labels)) or fold(labels, g))
    monkeypatch.setattr(density, "cartesian_product", lambda g, h: pytest.fail("built a product graph"))
    # rows k = 1..5 of 5**k vertices are checked: the first folds once from the empty label, then one fold a row
    assert run(["density", "--family", "power", "--base-n", "3", "--k", "6", "--verify"]) == 0
    assert made == [1, 5, 25, 125, 625]
    assert capsys.readouterr().err == "checked 5 of 6 rows; skipped 1 above 5000 vertices\n"


@pytest.mark.parametrize("base_n, k", [(1, 12), (3, 6)])
def test_density_power_verify_holds_no_product_graph(capsys, base_n, k):
    # the rows' labels and their set, a few hundred KB; the product graphs took 2.5 MB and more
    tracemalloc.start()
    try:
        assert run(["density", "--family", "power", "--base-n", str(base_n), "--k", str(k), "--verify"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    capsys.readouterr()


def test_density_power_verify_builds_its_graphs_without_the_check(capsys, monkeypatch):
    # the base cube is valid by construction and the rows build no graph, so none enters ExplicitGraph.__new__
    def refuse(cls, *fields):
        raise AssertionError("a graph the package built was checked again")

    monkeypatch.setattr(density.ExplicitGraph, "__new__", refuse)
    assert run(["density", "--family", "power", "--base-n", "3", "--k", "6", "--verify"]) == 0
    assert capsys.readouterr().err == "checked 5 of 6 rows; skipped 1 above 5000 vertices\n"


def test_density_power_verify_at_a_step_checks_every_power(capsys, monkeypatch):
    rows = []
    counts = density.power_counts_brute
    monkeypatch.setattr(density, "power_counts_brute", lambda g, ks: (rows.append(c) or c for c in counts(g, ks)))
    assert run(["density", "--family", "power", "--base-n", "2", "--k", "9", "--step", "2", "--verify"]) == 0
    assert capsys.readouterr().err == "checked 4 of 5 rows; skipped 1 above 5000 vertices\n"
    base = density.ExplicitGraph.from_cube(cube.CubeGraph(words.WordClass.FIBONACCI, 2))
    # each checked row k = 1, 3, 5, 7 is counted, as cartesian_power builds it, and none above
    assert rows == [(g.num_vertices, g.num_edges) for g in (density.cartesian_power(base, k) for k in (1, 3, 5, 7))]
    # a fold that loses a label whenever it folds more than the empty label is caught at the first row it breaks
    fold = density._fold
    monkeypatch.setattr(density, "_fold", lambda labels, g: fold(labels, g)[: -1 if len(labels) > 1 else None])
    assert run(["density", "--family", "power", "--base-n", "2", "--k", "9", "--step", "2", "--verify"]) == 2
    assert capsys.readouterr().err.splitlines()[1] == (
        "consistency failure at k=3: counts closed=(27, 54) brute=(23, 43)"
    )


def test_disagreeing_routes_are_reported(capsys, monkeypatch):
    _agree("n=3", "edges", brute=7, closed=7)
    assert capsys.readouterr().err == ""
    with pytest.raises(cli._Inconsistent, match=r"^consistency failure at n=3: edges brute=7 closed=8 gf=7$"):
        _agree("n=3", "edges", brute=7, closed=8, gf=7)
    # ecc-hist --verify lists every route, the Hamming route included
    monkeypatch.setattr(cube, "_farthest_word_distances", lambda n, kind: [0] * cube.vertex_count(n, kind))
    assert run(["ecc-hist", "--kind", "lucas", "--n", "4", "--verify"]) == 2
    assert capsys.readouterr().err == (
        "consistency failure at n=4: histogram "
        "bfs={2: 1, 3: 4, 4: 2} gf={2: 1, 3: 4, 4: 2} hamming={0: 7}\n"
    )
    # density --verify prints a cube family's Decimal counts as ints
    brute_edges = cube.CubeGraph.edge_count_brute
    monkeypatch.setattr(cube.CubeGraph, "edge_count_brute", lambda g: brute_edges(g) + 1)
    assert run(["density", "--family", "fib", "--k", "3", "--verify"]) == 2
    assert capsys.readouterr().err == (
        "checked 3 of 3 rows; skipped 0 above 5000 vertices\n"
        "consistency failure at k=1: counts closed=(2, 1) brute=(2, 2)\n"
    )


def test_weights_golden(capsys):
    code, out = capture(capsys, ["weights", "--kind", "fib", "--n", "3", "--format", "csv"])
    assert code == 0
    assert out == (
        "i,zero_count,one_count,ratio\n"
        "1,3,2,1.50000000000\n"
        "2,4,1,4.00000000000\n"
        "3,3,2,1.50000000000\n"
        "avg,,,2.33333333333\n"
    )


def test_weights_digits_flag(capsys):
    code, out = capture(capsys, ["weights", "--kind", "fib", "--n", "2", "--digits", "6"])
    assert code == 0
    assert "2.00000" in out
    assert "2.0000000" not in out


def test_weights_verify(capsys):
    code, _ = capture(capsys, ["weights", "--kind", "lucas", "--n", "6", "--verify"])
    assert code == 0


def test_tree_check_pass(capsys):
    code, out = capture(capsys, ["tree-check", "--n", "12"])
    assert code == 0
    assert out == "PASS 377 leaves\n"
    code, out = capture(capsys, ["tree-check", "--n", "12", "--format", "csv"])
    assert code == 0
    assert out == "status,leaves,label,depth,eccentricity\nPASS,377,,,\n"


def test_tree_check_standard_fails_at_01(capsys):
    code, out = capture(capsys, ["tree-check", "--n", "2", "--labeling", "standard"])
    assert code == 2
    assert out == "FAIL at label 01: depth 1, eccentricity 2\n"
    code, out = capture(
        capsys, ["tree-check", "--n", "2", "--labeling", "standard", "--format", "csv"]
    )
    assert code == 2
    assert out == "status,leaves,label,depth,eccentricity\nFAIL,3,01,1,2\n"


def test_tree_print_golden(capsys):
    code, out = capture(capsys, ["tree-print", "--n", "4"])
    assert code == 0
    assert out == "      3 101\n      3 010\n    2 001\n    2 100\n    2 000\n"


def test_density_skk_golden(capsys):
    code, out = capture(capsys, ["density", "--family", "skk", "--k", "6", "--format", "csv"])
    assert code == 0
    assert out == (
        "k,vertices,edges,rho\n"
        "2,3,2,0.841239671429\n"
        "3,6,6,0.773705614469\n"
        "4,10,12,0.722471989594\n"
        "5,15,20,0.682554732826\n"
        "6,21,30,0.650486424848\n"
    )


def test_density_fib_large_scale(capsys):
    code, out = capture(capsys, ["density", "--family", "fib", "--k", "10000", "--format", "csv"])
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert last[0] == "10000"
    assert abs(Decimal(last[3]) - Decimal("0.796244642749")) < Decimal("1e-3")


def test_density_power_verify(capsys):
    code, out = capture(
        capsys,
        ["density", "--family", "power", "--base-n", "3", "--k", "5", "--verify", "--format", "csv"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert rows[4][1] == str(5**5)
    first = Decimal(rows[0][3])
    assert all(abs(Decimal(r[3]) - first) < Decimal("1e-11") for r in rows)


def test_density_verify_reports_rows_checked(capsys):
    argv = ["density", "--family", "power", "--base-n", "3", "--k", "6"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + ["--verify"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    assert captured.err == "checked 5 of 6 rows; skipped 1 above 5000 vertices\n"


def test_density_verify_with_no_checkable_row_is_a_usage_error(capsys):
    for argv in (
        ["density", "--family", "fib", "--k", "20000", "--verify"],
        ["density", "--family", "power", "--base-n", "10", "--k", "1000", "--verify"],
    ):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("checked 0 of 200 rows; skipped 200 above "), argv
        assert "error: --verify found no row" in captured.err


def test_density_verify_refuses_before_building_a_graph(capsys, monkeypatch):
    def no_graph(*args):
        raise AssertionError("graph built")

    # the base cube of dimension 20 has 17711 vertices: no row is small enough to check
    monkeypatch.setattr(cube, "CubeGraph", no_graph)
    assert run(["density", "--family", "power", "--base-n", "20", "--k", "1", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "checked 0 of 1 rows; skipped 1 above 5000 vertices\n"
        "error: --verify found no row at or below 5000 vertices to check\n"
    )


@pytest.mark.parametrize("family, rows", [("fib", 17), ("lucas", 16)])
def test_density_verify_checks_every_cube_of_at_most_5000_vertices(capsys, monkeypatch, family, rows):
    # one vertex limit for every family: F(19) = 4181 and L(17) = 3571 vertices at dimension 17,
    # F(20) = 6765 and L(18) = 5778 at dimension 18
    built = []
    graph = cube.CubeGraph
    monkeypatch.setattr(cube, "CubeGraph", lambda kind, n: built.append(n) or graph(kind, n))
    assert run(["density", "--family", family, "--k", "17", "--step", "1", "--verify"]) == 0
    assert capsys.readouterr().err == f"checked {rows} of {rows} rows; skipped 0 above 5000 vertices\n"
    assert built == list(range(18 - rows, 18))
    assert run(["density", "--family", family, "--k", "18", "--step", "1", "--verify"]) == 0
    assert capsys.readouterr().err == f"checked {rows} of {rows + 1} rows; skipped 1 above 5000 vertices\n"


def test_density_verify_refuses_before_building_the_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(density, "rho_limit", no_table)
    for argv, err in (
        (["density", "--family", "power", "--base-n", "20", "--k", "1000", "--step", "1", "--verify"],
         "checked 0 of 1000 rows; skipped 1000 above 5000 vertices\n"
         "error: --verify found no row at or below 5000 vertices to check\n"),
        (["density", "--family", "lucas", "--k", "20000", "--step", "1000", "--verify"],
         "checked 0 of 20 rows; skipped 20 above 5000 vertices\n"
         "error: --verify found no row at or below 5000 vertices to check\n"),
    ):
        assert run(argv) == 1, argv
        assert capsys.readouterr() == ("", err)


def test_density_cycles_and_verify_rejection(capsys):
    code, out = capture(capsys, ["density", "--family", "cycles", "--k", "4", "--step", "1", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "2,4,4,1.00000000000"
    # rho just under 0.1 rounds up to one digit, not to "0.10"
    argv = ["density", "--family", "cycles", "--k", "800000", "--step", "400000", "--digits", "1"]
    code, out = capture(capsys, argv)
    assert code == 0
    assert [line.split()[-1] for line in out.splitlines()[1:]] == ["0.1", "0.1"]
    code, _ = capture(capsys, ["density", "--family", "cycles", "--k", "4", "--verify"])
    assert code == 1


def test_limits_values_within_tolerances(capsys):
    code, out = capture(capsys, ["limits", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,limit,value,abs_error"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {
        "avg-ecc-over-n-fib",
        "avg-ecc-over-n-lucas",
        "avg-deg-over-n-fib",
        "avg-deg-over-n-lucas",
        "weight-ratio-fib",
        "weight-ratio-lucas",
        "rho-fib",
        "rho-lucas",
    }
    tolerances = {
        "avg-ecc-over-n-fib": "0.005",
        "avg-ecc-over-n-lucas": "0.005",
        "avg-deg-over-n-fib": "0.005",
        "avg-deg-over-n-lucas": "0.005",
        "weight-ratio-fib": "0.01",
        "weight-ratio-lucas": "1e-10",
        "rho-fib": "0.001",
        "rho-lucas": "0.001",
    }
    for name, tol in tolerances.items():
        assert Decimal(rows[name][3]) < Decimal(tol), name


def test_limits_print_the_rows_density_and_ecc_table_print(capsys):
    # limits reads rho and avg_ecc_over_n off the sweeps of density and ecc-table, not a second route
    _, out = capture(capsys, ["limits", "--digits", "50"])
    values = {line.split()[0]: line.split()[2] for line in out.splitlines()[1:]}
    for kind in ("fib", "lucas"):
        _, out = capture(capsys, ["density", "--family", kind, "--k", "10000", "--step", "10000", "--digits", "50"])
        (row,) = out.splitlines()[1:]
        assert row.split()[:3] == ["10000", str(cube.vertex_count(10000, _KINDS[kind])),
                                   str(cube.edge_count(10000, _KINDS[kind]))]
        assert values[f"rho-{kind}"] == row.split()[3]
        _, out = capture(capsys, ["ecc-table", "--kind", kind, "--n-max", "1000", "--digits", "50"])
        last = out.splitlines()[-1].split()
        assert last[0] == "1000"
        assert values[f"avg-ecc-over-n-{kind}"] == last[-1]


# (argv, the error line); every range on an argument is checked as it is parsed
RANGE_ERRORS = [
    (["limits", "--digits", "0"], "argument --digits: must lie in 1..50"),
    (["limits", "--digits", "51"], "argument --digits: must lie in 1..50"),
    (["ecc-table", "--kind", "fib", "--n-max", "0"], "argument --n-max: must lie in 1..20000"),
    (["ecc-table", "--kind", "fib", "--n-max", "20001"], "argument --n-max: must lie in 1..20000"),
    (["weights", "--kind", "fib", "--n", "0"], "argument --n: must lie in 1..10000"),
    (["weights", "--kind", "fib", "--n", "10001"], "argument --n: must lie in 1..10000"),
    (["tree-check", "--n", "17"], "argument --n: must lie in 1..16"),
    (["tree-print", "--n", "21"], "argument --n: must lie in 1..20"),
    (["enumerate", "--kind", "fib", "--n", "31"], "argument --n: must lie in 0..30"),
    (["ecc-hist", "--kind", "fib", "--n", "-1"], "argument --n: must be >= 0"),
    (["density", "--family", "fib", "--k", "0"], "argument --k: must be >= 1"),
    (["density", "--family", "cycles", "--k", "9", "--step", "0"], "argument --step: must be >= 1"),
    (["density", "--family", "power", "--k", "3", "--base-n", "21"], "argument --base-n: must lie in 1..20"),
    (["ecc-table", "--kind", "fib", "--n-max", "x"], "argument --n-max: invalid int value: 'x'"),
    (["limits", "--digits", "1.5"], "argument --digits: invalid int value: '1.5'"),
    # caps that depend on another argument are checked by the handler
    (["enumerate", "--kind", "hyper", "--n", "21"], "--n must lie in 0..20 for kind hyper"),
    (["ecc-hist", "--kind", "fib", "--n", "17", "--method", "bfs"], "--n must be <= 16 with --method bfs"),
    (["ecc-hist", "--kind", "fib", "--n", "31", "--method", "fast"], "--n must be <= 30 with --method fast"),
    (["ecc-hist", "--kind", "lucas", "--n", "501", "--method", "gf"], "--n must be <= 500 with --method gf"),
    (["ecc-hist", "--kind", "fib", "--n", "17", "--method", "gf", "--verify"], "--n must be <= 16 with --verify"),
    (["density", "--family", "fib", "--k", "20001"], "--k must be <= 20000 for family fib"),
    (["ecc-table", "--kind", "fib", "--n-max", "17", "--verify"], "--n-max must be <= 16 with --verify"),
    (["weights", "--kind", "fib", "--n", "17", "--verify"], "--n must be <= 16 with --verify"),
    (["weights", "--kind", "lucas", "--n", "1"], "--n must be >= 2 for kind lucas"),
]


@pytest.mark.parametrize("argv, message", RANGE_ERRORS)
def test_out_of_range_arguments_exit_one_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args):
        raise AssertionError("work started")

    for owner, name in [(cube, "CubeGraph"), (cube, "ecc_rows"), (cube, "weight_rows"), (density, "rho_limit"),
                        (cli, "word_blocks"), (fibtree, "build"), (fibtree, "verify_depth_eccentricity"),
                        (series, "fibonacci_ecc_gf"), (series, "lucas_ecc_gf"), (series, "_histograms")]:
        monkeypatch.setattr(owner, name, no_work)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_usage_errors_exit_one(capsys):
    assert run(["ecc-table", "--kind", "fib", "--n-max", "0"]) == 1
    assert run(["ecc-table", "--kind", "hyper", "--n-max", "3"]) == 1
    assert run(["ecc-hist", "--kind", "lucas", "--n", "3", "--method", "fast"]) == 1
    assert run(["weights", "--kind", "lucas", "--n", "1"]) == 1
    assert run(["density", "--family", "power", "--k", "3"]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["ecc-table", "--kind", "fib", "--n-max", "17", "--verify"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["ecc-table", "--help"]) == 0
    capsys.readouterr()


DETERMINISM_COMMANDS = [
    ["ecc-table", "--kind", "fib", "--n-max", "10", "--format", "csv"],
    ["ecc-table", "--kind", "lucas", "--n-max", "10"],
    ["enumerate", "--kind", "fib", "--n", "8", "--format", "csv"],
    ["ecc-hist", "--kind", "fib", "--n", "9", "--method", "gf", "--format", "csv"],
    ["weights", "--kind", "lucas", "--n", "9", "--format", "csv"],
    ["tree-print", "--n", "9", "--labeling", "standard"],
    ["density", "--family", "lucas", "--k", "500", "--format", "csv"],
    ["limits", "--format", "csv"],
]


def test_repeated_runs_are_byte_identical(capsys):
    for argv in DETERMINISM_COMMANDS:
        hashes = []
        for _ in range(2):
            code, out = capture(capsys, argv)
            assert code == 0
            hashes.append(hashlib.sha256(out.encode()).hexdigest())
        assert hashes[0] == hashes[1], argv


# A fresh interpreter without site: runs one subcommand, if given, and lists every loaded module.
_MODULES_AFTER = """
import io, sys
from fibcube import cli
if sys.argv[1:]:
    stdout, sys.stdout = sys.stdout, io.StringIO()
    assert cli.run(sys.argv[1:]) == 0
    sys.stdout = stdout
print(*sorted(sys.modules))
"""


@pytest.mark.parametrize(
    "command, runs",
    [
        ("", ""),  # the import alone
        ("enumerate --kind lucas --n 5", ""),
        ("tree-print --n 6", "fibtree"),
        ("tree-check --n 5", "fibtree cube"),
        ("ecc-hist --kind fib --n 6 --method fast", "cube"),
        ("ecc-hist --kind lucas --n 6 --method gf", "series"),
        ("ecc-table --kind fib --n-max 6", "cube"),
        ("ecc-table --kind fib --n-max 6 --verify", "cube series"),
        ("weights --kind fib --n 5 --verify", "cube"),
        ("density --family fib --k 10", "cube density"),
        ("limits", "cube"),
    ],
)
def test_each_subcommand_imports_only_the_modules_it_runs(command, runs):
    # a child pays at start-up for every module it imports, used or not
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_AFTER, *command.split()],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect"}
    package = {m for m in loaded if m == "fibcube" or m.startswith("fibcube.")}
    always = {"fibcube", "fibcube.cli", "fibcube.numeric", "fibcube.words"}
    assert package == always | {f"fibcube.{m}" for m in runs.split()}


def test_subprocess_runs_are_byte_identical():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "fibcube.cli", "limits", "--format", "csv"]
    first = subprocess.run(argv, capture_output=True, env=env, check=True)
    second = subprocess.run(argv, capture_output=True, env=env, check=True)
    assert first.stdout == second.stdout
    assert hashlib.sha256(first.stdout).hexdigest() == hashlib.sha256(second.stdout).hexdigest()


def test_format_significant():
    assert format_significant(Decimal(1), 12) == "1.00000000000"
    assert format_significant(Decimal("0.5"), 3) == "0.500"
    assert format_significant(Decimal(0), 12) == "0"
    assert format_significant(Decimal("12345.678"), 4) == "1.235E+4"
    # rounding that carries into a new digit keeps the digit count
    assert format_significant(Decimal("9.996"), 2) == "10"
    assert format_significant(Decimal("0.96"), 1) == "1"
    assert format_significant(Decimal("0.0999"), 1) == "0.1"
    assert format_significant(Decimal("99.5"), 2) == "1.0E+2"
    assert format_significant(Decimal("99999"), 2) == "1.0E+5"


@settings(max_examples=300, deadline=None)
@given(
    st.decimals(allow_nan=False, allow_infinity=False, min_value=Decimal("-1e30"), max_value=Decimal("1e30"), places=8),
    st.integers(1, DIGITS),
)
def test_format_significant_keeps_the_digit_count_and_the_value(value, digits):
    text = format_significant(value, digits)
    if value == 0:
        assert text == "0"
        return
    shown = Decimal(text)
    assert len(shown.as_tuple().digits) == digits
    # correctly rounded: within half a unit in the last shown place
    assert abs(shown - value) <= Decimal((0, (5,), shown.as_tuple().exponent - 1))
