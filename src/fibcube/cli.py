"""Command-line front end: reproducible tables for every invariant.

Identical arguments always produce byte-identical output. Exit codes:
0 on success, 1 on a usage or range error, 2 when a requested
cross-check finds an inconsistency, 141 when the reader closes stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from decimal import Context, Decimal, localcontext
from typing import Callable, Iterable, Iterator, Sequence

from .numeric import _CTX, _LN2, DIGITS, golden_ratio, sqrt5, to_decimal
from .words import WordClass, word_blocks

_KINDS = {"fib": WordClass.FIBONACCI, "lucas": WordClass.LUCAS, "hyper": WordClass.UNRESTRICTED}

# brute-force cross-checks enumerate every vertex, so they are capped
_VERIFY_MAX_N = 16
# density --verify enumerates each row's vertices, so it checks rows of at most this many (cubes to n = 17)
_VERIFY_MAX_VERTICES = 5000
# ecc-hist routes, in the order --verify compares them, and each one's cap on --n;
# at its cap fast takes ~0.25 s and 30 MB, gf ~0.2 s and 24 MB for --kind lucas
_ECC_HIST_CAPS = {"bfs": _VERIFY_MAX_N, "gf": 500, "hamming": _VERIFY_MAX_N, "fast": 30}
# density rows at most; the fib/lucas --k cap, so --step 1 stays valid there
_DENSITY_MAX_ROWS = 20000


class _UsageError(Exception):
    pass


class _Inconsistent(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def format_significant(value: Decimal, digits: int) -> str:
    """Render with exactly ``digits`` significant digits: rounded once, then padded with zeros."""
    ctx = _significant(digits)
    d = ctx.plus(Decimal(value))
    if d == 0:
        return "0"
    return str(d.quantize(Decimal((0, (1,), d.adjusted() - digits + 1)), context=ctx))


@functools.cache
def _significant(digits: int) -> Context:
    return Context(prec=digits)


def _agree(at: str, what: str, **routes) -> None:
    """Raise _Inconsistent, naming every route's value, unless all routes gave the same one."""
    first, *rest = routes.values()
    if not all(v == first for v in rest):
        found = " ".join(f"{route}={v}" for route, v in routes.items())
        raise _Inconsistent(f"consistency failure at {at}: {what} {found}")


def _emit(lines: Iterable[str]) -> None:
    sys.stdout.writelines(line + "\n" for line in lines)


def _cell_width(cell) -> int:
    # an exact integer Decimal d has d.adjusted() + 1 digits
    return len(cell) if isinstance(cell, str) else cell.adjusted() + 1


def _table(
    header: list[str], rows: Iterable[list], fmt: str, bound: Iterable[list], left: frozenset[int] = frozenset()
) -> Iterator[str]:
    """The lines of a table, streamed. A cell is text or an exact integer Decimal, rendered by str. Text pads
    each column to its widest cell in the header and ``bound``, rows as wide as any row; csv reads no bound."""
    if fmt == "csv":
        return itertools.chain([",".join(header)], (",".join(map(str, r)) for r in rows))
    widths = list(map(len, header))
    for r in bound:
        widths = list(map(max, widths, map(_cell_width, r)))
    return (
        "  ".join(
            cell.ljust(w) if c in left else cell.rjust(w) for c, (cell, w) in enumerate(zip(map(str, r), widths))
        ).rstrip()
        for r in itertools.chain([header], rows)
    )


def _cmd_enumerate(args) -> int:
    kind = _KINDS[args.kind]
    if kind is WordClass.UNRESTRICTED and args.n > 20:
        raise _UsageError("--n must lie in 0..20 for kind hyper")
    k, suffix_lists, blocks = word_blocks(args.n, kind)
    m = args.n - k
    # each suffix list is rendered once; k = 0 only for the empty word
    empty = "" if args.format == "csv" else "ε"
    texts = [[format(s, f"0{k}b") for s in ss] if k else [empty] for ss in suffix_lists]
    prefixes = ((format(p, f"0{m}b") if m else "", j) for p, j in blocks)
    lines = (pre + ("\n" + pre).join(texts[j]) for pre, j in prefixes)
    _emit(itertools.chain(["word"], lines) if args.format == "csv" else lines)
    return 0


def _cmd_ecc_table(args) -> int:
    from . import cube

    kind, dims = _KINDS[args.kind], range(1, args.n_max + 1)
    if args.verify and args.n_max > _VERIFY_MAX_N:
        raise _UsageError(f"--n-max must be <= {_VERIFY_MAX_N} with --verify")
    if args.verify:
        from . import series

        gf_sums = series.ecc_sum_from_gf(args.n_max, kind)
        for n, nv, ne, es, _, _ in cube.ecc_rows(dims, kind):
            g = cube.CubeGraph(kind, n)
            brute_sum = sum(g.eccentricities("bfs"))
            _agree(f"n={n}", "eccentricity sums", bfs=brute_sum, sweep=int(es), gf=gf_sums[n])
            _agree(f"n={n}", "counts", brute=(g.num_vertices, g.edge_count_brute()), sweep=(int(nv), int(ne)))

    def cells(row):  # p/q is ecc_sum/vertices itself when g = 1, so their text is reused
        n, nv, ne, es, (p, q), over_n = row
        es_text, nv_text = str(es), str(nv)
        pq = (es_text, nv_text) if p is es else (str(p), str(q))
        avg = pq[0] if q == 1 else "/".join(pq)
        return [str(n), nv_text, str(ne), es_text, avg, format_significant(over_n, args.digits)]

    header = ["n", "vertices", "edges", "ecc_sum", "avg_ecc", "avg_ecc_over_n"]
    walk = (next(cube.ecc_rows(range(n, n + 1), kind)) for n in reversed(dims))  # one-row sweeps, for text only
    bound = _ecc_bound(header, map(cells, walk), args.digits)
    _emit(_table(header, map(cells, cube.ecc_rows(dims, kind)), args.format, bound))
    return 0


def _ecc_bound(header: list[str], rows_down: Iterable[list], digits: int) -> Iterator[list]:
    """The rows of ecc-table that bound its text widths: walked down from n_max until
    no row below can be wider. The n, vertices, edges and ecc_sum cells do not
    decrease in n, so the first row holds their widest. An avg_ecc cell p/q is
    at most U(n) = digits(ecc_sum) + 1 + digits(vertices) wide, and U does not
    decrease in n: once U(n) is at most the widest avg_ecc cell so far, no row
    below is wider. Every eccentricity lies between the radius (ceil(n/2) for
    Fibonacci, floor(n/2) for Lucas cubes) and n, so 1/3 <= avg_ecc/n <= 1 for
    n >= 2, and an avg_ecc_over_n cell is at most digits + 2 wide; at n = 1 it
    renders 1 or 0, at most digits + 1 wide.
    """
    avg, over_n = len(header[4]), len(header[5])
    for row in rows_down:
        yield row
        avg, over_n = max(avg, len(row[4])), max(over_n, len(row[5]))
        if len(row[3]) + 1 + len(row[1]) <= avg and over_n >= digits + 2:
            return


def _cmd_ecc_hist(args) -> int:
    kind = _KINDS[args.kind]
    n = args.n
    routes = [r for r in _ECC_HIST_CAPS if r != "fast" or kind is WordClass.FIBONACCI]
    if args.method not in routes:
        raise _UsageError("--method fast applies to --kind fib only")
    routes, option = (routes, "--verify") if args.verify else ([args.method], f"--method {args.method}")
    cap = min(_ECC_HIST_CAPS[r] for r in routes)
    if n > cap:
        raise _UsageError(f"--n must be <= {cap} with {option}")

    @functools.cache
    def graph():  # cube is imported only when a graph route runs
        from . import cube

        return cube.CubeGraph(kind, n)

    def gf():
        from . import series

        return series._histograms(n, kind)[n]

    hists = {r: gf() if r == "gf" else graph().ecc_histogram(r).counts for r in routes}
    _agree(f"n={n}", "histogram", **hists)
    rows = [[str(k), str(c)] for k, c in hists[args.method].items()]
    _emit(_table(["k", "count"], rows, args.format, rows))
    return 0


def _cmd_weights(args) -> int:
    from . import cube

    kind = _KINDS[args.kind]
    n = args.n
    if kind is WordClass.LUCAS and n == 1:
        raise _UsageError("--n must be >= 2 for kind lucas")
    if args.verify and n > _VERIFY_MAX_N:
        raise _UsageError(f"--n must be <= {_VERIFY_MAX_N} with --verify")
    if args.verify:
        for (i, zero, one, _), brute in zip(cube.weight_rows(n, kind), cube.weight_counts_brute(n, kind), strict=True):
            _agree(f"i={i}", "weight counts", sweep=(int(zero), int(one)), brute=brute)
    header = ["i", "zero_count", "one_count", "ratio"]

    def rows(sweep):
        for i, zero, one, total in sweep:
            yield [str(i), zero, one, format_significant(_CTX.divide(zero, one), args.digits)]
        yield ["avg", "", "", format_significant(_CTX.divide(total, n), args.digits)]

    table = rows(cube.weight_rows(n, kind))
    head = list(itertools.islice(table, 2))
    # The first two rows bound the text widths, and avg or n the i column. A Fibonacci zero count F(i+1)F(n-i+2)
    # is an F(a)F(b) with a + b = n + 3, a one count F(i)F(n-i+1) one with a + b = n + 1, and
    # F(a)F(b) = (L(a+b) - (-1)^c L(|a-b|))/5 for c = min(a, b). It is below L(a+b)/5 for even c, and for odd c
    # largest at the smallest c, where |a-b| is largest: row 2 for the zero counts (c = 3; at n = 2 both rows are
    # equal, at n = 1 there is one), row 1 for the one counts (c = 1). Lucas counts are the same in every row. A 1
    # turned to 0 leaves a word, so a ratio is at least 1, and F(k+1) <= 2F(k) keeps it at most 4: each ratio, and
    # their mean, renders as wide as the first.
    bound = [*head, ["avg", "", "", ""], [str(n), "", "", ""]]
    _emit(_table(header, itertools.chain(head, table), args.format, bound))
    return 0


def _cmd_tree_check(args) -> int:
    from . import fibtree

    labeling = fibtree.LabelingKind(args.labeling)
    check = fibtree.verify_depth_eccentricity(args.n, labeling)
    label, depth, ecc = check.counterexample or ("", "", "")
    if args.format == "csv":
        row = f"{'PASS' if check.ok else 'FAIL'},{check.leaf_count},{label!s},{depth},{ecc}"
        _emit(["status,leaves,label,depth,eccentricity", row])
    else:
        failure = f"FAIL at label {label!s}: depth {depth}, eccentricity {ecc}"
        _emit([f"PASS {check.leaf_count} leaves" if check.ok else failure])
    return 0 if check.ok else 2


def _cmd_tree_print(args) -> int:
    from . import fibtree

    tree, csv = fibtree.build(args.n, fibtree.LabelingKind(args.labeling)), args.format == "csv"
    # a thousand leaves per write, as enumerate writes one block of about a thousand words
    chunks = (tree.render(i, i + 1000, csv) for i in range(0, tree.leaf_count, 1000))
    _emit(itertools.chain(["depth,label"], chunks) if csv else chunks)
    return 0


# --family -> (its GraphFamily's name in density, or None for powers of the --base-n Fibonacci cube; cap on --k)
_DENSITY_FAMILIES = {
    "fib": ("FIBONACCI_CUBES", _DENSITY_MAX_ROWS),
    "lucas": ("LUCAS_CUBES", _DENSITY_MAX_ROWS),
    "skk": ("SUBDIVIDED_COMPLETE", 10**6),
    "cycles": ("EVEN_CYCLES", 10**12),
    "power": (None, 1000),
}


def _cmd_density(args) -> int:
    from . import cube, density

    name, cap = _DENSITY_FAMILIES[args.family]
    if args.k > cap:
        raise _UsageError(f"--k must be <= {cap} for family {args.family}")
    if name and args.base_n is not None:
        raise _UsageError("--base-n applies to --family power only")
    if not name and args.base_n is None:
        raise _UsageError("--family power needs --base-n")
    fib = WordClass.FIBONACCI
    family = getattr(density, name) if name else density.power_family(
        cube.vertex_count(args.base_n, fib), cube.edge_count(args.base_n, fib)
    )
    if args.k < family.first_index:
        raise _UsageError(f"--k must be >= {family.first_index} for family {args.family}")
    ks = density.sampled_indices(family, args.k, args.step if args.step is not None else max(1, args.k // 200))
    if len(ks) > _DENSITY_MAX_ROWS:
        raise _UsageError(f"--k and --step sample more than {_DENSITY_MAX_ROWS} rows; raise --step")
    if args.verify:
        if args.family not in ("fib", "lucas", "power"):
            raise _UsageError(f"--verify has no independent route for family {args.family}")
        # the families increase, so the checkable rows lead the table: count them before building a graph
        limit = f"{_VERIFY_MAX_VERTICES} vertices"
        checked = sum(1 for _ in itertools.takewhile(lambda k: family.counts(k)[0] <= _VERIFY_MAX_VERTICES, ks))
        print(f"checked {checked} of {len(ks)} rows; skipped {len(ks) - checked} above {limit}", file=sys.stderr)
        if not checked:
            raise _UsageError(f"--verify found no row at or below {limit} to check")
        if name:
            graphs = map(functools.partial(cube.CubeGraph, _KINDS[args.family]), ks)
            brute = ((g.num_vertices, g.edge_count_brute()) for g in graphs)
        else:  # a power of the induced base cube is induced on concatenated labels: count pairs one bit apart
            brute = density.power_counts_brute(density.ExplicitGraph.from_cube(cube.CubeGraph(fib, args.base_n)), ks)
    table = density.rho_limit(family, args.k, ks.step)
    if args.verify:
        head = list(itertools.islice(table, checked))
        for r, counts in zip(head, brute):
            _agree(f"k={r.k}", "counts", closed=(int(r.num_vertices), int(r.num_edges)), brute=counts)
        table = itertools.chain(head, table)

    def cells(r):
        return [str(r.k), r.num_vertices, r.num_edges, format_significant(r.rho, args.digits)]

    # The last row, a one-row table, bounds the text widths: k and both counts increase along every family, and rho,
    # in (0, 1] by the density lemma, renders no narrower where it is smaller. It falls (cycles, skk), holds (powers)
    # or stays in [0.1, 0.9) from k = 2 (cubes); 1 occurs only at an opening hypercube row (fib 1, cycles 2, Q_1^k).
    bound = map(cells, density.rho_limit(family, args.k, args.k))
    _emit(_table(["k", "vertices", "edges", "rho"], map(cells, table), args.format, bound))
    return 0


def _cmd_limits(args) -> int:
    from . import cube

    with localcontext(_CTX):
        s5 = sqrt5()
        ecc_limit = (5 + s5) / 10
        deg_limit = (5 - s5) / 5
        phi_sq = (3 + s5) / 2
        rho_limit_const = deg_limit / (golden_ratio().ln() / _LN2)
    # each invariant once: name, limit, (fib dimension, lucas dimension), its value for a kind at a dimension;
    # avg-ecc-over-n and rho are the one-row sweeps whose rows ecc-table and density print at that dimension
    invariants = [
        ("avg-ecc-over-n", ecc_limit, (1000, 1000), lambda n, kind: next(cube.ecc_rows(range(n, n + 1), kind))[5]),
        ("avg-deg-over-n", deg_limit, (1000, 1000), lambda n, kind: to_decimal(cube.average_degree(n, kind) / n)),
        ("weight-ratio", phi_sq, (1000, 60), cube.weight_ratio_average_decimal),
        ("rho", rho_limit_const, (10000, 10000), lambda n, kind: next(cube.count_rows(range(n, n + 1), kind))[2]),
    ]
    rows = []
    for name, limit, dims, value_at in invariants:
        for kind, n in zip(("fib", "lucas"), dims):
            value = value_at(n, _KINDS[kind])
            with localcontext(_CTX):
                err = abs(value - limit)
            rows.append([f"{name}-{kind}", *(format_significant(v, args.digits) for v in (limit, value, err))])
    _emit(_table(["name", "limit", "value", "abs_error"], rows, args.format, rows, left=frozenset({0})))
    return 0


def _int_in(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """An argparse type: an int in lo..hi, or at least lo when hi is None."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo or hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be >= {lo}" if hi is None else f"must lie in {lo}..{hi}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _add_common(p: argparse.ArgumentParser, digits: bool = False) -> None:
    """--format, and --digits where the subcommand prints decimals."""
    p.add_argument("--format", choices=("csv", "text"), default="text")
    if digits:  # every Decimal carries DIGITS significant digits, so more would be padding
        p.add_argument(
            "--digits", type=_int_in(1, DIGITS), default=12, help=f"significant digits for decimals, 1..{DIGITS}"
        )


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fibcube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the vertices of one cube")
    p.add_argument("--kind", choices=("fib", "lucas", "hyper"), required=True)
    p.add_argument("--n", type=_int_in(0, 30), required=True, help="0..30, or 0..20 for kind hyper")
    _add_common(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("ecc-table", help="eccentricity sums and averages per dimension")
    p.add_argument("--kind", choices=("fib", "lucas"), required=True)
    # the cap bounds the output, which grows as n_max squared: at 20000 it is
    # 419 MB of text (210 MB csv), written in ~1.5 s at 16 MB peak RSS
    p.add_argument("--n-max", type=_int_in(1, 20000), required=True)
    p.add_argument("--verify", action="store_true", help="cross-check against BFS and the series")
    _add_common(p, digits=True)
    p.set_defaults(handler=_cmd_ecc_table)

    p = sub.add_parser("ecc-hist", help="vertex counts per eccentricity")
    p.add_argument("--kind", choices=("fib", "lucas"), required=True)
    p.add_argument("--n", type=_int_in(0), required=True, help="capped by --method and --verify")
    p.add_argument("--method", choices=("bfs", "gf", "fast"), default="bfs")
    p.add_argument("--verify", action="store_true", help="compare every applicable method")
    _add_common(p)
    p.set_defaults(handler=_cmd_ecc_hist)

    p = sub.add_parser("weights", help="counts of words with 0 resp. 1 per position")
    p.add_argument("--kind", choices=("fib", "lucas"), required=True)
    p.add_argument("--n", type=_int_in(1, 10000), required=True)
    p.add_argument("--verify", action="store_true", help="cross-check against enumeration")
    _add_common(p, digits=True)
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("tree-check", help="leaf depth against cube eccentricity")
    p.add_argument("--n", type=_int_in(1, _VERIFY_MAX_N), required=True)
    p.add_argument("--labeling", choices=("theta", "standard"), default="theta")
    _add_common(p)
    p.set_defaults(handler=_cmd_tree_check)

    p = sub.add_parser("tree-print", help="render a labeled tree, one leaf per line")
    p.add_argument("--n", type=_int_in(1, 20), required=True)
    p.add_argument("--labeling", choices=("theta", "standard"), default="theta")
    _add_common(p)
    p.set_defaults(handler=_cmd_tree_print)

    p = sub.add_parser("density", help="hypercube density along a family")
    p.add_argument("--family", choices=tuple(_DENSITY_FAMILIES), required=True)
    p.add_argument("--k", type=_int_in(1), required=True, help="capped per family")
    p.add_argument("--base-n", type=_int_in(1, 20), default=None, help="base cube dimension for --family power")
    p.add_argument("--step", type=_int_in(1), default=None, help="sample every STEP indices (default: k/200)")
    p.add_argument("--verify", action="store_true", help="cross-check counts where a brute route exists")
    _add_common(p, digits=True)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("limits", help="limit constants against values at default scales")
    _add_common(p, digits=True)
    p.set_defaults(handler=_cmd_limits)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _Inconsistent as e:
        print(e, file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def main(argv: Sequence[str] | None = None) -> None:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: exit as a shell reports SIGPIPE, 128 + 13
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise again
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
