"""Command-line front end: reproducible tables for every invariant.

Identical arguments always produce byte-identical output. Exit codes:
0 on success, 1 on a usage or range error, 2 when a requested
cross-check finds an inconsistency.
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
# and so do explicit Cartesian powers, by their vertex count
_VERIFY_MAX_VERTICES = 5000
# ecc-hist routes, in the order --verify compares them, and each one's cap on --n;
# at its cap fast takes ~0.6 s and 119 MB, gf ~0.2 s and 24 MB for --kind lucas
_ECC_HIST_CAPS = {"bfs": _VERIFY_MAX_N, "gf": 500, "hamming": _VERIFY_MAX_N, "fast": 30}
# density rows at most; the fib/lucas --k cap, so --step 1 stays valid there
_DENSITY_MAX_ROWS = 20000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def format_significant(value: Decimal, digits: int) -> str:
    """Render with exactly ``digits`` significant digits."""
    with localcontext(Context(prec=digits + 2)):
        d = Decimal(value)
        if d == 0:
            return "0"
        q = d.quantize(Decimal((0, (1,), d.adjusted() - digits + 1)))
        if q.adjusted() > d.adjusted():  # rounding carried into a new digit
            q = q.quantize(Decimal((0, (1,), q.adjusted() - digits + 1)))
        return str(q)


def _agree(at: str, what: str, **routes) -> bool:
    """Whether every route gave the same value; if not, say so on stderr."""
    first, *rest = routes.values()
    if all(v == first for v in rest):
        return True
    found = " ".join(f"{route}={v}" for route, v in routes.items())
    print(f"consistency failure at {at}: {what} {found}", file=sys.stderr)
    return False


def _emit(lines: Iterable[str]) -> None:
    sys.stdout.writelines(line + "\n" for line in lines)


def _cell_text(cell) -> str:
    return cell if isinstance(cell, str) else "/".join(map(str, cell))


def _cell_width(cell) -> int:
    # an exact integer Decimal d has d.adjusted() + 1 digits
    return len(cell) if isinstance(cell, str) else sum(d.adjusted() + 2 for d in cell) - 1


def _table(header: list[str], rows: Callable, fmt: str, left: frozenset[int] = frozenset()) -> Iterator[str]:
    """The lines of a table; ``rows()`` yields the rows afresh at each call.
    A cell is text, or a tuple of exact integer Decimals joined by "/". Text
    pads each column to its widest cell, found in a pass that renders no Decimal.
    """
    if fmt == "csv":
        return itertools.chain([",".join(header)], (",".join(map(_cell_text, r)) for r in rows()))
    widths = list(map(len, header))
    for r in rows():
        widths = list(map(max, widths, map(_cell_width, r)))
    return (
        "  ".join(
            cell.ljust(w) if c in left else cell.rjust(w)
            for c, (cell, w) in enumerate(zip(map(_cell_text, r), widths))
        ).rstrip()
        for r in itertools.chain([header], rows())
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

    kind = _KINDS[args.kind]
    if args.verify and args.n_max > _VERIFY_MAX_N:
        raise _UsageError(f"--verify enumerates every vertex; use --n-max <= {_VERIFY_MAX_N}")
    if args.verify:
        from . import series

        gf_sums = series.ecc_sum_from_gf(args.n_max, kind)
        for n, nv, ne, es, _, _ in cube.ecc_rows(args.n_max, kind):
            g = cube.CubeGraph(kind, n)
            brute_sum = sum(g.eccentricities("bfs"))
            if not (
                _agree(f"n={n}", "eccentricity sums", bfs=brute_sum, sweep=int(es), gf=gf_sums[n])
                and _agree(f"n={n}", "counts", brute=(g.num_vertices, g.edge_count_brute()), sweep=(int(nv), int(ne)))
            ):
                return 2

    def rows():
        for n, nv, ne, es, (p, q), over_n in cube.ecc_rows(args.n_max, kind):
            avg = (p,) if q == 1 else (p, q)
            yield [str(n), (nv,), (ne,), (es,), avg, format_significant(over_n, args.digits)]

    _emit(_table(["n", "vertices", "edges", "ecc_sum", "avg_ecc", "avg_ecc_over_n"], rows, args.format))
    return 0


def _cmd_ecc_hist(args) -> int:
    from . import cube

    kind = _KINDS[args.kind]
    n = args.n
    routes = [r for r in _ECC_HIST_CAPS if r != "fast" or kind is WordClass.FIBONACCI]
    if args.method not in routes:
        raise _UsageError("--method fast applies to --kind fib only")
    routes, option = (routes, "--verify") if args.verify else ([args.method], f"--method {args.method}")
    cap = min(_ECC_HIST_CAPS[r] for r in routes)
    if n > cap:
        raise _UsageError(f"--n must be <= {cap} with {option}")
    graph = functools.cache(lambda: cube.CubeGraph(kind, n))

    def gf():
        from . import series

        return series._histograms(n, kind)[n]

    hists = {r: (gf() if r == "gf" else graph().ecc_histogram(r)).counts for r in routes}
    if not _agree(f"n={n}", "histogram", **hists):
        return 2
    _emit(_table(["k", "count"], lambda: ([str(k), str(c)] for k, c in hists[args.method].items()), args.format))
    return 0


def _cmd_weights(args) -> int:
    from . import cube

    kind = _KINDS[args.kind]
    n = args.n
    if kind is WordClass.LUCAS and n == 1:
        raise _UsageError("ratios undefined at n=1 for kind lucas: no word has a 1")
    if args.verify and n > _VERIFY_MAX_N:
        raise _UsageError(f"--verify needs --n <= {_VERIFY_MAX_N}")
    if args.verify:
        for i, zero, one in cube.weight_rows(n, kind):
            brute = tuple(cube.weight_count_brute(n, i, chi, kind) for chi in (0, 1))
            if not _agree(f"i={i}", "weight counts", sweep=(int(zero), int(one)), brute=brute):
                return 2
    ratios: list[str] = []  # each ratio cell, then the mean, rendered in the first pass only

    def rows():
        if ratios:
            for (i, zero, one), ratio in zip(cube.weight_rows(n, kind), ratios):
                yield [str(i), (zero,), (one,), ratio]
        else:
            for i, zero, one, total in cube.weight_ratio_sums(n, kind):
                ratios.append(format_significant(_CTX.divide(zero, one), args.digits))
                yield [str(i), (zero,), (one,), ratios[-1]]
            ratios.append(format_significant(_CTX.divide(total, n), args.digits))
        yield ["avg", "", "", ratios[-1]]

    _emit(_table(["i", "zero_count", "one_count", "ratio"], rows, args.format))
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

    tree = fibtree.build(args.n, fibtree.LabelingKind(args.labeling))
    if args.format == "csv":
        _emit(_table(["depth", "label"], lambda: ([str(d), str(label)] for label, d in tree.leaves()), "csv"))
    else:
        _emit([tree.render()])
    return 0


def _fib_powers(density, base_n: int | None):
    from . import cube

    if base_n is None:
        raise _UsageError("--family power needs --base-n")
    nv = cube.vertex_count(base_n, WordClass.FIBONACCI)
    ne = cube.edge_count(base_n, WordClass.FIBONACCI)
    return density.power_family(nv, ne, name=f"fib-{base_n}-powers")


# --family -> (family from the density module and --base-n, cap on --k); the cube caps
# are the row bound. The module is an argument: cli imports it only in _cmd_density
_DENSITY_FAMILIES = {
    "fib": (lambda density, _: density.fibonacci_cube_family(), _DENSITY_MAX_ROWS),
    "lucas": (lambda density, _: density.lucas_cube_family(), _DENSITY_MAX_ROWS),
    "skk": (lambda density, _: density.subdivided_complete_family(), 10**6),
    "cycles": (lambda density, _: density.even_cycle_family(), 10**12),
    "power": (_fib_powers, 1000),
}


def _cmd_density(args) -> int:
    from . import cube, density

    make_family, cap = _DENSITY_FAMILIES[args.family]
    if args.k > cap:
        raise _UsageError(f"--k must be <= {cap} for family {args.family}")
    if args.family != "power" and args.base_n is not None:
        raise _UsageError("--base-n applies to --family power only")
    family = make_family(density, args.base_n)
    if args.k < family.first_index:
        raise _UsageError(f"--k must be >= {family.first_index} for family {args.family}")
    ks = density.sampled_indices(family, args.k, args.step if args.step is not None else max(1, args.k // 200))
    if len(ks) > _DENSITY_MAX_ROWS:
        raise _UsageError(f"--k and --step sample more than {_DENSITY_MAX_ROWS} rows; raise --step")
    if args.verify:
        if args.family in ("fib", "lucas"):
            limit, checkable = f"dimension {_VERIFY_MAX_N}", lambda k: k <= _VERIFY_MAX_N
            graphs = (cube.CubeGraph(_KINDS[args.family], k) for k in ks)
            brute = ((g.num_vertices, g.edge_count_brute()) for g in graphs)
        elif args.family == "power":
            limit, checkable = f"{_VERIFY_MAX_VERTICES} vertices", lambda k: family.counts(k)[0] <= _VERIFY_MAX_VERTICES
            base = functools.cache(
                lambda: density.ExplicitGraph.from_cube(cube.CubeGraph(WordClass.FIBONACCI, args.base_n))
            )
            graphs = (density.cartesian_power(base(), k) for k in ks)
            brute = ((g.num_vertices, g.num_edges) for g in graphs)
        else:
            raise _UsageError(f"--verify has no independent route for family {args.family}")
        # the families increase, so the checkable rows lead the table: count them before building it
        checked = sum(1 for _ in itertools.takewhile(checkable, ks))
        print(f"checked {checked} of {len(ks)} rows; skipped {len(ks) - checked} above {limit}", file=sys.stderr)
        if not checked:
            raise _UsageError(f"--verify found no row at or below {limit} to check")
    table = density.rho_limit(family, args.k, ks.step)
    if args.verify:
        for r, counts in zip(table[:checked], brute):
            if not _agree(f"k={r.k}", "counts", closed=(int(r.num_vertices), int(r.num_edges)), brute=counts):
                return 2
    rows = [[str(r.k), (r.num_vertices,), (r.num_edges,), format_significant(r.rho, args.digits)] for r in table]
    _emit(_table(["k", "vertices", "edges", "rho"], lambda: rows, args.format))
    return 0


def _cmd_limits(args) -> int:
    from . import cube, density

    with localcontext(_CTX):
        s5 = sqrt5()
        ecc_limit = (5 + s5) / 10
        deg_limit = (5 - s5) / 5
        phi_sq = (3 + s5) / 2
        rho_limit_const = deg_limit / (golden_ratio().ln() / _LN2)
    # each invariant once: name, limit, (fib dimension, lucas dimension), its value for a kind at a dimension
    invariants = [
        ("avg-ecc-over-n", ecc_limit, (1000, 1000), cube.average_ecc_over_n),
        ("avg-deg-over-n", deg_limit, (1000, 1000),
         lambda n, kind: to_decimal(cube.average_degree(n, kind) / n)),
        ("weight-ratio", phi_sq, (1000, 60), cube.weight_ratio_average_decimal),
        ("rho", rho_limit_const, (10000, 10000),
         lambda n, kind: density.rho((cube.vertex_count(n, kind), cube.edge_count(n, kind)))),
    ]
    rows = []
    for name, limit, dims, value_at in invariants:
        for kind, n in zip(("fib", "lucas"), dims):
            value = value_at(n, _KINDS[kind])
            with localcontext(_CTX):
                err = abs(value - limit)
            rows.append([f"{name}-{kind}", *(format_significant(v, args.digits) for v in (limit, value, err))])
    _emit(_table(["name", "limit", "value", "abs_error"], lambda: rows, args.format, left=frozenset({0})))
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
    # 419 MB of text (210 MB csv), written in ~2.5 s at 17 MB peak RSS
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
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def main(argv: Sequence[str] | None = None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
