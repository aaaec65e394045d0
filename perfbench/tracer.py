"""Span tracing of one benchmark child, from outside the package.

A traced child runs in place of the plain command:

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json cli limits
    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json library density_lemma 25
    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json --alloc reference

Before it runs its target, the child replaces every function listed in
SPECS, in every ``fibcube`` module that binds it by name, with a wrapper
that records a span: name, start, end, parent span and a work count.
Spans stay in memory and are written to OUT.json when the target ends.
With ``--alloc``, tracemalloc runs too and each span also records its
allocation peak; timings from such a run are not used.

``reference`` runs a fixed set of tiny calls that enter every span name
in METRICS, so a traced run can tell that each wrapper fired.

The harness imports this module only for METRICS and the functions that
turn spans into metrics; nothing here imports fibcube until install() runs.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import importlib
import json
import pkgutil
import sys
import tracemalloc
from time import perf_counter


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _ecc_span(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "bfs")
    return f"cube.ecc_{method}"


def _ecc_pairs(args, kwargs, result) -> int:
    # the Hamming route compares every vertex with every vertex
    return len(result) ** 2 if _ecc_span(args, kwargs) == "cube.ecc_hamming" else 0


def _series_coeffs(args, kwargs, result) -> int:
    return (result.max_x + 1) * (result.max_y + 1)


def _leaves(args, kwargs, result) -> int:
    return result.leaf_count


_CLOSED_FORMS = (
    "vertex_count",
    "edge_count",
    "ecc_sum_closed",
    "average_ecc",
    "average_ecc_over_n",
    "average_degree",
    "weight_count",
    "weight_ratio_average",
    "weight_ratio_average_decimal",
)

# (home module, attribute in it, span name or span-naming function, work counter)
SPECS = [
    ("numeric", "fibonacci_pair", "numeric.fib_pair", None),
    ("numeric", "to_decimal", "numeric.to_decimal", None),
    ("numeric", "log2_int", "numeric.log2", None),
    ("words", "enumerate_bits", "words.enumerate", _result_len),
    ("words", "enumerate_words", "words.enumerate", None),
    ("cube", "CubeGraph.__init__", "cube.graph_build", None),
    ("cube", "CubeGraph._adjacency", "cube.adjacency", None),
    ("cube", "CubeGraph.bfs_levels", "cube.bfs", None),
    ("cube", "CubeGraph.eccentricities", _ecc_span, _ecc_pairs),
    ("cube", "CubeGraph.edge_count_brute", "cube.edge_brute", None),
    *[("cube", name, "cube.closed_form", None) for name in _CLOSED_FORMS],
    ("series", "expand_rational", "series.expand", _series_coeffs),
    ("fibtree", "build", "fibtree.build", _leaves),
    ("density", "rho", "density.rho", None),
    ("density", "density_lemma_check", "density.lemma", None),
    ("density", "ExplicitGraph.from_cube", "density.explicit", None),
    ("density", "cartesian_product", "density.explicit", None),
    ("cli", "_cmd_*", "cli.handler", None),
    ("cli", "format_significant", "cli.format", None),
    ("cli", "_table", "cli.table", None),
    ("cli", "_emit", "cli.emit", None),
]

# Spans whose allocation peak the cube layer metric reads.
_CUBE_GRAPH_SPANS = (
    "cube.graph_build",
    "cube.adjacency",
    "cube.bfs",
    "cube.ecc_bfs",
    "cube.ecc_hamming",
    "cube.ecc_fast",
    "cube.edge_brute",
)

# (metric, unit, statistic, span names). Statistics, summed over children:
#   count  spans entered
#   time   time covered by the spans (nested spans of one name count once)
#   self   time in the spans outside their child spans
#   work   the spans' work counts
#   alloc  largest allocation peak of one span, from the --alloc run
METRICS = [
    ("numeric.fib_evals", "count", "count", ("numeric.fib_pair",)),
    ("numeric.fib_pair_s", "s", "time", ("numeric.fib_pair",)),
    ("numeric.to_decimal_s", "s", "time", ("numeric.to_decimal",)),
    ("numeric.log2_s", "s", "time", ("numeric.log2",)),
    ("density.rho_s", "s", "time", ("density.rho",)),
    ("density.lemma_s", "s", "time", ("density.lemma",)),
    ("density.lemma_calls", "count", "count", ("density.lemma",)),
    ("density.explicit_s", "s", "time", ("density.explicit",)),
    ("cli.self_s", "s", "self", ("cli.handler",)),
    ("cli.format_s", "s", "time", ("cli.format",)),
    ("cli.table_s", "s", "time", ("cli.table",)),
    ("cli.emit_s", "s", "time", ("cli.emit",)),
    ("words.enumerate_s", "s", "time", ("words.enumerate",)),
    ("words.words_listed", "count", "work", ("words.enumerate",)),
    ("words.peak_alloc_mb", "MB", "alloc", ("words.enumerate",)),
    ("cube.graph_build_s", "s", "time", ("cube.graph_build",)),
    ("cube.adjacency_s", "s", "time", ("cube.adjacency",)),
    ("cube.ecc_bfs_s", "s", "time", ("cube.ecc_bfs",)),
    ("cube.bfs_sources", "count", "count", ("cube.bfs",)),
    ("cube.ecc_hamming_s", "s", "time", ("cube.ecc_hamming",)),
    ("cube.hamming_pairs", "count", "work", ("cube.ecc_hamming",)),
    ("cube.ecc_fast_s", "s", "time", ("cube.ecc_fast",)),
    ("cube.edge_brute_s", "s", "time", ("cube.edge_brute",)),
    ("cube.peak_alloc_mb", "MB", "alloc", _CUBE_GRAPH_SPANS),
    ("cube.closed_form_s", "s", "time", ("cube.closed_form",)),
    ("cube.closed_form_calls", "count", "count", ("cube.closed_form",)),
    ("fibtree.build_s", "s", "time", ("fibtree.build",)),
    ("fibtree.leaves", "count", "work", ("fibtree.build",)),
    ("series.expand_s", "s", "time", ("series.expand",)),
    ("series.coeffs", "count", "work", ("series.expand",)),
    ("series.expansions", "count", "count", ("series.expand",)),
]

# One CLI run per line, then one library call; together they enter every span.
REFERENCE = [
    "enumerate --kind fib --n 4",
    "ecc-table --kind fib --n-max 4 --verify",
    "ecc-hist --kind fib --n 5 --method fast --verify",
    "tree-check --n 4",
    "density --family power --base-n 2 --k 2 --verify",
]


def span_names() -> set[str]:
    return {name for *_, names in METRICS for name in names}


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: count, time, self, work and alloc, as METRICS defines them."""
    stats: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, work, alloc) in enumerate(spans):
        s = stats.setdefault(name, {"count": 0, "time": 0.0, "self": 0.0, "work": 0, "alloc": 0})
        s["count"] += 1
        s["self"] += end - start - child_time[i]
        s["work"] += work
        s["alloc"] = max(s["alloc"], alloc)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            s["time"] += end - start
    return stats


def merge(into: dict, stats: dict) -> None:
    for name, s in stats.items():
        t = into.setdefault(name, {"count": 0, "time": 0.0, "self": 0.0, "work": 0, "alloc": 0})
        for k in ("count", "time", "self", "work"):
            t[k] += s[k]
        t["alloc"] = max(t["alloc"], s["alloc"])


def metric_values(timed: dict, alloc: dict) -> dict[str, tuple[float, str]]:
    """METRICS from merged timing stats and merged --alloc stats."""
    out = {}
    for metric, unit, stat, names in METRICS:
        if stat == "alloc":
            value = max((alloc.get(n, {}).get("alloc", 0) for n in names), default=0) / 2**20
        else:
            value = sum(timed.get(n, {}).get(stat, 0) for n in names)
        out[metric] = (value, unit)
    return out


class Recorder:
    """Spans of one process, as [name, start, end, parent, work, alloc_bytes]."""

    def __init__(self, alloc: bool = False):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.alloc = alloc
        self._mem: list[list[int]] = []  # per open span: [traced bytes at entry, peak of closed children]

    def enter_alloc(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def exit_alloc(self) -> int:
        start, children_peak = self._mem.pop()
        peak = max(tracemalloc.get_traced_memory()[1], children_peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        return peak - start


def _wrap(fn, span, counter, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = span(args, kwargs) if callable(span) else span
        record = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, 0, 0]
        rec.stack.append(len(rec.spans))
        rec.spans.append(record)
        if rec.alloc:
            rec.enter_alloc()
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            if rec.alloc:
                record[5] = rec.exit_alloc()
            rec.stack.pop()
        if counter is not None:
            record[4] = counter(args, kwargs, result)
        return result

    return traced


def fibcube_modules() -> list:
    """The fibcube package and all of its modules, imported."""
    import fibcube

    for info in pkgutil.iter_modules(fibcube.__path__):
        importlib.import_module(f"fibcube.{info.name}")
    return [m for name, m in sorted(sys.modules.items()) if name == "fibcube" or name.startswith("fibcube.")]


def _targets(module_name: str, path: str):
    """(owner, attribute) pairs a spec names; the owner is a module or a class."""
    owner = importlib.import_module(f"fibcube.{module_name}")
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        owner = getattr(owner, owner_path)
    names = fnmatch.filter(vars(owner), attr)
    if not names:
        raise LookupError(f"fibcube.{module_name}.{path} names nothing")
    return [(owner, name) for name in names]


def install(rec: Recorder) -> list:
    """Wrap every SPECS function wherever fibcube binds it; return the originals."""
    modules = fibcube_modules()
    originals = []
    for module_name, path, span, counter in SPECS:
        for owner, name in _targets(module_name, path):
            raw = vars(owner)[name]
            fn = getattr(raw, "__func__", raw)  # the function inside a classmethod
            wrapper = _wrap(fn, span, counter, rec)
            if isinstance(owner, type):
                setattr(owner, name, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            else:
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
            originals.append(fn)
    return originals


def unwrapped(originals: list) -> list[str]:
    """Names under which a fibcube module or class still binds an original."""
    ids = {id(fn) for fn in originals}
    found = []
    for m in fibcube_modules():
        for attr, value in vars(m).items():
            if id(value) in ids:
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for cattr, raw in vars(value).items():
                    if id(getattr(raw, "__func__", raw)) in ids:
                        found.append(f"{m.__name__}.{attr}.{cattr}")
    return found


def reference() -> int:
    from fibcube import cli, density

    codes = [cli.run(line.split()) for line in REFERENCE]
    density.density_lemma_check(5, 5)  # no CLI command reaches the lemma
    return max(codes)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="run one benchmark command with span tracing")
    p.add_argument("--spans", required=True, help="file the spans are written to")
    p.add_argument("--alloc", action="store_true", help="also record allocation peaks")
    p.add_argument("target", choices=("cli", "library", "reference"))
    p.add_argument("args", nargs=argparse.REMAINDER)
    a = p.parse_args(argv)
    rec = Recorder(a.alloc)
    install(rec)
    if a.alloc:
        tracemalloc.start()
    try:
        if a.target == "cli":
            from fibcube import cli

            code = cli.run(a.args)
        elif a.target == "library":
            import library

            code = library.main(a.args)
        else:
            code = reference()
    finally:
        sys.stdout.flush()
        with open(a.spans, "w") as f:
            json.dump(rec.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
