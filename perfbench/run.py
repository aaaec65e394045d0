"""Benchmark of the fibcube CLI and library, end to end and per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is taken from ``src/``. Each
workload is a fixed list of commands (``workloads.py``), run as child
processes with ``PYTHONPATH=src``; the seed only shuffles their order.

``--trace 0`` repeats passes over the commands for ``--seconds``, each
pass also starting three set-up children, and reports, from the median
over passes of every command:

    wall_s       the commands' wall times, summed
    cpu_s        their user+sys times from os.wait4, summed
    peak_rss_mb  the largest ru_maxrss of one command, from its own os.wait4
    setup_s      the time for a child to start Python, import fibcube.cli
                 and exit

Each child of a timed pass runs right after a fixed speed reference
(``SPEED_REF``), and wall_s, cpu_s and setup_s are scaled by it: they are
seconds on a host where the reference takes ``SPEED_REF_S``. On a shared
host the speed of every process drifts together, by a third within
minutes, and the scaling takes most of that drift out. The unscaled sums
are printed too.

``--trace 1`` runs one tracemalloc pass, then pairs of a plain and a
traced pass for the rest of ``--seconds`` (at least two pairs), each
command in a fresh child (``tracer.py``). It reports the per-layer
metrics of ``tracer.METRICS`` (each the median over traced passes),
``cli.out_bytes`` (the stdout of the CLI commands) and
``trace.overhead_s`` (wall_s of the traced passes minus that of the
plain ones).

Every command's stdout goes to a file and is checked against the sha256
recorded in ``digests.json`` (``record_digests.py`` writes it). An
operation is one CLI command or one library call; it fails when it exits
nonzero or its output differs. fail_ratio = failed / attempted.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
per-command medians, every metric with its unit, and run metadata.
Self-tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import merge, metric_values, span_names, summarize
from workloads import SIZES, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 60

# Fixed work that imports nothing from fibcube, so no change to the
# package moves it: allocation, sorting and big-int arithmetic, like the
# workloads.
SPEED_REF = (
    "d = {i: (i * 7919 % 1000003, str(i)) for i in range(120000)}\n"
    "s = sorted(d.values())\n"
    "x = sum(a for a, _ in s) + 3 ** 20000 % 10 ** 9\n"
)
SPEED_REF_S = 0.25


@dataclass
class Child:
    stdout: Path
    stderr: Path
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout_bytes: int = 0
    stats: dict | None = None  # tracer.summarize() of its spans, in traced modes
    ref: Child | None = None  # the SPEED_REF run just before it, in timed passes

    def scaled(self, field: str) -> float:
        """Its wall or cpu time on a host where SPEED_REF takes SPEED_REF_S."""
        return getattr(self, field) / getattr(self.ref, field) * SPEED_REF_S


class Launcher:
    """Runs children through spawner.py, started while this process is small,
    so no child's peak RSS includes what the harness holds."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.spawner_rss_mb = 0.0
        self._count = 0
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def run(self, args: list[str]) -> Child:
        """Run ``python <args>`` and wait for it to end."""
        self._count += 1
        out = self.workdir / f"{self._count}.out"
        err = self.workdir / f"{self._count}.err"
        request = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "stdout": str(out),
            "stderr": str(err),
            "timeout": CHILD_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        r = json.loads(line)
        self.spawner_rss_mb = max(self.spawner_rss_mb, r["spawner_peak_kb"] / 1024)
        return Child(out, err, r["wall"], r["cpu"], r["maxrss_kb"] / 1024, r["exit"])

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


SETUP = Command("setup", ())
# tracer.py's reference child: tiny calls that enter every span name
REFERENCE = Command("reference", ())


def child_args(cmd: Command, spans: Path | None = None, alloc: bool = False) -> list[str]:
    """Interpreter arguments for one command, plain or traced."""
    if cmd.kind == "setup":
        return ["-c", "import fibcube.cli"]
    if spans is not None:
        return [str(HERE / "tracer.py"), "--spans", str(spans), *(["--alloc"] if alloc else []),
                cmd.kind, *cmd.args]
    if cmd.kind == "cli":
        return ["-m", "fibcube.cli", *cmd.args]
    return [str(HERE / "library.py"), *cmd.args]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(cmd: Command, child: Child, digests: dict) -> bool:
    """Whether a finished command exited 0 with the recorded output."""
    ok = child.exit == 0 and (cmd in (SETUP, REFERENCE) or digests.get(cmd.key) == sha256_file(child.stdout))
    if not ok:
        print(f"FAILED {cmd.key} (exit {child.exit}): {child.stderr.read_text()[-2000:]}", file=sys.stderr)
    return ok


@dataclass
class Pass:
    children: list[tuple[Command, Child]]
    attempted: int = 0
    failed: int = 0

    def wall(self) -> float:
        """Summed wall time of the workload's own commands."""
        return sum(c.wall for cmd, c in self.children if cmd not in (SETUP, REFERENCE))


def run_pass(launcher: Launcher, cmds: list[Command], rng: random.Random, digests: dict,
             mode: str = "plain", scaled: bool = False) -> Pass:
    """Run every command once, in an order drawn from rng.

    mode "plain" runs the commands as they are; "traced" and "alloc" run
    them under tracer.py and keep a summary of each child's spans. With
    ``scaled``, SPEED_REF runs before each command."""
    p = Pass([])
    spans_path = None if mode == "plain" else launcher.workdir / "spans.json"
    for cmd in rng.sample(cmds, len(cmds)):
        ref = None
        if scaled:
            ref = launcher.run(["-I", "-c", SPEED_REF])
            if ref.exit != 0:
                raise RuntimeError(f"the speed reference exited {ref.exit}: {ref.stderr.read_text()}")
            ref.stdout.unlink()
            ref.stderr.unlink()
        child = launcher.run(child_args(cmd, spans_path, mode == "alloc"))
        child.ref = ref
        p.attempted += 1
        p.failed += not check(cmd, child, digests)
        if spans_path is not None and spans_path.exists():
            child.stats = summarize(json.loads(spans_path.read_text()))
            spans_path.unlink()
        child.stdout_bytes = child.stdout.stat().st_size
        child.stdout.unlink()
        child.stderr.unlink()
        p.children.append((cmd, child))
    return p


def repeat(seconds: float, run_once, at_least: int = 1) -> list:
    """Call run_once until ``seconds`` would be passed by one more call."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_once())
        now = time.perf_counter()
        if len(results) >= at_least and now - start + (now - t0) > seconds:
            return results


def medians(passes: list[Pass], scaled: bool = False) -> dict[str, dict[str, float]]:
    """Per command, the median over passes of its wall, cpu and rss_mb;
    with ``scaled``, also of its scaled wall and cpu as "swall", "scpu".

    A burst of load on the machine then moves one sample of one command,
    not a whole pass."""
    runs: dict[str, list[Child]] = {}
    for p in passes:
        for cmd, child in p.children:
            runs.setdefault(cmd.key, []).append(child)
    out = {}
    for key, cs in runs.items():
        out[key] = {f: statistics.median(getattr(c, f) for c in cs) for f in ("wall", "cpu", "rss_mb")}
        if scaled:
            out[key]["swall"] = statistics.median(c.scaled("wall") for c in cs)
            out[key]["scpu"] = statistics.median(c.scaled("cpu") for c in cs)
    return out


def run_timed(launcher: Launcher, cmds: list[Command], seconds: float, rng: random.Random,
              digests: dict) -> tuple[dict, int, int, list[str]]:
    """Passes over the commands, with set-up runs mixed in, for ``seconds``."""
    passes = repeat(seconds, lambda: run_pass(launcher, cmds + [SETUP] * SETUPS_PER_PASS, rng, digests,
                                              scaled=True))
    med = medians(passes, scaled=True)
    setup = med.pop(SETUP.key)
    refs = [c.ref.wall for p in passes for _, c in p.children]
    metrics = {
        "wall_s": (sum(m["swall"] for m in med.values()), "s"),
        "cpu_s": (sum(m["scpu"] for m in med.values()), "s"),
        "peak_rss_mb": (max(m["rss_mb"] for m in med.values()), "MB"),
        "setup_s": (setup["swall"], "s"),
    }
    walls = sorted(p.wall() for p in passes)
    notes = [f"{len(passes)} passes of {walls[0]:.4f} to {walls[-1]:.4f} s unscaled, "
             f"{len(refs)} speed references of median {statistics.median(refs):.4f} s "
             f"(times below are scaled to {SPEED_REF_S} s)",
             f"unscaled: wall {sum(m['wall'] for m in med.values()):.4f} s, "
             f"cpu {sum(m['cpu'] for m in med.values()):.4f} s, setup {setup['wall']:.4f} s",
             "per command, median over passes:"]
    notes += [f"  {m['swall']:9.4f} s {m['rss_mb']:9.1f} MB  {key}" for key, m in med.items()]
    return metrics, sum(p.attempted for p in passes), sum(p.failed for p in passes), notes


def run_traced(launcher: Launcher, cmds: list[Command], seconds: float, rng: random.Random,
               digests: dict) -> tuple[dict, int, int, list[str]]:
    """One tracemalloc pass, then pairs of a plain and a traced pass for
    what is left of ``seconds``, at least two pairs.

    Each layer metric is its median over the traced passes; the tracing
    overhead is the summed per-command median wall time, scaled as in
    wall_s, traced minus plain. The traced passes add the reference child. A span name missing
    from its spans means a wrapper never fired, which fails the run. Its
    spans count in the layer sums, so every layer is measured on every
    workload."""
    start = time.perf_counter()
    alloc = run_pass(launcher, cmds + [REFERENCE], rng, digests, "alloc")
    pairs = repeat(seconds - (time.perf_counter() - start),
                   lambda: (run_pass(launcher, cmds, rng, digests, scaled=True),
                            run_pass(launcher, cmds + [REFERENCE], rng, digests, "traced", scaled=True)),
                   at_least=2)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    passes = plain + traced + [alloc]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in traced + [alloc]:
        for cmd, child in p.children:
            missing = span_names() - set(child.stats or {})
            if cmd == REFERENCE and missing:
                failed += 1
                print(f"FAILED reference child: no spans for {sorted(missing)}", file=sys.stderr)
    alloc_stats: dict = {}
    for _, child in alloc.children:
        merge(alloc_stats, child.stats or {})
    per_pass = []
    for p in traced:
        stats: dict = {}
        for _, child in p.children:
            merge(stats, child.stats or {})
        per_pass.append(metric_values(stats, alloc_stats))
    metrics = {name: (statistics.median_low(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    # bytes the workload's CLI commands write; library calls and the
    # reference child are not CLI output
    metrics["cli.out_bytes"] = (sum(c.stdout_bytes for cmd, c in traced[0].children if cmd.kind == "cli"), "B")
    plain_med, traced_med = medians(plain, scaled=True), medians(traced, scaled=True)
    plain_wall = sum(m["swall"] for m in plain_med.values())
    traced_wall = sum(m["swall"] for key, m in traced_med.items() if key != REFERENCE.key)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    notes = [f"{len(pairs)} plain/traced pass pairs; per-command scaled medians summed: "
             f"plain {plain_wall:.4f} s, traced {traced_wall:.4f} s"]
    return metrics, attempted, failed, notes


def metadata(launcher: Launcher) -> dict:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "harness_rss_mb": launcher.harness_rss_mb,
        "spawner_rss_mb": launcher.spawner_rss_mb,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            digests: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines to print before it."""
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    cmds = WORKLOADS[workload][size]
    rng = random.Random(seed)
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(workdir)
    try:
        if trace:
            metrics, attempted, failed, notes = run_traced(launcher, cmds, seconds, rng, digests)
        else:
            metrics, attempted, failed, notes = run_timed(launcher, cmds, seconds, rng, digests)
        meta = metadata(launcher)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = [f"fibcube benchmark: workload={workload} size={size} seed={seed} trace={int(trace)}", *notes]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<24} {value:.6g} {unit}")
    lines.append(f"{'fail_ratio':<24} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    lines.append("meta " + json.dumps(meta))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="fibcube benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0, help="shuffles command order")
    p.add_argument("--seconds", type=float, default=30, help="how long passes are repeated")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full", help="smoke: seconds-long, for self-tests")
    a = p.parse_args(argv)
    if not (SRC / "fibcube" / "cli.py").is_file():
        print(f"error: no fibcube package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result, lines = measure(a.workload, a.seed, a.seconds, bool(a.trace), a.size)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
