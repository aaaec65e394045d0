"""Self-tests of the benchmark, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(p: subprocess.CompletedProcess) -> dict:
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_benchmark_json_names_what_the_harness_reports():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    layer = [(name, unit) for name, unit, _, _ in tracer.METRICS]
    layer += [("cli.out_bytes", "B"), ("trace.overhead_s", "s")]
    assert sorted((m["name"], m["unit"]) for m in SPEC["per_layer"]) == sorted(layer)


def test_every_command_has_a_recorded_digest():
    digests = json.loads(run.DIGESTS.read_text())
    for workload in WORKLOADS.values():
        for size in SIZES:
            for cmd in workload[size]:
                assert cmd.key in digests


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    p = bench("--workload", workload, "--size", "smoke", "--seconds", "1", "--trace", "0")
    result = result_of(p)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert "fail_ratio" in p.stdout


@pytest.fixture(scope="module")
def traced() -> dict:
    # the four runs go two at a time, one per core
    results = {}
    workloads = sorted(WORKLOADS)
    for i in range(0, len(workloads), 2):
        procs = {
            w: subprocess.Popen(
                [sys.executable, "perfbench/run.py", "--seed", "5", "--workload", w, "--size", "smoke",
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for w in workloads[i:i + 2]
        }
        for w, proc in procs.items():
            out, err = proc.communicate(timeout=170)
            results[w] = result_of(subprocess.CompletedProcess(proc.args, proc.returncode, out, err))
    return results


def test_traced_run_reports_every_layer_metric(traced):
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert {name: v["unit"] for name, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }


@pytest.mark.parametrize(
    "metric, busy, idle",
    [
        ("numeric.fib_evals", "sweep", "enumerate"),
        ("words.words_listed", "enumerate", "sweep"),
        ("cube.bfs_sources", "verify", "sweep"),
        ("cube.hamming_pairs", "library", "sweep"),
        ("series.coeffs", "library", "sweep"),
        ("density.lemma_calls", "library", "sweep"),
    ],
)
def test_a_layer_reads_more_on_the_workload_that_stresses_it(traced, metric, busy, idle):
    # the idle workload still reads the reference child's share
    assert traced[busy]["metrics"][metric]["value"] > traced[idle]["metrics"][metric]["value"] > 0


def test_every_listed_function_is_wrapped_wherever_fibcube_binds_it():
    code = (
        "import tracer\n"
        "from fibcube import cube, numeric\n"
        "originals = tracer.install(tracer.Recorder())\n"
        "print(tracer.unwrapped(originals))\n"
        "cube.fibonacci_pair = numeric.fibonacci_pair.__wrapped__\n"
        "print(tracer.unwrapped(originals))\n"
    )
    p = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["[]", "['fibcube.cube.fibonacci_pair']"]


def test_child_peak_rss_excludes_harness_memory(tmp_path):
    limits = ["-m", "fibcube.cli", "limits"]
    launcher = run.Launcher(tmp_path)
    try:
        lean = launcher.run(limits).rss_mb
        ballast = bytearray(200 * 2**20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1  # make every page resident
        held = launcher.run(limits).rss_mb
        # control: the same child spawned straight from this process
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *limits], launcher.env,
            file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
        )
        direct = os.wait4(pid, 0)[2].ru_maxrss / 1024
    finally:
        launcher.close()
    assert held < lean + 5
    assert direct > lean + 150


@pytest.mark.parametrize("workload", ["sweep", "library"])
def test_a_wrong_output_counts_as_a_failed_operation(workload):
    digests = json.loads(run.DIGESTS.read_text())
    digests[WORKLOADS[workload]["smoke"][0].key] = "0" * 64
    result, _ = run.measure(workload, seed=1, seconds=0, trace=False, size="smoke", digests=digests)
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] > 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "sweep", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
