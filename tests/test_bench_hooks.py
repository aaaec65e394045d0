"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py wraps package functions by name; a refactor that
renames one, or moves it off its traced path, would leave a per-layer
metric silently at zero. These tests run the tracer the way the
benchmark does, in a child process with PYTHONPATH=src:perfbench.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # imports no fibcube module until install()
    return module


def _run(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_reference_run_enters_every_span(tmp_path):
    spans_file = tmp_path / "spans.json"
    proc = _run([str(PERFBENCH / "tracer.py"), "--spans", str(spans_file), "reference"])
    assert proc.returncode == 0, proc.stderr
    entered = {span[0] for span in json.loads(spans_file.read_text())}
    assert _tracer().span_names() - entered == set()


def test_install_leaves_nothing_unwrapped():
    proc = _run(["-c", "import tracer; print(tracer.unwrapped(tracer.install(tracer.Recorder())))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
