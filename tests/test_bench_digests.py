"""Every full-size benchmark command still prints its recorded stdout.

perfbench/digests.json holds the sha256 of each command's stdout, and the
benchmark counts a command whose output differs as failed. These tests run
each full-size command of perfbench/workloads.py the way perfbench/run.py
does, in a child process with PYTHONPATH=src:perfbench, and compare. They
read the perfbench files and change none.
"""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


COMMANDS = [cmd for workload in _workloads().values() for cmd in workload["full"]]
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("cmd", COMMANDS, ids=lambda cmd: cmd.key)
def test_full_size_command_matches_its_recorded_digest(cmd, tmp_path):
    args = ["-m", "fibcube.cli"] if cmd.kind == "cli" else [str(PERFBENCH / "library.py")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]), PYTHONHASHSEED="0")
    out = tmp_path / "stdout"
    with open(out, "wb") as f:
        proc = subprocess.run(
            [sys.executable, *args, *cmd.args], cwd=ROOT, env=env, stdout=f, stderr=subprocess.PIPE, timeout=60
        )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[cmd.key]
