"""Launch benchmark children from a lean process and report their rusage.

On Linux a child's ``ru_maxrss`` starts at the resident size of the
process it was forked from, so a child launched straight from the
harness reads the harness's memory as its own. The harness therefore
starts this process once, while it is still small, and sends it one
JSON request per line on stdin:

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}

It starts the child with ``os.posix_spawn``, writes the child's stdout
and stderr to the named files, reaps it with ``os.wait4`` and answers
with one JSON line: wall time, user+sys CPU time and peak RSS of that
child alone, its exit code, and this process's own peak resident size
(VmHWM), which is the floor under every child's reading. Run with
``python -I -S``.
"""

import json
import os
import signal
import sys
import time


def _own_peak_kb() -> int:
    # VmHWM, not ru_maxrss: this process's ru_maxrss still holds the size
    # of the harness it was forked from, which its own children never see
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _run(req: dict) -> dict:
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            req["argv"][0],
            req["argv"],
            req["env"],
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out, 1),
                (os.POSIX_SPAWN_DUP2, err, 2),
            ],
        )
        # a child that outlives its timeout is killed; wait4 then reaps it
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(int(req["timeout"]))
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
    finally:
        os.close(out)
        os.close(err)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit": os.waitstatus_to_exitcode(status),
        "spawner_peak_kb": _own_peak_kb(),
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
