"""Record the sha256 of every benchmark command's stdout in digests.json.

    python3 perfbench/record_digests.py

Run from the repository root, at a commit whose output is trusted. Each
command of every workload, at every size, runs once; a command that
exits nonzero stops the recording. CLI stdout must stay byte-identical
across commits, so the digests hold until a change to the output is
intended.
"""

from __future__ import annotations

import json
import shutil

from run import DIGESTS, ROOT, Launcher, child_args, sha256_file
from workloads import SIZES, WORKLOADS


def main() -> int:
    workdir = ROOT / ".perfbench_tmp" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(workdir)
    digests = {}
    try:
        for workload in WORKLOADS.values():
            for size in SIZES:
                for cmd in workload[size]:
                    child = launcher.run(child_args(cmd))
                    if child.exit != 0:
                        raise SystemExit(f"{cmd.key} exited {child.exit}: {child.stderr.read_text()}")
                    digests[cmd.key] = sha256_file(child.stdout)
                    print(f"{child.wall:8.3f} s  {cmd.key}")
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
