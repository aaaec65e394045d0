"""Record the CLI contract: each command's stdout and stderr digests and exit code.

    python3 tests/record_cli_contract.py OUT.json              # every command
    python3 tests/record_cli_contract.py OUT.json "limits" ... # only these argv lines

Run from any directory; the package is imported from this checkout's
src/. With argv lines, the corpus already at OUT.json (or, when there is
none, tests/cli_contract.json) is read, only those lines are run again,
and the merged corpus is written to OUT.json. A change that alters what a
command prints re-records that command alone. To replay the corpus under
another interpreter, record to a temporary path and diff it with
tests/cli_contract.json.

Each command runs in-process through cli.run. Its stdout is hashed as it is
written, so a command at its cap (ecc-table writes 419 MB) holds no copy.
argparse wraps help to the terminal width, so help is run at 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import shlex
import sys
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_contract.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from fibcube import cli  # noqa: E402


class _HashingWriter:
    """A text stream that keeps only the sha256 of the UTF-8 bytes written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def writelines(self, lines) -> None:
        lines = iter(lines)
        for batch in iter(lambda: list(itertools.islice(lines, 4096)), []):
            self.sha.update("".join(batch).encode())

    def flush(self) -> None:
        pass


def run(line: str) -> dict:
    """Run one argv line in-process: its exit code and the sha256 of its stdout and stderr."""
    out, err = _HashingWriter(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        code = cli.run(shlex.split(line))
    return {"exit": code, "stdout": out.sha.hexdigest(), "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def _grid(head: str, *options: list[str]) -> list[str]:
    """head followed by one choice from each option list, for every combination."""
    return [" ".join(filter(None, (head, *choice))) for choice in itertools.product(*options)]


_FORMATS = ["", "--format csv"]
_DIGITS = ["--digits 1", "", "--digits 50"]  # 12 is the default


def commands() -> list[str]:
    """Every subcommand at small, middle and cap values, both formats, --digits 1, 12 and 50,
    --verify at and above its limits, every usage error and refusal, and help."""
    cmds = []
    # enumerate: the empty word, small and middle n, the caps, and one past each
    cmds += _grid("enumerate", ["--kind fib", "--kind lucas", "--kind hyper"], ["--n 0", "--n 1", "--n 2", "--n 7"],
                  _FORMATS)
    cmds += ["enumerate --kind fib --n 30", "enumerate --kind lucas --n 30 --format csv", "enumerate --kind hyper --n 20",
             "enumerate --kind fib --n 15 --format csv", "enumerate --kind hyper --n 21", "enumerate --kind fib --n 31",
             "enumerate --kind fib --n -1", "enumerate --kind fib --n x", "enumerate --kind cycles --n 3",
             "enumerate --n 3", "enumerate --kind fib", "enumerate --kind fib --n 3 --digits 3"]
    # ecc-table
    cmds += _grid("ecc-table", ["--kind fib", "--kind lucas"], ["--n-max 1", "--n-max 2", "--n-max 40"], _DIGITS,
                  _FORMATS)
    cmds += _grid("ecc-table", ["--kind fib", "--kind lucas"], ["--n-max 1000"], ["", "--digits 50 --format csv"])
    cmds += _grid("ecc-table", ["--kind fib", "--kind lucas"], ["--n-max 1 --verify", "--n-max 16 --verify"],
                  _FORMATS)
    cmds += ["ecc-table --kind fib --n-max 20000", "ecc-table --kind lucas --n-max 5000 --digits 50 --format csv",
             "ecc-table --kind fib --n-max 17 --verify", "ecc-table --kind lucas --n-max 20000 --verify",
             "ecc-table --kind fib --n-max 20001", "ecc-table --kind fib --n-max 0", "ecc-table --kind hyper --n-max 3",
             "ecc-table --kind fib --n-max x", "ecc-table --kind fib --n-max 5 --digits 0",
             "ecc-table --kind fib --n-max 5 --digits 51", "ecc-table --kind fib --n-max 5 --format xml",
             "ecc-table --n-max 5"]
    # ecc-hist: each method at small values, its cap and one past it
    cmds += _grid("ecc-hist", ["--kind fib", "--kind lucas"], ["--n 0", "--n 1", "--n 2", "--n 9"],
                  ["", "--method gf", "--method fast", "--verify"], _FORMATS)
    cmds += _grid("ecc-hist", ["--kind fib", "--kind lucas"],
                  ["--n 16", "--n 17", "--n 16 --verify", "--n 17 --verify", "--n 16 --method gf --verify",
                   "--n 17 --method gf --verify", "--n 100 --method gf", "--n 500 --method gf",
                   "--n 501 --method gf", "--n 30 --method fast", "--n 31 --method fast"])
    cmds += ["ecc-hist --kind fib --n 24 --method fast --format csv", "ecc-hist --kind fib --n 16 --method fast --verify",
             "ecc-hist --kind fib --n -1", "ecc-hist --kind fib --n 3 --method hamming", "ecc-hist --kind hyper --n 3",
             "ecc-hist --kind fib --n 3 --digits 3"]
    # weights
    cmds += _grid("weights", ["--kind fib", "--kind lucas"], ["--n 1", "--n 2", "--n 3", "--n 100"], _DIGITS, _FORMATS)
    cmds += _grid("weights", ["--kind fib", "--kind lucas"],
                  ["--n 10000", "--n 10001", "--n 2 --verify", "--n 16 --verify", "--n 17 --verify",
                   "--n 16 --verify --format csv --digits 50"])
    cmds += ["weights --kind fib --n 0", "weights --kind hyper --n 3", "weights --kind fib --n 3 --digits 51"]
    # tree-check: both labelings; standard fails from n = 2 on and exits 2
    cmds += _grid("tree-check", ["--n 1", "--n 2", "--n 3", "--n 8", "--n 16"], ["", "--labeling standard"], _FORMATS)
    cmds += ["tree-check --n 0", "tree-check --n 17", "tree-check --n 3 --labeling other", "tree-check --n 3 --digits 3"]
    # tree-print
    cmds += _grid("tree-print", ["--n 1", "--n 2", "--n 5", "--n 12"], ["", "--labeling standard"], _FORMATS)
    cmds += ["tree-print --n 20", "tree-print --n 20 --labeling standard --format csv", "tree-print --n 0",
             "tree-print --n 21"]
    # density: every family at small, middle and cap --k, by default and explicit steps
    families = ["--family fib", "--family lucas", "--family skk", "--family cycles", "--family power --base-n 3"]
    cmds += _grid("density", families, ["--k 1", "--k 2", "--k 3", "--k 17", "--k 300"], _DIGITS, _FORMATS)
    cmds += _grid("density", ["--family fib", "--family lucas"],
                  ["--k 20000", "--k 10000 --step 10000", "--k 10000 --step 2500", "--k 1000 --step 1",
                   "--k 20001", "--k 5000 --step 1"], ["", "--digits 50"])
    cmds += _grid("density", ["--family fib", "--family lucas"],
                  ["--k 16 --verify", "--k 17 --verify", "--k 18 --verify", "--k 17 --step 1 --verify",
                   "--k 40 --verify", "--k 300 --verify --format csv --digits 50", "--k 40 --step 20 --verify",
                   "--k 18 --step 18 --verify", "--k 3 --base-n 3"])
    cmds += _grid("density --family power", ["--base-n 1", "--base-n 2", "--base-n 3", "--base-n 20"],
                  ["--k 1", "--k 6", "--k 1000", "--k 1001", "--k 6 --verify", "--k 12 --verify",
                   "--k 12 --step 3 --verify"])
    cmds += ["density --family fib --k 20000 --step 1", "density --family power --base-n 3 --k 1000 --step 1", "density --family power --base-n 3 --k 1000 --step 1 "
             "--digits 50 --format csv", "density --family power --k 3", "density --family power --base-n 21 --k 3",
             "density --family power --base-n 0 --k 3", "density --family power --base-n 2 --k 3 --verify --format csv",
             "density --family skk --k 1000000", "density --family skk --k 1000001", "density --family skk --k 1",
             "density --family skk --k 1000000 --step 1", "density --family skk --k 40 --verify",
             "density --family cycles --k 1000000000000", "density --family cycles --k 1000000000001",
             "density --family cycles --k 1000000000000 --digits 50 --format csv", "density --family cycles --k 9 --verify",
             "density --family cycles --k 9 --step 0", "density --family fib --k 0", "density --family lucas --k 1",
             "density --family hyper --k 3", "density --k 3", "density --family fib --k 5 --step x"]
    # limits: every --digits boundary, both formats
    cmds += _grid("limits", ["--digits 1", "--digits 2", "", "--digits 30", "--digits 49", "--digits 50"], _FORMATS)
    cmds += ["limits --digits 0", "limits --digits 51", "limits --digits 1.5", "limits --format xml", "limits --n 3"]
    # top-level usage errors, and help for the program and each subcommand
    cmds += ["", "no-such-command", "--format csv", "limits extra", "--help"]
    cmds += [f"{name} --help" for name in ("enumerate", "ecc-table", "ecc-hist", "weights", "tree-check", "tree-print",
                                           "density", "limits")]
    return list(dict.fromkeys(cmds))  # the grids overlap


def main(argv: list[str]) -> int:
    if not argv:
        raise SystemExit(__doc__)
    out, lines = pathlib.Path(argv[0]), argv[1:]
    if lines:
        corpus = json.loads((out if out.exists() else CORPUS).read_text())
    else:
        corpus, lines = {}, commands()
    for line in lines:
        corpus[line] = run(line)
    out.write_text(json.dumps(corpus, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
