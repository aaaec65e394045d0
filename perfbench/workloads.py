"""The benchmark's workloads: fixed lists of commands at two sizes.

A command is either a ``fibcube`` CLI invocation or one call of the
library workload (``library.py``). The ``full`` size is what the
benchmark measures; ``smoke`` runs each workload in seconds, for the
benchmark's own tests. Every command is deterministic exact math, so a
run's seed only shuffles the order in which the commands run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    kind: str  # "cli" or "library"
    args: tuple[str, ...]

    @property
    def key(self) -> str:
        """Stable name of the command, used to look up its recorded digest."""
        return " ".join((self.kind,) + self.args)


def _cli(line: str) -> Command:
    return Command("cli", tuple(line.split()))


def _library(line: str) -> Command:
    return Command("library", tuple(line.split()))


WORKLOADS: dict[str, dict[str, list[Command]]] = {
    # Closed forms on integers thousands of digits long: Fibonacci
    # evaluation, Decimal conversion and big-int-to-text, no enumeration.
    "sweep": {
        "full": [
            _cli("ecc-table --kind fib --n-max 3500"),
            _cli("ecc-table --kind lucas --n-max 3500"),
            _cli("weights --kind fib --n 3000"),
            _cli("density --family fib --k 20000"),
            _cli("density --family lucas --k 20000"),
            _cli("limits"),
        ],
        "smoke": [
            _cli("ecc-table --kind fib --n-max 60"),
            _cli("ecc-table --kind lucas --n-max 60"),
            _cli("weights --kind fib --n 40"),
            _cli("density --family fib --k 300"),
            _cli("density --family lucas --k 300"),
            _cli("limits"),
        ],
    },
    # Word enumeration and writing every word or leaf out.
    "enumerate": {
        "full": [
            _cli("enumerate --kind fib --n 26"),
            _cli("enumerate --kind lucas --n 25"),
            _cli("enumerate --kind hyper --n 17"),
            _cli("tree-print --n 20"),
            _cli("ecc-hist --kind fib --n 24 --method fast"),
        ],
        "smoke": [
            _cli("enumerate --kind fib --n 10"),
            _cli("enumerate --kind lucas --n 10"),
            _cli("enumerate --kind hyper --n 8"),
            _cli("tree-print --n 8"),
            _cli("ecc-hist --kind fib --n 10 --method fast"),
        ],
    },
    # The same enumeration, but to build graphs: adjacency, BFS, Hamming,
    # brute-force counts, explicit products and small series.
    "verify": {
        "full": [
            _cli("ecc-hist --kind lucas --n 14 --verify"),
            _cli("ecc-table --kind fib --n-max 14 --verify"),
            _cli("tree-check --n 16"),
            _cli("weights --kind lucas --n 16 --verify"),
            _cli("density --family power --base-n 3 --k 6 --verify"),
        ],
        "smoke": [
            _cli("ecc-hist --kind lucas --n 8 --verify"),
            _cli("ecc-table --kind fib --n-max 8 --verify"),
            _cli("tree-check --n 8"),
            _cli("weights --kind lucas --n 8 --verify"),
            _cli("density --family power --base-n 2 --k 3 --verify"),
        ],
    },
    # Public-API calls beyond every CLI cap, one call per child: series
    # expansion, the exact density lemma and the tree-depth check, each
    # checked by a second route (library.py).
    "library": {
        "full": [
            _library("ecc_histograms fib 36"),
            _library("ecc_histograms lucas 36"),
            _library("ecc_sums fib 36"),
            _library("ecc_sums lucas 36"),
            _library("density_lemma 24"),
            _library("density_lemma 25"),
            _library("depth_eccentricity 17"),
        ],
        "smoke": [
            _library("ecc_histograms fib 12"),
            _library("ecc_histograms lucas 12"),
            _library("ecc_sums fib 12"),
            _library("ecc_sums lucas 12"),
            _library("density_lemma 10"),
            _library("density_lemma 11"),
            _library("depth_eccentricity 8"),
        ],
    },
}

SIZES = ("full", "smoke")
