"""Fibonacci trees with two leaf labelings by binary words.

The tree with index n has the tree n-1 as left subtree and the tree n-2
as right subtree; indices 0 and 1 are single leaves. Both labelings
decorate the F(n+1) leaves with the words of length n-1 that have no
adjacent 1s, one word per leaf. The depth labeling ("theta") makes the
depth of each leaf equal the eccentricity of its word in the Fibonacci
cube of dimension n-1; the plain labeling ("standard") does not, which
the checker demonstrates. Labels are ints inside, ``BitWord``s at the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cube import CubeGraph
from .words import BitWord, WordClass


class LabelingKind(Enum):
    STANDARD = "standard"
    THETA = "theta"


def _label_rows(n: int, labeling: LabelingKind) -> list[tuple[int, int]]:
    """(label, depth) for every leaf, left to right; a label is the int
    encoding of a word of length n - 1, b1 the most significant bit.

    Base labels: index 1 carries the empty word; index 2 has left leaf
    1 and right leaf 0. Growing from index k-1 and k-2 to index k, left
    leaves gain 0, or the complement of their last bit for theta; right
    leaves gain 00, or 01 for standard.
    """
    if n < 1:
        raise ValueError("tree index must be >= 1")
    prev2, prev1 = [(0, 0)], [(1, 1), (0, 1)]
    theta = labeling is LabelingKind.THETA
    for _ in range(3, n + 1):
        left = [(b << 1 | (theta and not b & 1), d + 1) for b, d in prev1]
        right = [(b << 2 | (not theta), d + 1) for b, d in prev2]
        prev2, prev1 = prev1, left + right
    return prev2 if n == 1 else prev1


class LeafTree:
    """A labeled Fibonacci tree. Immutable once built."""

    def __init__(self, n: int, labeling: LabelingKind):
        self.n = n
        self.labeling = labeling
        self._rows = tuple(_label_rows(n, labeling))
        self._depth_by_label = dict(self._rows)
        if len(self._depth_by_label) != len(self._rows):
            raise AssertionError("leaf labels are not distinct")

    @property
    def leaf_count(self) -> int:
        return len(self._rows)

    def leaves(self) -> tuple[tuple[BitWord, int], ...]:
        """(label, depth) pairs in left-to-right order."""
        return tuple((BitWord(self.n - 1, b), d) for b, d in self._rows)

    def leaves_breadth_first(self) -> list[tuple[BitWord, int]]:
        """Shallowest leaves first, left to right within a level."""
        return sorted(self.leaves(), key=lambda row: row[1])

    def depth_of(self, label: BitWord) -> int:
        # "0", "00" and "000" all encode 0, so the length must match first
        if label.n == self.n - 1 and label.bits in self._depth_by_label:
            return self._depth_by_label[label.bits]
        raise ValueError(f"label {label!s} does not occur in this tree")

    def render(self) -> str:
        """One leaf per line, indented by depth: 'depth label'."""
        return "\n".join(f"{'  ' * d}{d} {format(b, f'0{self.n - 1}b') if self.n > 1 else 'ε'}" for b, d in self._rows)


def build(n: int, labeling: LabelingKind = LabelingKind.THETA) -> LeafTree:
    return LeafTree(n, labeling)


def depth_sum(n: int, labeling: LabelingKind = LabelingKind.THETA) -> int:
    """Total depth over all leaves; depends only on the tree shape."""
    return sum(d for _, d in _label_rows(n, labeling))


@dataclass(frozen=True)
class DepthEccCheck:
    """Outcome of playing leaf depths against cube eccentricities."""

    n: int
    labeling: LabelingKind
    ok: bool
    leaf_count: int
    # first (label, depth, eccentricity) mismatch in breadth-first leaf order
    counterexample: tuple[BitWord, int, int] | None


def verify_depth_eccentricity(n: int, labeling: LabelingKind = LabelingKind.THETA) -> DepthEccCheck:
    """Check, for every vertex of the dimension-n Fibonacci cube, that its
    eccentricity equals the depth of the leaf carrying it in the labeled
    tree of index n+1. Leaves are visited shallowest first, so the first
    counterexample reported is the shallowest one.

    Eccentricities come from the Hamming route, not ``fast``: the fast
    route builds E_n from E_{n-1} and E_{n-2} as the tree grows from its
    two subtrees, so a check against it would be circular."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    tree = build(n + 1, labeling)
    graph = CubeGraph(WordClass.FIBONACCI, n)
    ecc = dict(zip(graph.vertex_bits, graph.eccentricities("hamming")))
    if tree._depth_by_label.keys() != ecc.keys():
        raise AssertionError("leaf labels are not the cube's vertices")
    for b, depth in sorted(tree._rows, key=lambda row: row[1]):
        if ecc[b] != depth:
            return DepthEccCheck(n, labeling, False, tree.leaf_count, (BitWord(n, b), depth, ecc[b]))
    return DepthEccCheck(n, labeling, True, tree.leaf_count, None)
