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

import functools
import itertools
from enum import Enum
from typing import NamedTuple

from .words import _PLUS_ONE, BitWord, WordClass


class LabelingKind(Enum):
    STANDARD = "standard"
    THETA = "theta"


def _label_rows(n: int, labeling: LabelingKind) -> tuple[list[int], bytes]:
    """The label and the depth of every leaf, left to right, as two columns; a label
    is the int encoding of a word of length n - 1, b1 the most significant bit.

    Base labels: index 1 carries the empty word; index 2 has left leaf 1 and right leaf 0. Growing
    from index k-1 and k-2 to index k, left leaves gain 0, or the complement of their last bit for theta;
    right leaves gain 00, or 01 for standard. So theta appends a 1 only after a 0: each label is a Fibonacci
    word. From index 3 on its left labels end in 01 or 10 and its right labels in 00, each side one suffix
    on the distinct labels of a smaller tree, so by induction all are distinct. Being F(n + 1), as many as
    those words, they are exactly the vertices of the Fibonacci cube of dimension n - 1.
    """
    if n < 1:
        raise ValueError("tree index must be >= 1")
    prev2, prev1 = ([0], b"\0"), ([1, 0], b"\1\1")
    theta = labeling is LabelingKind.THETA
    for _ in range(3, n + 1):
        (left, d1), (right, d2) = prev1, prev2
        labels = [b << 1 | (theta and not b & 1) for b in left]
        labels += [b << 2 | (not theta) for b in right]
        prev2, prev1 = prev1, (labels, (d1 + d2).translate(_PLUS_ONE))
    return prev2 if n == 1 else prev1


class LeafTree:
    """A labeled Fibonacci tree. Immutable once built."""

    def __init__(self, n: int, labeling: LabelingKind):
        self.n = n
        self.labeling = labeling
        self._labels, self._depths = _label_rows(n, labeling)
        # a sorted copy of the labels holds a pointer each, a set two slots and more
        if any(a == b for a, b in itertools.pairwise(sorted(self._labels))):
            raise AssertionError("leaf labels are not distinct")

    @property
    def leaf_count(self) -> int:
        return len(self._labels)

    @functools.cached_property
    def _depth_by_label(self) -> dict[int, int]:
        return dict(zip(self._labels, self._depths))

    def leaves(self) -> tuple[tuple[BitWord, int], ...]:
        """(label, depth) pairs in left-to-right order."""
        return tuple((BitWord(self.n - 1, b), d) for b, d in zip(self._labels, self._depths))

    def depth_of(self, label: BitWord) -> int:
        # "0", "00" and "000" all encode 0, so the length must match first
        if label.n == self.n - 1 and label.bits in self._depth_by_label:
            return self._depth_by_label[label.bits]
        raise ValueError(f"label {label!s} does not occur in this tree")

    def render(self, start: int = 0, stop: int | None = None, csv: bool = False) -> str:
        """Leaves start..stop - 1, all by default, one per line: 'depth label' indented by
        depth, or 'depth,label' in csv, which writes the empty word as nothing, not ε."""
        w, rows = self.n - 1, zip(self._labels[start:stop], self._depths[start:stop])
        if csv:
            return "\n".join(f"{d},{format(b, f'0{w}b') if w else ''}" for b, d in rows)
        return "\n".join(f"{'  ' * d}{d} {format(b, f'0{w}b') if w else 'ε'}" for b, d in rows)


def build(n: int, labeling: LabelingKind = LabelingKind.THETA) -> LeafTree:
    return LeafTree(n, labeling)


def depth_sum(n: int) -> int:
    """Total depth over all leaves; depends only on the tree shape, so on no labeling."""
    return sum(_label_rows(n, LabelingKind.THETA)[1])


class DepthEccCheck(NamedTuple):
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
    from .cube import CubeGraph  # here, so that building and printing trees never compiles cube

    if n < 1:
        raise ValueError("dimension must be >= 1")
    tree = build(n + 1, labeling)
    graph = CubeGraph(WordClass.FIBONACCI, n)
    ecc, depths = graph.eccentricities("hamming"), tree._depth_by_label
    if len(depths) != graph.num_vertices or not all(b in depths for b in graph._bits):
        raise AssertionError("leaf labels are not the cube's vertices")
    if ecc != bytes(map(depths.__getitem__, graph._bits)):  # compared in vertex order, keyed by label only to report
        ecc = dict(zip(graph._bits, ecc))
        for b, depth in sorted(zip(tree._labels, tree._depths), key=lambda row: row[1]):
            if ecc[b] != depth:
                return DepthEccCheck(n, labeling, False, tree.leaf_count, (BitWord(n, b), depth, ecc[b]))
    return DepthEccCheck(n, labeling, True, tree.leaf_count, None)
