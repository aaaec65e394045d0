from collections import Counter
from fractions import Fraction

import pytest

from fibcube import fibtree
from fibcube.cube import CubeGraph, ecc_sum_closed
from fibcube.fibtree import LabelingKind, build, depth_sum, verify_depth_eccentricity
from fibcube.numeric import fibonacci
from fibcube.series import fibonacci_ecc_gf, lucas_ecc_gf
from fibcube.words import BitWord, WordClass, enumerate_words

W = BitWord.from_string
THETA, STD = LabelingKind.THETA, LabelingKind.STANDARD


def leaf_strings(tree):
    return [(str(label), d) for label, d in tree.leaves()]


def test_base_trees():
    assert leaf_strings(build(1, THETA)) == [("", 0)]
    assert leaf_strings(build(2, THETA)) == [("1", 1), ("0", 1)]
    assert leaf_strings(build(2, STD)) == [("1", 1), ("0", 1)]


def test_depth_labeled_tree_three_and_four():
    assert leaf_strings(build(3, THETA)) == [("10", 2), ("01", 2), ("00", 1)]
    assert leaf_strings(build(4, THETA)) == [
        ("101", 3),
        ("010", 3),
        ("001", 2),
        ("100", 2),
        ("000", 2),
    ]


def test_plain_labeled_tree_three_and_four():
    assert leaf_strings(build(3, STD)) == [("10", 2), ("00", 2), ("01", 1)]
    assert leaf_strings(build(4, STD)) == [
        ("100", 3),
        ("000", 3),
        ("010", 2),
        ("101", 2),
        ("001", 2),
    ]


def test_depth_of_examples():
    assert build(3, THETA).depth_of(W("00")) == 1
    assert build(4, THETA).depth_of(W("101")) == 3
    assert build(1, THETA).depth_of(W("")) == 0
    # "0", "00" and "000" all encode 0; only the word of length 2 is a label
    for label in (W("11"), W("0"), W("000")):
        with pytest.raises(ValueError):
            build(3, THETA).depth_of(label)


def test_leaf_counts():
    for n in range(1, 26):
        assert build(n, THETA).leaf_count == fibonacci(n + 1)


def test_labelings_are_bijections_onto_words():
    for n in range(1, 21):
        expected = set(enumerate_words(n - 1, WordClass.FIBONACCI))
        assert {label for label, _ in build(n, THETA).leaves()} == expected
    for n in range(1, 15):
        expected = set(enumerate_words(n - 1, WordClass.FIBONACCI))
        assert {label for label, _ in build(n, STD).leaves()} == expected


def string_labels(n, labeling):
    # the labels grown as text: left leaves gain "0" (standard) or the
    # complement of their last symbol (theta), right leaves "01" or "00"
    prev2, prev1 = [""], ["1", "0"]
    for _ in range(3, n + 1):
        if labeling is THETA:
            left = [lbl + ("0" if lbl.endswith("1") else "1") for lbl in prev1]
        else:
            left = [lbl + "0" for lbl in prev1]
        prev2, prev1 = prev1, left + [lbl + ("00" if labeling is THETA else "01") for lbl in prev2]
    return prev2 if n == 1 else prev1


def test_integer_labels_match_the_labels_grown_as_text():
    for labeling in (THETA, STD):
        for n in range(1, 17):
            assert [str(label) for label, _ in build(n, labeling).leaves()] == string_labels(n, labeling)


def fibonacci_tree_depths(n):
    # leaf depths, left to right, of the tree with subtrees of index n-1 and n-2
    return [0] if n <= 1 else [d + 1 for d in fibonacci_tree_depths(n - 1) + fibonacci_tree_depths(n - 2)]


def test_leaf_depths_follow_the_fibonacci_tree_shape():
    for labeling in (THETA, STD):
        for n in range(1, 16):
            assert [d for _, d in build(n, labeling).leaves()] == fibonacci_tree_depths(n), (labeling, n)


def test_depth_equals_eccentricity_for_depth_labeling():
    for n in range(1, 13):
        check = verify_depth_eccentricity(n, THETA)
        assert check.ok, (n, check.counterexample)
        assert check.leaf_count == fibonacci(n + 2)


def test_depth_equals_eccentricity_up_to_16():
    for n in (13, 14, 15, 16):
        assert verify_depth_eccentricity(n, THETA).ok


def test_plain_labeling_first_counterexample():
    check = verify_depth_eccentricity(2, STD)
    assert not check.ok
    label, depth, ecc = check.counterexample
    assert (str(label), depth, ecc) == ("01", 1, 2)


def test_depth_sum_values():
    assert depth_sum(2) == 2
    assert depth_sum(4) == 12
    assert depth_sum(1) == 0


def test_depth_sum_is_shape_only_and_matches_ecc_sums():
    for n in range(1, 21):
        s = depth_sum(n)
        assert s == sum(fibtree._label_rows(n, THETA)[1]) == sum(fibtree._label_rows(n, STD)[1])
        assert s == ecc_sum_closed(n - 1, WordClass.FIBONACCI)


def kraft_sum(counts):
    """Sum over depths d of count(d) * 2^-d, exactly: 1 for the leaf depths of a full binary tree."""
    return sum(Fraction(c, 2**d) for d, c in counts.items())


def test_theta_depths_satisfy_the_kraft_equality():
    for n in range(1, 23):
        assert kraft_sum(Counter(fibtree._label_rows(n, THETA)[1])) == 1, n


def test_fibonacci_cube_eccentricities_satisfy_the_kraft_equality():
    # the shape certificate of the tree theorem: the eccentricities of Gamma_n can be leaf depths of a full binary tree
    for h in fibonacci_ecc_gf(200):
        assert kraft_sum(h.counts) == 1, h.n


def test_lucas_cube_eccentricities_miss_the_kraft_equality_from_three():
    # at y = 1/2 the Lucas ratio is -1 + 1/(1 - x) + 2/(1 + x/2) - (1 - x)/(1 - x^2/2), whose x^n coefficient is
    # 1 + (-1)^(n+1) (2^floor((n-1)/2) - 1) / 2^(n-1): so no full binary tree has them as leaf depths for n >= 3
    for h in lucas_ecc_gf(200)[1:]:
        n = h.n
        gap = Fraction((-1) ** (n + 1) * (2 ** ((n - 1) // 2) - 1), 2 ** (n - 1))
        assert kraft_sum(h.counts) == 1 + gap, n
        assert (gap != 0) == (n >= 3), n


def test_depth_total_equals_eccentricity_total():
    # the depth total of the labeled tree equals the eccentricity total
    n = 3
    tree = build(n + 1, THETA)
    g = CubeGraph(WordClass.FIBONACCI, n)
    assert sum(d for _, d in tree.leaves()) == sum(g.eccentricities("bfs")) == 12


def test_breadth_first_order_is_stable_by_depth():
    # the depth check reports the shallowest mismatch, left to right within a depth
    for n in range(2, 13):
        g = CubeGraph(WordClass.FIBONACCI, n)
        ecc = dict(zip(g.words(), g.eccentricities("hamming")))
        rows = sorted(build(n + 1, STD).leaves(), key=lambda row: row[1])  # stable
        first = next((label, d, ecc[label]) for label, d in rows if ecc[label] != d)
        assert verify_depth_eccentricity(n, STD).counterexample == first


def test_render_tree_three():
    assert build(3, THETA).render() == "    2 10\n    2 01\n  1 00"
    assert build(1, THETA).render() == "0 ε"


def test_build_validation():
    with pytest.raises(ValueError):
        build(0, THETA)
    with pytest.raises(ValueError):
        verify_depth_eccentricity(0, THETA)


def test_repeated_leaf_labels_are_refused(monkeypatch):
    labels, depths = fibtree._label_rows(5, THETA)
    monkeypatch.setattr(fibtree, "_label_rows", lambda n, labeling: (labels + labels[:1], depths + depths[:1]))
    with pytest.raises(AssertionError, match="leaf labels are not distinct"):
        build(5, THETA)


def test_a_leaf_label_off_the_cube_is_refused(monkeypatch):
    # 0b1100 has adjacent 1s, so it is no vertex of the Fibonacci cube of dimension 4
    label_rows = fibtree._label_rows

    def off_the_cube(n, labeling):
        labels, depths = label_rows(n, labeling)
        return [0b1100] + labels[1:], bytes([4]) + depths[1:]

    monkeypatch.setattr(fibtree, "_label_rows", off_the_cube)
    with pytest.raises(AssertionError, match="leaf labels are not the cube's vertices"):
        verify_depth_eccentricity(4, THETA)


def row_wise_label_rows(n, labeling):
    # (label, depth) rows grown one leaf at a time, as the tree stored them before its two columns
    prev2, prev1 = [(0, 0)], [(1, 1), (0, 1)]
    theta = labeling is THETA
    for _ in range(3, n + 1):
        left = [(b << 1 | (theta and not b & 1), d + 1) for b, d in prev1]
        right = [(b << 2 | (not theta), d + 1) for b, d in prev2]
        prev2, prev1 = prev1, left + right
    return prev2 if n == 1 else prev1


def test_label_and_depth_columns_match_the_rows():
    for labeling in (THETA, STD):
        for n in range(1, 21):
            rows = row_wise_label_rows(n, labeling)
            labels, depths = fibtree._label_rows(n, labeling)
            assert (type(labels), type(depths)) == (list, bytes)
            assert list(zip(labels, depths)) == rows, (labeling, n)
            assert depth_sum(n) == sum(d for _, d in rows), (labeling, n)
            tree = build(n, labeling)
            assert tree.leaf_count == len(rows)
            assert all(tree.depth_of(BitWord(n - 1, b)) == d for b, d in rows), (labeling, n)


def test_the_tree_holds_int_labels_and_builds_no_bitword(monkeypatch):
    def refuse(*args):
        raise AssertionError("BitWord built")

    monkeypatch.setattr(fibtree, "BitWord", refuse)
    tree = build(12, THETA)
    assert tree.render().count("\n") == tree.leaf_count - 1 == fibonacci(13) - 1
    assert verify_depth_eccentricity(8, THETA).ok
