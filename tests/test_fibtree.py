import pytest

from fibcube import fibtree
from fibcube.cube import CubeGraph, ecc_sum_closed
from fibcube.fibtree import LabelingKind, build, depth_sum, verify_depth_eccentricity
from fibcube.numeric import fibonacci
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
    assert depth_sum(2, THETA) == 2
    assert depth_sum(4, THETA) == 12
    assert depth_sum(1, THETA) == 0


def test_depth_sum_is_shape_only_and_matches_ecc_sums():
    for n in range(1, 21):
        s = depth_sum(n, THETA)
        assert s == depth_sum(n, STD)
        assert s == ecc_sum_closed(n - 1, WordClass.FIBONACCI)


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
    rows = fibtree._label_rows(5, THETA)
    monkeypatch.setattr(fibtree, "_label_rows", lambda n, labeling: rows + rows[:1])
    with pytest.raises(AssertionError, match="leaf labels are not distinct"):
        build(5, THETA)


def test_a_leaf_label_off_the_cube_is_refused(monkeypatch):
    # 0b1100 has adjacent 1s, so it is no vertex of the Fibonacci cube of dimension 4
    label_rows = fibtree._label_rows
    monkeypatch.setattr(fibtree, "_label_rows", lambda n, labeling: [(0b1100, 4)] + label_rows(n, labeling)[1:])
    with pytest.raises(AssertionError, match="leaf labels are not the cube's vertices"):
        verify_depth_eccentricity(4, THETA)


def test_the_tree_holds_int_labels_and_builds_no_bitword(monkeypatch):
    def refuse(*args):
        raise AssertionError("BitWord built")

    monkeypatch.setattr(fibtree, "BitWord", refuse)
    tree = build(12, THETA)
    assert tree.render().count("\n") == tree.leaf_count - 1 == fibonacci(13) - 1
    assert verify_depth_eccentricity(8, THETA).ok
