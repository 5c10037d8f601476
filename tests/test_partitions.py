"""Partition container and enumeration."""

import pytest

from tschur.partitions import Partition, partitions, partitions_in_box


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    assert Partition([]).size() == 0


def test_basic_stats():
    lam = Partition([4, 2, 1])
    assert lam.size() == 7
    assert lam.length() == 3
    assert lam.first_row() == 4
    assert len(list(lam.cells())) == 7


def test_conjugate_involution():
    lam = Partition([5, 3, 3, 1])
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate() == Partition([4, 3, 3, 1, 1])


def test_partition_counts():
    # p(0..8) = 1,1,2,3,5,7,11,15,22 cumulatively 67
    assert len(list(partitions(8))) == 67
    assert len([p for p in partitions(6) if p.size() == 6]) == 11


def test_enumeration_constraints():
    for lam in partitions(8, max_part=3, max_rows=2):
        assert lam.first_row() <= 3 and lam.length() <= 2
    # the row bound prunes the search; it must keep exactly the unpruned
    # partitions with at most max_rows rows, in the same order
    for max_size in (0, 1, 7, 12):
        for max_part in (None, 0, 1, 2, 3, 5, 12):
            unpruned = list(partitions(max_size, max_part=max_part))
            for max_rows in (0, 1, 2, 3, 4, 12):
                pruned = list(partitions(max_size, max_part=max_part, max_rows=max_rows))
                assert pruned == [lam for lam in unpruned if lam.length() <= max_rows]


def test_box_enumeration():
    box = list(partitions_in_box(2, 2))
    # (a, b) with 2 >= a >= b >= 0: 6 partitions including empty
    assert len(box) == 6
    assert Partition([]) in box and Partition([2, 2]) in box
