import itertools

import pytest

import dpi2 as d
from dpi2 import S2Label


def test_sphere_has_six_points():
    assert len(d.S2.points) == 6
    # axis order: e1, e2, e3, then their negatives
    assert d.S2.points[S2Label.E1] == (1, 0, 0)
    assert d.S2.points[S2Label.E2] == (0, 1, 0)
    assert d.S2.points[S2Label.E3] == (0, 0, 1)
    assert d.S2.points[S2Label.NEG_E1] == (-1, 0, 0)
    assert d.S2.points[S2Label.NEG_E2] == (0, -1, 0)
    assert d.S2.points[S2Label.NEG_E3] == (0, 0, -1)


def test_basepoint_is_negative_e1():
    assert d.BASEPOINT == S2Label.NEG_E1 == 3


def test_adjacency_iff_not_antipodal():
    # brute force over all 36 ordered pairs
    for i, j in itertools.product(range(6), repeat=2):
        p, q = d.S2.points[i], d.S2.points[j]
        expected = tuple(-c for c in p) != q
        assert d.adjacent(d.S2, p, q) is expected, (i, j)


def test_twelve_adjacent_unordered_pairs():
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(6), 2)
        if d.S2.adjacency_matrix[i, j]
    ]
    assert len(pairs) == 12  # 15 unordered pairs minus 3 antipodal ones


def test_every_point_adjacent_to_five_counting_itself():
    for i in range(6):
        assert int(d.S2.adjacency_matrix[i].sum()) == 5


def test_make_sphere_sizes():
    assert len(make := d.make_sphere(1).points) == 4, make
    assert d.make_sphere(2) == d.S2
    assert len(d.make_sphere(3).points) == 8


def test_make_sphere_rejects_nonpositive():
    with pytest.raises(ValueError):
        d.make_sphere(0)


def test_antipode_values():
    assert d.antipode(S2Label.E2) == S2Label.NEG_E2
    assert d.antipode(S2Label.NEG_E1) == S2Label.E1
    for i in range(6):
        assert d.antipode(d.antipode(i)) == i


