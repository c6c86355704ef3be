import numpy as np
import pytest

import dpi2 as d

from conftest import brute_force_continuous


def _z2(q):
    pts = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    return d.DigitalImage(name=f"Z2c{q}", points=tuple(pts), adjacency=d.LatticeCq(q))


def test_lattice_c2_allows_diagonal():
    img = _z2(2)
    assert d.adjacent(img, (0, 0), (1, 1))
    assert d.adjacent(img, (0, 0), (0, 0))  # reflexive
    assert not d.adjacent(img, (0, 0), (2, 0))


def test_lattice_c1_blocks_diagonal():
    img = _z2(1)
    assert not d.adjacent(img, (0, 0), (1, 1))
    assert d.adjacent(img, (0, 0), (1, 0))


def test_sphere_antipodes_not_adjacent():
    e1 = d.S2.points[0]
    neg_e1 = d.S2.points[3]
    assert not d.adjacent(d.S2, e1, neg_e1)
    assert d.adjacent(d.S2, e1, d.S2.points[1])


def test_rectangle_points_and_interior():
    r = d.Rectangle(4, 4)
    assert r.width == 5 and r.height == 5
    assert len(r.points()) == 25
    assert r.is_interior(1, 1) and not r.is_interior(0, 2)


@pytest.mark.parametrize(
    "m,n,expected",
    [(4, 4, 16), (1, 1, 4), (2, 2, 8)],
)
def test_boundary_sizes(m, n, expected):
    assert len(d.boundary(d.Rectangle(m, n))) == expected


def test_interior_of_2x2():
    r = d.Rectangle(2, 2)
    inside = {p for p in r.points() if p not in d.boundary(r)}
    assert inside == {(1, 1)}


def test_antipodal_neighbors_are_discontinuous():
    # e2 next to -e2 cannot occur in a continuous map
    arr = np.full((5, 5), 3, dtype=np.uint8)
    arr[2, 1] = 1
    arr[2, 2] = 4
    assert not d.values_continuous(arr, d.S2.adjacency_matrix)
    where = d.first_discontinuity(arr, d.S2.adjacency_matrix)
    assert where is not None
    (a1, b1), (a2, b2) = where
    assert {arr[b1, a1], arr[b2, a2]} == {1, 4}


def test_continuity_matches_brute_force():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(60):
        arr = np.full((5, 6), 3, dtype=np.uint8)
        arr[1:-1, 1:-1] = rng.integers(0, 6, size=(3, 4))
        fast = d.values_continuous(arr, d.S2.adjacency_matrix)
        slow = brute_force_continuous(arr, d.S2)
        assert fast is slow
        hits += fast
    assert 0 < hits < 60  # the sample hit both outcomes


def test_explicit_requires_symmetric_edges():
    adj = d.Explicit.from_pairs([(0, 1)])
    img = d.DigitalImage(name="pair", points=((0,), (1,)), adjacency=adj)
    assert d.adjacent(img, (0,), (1,))
    assert d.adjacent(img, (1,), (0,))
    assert d.adjacent(img, (0,), (0,))
