import numpy as np
import pytest

import dpi2 as d
from dpi2.grid import grid_fault

from conftest import brute_force_continuous


def _z2(q):
    pts = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    return d.DigitalImage(name=f"Z2c{q}", points=tuple(pts), adjacency=d.LatticeCq(q))


def test_lattice_c2_allows_diagonal():
    img = _z2(2)
    assert img.adjacency_matrix[img.point_index[(0, 0)], img.point_index[(1, 1)]]
    assert img.adjacency_matrix[img.point_index[(0, 0)], img.point_index[(0, 0)]]  # reflexive
    assert not img.adjacency_matrix[img.point_index[(0, 0)], img.point_index[(2, 0)]]


def test_lattice_c1_blocks_diagonal():
    img = _z2(1)
    assert not img.adjacency_matrix[img.point_index[(0, 0)], img.point_index[(1, 1)]]
    assert img.adjacency_matrix[img.point_index[(0, 0)], img.point_index[(1, 0)]]


def test_sphere_antipodes_not_adjacent():
    e1 = d.S2.points[0]
    neg_e1 = d.S2.points[3]
    assert not d.S2.adjacency_matrix[d.S2.point_index[e1], d.S2.point_index[neg_e1]]
    assert d.S2.adjacency_matrix[d.S2.point_index[e1], d.S2.point_index[d.S2.points[1]]]


AMAT = d.S2.adjacency_matrix


def _named_boundary(m, n):
    """The cells of I_{m,n} that grid_fault names when one alone leaves the sea.

    The cell gets e2, which touches the basepoint -e1, so only a boundary
    cell can be at fault.
    """
    named = set()
    for b in range(n + 1):
        for a in range(m + 1):
            arr = np.full((n + 1, m + 1), d.BASEPOINT, dtype=np.uint8)
            arr[b, a] = 1
            fault = grid_fault(arr, d.BASEPOINT, d.S2)
            if fault is not None:
                assert fault == ((a, b),)
                named.add((a, b))
    return named


def test_rectangle_points_and_interior():
    r = d.Rectangle(4, 4)
    assert r.width == 5 and r.height == 5
    named = _named_boundary(4, 4)
    assert (1, 1) not in named and (0, 2) in named


@pytest.mark.parametrize(
    "m,n,expected",
    [(4, 4, 16), (1, 1, 4), (2, 2, 8)],
)
def test_boundary_sizes(m, n, expected):
    assert len(_named_boundary(m, n)) == expected


def test_interior_of_2x2():
    inside = {(a, b) for a in range(3) for b in range(3)} - _named_boundary(2, 2)
    assert inside == {(1, 1)}


def test_antipodal_neighbors_are_discontinuous():
    # e2 next to -e2 cannot occur in a continuous map
    arr = np.full((5, 5), 3, dtype=np.uint8)
    arr[2, 1] = 1
    arr[2, 2] = 4
    where = grid_fault(arr, d.BASEPOINT, d.S2)
    assert where is not None
    (a1, b1), (a2, b2) = where
    assert {arr[b1, a1], arr[b2, a2]} == {1, 4}


def test_continuity_matches_brute_force():
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(60):
        arr = np.full((5, 6), 3, dtype=np.uint8)
        arr[1:-1, 1:-1] = rng.integers(0, 6, size=(3, 4))
        fast = grid_fault(arr, d.BASEPOINT, d.S2) is None
        slow = brute_force_continuous(arr, d.S2)
        assert fast is slow
        hits += fast
    assert 0 < hits < 60  # the sample hit both outcomes


def _raster_fault(arr, basepoint, amat):
    """The first off-basepoint boundary cell in raster order; failing that,
    the first cell in raster order with a non-adjacent later neighbour,
    paired with the first such neighbour in the order (1,0), (-1,1), (0,1),
    (1,1)."""
    h, w = arr.shape
    for b in range(h):
        for a in range(w):
            if (a in (0, w - 1) or b in (0, h - 1)) and arr[b, a] != basepoint:
                return ((a, b),)
    for b in range(h):
        for a in range(w):
            for da, db in ((1, 0), (-1, 1), (0, 1), (1, 1)):
                a2, b2 = a + da, b + db
                if 0 <= a2 < w and b2 < h and not amat[arr[b, a], arr[b2, a2]]:
                    return (a, b), (a2, b2)
    return None


def test_grid_fault_names_the_first_fault_in_raster_order():
    rng = np.random.default_rng(7)
    kinds = {None: 0, 1: 0, 2: 0}
    for _ in range(1500):
        h, w = rng.integers(1, 10, size=2)
        arr = np.full((h, w), d.BASEPOINT, dtype=np.uint8)
        cells = rng.integers(0, h * w, size=rng.integers(0, 8))
        arr.flat[cells] = rng.integers(0, 6, size=len(cells))
        if rng.random() < 0.7:  # most grids keep their boundary at the basepoint
            arr[[0, -1], :] = arr[:, [0, -1]] = d.BASEPOINT
        fault = grid_fault(arr, d.BASEPOINT, d.S2)
        assert fault == _raster_fault(arr, d.BASEPOINT, AMAT), arr
        kinds[fault if fault is None else len(fault)] += 1
    assert min(kinds.values()) > 100  # valid grids, boundary and pair faults


def test_explicit_requires_symmetric_edges():
    adj = d.Explicit.from_pairs([(0, 1)])
    img = d.DigitalImage(name="pair", points=((0,), (1,)), adjacency=adj)
    assert img.adjacency_matrix[img.point_index[(0,)], img.point_index[(1,)]]
    assert img.adjacency_matrix[img.point_index[(1,)], img.point_index[(0,)]]
    assert img.adjacency_matrix[img.point_index[(0,)], img.point_index[(0,)]]
