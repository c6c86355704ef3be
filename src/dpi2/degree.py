"""Winding degree of a sphere-valued grid map, via signed triangle counting.

Each unit lattice square of the domain is split into two triangles (lower:
(a,b),(a+1,b),(a+1,b+1); upper: (a,b),(a+1,b+1),(a,b+1), both listed
counterclockwise).  A triangle whose three corner labels are exactly e1, e2,
e3 contributes +1 when they appear in that cyclic order and -1 when they
appear in the reverse cyclic order; every other triangle contributes 0.  The
total is a homotopy invariant and plays the role of the classical degree (a
signed preimage count of the positive octant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import S2

# _LOOKUP[i, j, k] is the contribution of a CCW triangle labeled (i, j, k).
# Only triangles whose label set is exactly {e1, e2, e3} count; the sign is
# the determinant of the corresponding unit vectors, i.e. +1 for cyclic
# rotations of (e1, e2, e3) and -1 for cyclic rotations of (e1, e3, e2).
_LOOKUP = np.zeros((6, 6, 6), dtype=np.int8)
for _i in range(6):
    for _j in range(6):
        for _k in range(6):
            if {_i, _j, _k} != {0, 1, 2}:
                continue
            mat = np.array(
                [S2.points[_i], S2.points[_j], S2.points[_k]], dtype=np.float64
            )
            _LOOKUP[_i, _j, _k] = int(round(np.linalg.det(mat)))
_LOOKUP.setflags(write=False)


@dataclass(frozen=True)
class OrientedTriangle:
    """One CCW triangle of the standard domain triangulation."""

    vertices: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    orientation: int  # +1, -1, or 0 contribution of this triangle


def triangulate(m: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """CCW triangle vertex lists for I_{m,n}; empty if either side is 0."""
    tris: list[tuple[tuple[int, int], ...]] = []
    for b in range(n):
        for a in range(m):
            tris.append(((a, b), (a + 1, b), (a + 1, b + 1)))
            tris.append(((a, b), (a + 1, b + 1), (a, b + 1)))
    return tris


def triangle_count(f) -> int:
    """Signed count of (e1,e2,e3)-labeled triangles in the triangulation."""
    if f.codomain != S2:
        raise ValueError("triangle counting is defined for sphere-valued maps")
    arr = f.array
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        return 0
    p = arr[:-1, :-1]
    q = arr[:-1, 1:]
    r = arr[1:, 1:]
    s = arr[1:, :-1]
    lower = _LOOKUP[p, q, r]
    upper = _LOOKUP[p, r, s]
    return int(lower.sum()) + int(upper.sum())


def oriented_triangles(f) -> list[OrientedTriangle]:
    """Per-triangle breakdown of triangle_count, mainly for rendering."""
    if f.codomain != S2:
        raise ValueError("triangle counting is defined for sphere-valued maps")
    arr = f.array
    out: list[OrientedTriangle] = []
    for verts in triangulate(f.rect.m, f.rect.n):
        labels = tuple(int(arr[b, a]) for (a, b) in verts)
        out.append(
            OrientedTriangle(
                vertices=verts, orientation=int(_LOOKUP[labels])
            )
        )
    return out


# ---------------------------------------------------------------------------
# Reference maps of degree +1 and -1 on I_{4,4}.

_ROWS_PLUS = (
    (3, 3, 3, 3, 3),
    (3, 2, 2, 4, 3),
    (3, 1, 0, 4, 3),
    (3, 1, 5, 5, 3),
    (3, 3, 3, 3, 3),
)


def degree_one_map():
    """The smallest standard sphere map of degree +1 (domain I_{4,4})."""
    from .gridmap import from_array
    from .sphere import BASEPOINT

    return from_array(np.array(_ROWS_PLUS, dtype=np.uint8), S2, BASEPOINT)


def degree_minus_one_map():
    """Mirror image of degree_one_map; degree -1."""
    from .gridmap import inverse

    return inverse(degree_one_map())
