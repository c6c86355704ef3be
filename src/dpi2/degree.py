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

import numpy as np

from .sphere import S2

# _LOOKUP[i, j, k] is the contribution of a CCW triangle labeled (i, j, k).
# Only triangles whose label set is exactly {e1, e2, e3} (labels 0, 1, 2)
# count; the sign is the determinant of the corresponding unit vectors, i.e.
# +1 for cyclic rotations of (e1, e2, e3) and -1 for those of (e1, e3, e2).
_LOOKUP = np.zeros((6, 6, 6), dtype=np.int8)
for _r in range(3):
    _LOOKUP[_r, (_r + 1) % 3, (_r + 2) % 3] = 1
    _LOOKUP[_r, (_r + 2) % 3, (_r + 1) % 3] = -1
_LOOKUP.setflags(write=False)


def _orientations(f) -> tuple[np.ndarray, np.ndarray]:
    """Each unit square's lower and upper triangle contribution, indexed [b, a]."""
    if f.codomain != S2:
        raise ValueError("triangle counting is defined for sphere-valued maps")
    arr = f.array
    p = arr[:-1, :-1]
    q = arr[:-1, 1:]
    r = arr[1:, 1:]
    s = arr[1:, :-1]
    return _LOOKUP[p, q, r], _LOOKUP[p, r, s]


def triangle_count(f) -> int:
    """Signed count of (e1,e2,e3)-labeled triangles in the triangulation."""
    lower, upper = _orientations(f)
    return int(lower.sum()) + int(upper.sum())


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
