"""Points, rectangles, adjacency relations, and continuity checking.

A digital image is a finite set of lattice points together with a reflexive,
symmetric adjacency relation.  Two adjacency flavors are supported:

* ``LatticeCq(q)``: points are adjacent when they differ by at most 1 in at
  most ``q`` coordinates (the usual family of lattice adjacencies).
* ``Explicit``: an explicit edge set; it is reflexive- and symmetric-closed
  at construction time.

Rectangles ``I_{m,n} = {0..m} x {0..n}`` always carry the 8-adjacency,
which is the categorical product of the 1-D adjacencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

Point = tuple[int, ...]


@dataclass(frozen=True)
class LatticeCq:
    """Lattice adjacency: differ by <= 1 in at most ``q`` coordinates."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"lattice adjacency needs q >= 1, got {self.q}")


@dataclass(frozen=True)
class Explicit:
    """Explicit adjacency given by an edge set over point indices.

    The stored edge set is normalized: symmetric-closed, with self-loops
    implied (they are added automatically for every point).
    """

    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "Explicit":
        closed = set()
        for i, j in pairs:
            closed.add((min(i, j), max(i, j)))
        return Explicit(frozenset(closed))


AdjacencyKind = LatticeCq | Explicit


@dataclass(frozen=True)
class DigitalImage:
    """A finite point set in the integer lattice with a reflexive adjacency.

    ``points`` all share one dimension; ``adjacency`` is either a lattice
    rule or an explicit edge set over point indices.  Instances are
    immutable and safe to share.
    """

    name: str
    points: tuple[Point, ...]
    adjacency: AdjacencyKind

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a digital image needs at least one point")
        dim = len(self.points[0])
        if dim < 1:
            raise ValueError("points must have dimension >= 1")
        for p in self.points:
            if len(p) != dim:
                raise ValueError(
                    f"dimension mismatch: point {p} has dimension {len(p)}, "
                    f"expected {dim}"
                )
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points in digital image")
        if isinstance(self.adjacency, LatticeCq):
            if self.adjacency.q > dim:
                raise ValueError(
                    f"lattice adjacency c_{self.adjacency.q} does not fit "
                    f"dimension {dim}"
                )
        else:
            npts = len(self.points)
            for i, j in self.adjacency.edges:
                if not (0 <= i < npts and 0 <= j < npts):
                    raise ValueError(f"edge ({i},{j}) references a missing point")

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def point_index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean matrix A with A[i,j] iff points i and j are adjacent.

        Always reflexive and symmetric.
        """
        n = len(self.points)
        if isinstance(self.adjacency, LatticeCq):
            coords = np.asarray(self.points, dtype=np.int64)
            diff = np.abs(coords[:, None, :] - coords[None, :, :])
            mat = (diff.max(axis=2) <= 1) & (
                np.count_nonzero(diff, axis=2) <= self.adjacency.q
            )
        else:
            mat = np.zeros((n, n), dtype=bool)
            for i, j in self.adjacency.edges:
                mat[i, j] = True
                mat[j, i] = True
            np.fill_diagonal(mat, True)
        mat.setflags(write=False)
        return mat

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-point bitmasks of adjacent point indices (for fast replay)."""
        mat = self.adjacency_matrix
        masks = []
        for row in mat:
            m = 0
            for j in np.nonzero(row)[0]:
                m |= 1 << int(j)
            masks.append(m)
        return tuple(masks)


def adjacent(img: DigitalImage, p: Point, q: Point) -> bool:
    """True iff p ~ q in the image's adjacency (reflexive, symmetric)."""
    idx = img.point_index
    if p not in idx:
        raise ValueError(f"point {p} is not in image {img.name!r}")
    if q not in idx:
        raise ValueError(f"point {q} is not in image {img.name!r}")
    return bool(img.adjacency_matrix[idx[p], idx[q]])


@dataclass(frozen=True)
class Rectangle:
    """The domain rectangle I_{m,n} = {0..m} x {0..n}."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError(f"rectangle bounds must be >= 0, got {self!r}")

    @property
    def width(self) -> int:
        """Number of points along the a-axis (m + 1)."""
        return self.m + 1

    @property
    def height(self) -> int:
        """Number of points along the b-axis (n + 1)."""
        return self.n + 1


# --- continuity checking -------------------------------------------------
#
# A value grid (row-major, arr[b, a]) is continuous when every 8-adjacent
# pair of cells carries adjacent values.  The check slides the grid against
# itself along the four "later" neighbour offsets (da, db) of a cell, in the
# order a raster scan meets them; symmetry covers the other four, and
# reflexivity is free.


def grid_fault(
    arr: np.ndarray, basepoint: int, adjacency_matrix: np.ndarray
) -> tuple[tuple[int, int], ...] | None:
    """The first fault of a based, continuous value grid, or None.

    ``((a, b),)`` names the first boundary cell, in raster order, that does
    not carry the basepoint.  Failing that, ``((a, b), (a2, b2))`` names the
    first 8-adjacent pair with non-adjacent values: the first cell (a, b) in
    raster order that has one, paired with its first such later neighbour.
    """
    off = arr != basepoint
    off[1:-1, 1:-1] = False  # only boundary cells must carry the basepoint
    if off.any():
        # argmax on the flat mask finds the first hit in b-then-a order.
        b, a = divmod(int(off.argmax()), arr.shape[1])
        return ((a, b),)
    h, w = arr.shape
    faults = []
    for i, (da, db) in enumerate(((1, 0), (-1, 1), (0, 1), (1, 1))):
        lo, hi = max(0, -da), w - max(0, da)  # the columns a with a + da inside
        ok = adjacency_matrix[arr[: h - db, lo:hi], arr[db:, lo + da : hi + da]]
        if not ok.all():  # argmin finds the first non-adjacent pair in raster order
            b, a = divmod(int(ok.argmin()), hi - lo)
            faults.append((b, a + lo, i, da, db))
    if not faults:
        return None
    b, a, _, da, db = min(faults)  # the first cell, then its first direction
    return (a, b), (a + da, b + db)
