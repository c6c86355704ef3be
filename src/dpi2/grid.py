"""Points, rectangles, adjacency relations, and the one adjacency rule.

A digital image is a finite set of lattice points together with a reflexive,
symmetric adjacency relation.  Two adjacency flavors are supported:

* ``LatticeCq(q)``: points are adjacent when they differ by at most 1 in at
  most ``q`` coordinates (the usual family of lattice adjacencies).
* ``Explicit``: an explicit edge set; it is reflexive- and symmetric-closed
  at construction time.

Rectangles ``I_{m,n} = {0..m} x {0..n}`` always carry the 8-adjacency,
which is the categorical product of the 1-D adjacencies.

Continuity, a one-step homotopy and a spider move are one relation read
over different grids: f(x) ~ g(x') for every x ~ x'.  Bit v of
``adjacency_masks[x]`` is set iff v ~ x, so label v may sit at a cell iff
bit v is set in the AND of the masks of the labels that constrain it: the
cell's own and its neighbours'.  ``allowed`` is that rule for one cell,
``allowed_array`` for many cells' stacked labels and ``allowed_grid`` for
every cell of a label grid.  Every check of labels on a grid reads one of
them; only the point-map checks of ``gridmap`` read ``adjacency_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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


# --- the adjacency rule ---------------------------------------------------


def allowed(masks: Sequence[int], nine) -> int:
    """The labels a cell may take, as a bitmask.

    ``nine`` holds the labels of the cell and its eight neighbours, as any
    iterable of ints (a bytes slice included).
    """
    out = -1
    for x in nine:
        out &= masks[x]
    return out


def mask_array(masks: Sequence[int]) -> np.ndarray:
    """The masks as the smallest numpy integer type that holds them.

    Above 64 points no numpy integer does, and the array holds Python ints.
    """
    return np.array(masks, dtype=np.min_scalar_type(max(masks)))


def allowed_array(mask_arr: np.ndarray, labels: np.ndarray, axis: int = 0) -> np.ndarray:
    """``allowed`` for many cells: their nine labels run along ``axis``."""
    # take() gathers by uint8 labels about 3x faster than mask_arr[labels].
    return np.bitwise_and.reduce(mask_arr.take(labels), axis=axis)


def allowed_grid(mask_arr: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """``allowed`` at every cell of a label grid, over the neighbours it has."""
    m = mask_arr.take(arr)
    rows = m.copy()  # each cell ANDed with its left and right neighbours
    rows[:, 1:] &= m[:, :-1]
    rows[:, :-1] &= m[:, 1:]
    out = rows.copy()  # then with the rows above and below
    out[1:] &= rows[:-1]
    out[:-1] &= rows[1:]
    return out


def grid_fault(
    arr: np.ndarray, basepoint: int, codomain: DigitalImage
) -> tuple[tuple[int, int], ...] | None:
    """The first fault of a based, continuous value grid, or None.

    ``((a, b),)`` names the first boundary cell, in raster order, that does
    not carry the basepoint.  Failing that, ``((a, b), (a2, b2))`` names the
    first 8-adjacent pair with non-adjacent values: the first cell (a, b) in
    raster order that has one, paired with its first such later neighbour
    in the order (1, 0), (-1, 1), (0, 1), (1, 1).
    """
    off = arr != basepoint
    off[1:-1, 1:-1] = False  # only boundary cells must carry the basepoint
    if off.any():
        # argmax on the flat mask finds the first hit in b-then-a order.
        b, a = divmod(int(off.argmax()), arr.shape[1])
        return ((a, b),)
    masks = codomain.adjacency_masks
    bad = (allowed_grid(mask_array(masks), arr) >> arr & 1) == 0
    if not bad.any():
        return None
    # The first forbidden cell has a non-adjacent later neighbour: an earlier
    # one would itself be forbidden, and first.
    h, w = arr.shape
    b, a = divmod(int(bad.argmax()), w)
    own = masks[arr[b, a]]
    for a2, b2 in ((a + 1, b), (a - 1, b + 1), (a, b + 1), (a + 1, b + 1)):
        if 0 <= a2 < w and b2 < h and not own >> int(arr[b2, a2]) & 1:
            return (a, b), (a2, b2)
    raise RuntimeError(f"forbidden cell {(a, b)} has no non-adjacent later neighbour")
