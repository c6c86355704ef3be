"""Points, rectangles, adjacency relations, and continuity checking.

A digital image is a finite set of lattice points together with a reflexive,
symmetric adjacency relation.  Two adjacency flavors are supported:

* ``LatticeCq(q)``: points are adjacent when they differ by at most 1 in at
  most ``q`` coordinates (the usual family of lattice adjacencies).
* ``Explicit``: an explicit edge set; it is reflexive- and symmetric-closed
  at construction time.

Rectangles ``I_{m,n} = {0..m} x {0..n}`` always carry the 8-adjacency
(`rect_adjacent`), which is the categorical product of the 1-D adjacencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .gridmap import GridMap

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
    factors: tuple["DigitalImage", "DigitalImage"] | None = field(
        default=None, compare=False
    )

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


def rect_adjacent(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """8-adjacency on 2-D rectangle points: both deltas at most 1."""
    return abs(p[0] - q[0]) <= 1 and abs(p[1] - q[1]) <= 1


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

    def points(self) -> list[tuple[int, int]]:
        return [(a, b) for b in range(self.n + 1) for a in range(self.m + 1)]

    def is_interior(self, a: int, b: int) -> bool:
        return 0 < a < self.m and 0 < b < self.n


def boundary(rect: Rectangle) -> set[tuple[int, int]]:
    """The boundary of I_{m,n}: first/last column union first/last row."""
    pts: set[tuple[int, int]] = set()
    for b in range(rect.n + 1):
        pts.add((0, b))
        pts.add((rect.m, b))
    for a in range(rect.m + 1):
        pts.add((a, 0))
        pts.add((a, rect.n))
    return pts


def interior_mask(rect: Rectangle) -> np.ndarray:
    """Boolean (n+1, m+1) array marking non-boundary cells."""
    mask = np.zeros((rect.n + 1, rect.m + 1), dtype=bool)
    if rect.m >= 2 and rect.n >= 2:
        mask[1:-1, 1:-1] = True
    return mask


# --- continuity checking -------------------------------------------------
#
# A value grid (row-major, arr[b, a]) is continuous when every 8-adjacent
# pair of cells carries adjacent values.  The vectorized check below slides
# the grid against itself along the four distinct direction offsets
# (symmetry covers the other four, reflexivity is free).

_DIRS = ((1, 0), (0, 1), (1, 1), (1, -1))


def values_continuous(arr: np.ndarray, adjacency_matrix: np.ndarray) -> bool:
    for da, db in _DIRS:
        a0 = arr[max(0, -db) : arr.shape[0] - max(0, db),
                 max(0, -da) : arr.shape[1] - max(0, da)]
        a1 = arr[max(0, db) : arr.shape[0] - max(0, -db),
                 max(0, da) : arr.shape[1] - max(0, -da)]
        if not adjacency_matrix[a0, a1].all():
            return False
    return True


def first_discontinuity(
    arr: np.ndarray, adjacency_matrix: np.ndarray
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """First 8-adjacent cell pair with non-adjacent values, or None.

    Returns ((a, b), (a2, b2)) in raster order of the first cell; used for
    parser diagnostics.
    """
    h, w = arr.shape
    for b in range(h):
        for a in range(w):
            v = arr[b, a]
            for db in (0, 1):
                for da in ((1,) if db == 0 else (-1, 0, 1)):
                    a2, b2 = a + da, b + db
                    if 0 <= a2 < w and 0 <= b2 < h:
                        if not adjacency_matrix[v, arr[b2, a2]]:
                            return (a, b), (a2, b2)
    return None


def is_continuous(f: "GridMap") -> bool:
    """True iff rect-adjacent domain points always map to adjacent values."""
    return values_continuous(f.array, f.codomain.adjacency_matrix)


def product_image(x: DigitalImage, y: DigitalImage) -> DigitalImage:
    """Categorical product: pairs of points, coordinate-wise adjacency.

    Point (p, q) is stored as the concatenated tuple p + q, indexed as
    ``i_x * len(y) + i_y``.  The result remembers its factors so that
    product maps can be split back.
    """
    pts = tuple(p + q for p in x.points for q in y.points)
    ax = x.adjacency_matrix
    ay = y.adjacency_matrix
    prod = np.kron(ax, ay)
    edges = set()
    ii, jj = np.nonzero(prod)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i <= j:
            edges.add((i, j))
    return DigitalImage(
        name=f"{x.name}*{y.name}",
        points=pts,
        adjacency=Explicit(frozenset(edges)),
        factors=(x, y),
    )
