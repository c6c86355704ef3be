"""Based maps from rectangles into a digital image, and their constructions.

A GridMap assigns a codomain point to every cell of a rectangle I_{m,n},
with the whole rectangle boundary pinned to a basepoint and every
8-adjacent pair of cells mapped to adjacent values.  Values are stored as
a dense row-major byte string of codomain point indices (cell (a, b) lives
at index ``b * (m+1) + a``), which makes maps cheap to hash, compare, and
shuttle through search frontiers.  Codomains are therefore limited to at
most 256 points; every codomain of interest here is far smaller.

All operations are pure and return a fresh GridMap, validated unless it is
valid by construction (``trivial_extend``'s sea padding, ``apply_spider``'s
valid move).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .grid import DigitalImage, Rectangle, grid_fault


@dataclass(frozen=True)
class GridMap:
    """A based, continuous labeling of the rectangle I_{m,n}.

    ``basepoint`` is an index into ``codomain.points``; ``values`` holds one
    codomain index per cell in row-major order (b-major).
    """

    rect: Rectangle
    codomain: DigitalImage
    basepoint: int
    values: bytes

    def __post_init__(self) -> None:
        npts = len(self.codomain.points)
        if npts > 256:
            raise ValueError(
                f"codomain {self.codomain.name!r} has {npts} points; dense "
                "byte storage supports at most 256"
            )
        if not 0 <= self.basepoint < npts:
            raise ValueError(f"basepoint index {self.basepoint} out of range")
        expect = self.rect.width * self.rect.height
        if len(self.values) != expect:
            raise ValueError(
                f"value grid has {len(self.values)} entries, expected {expect} "
                f"for I_{{{self.rect.m},{self.rect.n}}}"
            )
        arr = self.array
        if arr.size and arr.max() >= npts:
            raise ValueError("value grid references a point outside the codomain")
        fault = grid_fault(arr, self.basepoint, self.codomain)
        if fault is not None and len(fault) == 1:
            raise ValueError("boundary values must all equal the basepoint")
        if fault is not None:
            raise ValueError(
                f"map is not continuous: cells {fault[0]} and {fault[1]} carry "
                "non-adjacent values"
            )

    @cached_property
    def array(self) -> np.ndarray:
        """Read-only (n+1, m+1) uint8 view of the values; indexed [b, a]."""
        arr = np.frombuffer(self.values, dtype=np.uint8).reshape(
            self.rect.height, self.rect.width
        )
        arr.setflags(write=False)
        return arr

    def value_at(self, a: int, b: int) -> int:
        return self.values[b * self.rect.width + a]

    def is_constant(self) -> bool:
        return not (self.array != self.basepoint).any()


def from_array(
    arr: np.ndarray, codomain: DigitalImage, basepoint: int
) -> GridMap:
    """Build a GridMap from an (n+1, m+1) array of codomain indices."""
    h, w = arr.shape
    return GridMap(
        rect=Rectangle(w - 1, h - 1),
        codomain=codomain,
        basepoint=basepoint,
        values=np.ascontiguousarray(arr, dtype=np.uint8).tobytes(),
    )


@dataclass(frozen=True)
class SubRect:
    """An inclusive subrectangle a_lo..a_hi x b_lo..b_hi of some domain."""

    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int

    def __post_init__(self) -> None:
        if self.a_lo < 0 or self.b_lo < 0:
            raise ValueError(f"subrectangle bounds must be >= 0: {self}")
        if self.a_hi < self.a_lo or self.b_hi < self.b_lo:
            raise ValueError(f"empty subrectangle: {self}")

    @property
    def width(self) -> int:
        return self.a_hi - self.a_lo + 1

    @property
    def height(self) -> int:
        return self.b_hi - self.b_lo + 1

    def within(self, rect: Rectangle) -> bool:
        return self.a_hi <= rect.m and self.b_hi <= rect.n

    def shifted(self, dx: int, dy: int) -> "SubRect":
        return SubRect(self.a_lo + dx, self.a_hi + dx, self.b_lo + dy, self.b_hi + dy)


def constant_map(rect: Rectangle, codomain: DigitalImage, basepoint: int) -> GridMap:
    """The map sending every cell to the basepoint."""
    vals = bytes([basepoint]) * (rect.width * rect.height)
    return GridMap(rect=rect, codomain=codomain, basepoint=basepoint, values=vals)


def trivial_extend(f: GridMap, m2: int, n2: int) -> GridMap:
    """Enlarge the domain to I_{m2,n2}, filling new cells with the basepoint."""
    if m2 < f.rect.m or n2 < f.rect.n:
        raise ValueError(
            f"cannot shrink I_{{{f.rect.m},{f.rect.n}}} to I_{{{m2},{n2}}}"
        )
    if m2 == f.rect.m and n2 == f.rect.n:
        return f
    out = np.full((n2 + 1, m2 + 1), f.basepoint, dtype=np.uint8)
    out[: f.rect.height, : f.rect.width] = f.array
    return _unchecked(f, Rectangle(m2, n2), out.tobytes())  # sea beside a pinned map is valid


def _unchecked(f: GridMap, rect: Rectangle, values: bytes) -> GridMap:
    """A GridMap like f on ``rect`` with ``values``, built without validation.

    Only for results that are pinned and continuous by construction.
    """
    g = object.__new__(GridMap)
    g.__dict__.update(rect=rect, codomain=f.codomain, basepoint=f.basepoint, values=values)
    return g


def apply_alpha(f: GridMap, i: int) -> GridMap:
    """Duplicate column i: the result on I_{m+1,n} reads column min(a, ...) of f.

    Column i and i+1 of the result both equal column i of f; later columns
    shift right by one.
    """
    if not 0 <= i <= f.rect.m:
        raise ValueError(f"column index {i} out of range for I_{{{f.rect.m},..}}")
    arr = f.array
    cols = list(range(i + 1)) + list(range(i, f.rect.m + 1))
    return from_array(arr[:, cols], f.codomain, f.basepoint)


def apply_beta(f: GridMap, j: int) -> GridMap:
    """Duplicate row j; the row analogue of apply_alpha."""
    if not 0 <= j <= f.rect.n:
        raise ValueError(f"row index {j} out of range for I_{{..,{f.rect.n}}}")
    arr = f.array
    rows = list(range(j + 1)) + list(range(j, f.rect.n + 1))
    return from_array(arr[rows, :], f.codomain, f.basepoint)


def subdivide(f: GridMap, k: int) -> GridMap:
    """Blow every cell up into a constant k x k block (domain I_{km+k-1,kn+k-1})."""
    if k < 1:
        raise ValueError(f"subdivision factor must be >= 1, got {k}")
    if k == 1:
        return f
    arr = np.repeat(np.repeat(f.array, k, axis=0), k, axis=1)
    return from_array(arr, f.codomain, f.basepoint)


def product(f: GridMap, g: GridMap) -> GridMap:
    """Concatenation product: f in the lower-left block, g in the upper-right.

    The domain is I_{m+r+1, n+s+1}; the two off-diagonal blocks are filled
    with the basepoint, so the blocks cannot interact.
    """
    if f.codomain != g.codomain:
        raise ValueError("product requires the same codomain")
    if f.basepoint != g.basepoint:
        raise ValueError("product requires the same basepoint")
    h = f.rect.height + g.rect.height
    w = f.rect.width + g.rect.width
    out = np.full((h, w), f.basepoint, dtype=np.uint8)
    out[: f.rect.height, : f.rect.width] = f.array
    out[f.rect.height :, f.rect.width :] = g.array
    return from_array(out, f.codomain, f.basepoint)


def inverse(f: GridMap) -> GridMap:
    """Horizontal mirror a -> m - a; the group inverse up to homotopy."""
    return from_array(f.array[:, ::-1], f.codomain, f.basepoint)


def border_wrap(f: GridMap, x1: int) -> GridMap:
    """Surround f with a one-cell border of x1 and rebase the map at x1.

    x1 must be adjacent to the old basepoint so the seam stays continuous.
    The result lives on I_{m+2,n+2}.
    """
    if not 0 <= x1 < len(f.codomain.points):
        raise ValueError(f"label index {x1} outside codomain")
    if not f.codomain.adjacency_matrix[x1, f.basepoint]:
        raise ValueError("border value must be adjacent to the old basepoint")
    out = np.full((f.rect.height + 2, f.rect.width + 2), x1, dtype=np.uint8)
    out[1:-1, 1:-1] = f.array
    return from_array(out, f.codomain, x1)


def map_compose(
    phi: Sequence[int],
    f: GridMap,
    codomain2: DigitalImage | None = None,
    basepoint2: int | None = None,
) -> GridMap:
    """Post-compose f with a point map phi given as an index table.

    ``phi[i]`` is the target index for source point i.  The table must be a
    continuous map of digital images and must send f's basepoint to the
    target basepoint (default: wherever phi sends it).
    """
    target = codomain2 if codomain2 is not None else f.codomain
    src = f.codomain
    if len(phi) != len(src.points):
        raise ValueError(
            f"phi table has {len(phi)} entries for {len(src.points)} points"
        )
    tgt_n = len(target.points)
    table = np.asarray(phi, dtype=np.int64)
    if table.min() < 0 or table.max() >= tgt_n:
        raise ValueError("phi table references a point outside the target image")
    # phi itself must be continuous: adjacent sources map to adjacent targets.
    amat_src = src.adjacency_matrix
    amat_tgt = target.adjacency_matrix
    ii, jj = np.nonzero(amat_src)
    if not amat_tgt[table[ii], table[jj]].all():
        bad = np.nonzero(~amat_tgt[table[ii], table[jj]])[0][0]
        raise ValueError(
            f"phi is not continuous: points {int(ii[bad])} ~ {int(jj[bad])} map "
            f"to non-adjacent targets"
        )
    bp2 = int(table[f.basepoint]) if basepoint2 is None else basepoint2
    if int(table[f.basepoint]) != bp2:
        raise ValueError("phi does not preserve the basepoint")
    out = table[f.array].astype(np.uint8)
    return from_array(out, target, bp2)
