"""Certificates, legal spider moves, and their verifier.

A Certificate is a start map, an ordered list of single-cell relabelings
(spider moves) and an end map, all over one common rectangle.  The verifier
replays the moves and accepts only if every step is legal and the replay
lands exactly on the end map.  This module imports none of the builders.

A move is legal when it relabels an interior cell to a label adjacent to
the cell's nine labels: its own and its eight neighbours'.  That is the
adjacency rule of ``grid``: ``spider_valid`` reads it as ``allowed`` on one
cell's nine labels, the verifier as ``allowed_array`` on a block of moves'.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import DigitalImage, Rectangle, allowed, allowed_array, grid_fault, mask_array
from .gridmap import GridMap, trivial_extend

# The eight neighbor offsets of a cell, as (da, db).
_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))

_VERIFY_BLOCK = 8192  # moves per replay block; a block's lookups stay in cache


def nine_offsets(w: int) -> list[int]:
    """Flat offsets of a cell and its eight neighbours, on rows ``w`` wide."""
    return [0] + [db * w + da for da, db in _OFFSETS]


# ---------------------------------------------------------------------------
# Moves and certificates.


@dataclass(frozen=True)
class SpiderMove:
    """Relabel the single cell ``at`` (= (a, b)) to ``new_value``."""

    at: tuple[int, int]
    new_value: int


class PackedMoves(Sequence):
    """A certificate's moves, packed as three read-only int64 arrays.

    ``a``, ``b`` and ``label`` hold each move's cell and new label, 24 bytes
    per move.  The sequence reads like a tuple of SpiderMoves: ``len``,
    indexing, slicing and iteration build them on demand, and it compares
    equal to a tuple or list of the same moves.  Coordinates are not
    required to lie in any rectangle; the verifier rejects those that do not.
    """

    __slots__ = ("_abl",)

    def __init__(self, a=(), b=(), label=()):
        try:
            abl = np.array((a, b, label), dtype=np.int64)
        except OverflowError:
            raise ValueError("move coordinates and labels must fit in int64") from None
        abl.setflags(write=False)
        self._abl = abl

    @classmethod
    def of(cls, moves) -> "PackedMoves":
        """Pack an iterable of SpiderMoves (a PackedMoves is returned as is)."""
        if isinstance(moves, PackedMoves):
            return moves
        moves = list(moves)
        return cls(
            [mv.at[0] for mv in moves],
            [mv.at[1] for mv in moves],
            [mv.new_value for mv in moves],
        )

    @classmethod
    def join(cls, parts) -> "PackedMoves":
        """The moves of each part in turn, copied once into new arrays."""
        arrays = [p._abl for p in parts]
        if not arrays:
            return cls()
        return cls._adopt(np.concatenate(arrays, axis=1))

    @classmethod
    def _adopt(cls, abl: np.ndarray) -> "PackedMoves":
        """Wrap a (3, n) int64 array of a, b and label rows without a copy.

        The array is made read-only; the caller keeps no writable view of it.
        """
        abl.setflags(write=False)
        out = cls.__new__(cls)
        out._abl = abl
        return out

    @property
    def a(self) -> np.ndarray:
        return self._abl[0]

    @property
    def b(self) -> np.ndarray:
        return self._abl[1]

    @property
    def label(self) -> np.ndarray:
        return self._abl[2]

    def __len__(self) -> int:
        return self._abl.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PackedMoves(*self._abl[:, i])
        a, b, v = self._abl[:, i].tolist()
        return SpiderMove((a, b), v)

    def __iter__(self):
        for a, b, v in zip(*self._abl.tolist()):
            yield SpiderMove((a, b), v)

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedMoves):
            return np.array_equal(self._abl, other._abl)
        if isinstance(other, (tuple, list)):
            return len(other) == len(self) and all(x == y for x, y in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedMoves(<{len(self)} moves>)"


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of certificate verification; falsy when rejected.

    ``move_index`` is the index of the offending move when one exists.
    """

    ok: bool
    reason: str | None = None
    move_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Certificate:
    """A replayable witness that ``start`` and ``end`` are homotopic.

    ``start`` fixes the rectangle, codomain and basepoint, which ``end``
    must share; maps on smaller rectangles are trivially extended before a
    certificate is built, never truncated.  ``moves`` may be given as any
    iterable of SpiderMoves and is stored as PackedMoves.
    """

    start: GridMap
    moves: PackedMoves
    end: GridMap

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", PackedMoves.of(self.moves))
        if reason := _end_mismatch(self):
            raise ValueError(reason)

    @property
    def common_rect(self) -> Rectangle:
        return self.start.rect

    @property
    def codomain(self) -> DigitalImage:
        return self.start.codomain

    @property
    def basepoint(self) -> int:
        return self.start.basepoint

    def __len__(self) -> int:
        return len(self.moves)

    def extended(self, m2: int, n2: int) -> "Certificate":
        """The same certificate over a larger rectangle.

        New cells are basepoint-valued sea and are not adjacent to any
        interior cell of the original rectangle, so the moves carry over
        unchanged.
        """
        if m2 == self.common_rect.m and n2 == self.common_rect.n:
            return self
        return Certificate(
            start=trivial_extend(self.start, m2, n2),
            moves=self.moves,
            end=trivial_extend(self.end, m2, n2),
        )

    def then(self, other: "Certificate") -> "Certificate":
        """Concatenate with a certificate that begins where this one ends."""
        m2 = max(self.common_rect.m, other.common_rect.m)
        n2 = max(self.common_rect.n, other.common_rect.n)
        a = self.extended(m2, n2)
        b = other.extended(m2, n2)
        if a.end != b.start:
            raise ValueError("certificates do not meet: end of first != start of second")
        return Certificate(
            start=a.start, moves=PackedMoves.join([a.moves, b.moves]), end=b.end
        )


def _end_mismatch(c: Certificate) -> str | None:
    """Why ``c.end`` does not share start's rectangle, codomain and basepoint."""
    if c.end.rect != c.common_rect:
        return "end map not on common rectangle"
    if c.end.codomain != c.codomain or c.end.basepoint != c.basepoint:
        return "end map codomain/basepoint mismatch"
    return None


# ---------------------------------------------------------------------------
# Checking moves.


def spider_valid(f: GridMap, mv: SpiderMove) -> bool:
    """True iff the move keeps the map continuous: boundary cells never move."""
    (a, b), v = mv.at, mv.new_value
    rect, masks = f.rect, f.codomain.adjacency_masks
    if not (0 < a < rect.m and 0 < b < rect.n and 0 <= v < len(masks)):
        return False
    w, vals = rect.m + 1, f.values
    p = b * w + a
    nine = vals[p - w - 1 : p - w + 2] + vals[p - 1 : p + 2] + vals[p + w - 1 : p + w + 2]
    return allowed(masks, nine) >> v & 1 == 1


def verify_certificate(c: Certificate) -> VerifyResult:
    """Replay a certificate from scratch and accept only a perfect run.

    Checks that the end map shares the start map's rectangle, codomain and
    basepoint, re-validates both endpoint grids, then replays the moves in
    blocks of ``_VERIFY_BLOCK``.  In a block, a move reads each of its nine
    cells from the block's last earlier write there, else from the grid as
    the block began, and is legal iff ``allowed_array`` allows its new label
    there.  The block's earliest flagged move is the earliest illegal one:
    every move before it was legal, so by induction each read the state a
    move-by-move replay gives it.  A legal block is applied by its last
    write to each cell.
    """
    rect = c.common_rect
    w = rect.width
    npts = len(c.codomain.points)
    if reason := _end_mismatch(c):
        return VerifyResult(False, reason)
    for name, g in (("start", c.start), ("end", c.end)):
        fault = grid_fault(g.array, c.basepoint, c.codomain)
        if fault is not None and len(fault) == 1:
            return VerifyResult(False, f"{name} map boundary not pinned")
        if fault is not None:
            return VerifyResult(False, f"{name} map not continuous")

    # The range checks run on the arrays up front; replay stops at the first
    # move that fails them, and that move is reported if replay gets there.
    a, b, v = c.moves.a, c.moves.b, c.moves.label
    outside = (a <= 0) | (a >= rect.m) | (b <= 0) | (b >= rect.n)
    rejected = outside | (v < 0) | (v >= npts)
    stop = int(rejected.argmax()) if rejected.any() else len(rejected)
    masks = c.codomain.adjacency_masks
    mask_arr = mask_array(masks)
    offsets = nine_offsets(w)
    grid = np.array(c.start.array).ravel()
    for s in range(0, stop, _VERIFY_BLOCK):
        n = min(_VERIFY_BLOCK, stop - s)
        pos = b[s : s + n] * w + a[s : s + n]
        order = np.argsort(pos, kind="stable")
        spos, sval = pos[order], v[s : s + n][order].astype(grid.dtype)
        key = spos * n + order  # ascending: by cell, then by move
        nine = np.empty((len(offsets), n), grid.dtype)  # the move's own cell first
        for i, d in enumerate(offsets):
            j = np.searchsorted(key, key + d * n) - 1  # the last earlier write there
            hit = (j >= 0) & (spos[j] == spos + d)
            nine[i] = np.where(hit, sval[j], grid[spos + d])
        legal = (allowed_array(mask_arr, nine) >> sval & 1).astype(bool)
        if not legal.all():
            k = int(np.argmin(np.where(legal, n, order)))  # earliest in move order
            idx = s + int(order[k])
            at = (int(a[idx]), int(b[idx]))
            own = allowed(masks, [int(nine[0, k])]) >> int(sval[k]) & 1
            what = "a neighbor" if own else "current value"
            return VerifyResult(
                False, f"move {idx} at {at}: new value not adjacent to {what}", idx
            )
        last = np.append(spos[1:] != spos[:-1], True)
        grid[spos[last]] = sval[last]
    if stop < len(rejected):
        at = (int(a[stop]), int(b[stop]))
        if outside[stop]:
            reason = f"move {stop} targets boundary or exterior cell {at}"
        else:
            reason = f"move {stop} value {int(v[stop])} outside codomain"
        return VerifyResult(False, reason, stop)
    if grid.tobytes() != c.end.values:
        return VerifyResult(False, "replayed moves do not reach the end map")
    return VerifyResult(True)
