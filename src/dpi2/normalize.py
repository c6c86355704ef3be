"""Island isolation, reduction, and the integer classification of sphere maps.

The classifier turns a based map into a certificate-backed normal form in
four certified stages: inflate the map to a subdivision where every cell
carrying the label antipodal to the basepoint is far from the others, wash
the surroundings flat with three floods, reduce each surviving 3x3 islet to
one of two canonical stamps (or erase it), then slide the stamps into a
diagonal stack and cancel opposite pairs.  The net stamp count is the class;
every stage ships spider moves into one replayable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import degree_one_map, triangle_count
from .grid import Rectangle, allowed_grid, mask_array
from .gridmap import (
    GridMap,
    SubRect,
    from_array,
    inverse,
    product,
    subdivide,
    trivial_extend,
)
from .homotopy import _TraceBuilder, _emit_translate
from .sphere import BASEPOINT, S2, antipode
from .verify import Certificate

_E1 = antipode(BASEPOINT)  # the label opposite the basepoint (index 0)
_SEA = BASEPOINT

# Ring offsets around a center, counter-clockwise starting east.
_RING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))

# Canonical four-value forms, read as (west, south, east, north) of the center.
_PLUS_FORM = (1, 2, 4, 5)
_MINUS_PREFLIP = (4, 2, 1, 5)


@dataclass(frozen=True)
class Island:
    """An isolated center cell plus the labels of its eight neighbors.

    ``ring`` runs counter-clockwise from the cell east of the center.
    """

    center: tuple[int, int]
    ring: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ring", tuple(int(v) for v in self.ring))
        if len(self.ring) != 8:
            raise ValueError("island ring must list exactly eight labels")
        for v in self.ring:
            if not 0 <= v < 6:
                raise ValueError(f"ring label {v} outside the sphere")
            if v in (_E1, _SEA):
                raise ValueError("ring labels may not be the poles (+-e1)")
        # e1 touches every ring label, so the ring is fine iff the 3x3 block
        # around the island is continuous.
        block = np.full((3, 3), _E1, dtype=np.uint8)
        for (da, db), v in zip(_RING, self.ring):
            block[1 + db, 1 + da] = v
        if not (allowed_grid(mask_array(S2.adjacency_masks), block) >> block & 1).all():
            raise ValueError("ring labels on adjacent cells are not adjacent")


def canonical_stack(c: int, rect: Rectangle) -> GridMap:
    """|c| copies of the degree +-1 stamp along the diagonal, in sea.

    Stamp t is centered at (2 + 5t, 2 + 5t); c = 0 gives the constant map.
    """
    if abs(c) > 0 and (rect.m < 5 * abs(c) - 1 or rect.n < 5 * abs(c) - 1):
        raise ValueError(f"rectangle too small for {abs(c)} diagonal stamps")
    arr = np.full((rect.height, rect.width), _SEA, dtype=np.uint8)
    src = degree_one_map() if c >= 0 else inverse(degree_one_map())
    content = src.array[1:4, 1:4]
    for t in range(abs(c)):
        arr[5 * t + 1 : 5 * t + 4, 5 * t + 1 : 5 * t + 4] = content
    return from_array(arr, S2, _SEA)


# ---------------------------------------------------------------------------
# Stage 1: certified inflation to the k-fold subdivision.


def _emit_subdivision(builder: _TraceBuilder, f: GridMap, k: int) -> None:
    """Walk the trivially extended f into its k-fold subdivision.

    Each source line p is duplicated k - 1 times by one repeated walk that
    shifts every line past it outward, up to the last non-sea line, which
    then lies k - 1 lines on.  The walks move content along lines only, so
    across them it keeps one extent for the whole pass; the walks shift only
    that span, since every line is sea outside it.
    """
    for axis, count in (("a", f.rect.m), ("b", f.rect.n)):
        content = builder.arr != _SEA
        lines = np.nonzero(content.any(axis=0 if axis == "a" else 1))[0]
        if not len(lines):
            continue
        across = np.nonzero(content.any(axis=1 if axis == "a" else 0))[0]
        span, last = (int(across[0]), int(across[-1])), int(lines[-1])
        for p in range(0, k * count, k):
            if last < p:
                break
            builder.shift(axis, p + 1, last + 1, 1, span=span, times=k - 1)
            last += k - 1
    target = subdivide(f, k)
    if not (builder.arr == target.array).all():
        raise RuntimeError("subdivision walk did not reach the subdivided map")


# ---------------------------------------------------------------------------
# Stage 2: junction adjustments.
#
# After subdivision the preimage of the flood-resistant label e1 is a union
# of k x k blocks.  Where two blocks meet only at a corner, or where the
# junction line of two side-by-side blocks has an exposed end, the washes
# would otherwise leave stray unremovable labels; widening the preimage by a
# few cells at those spots makes every leftover islet a clean single cell.


def _adjustment_cells(f: GridMap, k: int) -> list[tuple[int, int]]:
    e = f.array == _E1
    m, n = f.rect.m, f.rect.n
    cells: set[tuple[int, int]] = set()
    for q in range(n):
        for p in range(m):
            if e[q, p] and e[q + 1, p + 1] and not e[q, p + 1] and not e[q + 1, p]:
                x, y = k * p + k - 1, k * q + k - 1
                cells |= {
                    (x + 1, y - 1),
                    (x + 1, y),
                    (x - 1, y + 1),
                    (x, y + 1),
                    (x + 2, y),
                    (x, y + 2),
                }
            if e[q + 1, p] and e[q, p + 1] and not e[q, p] and not e[q + 1, p + 1]:
                x, y = k * p + k - 1, k * (q + 1)
                cells |= {
                    (x - 1, y - 1),
                    (x, y - 1),
                    (x + 1, y),
                    (x + 1, y + 1),
                    (x, y - 2),
                    (x + 2, y),
                }
    for q in range(n + 1):
        for p in range(m):
            if e[q, p] and e[q, p + 1]:
                jx = k * (p + 1)
                if not (e[q - 1, p] and e[q - 1, p + 1]):
                    cells |= {(jx - 2, k * q - 1), (jx - 1, k * q - 1)}
                if not (e[q + 1, p] and e[q + 1, p + 1]):
                    cells |= {(jx - 2, k * q + k), (jx - 1, k * q + k)}
    for q in range(n):
        for p in range(m + 1):
            if e[q, p] and e[q + 1, p]:
                jy = k * (q + 1)
                if not (e[q, p - 1] and e[q + 1, p - 1]):
                    cells |= {(k * p - 1, jy - 2), (k * p - 1, jy - 1)}
                if not (e[q, p + 1] and e[q + 1, p + 1]):
                    cells |= {(k * p + k, jy - 2), (k * p + k, jy - 1)}
    return sorted(cells, key=lambda ab: (ab[1], ab[0]))


def _emit_adjustments(builder: _TraceBuilder, f: GridMap, k: int) -> None:
    for a, b in _adjustment_cells(f, k):
        if builder.arr[b, a] != _E1:
            builder.spider(a, b, _E1)


# ---------------------------------------------------------------------------
# Stage 3: floods, and the isolation entry point.


def _island_spacing(arr: np.ndarray, sep: int):
    """How the e1 cells of ``arr`` sit as islands, for the isolation checks.

    Returns the e1 cells as (a, b) in raster order; the first pair of them,
    taking pairs in raster order, closer than ``sep`` in the max metric (or
    None); and the first non-sea cell outside every 3x3 block around them
    (or None).
    """
    e = arr == _E1
    bs, as_ = np.divmod(np.flatnonzero(e), arr.shape[1])
    pts = np.stack((as_, bs), axis=1)
    # e1 cells within sep - 1 of each e1 cell, from a summed-area table.
    w = 2 * sep - 1
    c = np.pad(e, ((sep, sep - 1), (sep, sep - 1))).cumsum(0, dtype=np.int32).cumsum(1)
    crowded = c[bs + w, as_ + w] - c[bs, as_ + w] - c[bs + w, as_] + c[bs, as_] > 1
    pair = None
    if crowded.any():  # the first crowded cell's partners all come after it
        i = int(crowded.argmax())
        j = i + 1 + int((np.abs(pts[i + 1 :] - pts[i]).max(axis=1) < sep).argmax())
        pair = (tuple(pts[i].tolist()), tuple(pts[j].tolist()))
    ring = np.pad(e, 1)  # the 3x3 blocks around the e1 cells
    ring = ring[:-2] | ring[1:-1] | ring[2:]
    ring = ring[:, :-2] | ring[:, 1:-1] | ring[:, 2:]
    stray = np.flatnonzero(~ring & (arr != _SEA))[:1].tolist()
    return pts.tolist(), pair, divmod(stray[0], arr.shape[1])[::-1] if stray else None


def _check_isolated(g: GridMap, k: int) -> None:
    _, pair, stray = _island_spacing(g.array, k - 1)
    if pair:
        raise RuntimeError(f"isolation failed: e1 cells {k - 2} or closer apart")
    if stray:
        raise RuntimeError(f"isolation failed: non-sea cell {stray} off-island")


def isolate_e1(f: GridMap, k: int) -> tuple[GridMap, Certificate]:
    """Certified homotopy from f (extended) to a map whose e1 cells are
    isolated single cells with pairwise max-metric distance > k - 2 and
    nothing but sea outside their 3x3 islands.

    Stages: duplication walks up to the k-fold subdivision, corner/junction
    adjustments, then floods by e2, e3, and the basepoint.
    """
    if f.codomain != S2:
        raise ValueError("isolation is defined for maps into the 6-point sphere")
    if f.basepoint != _SEA:
        raise ValueError("isolation expects the basepoint -e1")
    if k < 5:
        raise ValueError("subdivision factor must be at least 5")
    ms, ns = k * (f.rect.m + 1) - 1, k * (f.rect.n + 1) - 1
    builder = _TraceBuilder(trivial_extend(f, ms, ns))
    _emit_subdivision(builder, f, k)
    _emit_adjustments(builder, f, k)
    for label in (1, 2, _SEA):  # e2, e3, then the basepoint wash
        builder.flood(label)
    g = builder.current_map()
    _check_isolated(g, k)
    return g, builder.certificate()


# ---------------------------------------------------------------------------
# Island discovery and classification.


def find_islands(g: GridMap) -> list[Island]:
    """All islands of an isolated map, in raster order of their centers."""
    if g.codomain != S2:
        raise ValueError("islands are defined for maps into the 6-point sphere")
    if g.basepoint != _SEA:
        raise ValueError("island search expects the basepoint -e1")
    arr = g.array
    pts, pair, stray = _island_spacing(arr, 4)
    if pair:
        raise ValueError(f"island centers {pair[0]} and {pair[1]} closer than 4 apart")
    if stray:
        raise ValueError(f"non-sea cell {stray} outside every island")
    islands = []
    for a, b in pts:
        ring = tuple(int(arr[b + db, a + da]) for da, db in _RING)
        islands.append(Island(center=(a, b), ring=ring))
    return islands


def classify_island(island: Island) -> int:
    """The local contribution of one island: -1, 0, or +1."""
    arr = np.full((5, 5), _SEA, dtype=np.uint8)
    arr[2, 2] = _E1
    for (da, db), v in zip(_RING, island.ring):
        arr[2 + db, 2 + da] = v
    d = triangle_count(from_array(arr, S2, _SEA))
    if d not in (-1, 0, 1):
        raise RuntimeError(f"island classification out of range: {d}")
    return d


# ---------------------------------------------------------------------------
# Island reduction: corner moves, rotation, mirror flips, erasure.


def _island_form(builder: _TraceBuilder, cx: int, cy: int) -> tuple[int, int, int, int]:
    arr = builder.arr
    return (
        int(arr[cy, cx - 1]),
        int(arr[cy - 1, cx]),
        int(arr[cy, cx + 1]),
        int(arr[cy + 1, cx]),
    )


def _rot4(t: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return (t[3], t[0], t[1], t[2])


def _rotations_to(
    cur: tuple[int, int, int, int], target: tuple[int, int, int, int]
) -> int | None:
    for r in range(4):
        if cur == target:
            return r
        cur = _rot4(cur)
    return None


def _corner_moves(builder: _TraceBuilder, cx: int, cy: int) -> None:
    """Overwrite the four ring corners with their side-neighbor labels."""
    arr = builder.arr
    for (a, b), v in (
        ((cx - 1, cy + 1), int(arr[cy, cx - 1])),
        ((cx - 1, cy - 1), int(arr[cy - 1, cx])),
        ((cx + 1, cy - 1), int(arr[cy, cx + 1])),
        ((cx + 1, cy + 1), int(arr[cy + 1, cx])),
    ):
        if builder.arr[b, a] != v:
            builder.spider(a, b, v)


def _erase_island(builder: _TraceBuilder, cx: int, cy: int) -> None:
    """Remove a null island: wash the 3x3 block by an unused label's antipode."""
    form = _island_form(builder, cx, cy)
    missing = next((v for v in (1, 2, 4, 5) if v not in form), None)
    if missing is None:
        raise RuntimeError("null island carries all four equatorial labels")
    window = SubRect(cx - 1, cx + 1, cy - 1, cy + 1)
    builder.one_step(window, np.full((3, 3), antipode(missing), dtype=np.uint8))
    builder.one_step(window, np.full((3, 3), _SEA, dtype=np.uint8))


def _rotate_island(builder: _TraceBuilder, cx: int, cy: int) -> None:
    """Rotate a four-value island form (x, y, z, w) -> (w, x, y, z).

    Duplicates the center row (shifting everything above it up), walks ten
    single moves around the resulting tall ring, then removes the duplicate
    row.  Content elsewhere is shifted and restored verbatim.
    """
    arr = builder.arr
    n = builder.rect.n
    nonsea = np.nonzero((arr != _SEA).any(axis=1))[0]
    top = int(nonsea.max())
    if top > n - 2:
        raise ValueError("no vertical headroom to rotate an island")
    x, y, z, w = _island_form(builder, cx, cy)
    builder.shift("b", cy + 1, top + 1, 1)
    for (a, b), v in (
        ((cx - 1, cy + 2), w),
        ((cx + 1, cy - 1), y),
        ((cx - 1, cy - 1), x),
        ((cx + 1, cy + 2), z),
        ((cx - 1, cy + 1), w),
        ((cx + 1, cy), y),
        ((cx, cy - 1), x),
        ((cx, cy + 2), z),
        ((cx - 1, cy), w),
        ((cx + 1, cy + 1), y),
    ):
        builder.spider(a, b, v)
    builder.shift("b", cy, top + 1, -1)


def _flip_to_mirror(builder: _TraceBuilder, cx: int, cy: int) -> None:
    """Corner flips carrying the pre-flip minus form onto the mirror stamp."""
    for (a, b), v in (
        ((cx - 1, cy + 1), 5),
        ((cx - 1, cy - 1), 4),
        ((cx + 1, cy - 1), 2),
        ((cx + 1, cy + 1), 1),
    ):
        builder.spider(a, b, v)


def _reduce_island(builder: _TraceBuilder, cx: int, cy: int, cls: int) -> None:
    _corner_moves(builder, cx, cy)
    if cls == 0:
        _erase_island(builder, cx, cy)
        return
    form = _island_form(builder, cx, cy)
    target = _PLUS_FORM if cls > 0 else _MINUS_PREFLIP
    r = _rotations_to(form, target)
    if r is None:
        raise RuntimeError(f"island form {form} inconsistent with class {cls}")
    for _ in range(r):
        _rotate_island(builder, cx, cy)
    if cls < 0:
        _flip_to_mirror(builder, cx, cy)


# ---------------------------------------------------------------------------
# Arrangement and pairwise cancellation.


def _emit_pair_collapse(
    builder: _TraceBuilder,
    c0: int,
    half: int,
    rows: tuple[int, int] | None = None,
) -> None:
    """Collapse a mirror-symmetric band of 2*half + 2 columns into sea.

    The band columns c0 .. c0 + 2*half + 1 must read F0..Fh, Fh..F0 with F0
    sea.  Repeatedly doubles the middle column inward and removes the two
    duplicates, shortening the palindrome until everything is sea.
    """
    for kk in range(half, 0, -1):
        builder.shift("a", c0 + kk, c0 + kk, 1, rows)
        builder.shift("a", c0 + kk + 1, c0 + kk + 1, 1, rows)
        for _ in range(2):
            builder.shift("a", c0 + kk, c0 + 2 * half, -1, rows)


def cancel_certificate(f: GridMap) -> Certificate:
    """Certificate that product(f, inverse(f)) reaches the constant map."""
    p = product(f, inverse(f))
    if p.is_constant():
        return Certificate(start=p, moves=(), end=p)
    mbar, nbar = f.rect.m, f.rect.n
    builder = _TraceBuilder(p)
    # Lower the mirrored block to sit beside f: the grid becomes the
    # palindrome of columns f_0..f_m, f_m..f_0.
    src = SubRect(mbar + 2, 2 * mbar, nbar + 2, 2 * nbar)
    _emit_translate(builder, src, (0, -(nbar + 1)))
    _emit_pair_collapse(builder, 0, mbar)
    cert = builder.certificate()
    if not cert.end.is_constant():
        raise RuntimeError("pair collapse did not end at the constant map")
    return cert


def _arrange_and_cancel(
    builder: _TraceBuilder, entries: list[tuple[int, int, int]], total: int
) -> None:
    """Move the reduced stamps to their final slots, then cancel pairs.

    ``entries`` holds (cx, cy, class) with class = +-1; they are processed
    top row first (ties left first).  Survivors of the majority sign go to
    the diagonal slots; the rest meet in opposite-sign pairs near the bottom
    and are collapsed.
    """
    hfin = builder.rect.n
    s = abs(total)
    entries = sorted(entries, key=lambda e: (-e[1], e[0]))
    maj = 1 if total > 0 else -1
    targets: list[tuple[int, int] | None] = [None] * len(entries)
    plus_rest: list[int] = []
    minus_rest: list[int] = []
    placed = 0
    for j, (_, _, cls) in enumerate(entries):
        if total != 0 and cls == maj and placed < s:
            targets[j] = (2 + 5 * placed, 2 + 5 * placed)
            placed += 1
        elif cls > 0:
            plus_rest.append(j)
        else:
            minus_rest.append(j)
    if placed != s or len(plus_rest) != len(minus_rest):
        raise RuntimeError("island sign bookkeeping failed")
    for i, (jp, jm) in enumerate(zip(plus_rest, minus_rest)):
        targets[jp] = (2 + 5 * (s + 2 * i), 2)
        targets[jm] = (7 + 5 * (s + 2 * i), 2)
    bands = [hfin - 3 - 5 * j for j in range(len(entries))]
    for j, (cx, cy, _) in enumerate(entries):
        _emit_translate(
            builder, SubRect(cx - 1, cx + 1, cy - 1, cy + 1), (0, bands[j] - cy)
        )
    for j, (cx, _, _) in enumerate(entries):
        dx = targets[j][0] - cx
        if dx:
            _emit_translate(
                builder,
                SubRect(cx - 1, cx + 1, bands[j] - 1, bands[j] + 1),
                (dx, 0),
            )
    for j in range(len(entries)):
        xt, yt = targets[j]
        _emit_translate(
            builder, SubRect(xt - 1, xt + 1, bands[j] - 1, bands[j] + 1), (0, yt - bands[j])
        )
    for i in range(len(plus_rest)):
        _emit_pair_collapse(builder, 5 * (s + 2 * i), 4, rows=(1, 3))


def pi2_class(f: GridMap, k: int = 5) -> tuple[int, Certificate]:
    """The class of a based sphere map, with a certificate to its normal form.

    Returns ``(c, cert)`` where cert witnesses a homotopy from f (trivially
    extended) to the canonical diagonal stack of |c| stamps.
    """
    if f.codomain != S2:
        raise ValueError("classification is defined for maps into the 6-point sphere")
    if f.basepoint != _SEA:
        raise ValueError("classification expects the basepoint -e1")
    d_in = triangle_count(f)
    g1, cert1 = isolate_e1(f, k)
    islands = find_islands(g1)
    classes = [classify_island(isl) for isl in islands]
    if sum(classes) != d_in:
        raise RuntimeError(
            f"island classes sum to {sum(classes)}, triangle count is {d_in}"
        )
    entries = [
        (isl.center[0], isl.center[1], cls)
        for isl, cls in zip(islands, classes)
        if cls != 0
    ]
    ms, ns = g1.rect.m, g1.rect.n
    s = abs(d_in)
    if entries:
        wfin = max(ms, 5 * len(entries) + 5)
        hfin = max(ns, 5 * (s + 1)) + 5 * len(entries) + 5
    else:
        wfin, hfin = ms, ns
    builder = _TraceBuilder(trivial_extend(g1, wfin, hfin))
    for isl, cls in zip(islands, classes):
        _reduce_island(builder, isl.center[0], isl.center[1], cls)
    if entries:
        _arrange_and_cancel(builder, entries, d_in)
    expected = canonical_stack(d_in, builder.rect)
    if not (builder.arr == expected.array).all():
        raise RuntimeError("normalization did not reach the canonical stack")
    cert = cert1.then(builder.certificate())
    return d_in, cert
