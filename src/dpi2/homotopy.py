"""Spider moves, one-step homotopies, floods, and homotopy certificates.

Every homotopy this library claims is witnessed by a Certificate: a start
map, an ordered list of single-cell relabelings (spider moves), and an end
map, all over one common rectangle.  A move is valid when the new label is
adjacent to the old one and to the labels of all eight surrounding cells;
the verifier replays the moves and accepts only if every step is valid and
the replay lands exactly on the recorded end map.

The builders here never shrink a domain.  Enlarging one is always sound:
interior cells keep exactly the same neighborhoods, so recorded moves stay
valid verbatim on any larger rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Rectangle, DigitalImage, values_continuous
from .gridmap import GridMap, SubRect, apply_alpha, from_array, trivial_extend

# The eight neighbor offsets of a cell, as (da, db).
_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


@dataclass(frozen=True)
class SpiderMove:
    """Relabel the single cell ``at`` (= (a, b)) to ``new_value``."""

    at: tuple[int, int]
    new_value: int


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

    Both endpoint maps live on ``common_rect``; maps on smaller rectangles
    are trivially extended before a certificate is built, never truncated.
    """

    codomain: DigitalImage
    basepoint: int
    common_rect: Rectangle
    start: GridMap
    moves: tuple[SpiderMove, ...]
    end: GridMap

    def __post_init__(self) -> None:
        object.__setattr__(self, "moves", tuple(self.moves))
        for name, g in (("start", self.start), ("end", self.end)):
            if g.rect != self.common_rect:
                raise ValueError(f"{name} map is not on the common rectangle")
            if g.codomain != self.codomain or g.basepoint != self.basepoint:
                raise ValueError(f"{name} map disagrees on codomain/basepoint")

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
            codomain=self.codomain,
            basepoint=self.basepoint,
            common_rect=Rectangle(m2, n2),
            start=trivial_extend(self.start, m2, n2),
            moves=self.moves,
            end=trivial_extend(self.end, m2, n2),
        )

    def then(self, other: "Certificate") -> "Certificate":
        """Concatenate with a certificate that begins where this one ends."""
        if self.codomain != other.codomain or self.basepoint != other.basepoint:
            raise ValueError("cannot chain certificates across codomains")
        m2 = max(self.common_rect.m, other.common_rect.m)
        n2 = max(self.common_rect.n, other.common_rect.n)
        a = self.extended(m2, n2)
        b = other.extended(m2, n2)
        if a.end.values != b.start.values:
            raise ValueError("certificates do not meet: end of first != start of second")
        return Certificate(
            codomain=a.codomain,
            basepoint=a.basepoint,
            common_rect=a.common_rect,
            start=a.start,
            moves=a.moves + b.moves,
            end=b.end,
        )


def chain_certificates(certs) -> Certificate:
    """Fold a nonempty sequence of meeting certificates into one."""
    certs = list(certs)
    if not certs:
        raise ValueError("cannot chain zero certificates")
    acc = certs[0]
    for c in certs[1:]:
        acc = acc.then(c)
    return acc


def identity_certificate(f: GridMap) -> Certificate:
    """The empty certificate from f to itself."""
    return Certificate(
        codomain=f.codomain,
        basepoint=f.basepoint,
        common_rect=f.rect,
        start=f,
        moves=(),
        end=f,
    )


# ---------------------------------------------------------------------------
# Single moves.


def spider_valid(f: GridMap, mv: SpiderMove) -> bool:
    """True iff the move keeps the map continuous: boundary cells never move."""
    a, b = mv.at
    m, n = f.rect.m, f.rect.n
    if not (0 <= a <= m and 0 <= b <= n):
        return False
    if a in (0, m) or b in (0, n):
        return False
    v = mv.new_value
    if not 0 <= v < len(f.codomain.points):
        return False
    masks = f.codomain.adjacency_masks
    mask = masks[v]
    w = f.rect.width
    pos = b * w + a
    if not (mask >> f.values[pos]) & 1:
        return False
    for da, db in _OFFSETS:
        if not (mask >> f.values[pos + db * w + da]) & 1:
            return False
    return True


def apply_spider(f: GridMap, mv: SpiderMove) -> GridMap:
    """Apply one valid spider move; raises on an invalid one."""
    if not spider_valid(f, mv):
        raise ValueError(f"invalid spider move at {mv.at} -> {mv.new_value}")
    vals = bytearray(f.values)
    a, b = mv.at
    vals[b * f.rect.width + a] = mv.new_value
    return GridMap(
        rect=f.rect, codomain=f.codomain, basepoint=f.basepoint, values=bytes(vals)
    )


# ---------------------------------------------------------------------------
# One-step homotopies.


def _one_step_arrays(fa: np.ndarray, ga: np.ndarray, amat: np.ndarray) -> bool:
    """The pairwise criterion f(x) ~ g(x') for all x ~ x' over two grids.

    Covers x = x' and the four unordered direction classes, each checked in
    both (f, g) role orders.
    """
    if not amat[fa, ga].all():
        return False
    checks = (
        (fa[:, :-1], ga[:, 1:]),
        (fa[:, 1:], ga[:, :-1]),
        (fa[:-1, :], ga[1:, :]),
        (fa[1:, :], ga[:-1, :]),
        (fa[:-1, :-1], ga[1:, 1:]),
        (fa[1:, 1:], ga[:-1, :-1]),
        (fa[1:, :-1], ga[:-1, 1:]),
        (fa[:-1, 1:], ga[1:, :-1]),
    )
    return all(amat[x, y].all() for x, y in checks)


def one_step_check(f: GridMap, g: GridMap) -> bool:
    """True iff f and g satisfy the one-step homotopy criterion."""
    if f.rect != g.rect:
        raise ValueError("one-step check requires equal domains")
    if f.codomain != g.codomain or f.basepoint != g.basepoint:
        raise ValueError("one-step check requires equal codomain and basepoint")
    return _one_step_arrays(f.array, g.array, f.codomain.adjacency_matrix)


def decompose_one_step(f: GridMap, g: GridMap) -> list[SpiderMove]:
    """Split a one-step homotopy into single spider moves, raster order.

    Every prefix of the returned list keeps the map continuous: any
    intermediate cell holds either its f- or its g-label, and all four
    label combinations on an adjacent pair are adjacent by continuity of
    the endpoints plus the pairwise criterion.
    """
    if not one_step_check(f, g):
        raise ValueError("maps are not one-step homotopic")
    diff = f.array != g.array
    bs, as_ = np.nonzero(diff)
    return [
        SpiderMove((int(a), int(b)), int(g.array[b, a]))
        for b, a in zip(bs.tolist(), as_.tolist())
    ]


def flood(f: GridMap, b: int) -> tuple[GridMap, list[SpiderMove]]:
    """Relabel to ``b`` every interior cell with no antipode-of-b in sight.

    A cell is flooded unless some cell adjacent to it (itself included)
    carries the label opposite to ``b``.  The result is one-step homotopic
    to f; the returned moves are its raster decomposition.
    """
    npts = len(f.codomain.points)
    if not 0 <= b < npts:
        raise ValueError(f"flood label index {b} outside codomain")
    neg = tuple(-c for c in f.codomain.points[b])
    anti = f.codomain.point_index.get(neg)
    if anti is None:
        raise ValueError("flood needs an antipodal point for its label")
    arr = f.array
    blocked = np.zeros((arr.shape[0] + 2, arr.shape[1] + 2), dtype=bool)
    isneg = arr == anti
    for db in (0, 1, 2):
        for da in (0, 1, 2):
            blocked[db : db + arr.shape[0], da : da + arr.shape[1]] |= isneg
    out = np.array(arr)
    out[1:-1, 1:-1] = np.where(blocked[2:-2, 2:-2], arr[1:-1, 1:-1], b)
    g = from_array(out, f.codomain, f.basepoint)
    return g, decompose_one_step(f, g)


# ---------------------------------------------------------------------------
# Certificate builders for the structural homotopies.


class _TraceBuilder:
    """Accumulates spider moves while mutating a working copy of a map.

    All emission goes through one-step windows: the caller proposes new
    contents for a subrectangle, the builder checks the pairwise criterion
    on the window grown by one cell (cells further out cannot see the
    change), then records the changed cells in raster order.
    """

    def __init__(self, start: GridMap):
        self.start = start
        self.codomain = start.codomain
        self.basepoint = start.basepoint
        self.rect = start.rect
        self.arr = np.array(start.array)
        self.moves: list[SpiderMove] = []

    def one_step(self, window: SubRect, new_block: np.ndarray) -> None:
        """Rewrite ``window`` to ``new_block`` as one one-step homotopy."""
        m, n = self.rect.m, self.rect.n
        if not window.within(self.rect):
            raise ValueError(f"{window} outside I_{{{m},{n}}}")
        if new_block.shape != (window.height, window.width):
            raise ValueError("window block has the wrong shape")
        ga0, ga1 = max(window.a_lo - 1, 0), min(window.a_hi + 1, m)
        gb0, gb1 = max(window.b_lo - 1, 0), min(window.b_hi + 1, n)
        sub_f = self.arr[gb0 : gb1 + 1, ga0 : ga1 + 1]
        sub_g = np.array(sub_f)
        sub_g[
            window.b_lo - gb0 : window.b_hi - gb0 + 1,
            window.a_lo - ga0 : window.a_hi - ga0 + 1,
        ] = new_block
        if not _one_step_arrays(sub_f, sub_g, self.codomain.adjacency_matrix):
            raise ValueError(f"window rewrite at {window} is not a one-step homotopy")
        cur = self.arr[
            window.b_lo : window.b_hi + 1, window.a_lo : window.a_hi + 1
        ]
        bs, as_ = np.nonzero(cur != new_block)
        for b, a in zip(bs.tolist(), as_.tolist()):
            aa, bb = window.a_lo + a, window.b_lo + b
            if aa in (0, m) or bb in (0, n):
                raise ValueError(f"window rewrite would move boundary cell {(aa, bb)}")
            self.moves.append(SpiderMove((aa, bb), int(new_block[b, a])))
        self.arr[
            window.b_lo : window.b_hi + 1, window.a_lo : window.a_hi + 1
        ] = new_block

    def one_step_to(self, new_arr: np.ndarray) -> None:
        """Full-grid one-step rewrite (used by flood stages)."""
        self.one_step(SubRect(0, self.rect.m, 0, self.rect.n), new_arr)

    def copy_column(
        self, dst: int, src: int, rows: tuple[int, int] | None = None
    ) -> None:
        """One-step: column ``dst`` takes the current values of column ``src``."""
        b_lo, b_hi = rows if rows is not None else (0, self.rect.n)
        self.one_step(
            SubRect(dst, dst, b_lo, b_hi),
            self.arr[b_lo : b_hi + 1, src : src + 1],
        )

    def copy_row(self, dst: int, src: int, cols: tuple[int, int] | None = None) -> None:
        """One-step: row ``dst`` takes the current values of row ``src``."""
        a_lo, a_hi = cols if cols is not None else (0, self.rect.m)
        self.one_step(
            SubRect(a_lo, a_hi, dst, dst),
            self.arr[src : src + 1, a_lo : a_hi + 1],
        )

    def spider(self, a: int, b: int, v: int) -> None:
        """Emit a single validated spider move."""
        self.one_step(SubRect(a, a, b, b), np.full((1, 1), v, dtype=np.uint8))

    def current_map(self) -> GridMap:
        return from_array(self.arr, self.codomain, self.basepoint)

    def certificate(self) -> Certificate:
        return Certificate(
            codomain=self.codomain,
            basepoint=self.basepoint,
            common_rect=self.rect,
            start=self.start,
            moves=tuple(self.moves),
            end=self.current_map(),
        )


def doubling_trace(f: GridMap, from_i: int, to_i: int) -> Certificate:
    """Certificate from f with column ``from_i`` doubled to f with column
    ``to_i`` doubled, walking the duplicate leftwards one index at a time.

    Both endpoints live on I_{m+1,n}; consecutive doublings differ in a
    single column and are one-step homotopic.
    """
    if not 0 <= to_i <= from_i <= f.rect.m:
        raise ValueError(
            f"need 0 <= to_i <= from_i <= {f.rect.m}, got {from_i}..{to_i}"
        )
    cur = apply_alpha(f, from_i)
    builder = _TraceBuilder(cur)
    for i in range(from_i, to_i, -1):
        nxt = apply_alpha(f, i - 1)
        # The two doublings differ exactly in column i.
        builder.one_step(
            SubRect(i, i, 0, f.rect.n), nxt.array[:, i : i + 1]
        )
    cert = builder.certificate()
    if cert.end.values != apply_alpha(f, to_i).values:
        raise RuntimeError("doubling trace did not end at the target doubling")
    return cert


def _block_bounds(r: SubRect, delta: tuple[int, int]) -> SubRect:
    dx, dy = delta
    return SubRect(
        min(r.a_lo, r.a_lo + dx),
        max(r.a_hi, r.a_hi + dx),
        min(r.b_lo, r.b_lo + dy),
        max(r.b_hi, r.b_hi + dy),
    )


def _emit_translate(builder: "_TraceBuilder", r: SubRect, delta: tuple[int, int]) -> None:
    """Emit into ``builder`` the unit-shift walks sliding block ``r`` by ``delta``.

    Preconditions are checked against the builder's current grid: the final
    position stays clear of the rectangle boundary, and everything the block
    sweeps over (plus a one-cell margin) is basepoint-valued sea.
    """
    dx, dy = delta
    m, n = builder.rect.m, builder.rect.n
    bp = builder.basepoint
    if not r.within(builder.rect):
        raise ValueError(f"{r} outside I_{{{m},{n}}}")
    tgt = r.shifted(dx, dy)
    if not (1 <= tgt.a_lo and tgt.a_hi <= m - 1 and 1 <= tgt.b_lo and tgt.b_hi <= n - 1):
        raise ValueError("translated block would touch the rectangle boundary")
    box = _block_bounds(r, delta)
    ba0, ba1 = max(box.a_lo - 1, 0), min(box.a_hi + 1, m)
    bb0, bb1 = max(box.b_lo - 1, 0), min(box.b_hi + 1, n)
    before = np.array(builder.arr)
    swept = np.array(before[bb0 : bb1 + 1, ba0 : ba1 + 1])
    swept[r.b_lo - bb0 : r.b_hi - bb0 + 1, r.a_lo - ba0 : r.a_hi - ba0 + 1] = bp
    if (swept != bp).any():
        raise ValueError("swept region is not clear of content")

    cur = r
    step = 1 if dx > 0 else -1
    for _ in range(abs(dx)):
        if step > 0:
            for j in range(cur.a_hi + 1, cur.a_lo - 1, -1):
                builder.copy_column(j, j - 1, rows=(bb0, bb1))
        else:
            for j in range(cur.a_lo - 1, cur.a_hi + 1):
                builder.copy_column(j, j + 1, rows=(bb0, bb1))
        cur = cur.shifted(step, 0)
    step = 1 if dy > 0 else -1
    for _ in range(abs(dy)):
        if step > 0:
            for rr in range(cur.b_hi + 1, cur.b_lo - 1, -1):
                builder.copy_row(rr, rr - 1, cols=(ba0, ba1))
        else:
            for rr in range(cur.b_lo - 1, cur.b_hi + 1):
                builder.copy_row(rr, rr + 1, cols=(ba0, ba1))
        cur = cur.shifted(0, step)

    expected = before
    block = np.array(before[r.b_lo : r.b_hi + 1, r.a_lo : r.a_hi + 1])
    expected[r.b_lo : r.b_hi + 1, r.a_lo : r.a_hi + 1] = bp
    expected[tgt.b_lo : tgt.b_hi + 1, tgt.a_lo : tgt.a_hi + 1] = block
    if not (builder.arr == expected).all():
        raise RuntimeError("translation walk did not land the block at its target")


def translate_trace(f: GridMap, r: SubRect, delta: tuple[int, int]) -> Certificate:
    """Slide the contents of subrectangle ``r`` by ``delta`` through sea.

    Requires everything the block sweeps over (plus a one-cell margin) to
    be basepoint-valued apart from the block itself, and the final position
    to stay clear of the rectangle boundary.  Emitted as a chain of unit
    shifts, each a column-copy (or row-copy) walk.
    """
    builder = _TraceBuilder(f)
    _emit_translate(builder, r, delta)
    return builder.certificate()


# ---------------------------------------------------------------------------
# Verification.


def verify_certificate(c: Certificate) -> VerifyResult:
    """Replay a certificate from scratch and accept only a perfect run.

    Independent of the builder machinery: re-validates both endpoint grids
    directly, then replays moves against a flat byte buffer using the
    codomain's adjacency bitmasks.
    """
    rect = c.common_rect
    w, h = rect.width, rect.height
    npts = len(c.codomain.points)
    amat = c.codomain.adjacency_matrix
    for name, g in (("start", c.start), ("end", c.end)):
        if g.rect != rect:
            return VerifyResult(False, f"{name} map not on common rectangle")
        if g.codomain != c.codomain or g.basepoint != c.basepoint:
            return VerifyResult(False, f"{name} map codomain/basepoint mismatch")
        arr = g.array
        bad = (
            (arr[0, :] != c.basepoint).any()
            or (arr[-1, :] != c.basepoint).any()
            or (arr[:, 0] != c.basepoint).any()
            or (arr[:, -1] != c.basepoint).any()
        )
        if bad:
            return VerifyResult(False, f"{name} map boundary not pinned")
        if not values_continuous(arr, amat):
            return VerifyResult(False, f"{name} map not continuous")

    masks = c.codomain.adjacency_masks
    vals = bytearray(c.start.values)
    for idx, mv in enumerate(c.moves):
        a, b = mv.at
        if not (0 < a < rect.m and 0 < b < rect.n):
            return VerifyResult(
                False, f"move {idx} targets boundary or exterior cell {mv.at}", idx
            )
        v = mv.new_value
        if not 0 <= v < npts:
            return VerifyResult(False, f"move {idx} value {v} outside codomain", idx)
        pos = b * w + a
        mask = masks[v]
        if not (mask >> vals[pos]) & 1:
            return VerifyResult(
                False,
                f"move {idx} at {mv.at}: new value not adjacent to current value",
                idx,
            )
        ok = True
        for da, db in _OFFSETS:
            if not (mask >> vals[pos + db * w + da]) & 1:
                ok = False
                break
        if not ok:
            return VerifyResult(
                False,
                f"move {idx} at {mv.at}: new value not adjacent to a neighbor",
                idx,
            )
        vals[pos] = v
    if bytes(vals) != c.end.values:
        return VerifyResult(False, "replayed moves do not reach the end map")
    return VerifyResult(True)
