"""Spider moves, one-step homotopies, floods, and the certificate builders.

The builders record every homotopy as a Certificate (see ``verify``): a
start map, an ordered list of single-cell relabelings (spider moves), and an
end map, all over one common rectangle.  Each rewrite is checked as it is
emitted, and ``verify_certificate`` checks the result again without any of
this module's code.

Every check here is ``grid``'s adjacency rule.  f to g is a one-step
homotopy iff each cell's g-label is allowed among the f-labels around it
(``allowed_grid`` over f); a line copy checks the same rule on the few
cells that can see the copy.

The builders here never shrink a domain.  Enlarging one is always sound:
interior cells keep exactly the same neighborhoods, so recorded moves stay
valid verbatim on any larger rectangle.
"""

from __future__ import annotations

import numpy as np

from .grid import allowed_grid, mask_array
from .gridmap import GridMap, SubRect, _unchecked, apply_alpha, from_array

# SpiderMove and verify_certificate are unused here; perfbench reads them from here.
from .verify import Certificate, PackedMoves, SpiderMove, spider_valid, verify_certificate

# ---------------------------------------------------------------------------
# Single moves.


def apply_spider(f: GridMap, mv: SpiderMove) -> GridMap:
    """Apply one valid spider move; raises on an invalid one.

    A valid move keeps the map pinned and continuous, so the result is not
    checked again.
    """
    if not spider_valid(f, mv):
        raise ValueError(f"invalid spider move at {mv.at} -> {mv.new_value}")
    vals = bytearray(f.values)
    a, b = mv.at
    vals[b * f.rect.width + a] = mv.new_value
    return _unchecked(f, f.rect, bytes(vals))


# ---------------------------------------------------------------------------
# One-step homotopies.


def decompose_one_step(f: GridMap, g: GridMap) -> PackedMoves:
    """Split a one-step homotopy into single spider moves, raster order.

    Every prefix of the returned moves keeps the map continuous: any
    intermediate cell holds either its f- or its g-label, and all four
    label combinations on an adjacent pair are adjacent by continuity of
    the endpoints plus the one-step rule: every g-label is allowed among
    the f-labels around it.
    """
    if f.rect != g.rect:
        raise ValueError("one-step check requires equal domains")
    if f.codomain != g.codomain or f.basepoint != g.basepoint:
        raise ValueError("one-step check requires equal codomain and basepoint")
    masks = mask_array(f.codomain.adjacency_masks)
    if not (allowed_grid(masks, f.array) >> g.array & 1).all():
        raise ValueError("maps are not one-step homotopic")
    bs, as_ = np.nonzero(f.array != g.array)
    return PackedMoves(as_, bs, g.array[bs, as_])


def flood(f: GridMap, b: int) -> tuple[GridMap, PackedMoves]:
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

    All emission is made of one-step rewrites, recorded as the changed cells
    in raster order.  ``one_step`` takes one window and checks the rule on
    it grown by one cell (cells further out cannot see the change): each
    new label must be allowed among the old labels and among the new ones
    around it.  ``shift`` takes a whole walk of line copies at once and
    checks each copy by the line-copy rule.  Moves are kept as a list of
    PackedMoves, joined once into the certificate.

    The grid is continuous at all times, which the line-copy rule assumes:
    it starts as a GridMap, a flood's result is one, ``one_step`` requires
    the rewritten window to be continuous, and a legal line copy keeps the
    grid continuous.
    """

    def __init__(self, start: GridMap):
        self.start = start
        self.codomain = start.codomain
        self.basepoint = start.basepoint
        self.rect = start.rect
        self.arr = np.array(start.array)
        self._chunks: list[PackedMoves] = []
        # Cells beyond the rectangle get a wildcard label, one past the
        # codomain's, adjacent to every label.
        masks = self.codomain.adjacency_masks
        self._masks = mask_array(masks + ((1 << len(masks)) - 1,))
        # The grid as a GridMap, kept from the last flood until it changes.
        self._map: GridMap | None = None

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
        # f(x) ~ g(x') for every x ~ x', and the rewritten window continuous.
        both = allowed_grid(self._masks, sub_f) & allowed_grid(self._masks, sub_g)
        if not (both >> sub_g & 1).all():
            raise ValueError(f"window rewrite at {window} is not a one-step homotopy")
        cur = self.arr[
            window.b_lo : window.b_hi + 1, window.a_lo : window.a_hi + 1
        ]
        bs, as_ = np.nonzero(cur != new_block)
        aa, bb = as_ + window.a_lo, bs + window.b_lo
        edge = (aa == 0) | (aa == m) | (bb == 0) | (bb == n)
        if edge.any():
            i = int(edge.argmax())  # the first offending cell in raster order
            raise ValueError(
                f"window rewrite would move boundary cell {(int(aa[i]), int(bb[i]))}"
            )
        if aa.size:
            self._chunks.append(PackedMoves(aa, bb, new_block[bs, as_]))
        cur[...] = new_block
        self._map = None

    def flood(self, label: int) -> None:
        """Flood the whole grid by ``label``, taking ``flood``'s checked moves."""
        g, moves = flood(self.current_map(), label)
        self._chunks.append(moves)
        self.arr = np.array(g.array)
        self._map = g

    def shift(
        self,
        axis: str,
        lo: int,
        hi: int,
        step: int,
        span: tuple[int, int] | None = None,
        times: int = 1,
    ) -> None:
        """Shift content by ``step`` (+1 or -1) lines into lines ``lo..hi``.

        Lines are columns for ``axis="a"`` and rows for ``axis="b"``; with
        ``span``, only the cells from ``span[0]`` to ``span[1]`` across the
        lines move.  This is the walk of one-step rewrites in which line j
        takes the current value of line j - step, farthest from the source
        first (hi down to lo for step +1), so each line receives its
        neighbour's value from before the walk.  ``times`` repeats the walk
        on lines moved on by ``step`` each time, carrying a run of lines
        along.

        Each step is checked by the line-copy rule.  Copying line j - step
        into line j of a continuous grid is a one-step homotopy iff each new
        cell is adjacent to what line j + step holds beside it (at c - 1, c
        and c + 1 across) just before the step; the new cell's other
        neighbours are its own line's and line j's, whose neighbour it was.
        A walk's first step looks up line j + step as the walk began.  A
        later step looks up only the span's two ends: inside the span, line
        j + step holds the copy of line j that the step before made.

        After t walks, the run of lines sits t lines on and the lines it left
        hold copies of its trailing line; within a walk, the lines already
        passed hold their neighbour's value from before the walk.  This holds
        inside the span; all else keeps its original value.  Moves come out
        as the stepwise walks emit them: line by line, raster order within a
        line.  An invalid walk raises ValueError naming its first bad step,
        and emits nothing.
        """
        if axis not in ("a", "b") or step not in (1, -1) or times < 1:
            raise ValueError(f"cannot shift along {axis!r} by {step}, {times} times")
        grid = self.arr if axis == "a" else self.arr.T  # indexed [across, line]
        last_c, last_l = grid.shape[0] - 1, grid.shape[1] - 1
        s0, s1 = span if span is not None else (0, last_c)
        reach = (times - 1) * step
        first, last = min(lo - step, lo + reach), max(hi - step, hi + reach)
        if not (lo <= hi and 0 <= first and last <= last_l and 0 <= s0 <= s1 <= last_c):
            raise ValueError(
                f"shift of lines {lo}..{hi} by {step} across {s0}..{s1} "
                f"leaves I_{{{self.rect.m},{self.rect.n}}}"
            )
        # The lines first - 1 .. last + 1 across s0 - 1 .. s1 + 1, where cells
        # beyond the rectangle hold the wildcard label.
        npts = len(self.codomain.points)
        l0 = first - 1
        region = np.full((s1 - s0 + 3, last - first + 3), npts, np.min_scalar_type(npts))
        rc0, rc1 = max(s0 - 1, 0), min(s1 + 1, last_c)
        rl0, rl1 = max(l0, 0), min(last + 1, last_l)
        region[rc0 - s0 + 1 : rc1 - s0 + 2, rl0 - l0 : rl1 - l0 + 1] = grid[
            rc0 : rc1 + 1, rl0 : rl1 + 1
        ]
        back = (lo if step > 0 else hi) - step  # the run's trailing line

        def held(lines, t):
            """The line whose original value ``lines`` hold after t walks."""
            moved = lines - t * step
            left = (lines - back) * step
            return np.where(
                (0 <= left) & (left <= t),
                back,
                np.where((lo - step <= moved) & (moved <= hi - step), moved, lines),
            )

        one = np.arange(hi, lo - 1, -1) if step > 0 else np.arange(lo, hi + 1)
        t = np.repeat(np.arange(times), len(one))
        walk = np.tile(one, times) + t * step
        # Per step, the span of the new line j - step and of line j before it.
        new = region[1:-1, held(walk - step, t) - l0].T
        changed = new != region[1:-1, held(walk, t) - l0].T
        masks, ahead = self._masks, walk + step - l0
        ends = masks.take(region[[0, -1]][:, ahead]) >> new[:, [0, -1]].T
        ok = (ends[0] & ends[1] & 1).astype(bool)
        # No earlier walk has reached a walk's first line j + step.
        starts = np.arange(0, len(walk), len(one))
        fresh, line = new[starts], masks.take(region[:, ahead[starts]].T)
        ok[starts] &= ((line[:, :-2] & line[:, 1:-1] & line[:, 2:]) >> fresh & 1).all(axis=1)
        across = np.arange(s0, s1 + 1)
        edge = changed & (
            ((walk == 0) | (walk == last_l))[:, None]
            | ((across == 0) | (across == last_c))[None, :]
        )
        bad = ~ok | edge.any(axis=1)
        if bad.any():
            k = int(bad.argmax())
            j = int(walk[k])
            if not ok[k]:
                window = SubRect(j, j, s0, s1) if axis == "a" else SubRect(s0, s1, j, j)
                raise ValueError(f"window rewrite at {window} is not a one-step homotopy")
            c = s0 + int(edge[k].argmax())
            cell = (j, c) if axis == "a" else (c, j)
            raise ValueError(f"window rewrite would move boundary cell {cell}")
        ks, cs = np.nonzero(changed)
        if ks.size:
            lines, cells = walk[ks], cs + s0
            a, b = (lines, cells) if axis == "a" else (cells, lines)
            self._chunks.append(PackedMoves(a, b, new[ks, cs]))
        span_lines = np.arange(first, last + 1)
        grid[s0 : s1 + 1, first : last + 1] = region[1:-1, held(span_lines, times) - l0]
        self._map = None

    def spider(self, a: int, b: int, v: int) -> None:
        """Emit a single validated spider move."""
        self.one_step(SubRect(a, a, b, b), np.full((1, 1), v, dtype=np.uint8))

    def current_map(self) -> GridMap:
        if self._map is not None:
            return self._map
        return from_array(self.arr, self.codomain, self.basepoint)

    def certificate(self) -> Certificate:
        return Certificate(
            codomain=self.codomain,
            basepoint=self.basepoint,
            common_rect=self.rect,
            start=self.start,
            moves=PackedMoves.join(self._chunks),
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
    builder = _TraceBuilder(apply_alpha(f, from_i))
    # Column i takes column i - 1 for i = from_i down to to_i + 1.
    if to_i < from_i:
        builder.shift("a", to_i + 1, from_i, 1)
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

    if dx:
        lo, hi = (r.a_lo, r.a_hi + 1) if dx > 0 else (r.a_lo - 1, r.a_hi)
        builder.shift("a", lo, hi, 1 if dx > 0 else -1, span=(bb0, bb1), times=abs(dx))
    if dy:
        cur = r.shifted(dx, 0)
        lo, hi = (cur.b_lo, cur.b_hi + 1) if dy > 0 else (cur.b_lo - 1, cur.b_hi)
        builder.shift("b", lo, hi, 1 if dy > 0 else -1, span=(ba0, ba1), times=abs(dy))

    expected = before
    block = np.array(before[r.b_lo : r.b_hi + 1, r.a_lo : r.a_hi + 1])
    expected[r.b_lo : r.b_hi + 1, r.a_lo : r.a_hi + 1] = bp
    expected[tgt.b_lo : tgt.b_hi + 1, tgt.a_lo : tgt.a_hi + 1] = block
    if not (builder.arr == expected).all():
        raise RuntimeError("translation walk did not land the block at its target")
