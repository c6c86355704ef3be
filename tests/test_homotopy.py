import dataclasses
import functools
import random

import numpy as np
import pytest

import dpi2 as d
from dpi2 import homotopy, verify

from conftest import DATA, grid


def sea(m, n):
    return d.constant_map(d.Rectangle(m, n), d.S2, d.BASEPOINT)


def placed(base, *pieces):
    """``base`` with each (a, b, g) of ``pieces`` written over it from (a, b)."""
    arr = np.array(base.array)
    for a, b, g in pieces:
        arr[b : b + g.rect.height, a : a + g.rect.width] = g.array
    return d.from_array(arr, base.codomain, base.basepoint)


def translate(f, r, delta):
    """The certificate of sliding block ``r`` of f by ``delta``, as normalize builds it."""
    builder = homotopy._TraceBuilder(f)
    homotopy._emit_translate(builder, r, delta)
    return builder.certificate()


# ---------------------------------------------------------------------------
# Spider moves.


def test_spider_into_open_sea_is_valid():
    f = sea(5, 5)
    assert d.spider_valid(f, d.SpiderMove((2, 2), 1))
    assert d.spider_valid(f, d.SpiderMove((2, 2), 3))  # staying put is allowed


def test_spider_to_antipode_of_neighbor_is_invalid(T):
    # center of T is e1; relabeling any ring cell with e1's antipode fails
    assert not d.spider_valid(T, d.SpiderMove((1, 2), 3))
    # and a label not adjacent to the old value fails even in open sea
    assert not d.spider_valid(sea(5, 5), d.SpiderMove((2, 2), 0))


def test_spider_never_touches_boundary():
    f = sea(5, 5)
    assert not d.spider_valid(f, d.SpiderMove((0, 2), 1))
    assert not d.spider_valid(f, d.SpiderMove((2, 0), 3))
    assert not d.spider_valid(f, d.SpiderMove((9, 2), 1))  # out of range


def test_apply_spider_and_revert(T):
    mv = d.SpiderMove((1, 1), 1)  # e3 -> e2 next to the corner
    assert d.spider_valid(T, mv)
    g = d.apply_spider(T, mv)
    assert g.value_at(1, 1) == 1
    back = d.apply_spider(g, d.SpiderMove((1, 1), 2))
    assert back.values == T.values


def test_apply_spider_rejects_invalid(T):
    with pytest.raises(ValueError):
        d.apply_spider(T, d.SpiderMove((0, 0), 1))
    # Valid moves skip GridMap's checks, so every kind of invalid one must raise.
    for f, mv in (
        (T, d.SpiderMove((1, 2), 3)),  # beside e1, to its antipode
        (sea(5, 5), d.SpiderMove((2, 2), 0)),  # open sea to the basepoint's antipode
        (sea(5, 5), d.SpiderMove((2, 2), 6)),  # a label outside the codomain
        (sea(5, 5), d.SpiderMove((5, 2), 1)),  # off the rectangle
    ):
        with pytest.raises(ValueError, match="invalid spider move"):
            d.apply_spider(f, mv)


def test_corner_moves_reach_the_four_value_form():
    f = grid(
        """
        .  .  .  . .
        .  2  3  2 .
        .  2  1  2 .
        .  2 -3  2 .
        .  .  .  . .
        """
    )
    # the four corner relabelings: each copies an edge-neighbor value
    seq = [
        d.SpiderMove((1, 3), f.value_at(1, 2)),
        d.SpiderMove((1, 1), f.value_at(2, 1)),
        d.SpiderMove((3, 1), f.value_at(3, 2)),
        d.SpiderMove((3, 3), f.value_at(2, 3)),
    ]
    for mv in seq:
        assert d.spider_valid(f, mv)
        f = d.apply_spider(f, mv)
    assert f.values == grid(
        """
        .  .  .  . .
        .  2  3  3 .
        .  2  1  2 .
        . -3 -3  2 .
        .  .  .  . .
        """
    ).values


# ---------------------------------------------------------------------------
# One-step homotopy.


def test_one_step_reflexive(T):
    assert d.decompose_one_step(T, T) == ()


def test_one_step_after_single_move(T):
    g = d.apply_spider(T, d.SpiderMove((1, 1), 1))
    assert d.decompose_one_step(T, g) == [d.SpiderMove((1, 1), 1)]
    assert d.decompose_one_step(g, T) == [d.SpiderMove((1, 1), 2)]


def test_generator_not_one_step_from_constant(T):
    with pytest.raises(ValueError, match="not one-step homotopic"):
        d.decompose_one_step(T, sea(4, 4))


def test_one_step_requires_equal_frames(T):
    with pytest.raises(ValueError, match="equal domains"):
        d.decompose_one_step(T, sea(5, 5))


def test_decompose_one_step(T):
    assert d.decompose_one_step(T, T) == []
    g = d.apply_spider(T, d.SpiderMove((1, 1), 1))
    assert d.decompose_one_step(T, g) == [d.SpiderMove((1, 1), 1)]
    with pytest.raises(ValueError):
        d.decompose_one_step(T, sea(4, 4))


def test_decompose_replays_cleanly():
    f, _ = d.flood(d.gen_random(3, 8, 7, moves=35), d.BASEPOINT)
    g = d.gen_random(3, 8, 7, moves=35)
    moves = d.decompose_one_step(g, f)
    cur = g
    for mv in moves:
        cur = d.apply_spider(cur, mv)  # raises if any step breaks continuity
    assert cur.values == f.values


# ---------------------------------------------------------------------------
# Flooding.


def test_flood_golden_pair():
    before = d.load_map((DATA / "flood_input.dmap").read_text())
    expected = d.load_map((DATA / "flood_expected.dmap").read_text())
    out, moves = d.flood(before, d.BASEPOINT)
    assert out.values == expected.values
    assert moves and d.decompose_one_step(before, out) == moves


def test_flood_blocked_by_antipode_everywhere():
    c = sea(5, 5)
    out, moves = d.flood(c, 0)  # e1's antipode -e1 is everywhere
    assert out.values == c.values and moves == []


def test_flood_fills_when_unopposed():
    c = sea(5, 5)
    out, moves = d.flood(c, 1)
    assert (out.array[1:-1, 1:-1] == 1).all()
    assert len(moves) == 16


def test_flood_rejects_bad_label():
    with pytest.raises(ValueError):
        d.flood(sea(3, 3), 9)


# ---------------------------------------------------------------------------
# The certificate builder's one-step checks.


def test_builder_verdicts_do_not_depend_on_history():
    # The same 20 window bytes, as a 4 x 5 window around a 2 x 3 rewrite and
    # as a 5 x 4 window around a 3 x 2 one: a valid step in the first shape,
    # an invalid one in the second, in either order.
    before = np.array([3, 1, 3, 1, 3, 3, 5, 3, 2, 3, 1, 3, 3, 2, 3, 2, 2, 2, 2, 2], np.uint8)
    after = before.copy()
    after[[6, 13]] = 3, 4
    arr = np.full((7, 13), d.BASEPOINT, np.uint8)
    arr[1:5, 1:6] = before.reshape(4, 5)
    arr[1:6, 7:11] = before.reshape(5, 4)
    f = d.from_array(arr, d.S2, d.BASEPOINT)
    wide = (d.SubRect(2, 4, 2, 3), after.reshape(4, 5)[1:3, 1:4])
    tall = (d.SubRect(8, 9, 2, 4), after.reshape(5, 4)[1:4, 1:3])
    for first, second in ((wide, tall), (tall, wide)):
        builder = homotopy._TraceBuilder(f)
        for window, block in (first, second):
            if window == wide[0]:
                builder.one_step(window, block)
            else:
                with pytest.raises(ValueError, match="not a one-step homotopy"):
                    builder.one_step(window, block)
    # One sea window before two different rewrites, the second invalid; and
    # an invalid rewrite stays invalid when it comes again.
    builder = homotopy._TraceBuilder(sea(8, 8))
    builder.spider(2, 2, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a one-step homotopy"):
            builder.spider(6, 6, 0)
    assert (builder.arr[6, 6], len(builder.certificate().moves)) == (d.BASEPOINT, 1)


def test_one_step_rejects_a_rewrite_that_breaks_continuity():
    # e2 beside -e2 passes the pairwise criterion against open sea, but the
    # rewritten window is not continuous.
    builder = homotopy._TraceBuilder(sea(6, 6))
    with pytest.raises(ValueError, match="not a one-step homotopy"):
        builder.one_step(d.SubRect(2, 3, 2, 2), np.array([[1, 4]], np.uint8))
    assert (builder.arr == d.BASEPOINT).all()
    assert builder.certificate().moves == ()


def test_shift_checks_a_walks_first_step_against_the_diagonal_cells_ahead():
    # Column 3 takes column 2, whose e2 at row 3 would land diagonally next
    # to a -e2 in column 4; only the lookups at c - 1 or c + 1 of the line
    # ahead see it.
    for row in (2, 4):
        arr = np.full((8, 8), d.BASEPOINT, np.uint8)
        arr[3, 2], arr[2:5, 3], arr[row, 4] = 1, 2, 4
        builder = homotopy._TraceBuilder(d.from_array(arr, d.S2, d.BASEPOINT))
        with pytest.raises(ValueError, match="not a one-step homotopy"):
            builder.shift("a", 3, 3, 1)
        assert (builder.arr == arr).all() and builder.certificate().moves == ()


def test_builder_map_is_kept_from_a_flood_until_the_grid_changes(T):
    builder = homotopy._TraceBuilder(d.trivial_extend(T, 6, 6))
    builder.flood(1)
    g = builder.current_map()
    assert builder.current_map() is g and g.values == builder.arr.tobytes()
    a, b, v = next(
        (a, b, v)
        for b in range(1, 6)
        for a in range(1, 6)
        for v in range(6)
        if v != g.value_at(a, b) and d.spider_valid(g, d.SpiderMove((a, b), v))
    )
    builder.spider(a, b, v)
    now = builder.current_map()
    assert now.values == builder.arr.tobytes() and now.value_at(a, b) == v


def _one_step_by_pairs(f, g):
    """The pairwise criterion: f(x) ~ g(x') for every x ~ x', x = x' included."""
    amat = f.codomain.adjacency_matrix
    fa, ga = f.array, g.array
    h, w = fa.shape
    return all(
        amat[fa[b, a], ga[b2, a2]]
        for b in range(h)
        for a in range(w)
        for b2 in range(max(b - 1, 0), min(b + 2, h))
        for a2 in range(max(a - 1, 0), min(a + 2, w))
    )


def test_decompose_one_step_accepts_exactly_the_pairwise_criterion():
    # gen_random replays the same move stream, so g is f walked a few
    # moves further: often one step away, sometimes not.
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        seed, m, n = rng.randrange(10**6), rng.randint(2, 5), rng.randint(2, 5)
        k = rng.randint(0, 8)
        f = d.gen_random(seed, m, n, moves=k)
        g = d.gen_random(seed, m, n, moves=k + rng.randint(1, 12))
        want = _one_step_by_pairs(f, g)
        try:
            moves = d.decompose_one_step(f, g)
            assert len(moves) == int((f.array != g.array).sum())
            got = True
        except ValueError as e:
            assert str(e) == "maps are not one-step homotopic"
            got = False
        assert got == want, (seed, m, n, k)
        verdicts[want] += 1
    assert min(verdicts.values()) > 500


# ---------------------------------------------------------------------------
# Structural certificates.


def test_doubling_trace_trivial(T):
    cert = d.doubling_trace(T, 2, 2)
    assert cert.moves == ()
    assert d.verify_certificate(cert).ok


def test_doubling_trace_full_chain(T):
    cert = d.doubling_trace(T, 4, 0)
    assert d.verify_certificate(cert).ok
    assert cert.start.values == d.trivial_extend(T, 5, 4).values
    assert cert.end.values == d.apply_alpha(T, 0).values
    assert d.triangle_count(cert.start) == d.triangle_count(cert.end) == 1


def test_translate_trace_zero_delta(T):
    big = d.trivial_extend(T, 8, 8)
    cert = translate(big, d.SubRect(1, 3, 1, 3), (0, 0))
    assert cert.moves == () and d.verify_certificate(cert).ok


def test_translate_trace_slide_right(T):
    f = placed(sea(12, 8), (0, 0, T))
    cert = translate(f, d.SubRect(1, 3, 1, 3), (3, 0))
    assert d.verify_certificate(cert).ok
    expected = placed(sea(12, 8), (3, 0, T))
    assert cert.end.values == expected.values


def test_doubling_trace_invariant_raises_on_corrupt_result(T, monkeypatch):
    real = homotopy.apply_alpha
    calls = []

    def alpha(f, i):
        calls.append(i)
        # Call 1 builds the start of the walk 4 -> 0; call 2 is the end-state
        # check, which now sees a different doubling than the one the walk reached.
        return real(f, i + 1 if len(calls) == 2 else i)

    monkeypatch.setattr(homotopy, "apply_alpha", alpha)
    with pytest.raises(RuntimeError, match="doubling trace"):
        d.doubling_trace(T, 4, 0)
    assert len(calls) == 2


def test_translate_trace_invariant_raises_when_the_walk_misfires(T, monkeypatch):
    f = placed(sea(12, 8), (0, 0, T))
    monkeypatch.setattr(homotopy._TraceBuilder, "shift", lambda self, *a, **k: None)
    with pytest.raises(RuntimeError, match="translation walk"):
        translate(f, d.SubRect(1, 3, 1, 3), (3, 0))


def test_translate_trace_swaps_two_blocks(T, T_inv):
    base = sea(12, 10)
    f = placed(base, (0, 0, T), (4, 0, T_inv))
    blk_a, blk_b = d.SubRect(1, 3, 1, 3), d.SubRect(5, 7, 1, 3)
    parts = []
    cur = f
    for r, delta in [
        (blk_a, (0, 5)),
        (blk_b, (-4, 0)),
        (blk_a.shifted(0, 5), (4, 0)),
        (blk_a.shifted(4, 5), (0, -5)),
    ]:
        cert = translate(cur, r, delta)
        parts.append(cert)
        cur = cert.end
    whole = functools.reduce(d.Certificate.then, parts)
    assert d.verify_certificate(whole).ok
    swapped = placed(base, (0, 0, T_inv), (4, 0, T))
    assert whole.end.values == swapped.values


def test_translate_trace_rejects_collisions(T, T_inv):
    f = placed(sea(12, 10), (0, 0, T), (4, 0, T_inv))
    with pytest.raises(ValueError):
        translate(f, d.SubRect(1, 3, 1, 3), (4, 0))  # lands on the mirror


def test_translate_trace_rejects_leaving_interior(T):
    f = d.trivial_extend(T, 8, 8)
    with pytest.raises(ValueError):
        translate(f, d.SubRect(1, 3, 1, 3), (5, 0))


# ---------------------------------------------------------------------------
# Certificates and the verifier.


def test_empty_certificate_verifies(T):
    cert = d.Certificate(start=T, moves=(), end=T)
    assert cert.moves == () and cert.start.values == cert.end.values
    assert d.verify_certificate(cert).ok


def test_a_certificate_is_its_start_moves_and_end(T):
    names = [field.name for field in dataclasses.fields(d.Certificate)]
    assert names == ["start", "moves", "end"]
    cert = d.doubling_trace(T, 4, 0)
    start = cert.start
    assert cert.common_rect == start.rect and cert.common_rect != T.rect
    assert cert.codomain == start.codomain and cert.basepoint == start.basepoint
    with pytest.raises(AttributeError):
        cert.basepoint = 0


def test_replacing_the_moves_repacks_them_and_still_verifies(T):
    cert = d.doubling_trace(T, 4, 0)
    again = dataclasses.replace(cert, moves=tuple(cert.moves))
    assert isinstance(again.moves, verify.PackedMoves) and again == cert
    assert d.verify_certificate(again).ok
    # One flipped label, as the benchmark's tamper checks make, is rejected.
    *rest, last = cert.moves
    flipped = d.SpiderMove(last.at, (last.new_value + 1) % 6)
    assert not d.verify_certificate(dataclasses.replace(cert, moves=(*rest, flipped))).ok


def test_an_end_map_must_share_the_start_rectangle_codomain_and_basepoint(T):
    mismatch = "end map codomain/basepoint mismatch"
    cases = (
        (d.trivial_extend(T, 5, 4), "end map not on common rectangle"),
        (d.constant_map(T.rect, d.make_sphere(3), d.BASEPOINT), mismatch),
        (d.constant_map(T.rect, d.S2, 0), mismatch),
    )
    for end, reason in cases:
        with pytest.raises(ValueError, match=reason):
            d.Certificate(start=T, moves=(), end=end)
        # An end set past the constructor is caught by the verifier.
        cert = d.Certificate(start=T, moves=(), end=T)
        object.__setattr__(cert, "end", end)
        assert d.verify_certificate(cert) == d.VerifyResult(False, reason)


def test_certificate_extension_never_shrinks(T):
    cert = d.Certificate(start=T, moves=(), end=T)
    bigger = cert.extended(6, 7)
    assert bigger.common_rect == d.Rectangle(6, 7)
    assert d.verify_certificate(bigger).ok
    with pytest.raises(ValueError):
        cert.extended(3, 3)


def test_then_requires_meeting_endpoints(T):
    c1 = d.Certificate(start=T, moves=(), end=T)
    c2 = d.Certificate(start=sea(4, 4), moves=(), end=sea(4, 4))
    with pytest.raises(ValueError):
        c1.then(c2)
    joined = c1.then(d.Certificate(start=T, moves=(), end=T).extended(6, 6))
    assert joined.common_rect == d.Rectangle(6, 6)
    assert d.verify_certificate(joined).ok


def test_verifier_rejects_tampered_move(T):
    g = d.apply_spider(T, d.SpiderMove((1, 1), 1))
    cert = d.Certificate(
        start=T,
        moves=(d.SpiderMove((1, 1), 4),),  # -e2 against its e2 neighbor
        end=g,
    )
    res = d.verify_certificate(cert)
    assert not res.ok and res.move_index == 0


def test_verifier_rejects_wrong_endpoint(T):
    cert = d.Certificate(
        start=T,
        moves=(),
        end=sea(4, 4),
    )
    res = d.verify_certificate(cert)
    assert not res.ok and "end" in res.reason


# ---------------------------------------------------------------------------
# Packed certificate moves.


def test_empty_certificate_moves_equal_the_empty_tuple(T):
    moves = d.Certificate(start=T, moves=(), end=T).moves
    assert moves == () and () == moves and moves == [] and len(moves) == 0
    assert list(moves) == [] and moves[:] == ()


def test_certificate_moves_read_like_a_tuple_of_spider_moves(T):
    cert = d.doubling_trace(T, 4, 0)
    moves = tuple(cert.moves)
    assert len(moves) == len(cert.moves) > 3
    assert all(isinstance(mv, d.SpiderMove) for mv in moves)
    assert cert.moves == moves and moves == cert.moves and cert.moves == list(moves)
    assert cert.moves != moves[:-1] and cert.moves != moves[1:] + moves[:1]
    assert cert.moves[0] == moves[0] and cert.moves[-1] == moves[-1]
    assert cert.moves[-3] == moves[-3]
    assert cert.moves[1:4] == moves[1:4] and cert.moves[::-2] == moves[::-2]
    assert [mv for mv in cert.moves] == list(moves)
    with pytest.raises(IndexError):
        cert.moves[len(moves)]
    with pytest.raises(ValueError):
        cert.moves.a[0] = 7  # the packed arrays are read-only
    # Certificate still takes any iterable of SpiderMoves.
    rebuilt = d.Certificate(
        start=cert.start,
        moves=iter(moves),
        end=cert.end,
    )
    assert rebuilt == cert and rebuilt.moves == moves


def test_extended_and_then_carry_packed_moves(T):
    first, second = d.doubling_trace(T, 4, 2), d.doubling_trace(T, 2, 0)
    assert first.extended(8, 9).moves == first.moves
    joined = first.then(second)
    assert joined.moves == tuple(first.moves) + tuple(second.moves)
    assert d.verify_certificate(joined).ok


def test_certificate_rejects_moves_that_do_not_fit_int64(T):
    with pytest.raises(ValueError, match="int64"):
        d.Certificate(
            start=T,
            moves=(d.SpiderMove((2**63, 1), 1),),
            end=T,
        )


def _verify_moves(T, moves):
    cert = d.Certificate(
        start=T,
        moves=moves,
        end=T,
    )
    res = d.verify_certificate(cert)
    assert not res.ok
    return res.reason, res.move_index


def test_verifier_names_exterior_cells_and_foreign_labels(T):
    ok = d.SpiderMove((1, 1), 1)
    assert _verify_moves(T, (ok, d.SpiderMove((9, 2), 1))) == (
        "move 1 targets boundary or exterior cell (9, 2)", 1)
    assert _verify_moves(T, (d.SpiderMove((-1, 2), 1),)) == (
        "move 0 targets boundary or exterior cell (-1, 2)", 0)
    assert _verify_moves(T, (d.SpiderMove((2, 4), 1),)) == (
        "move 0 targets boundary or exterior cell (2, 4)", 0)
    assert _verify_moves(T, (ok, d.SpiderMove((2, 2), 6))) == (
        "move 1 value 6 outside codomain", 1)
    assert _verify_moves(T, (d.SpiderMove((2, 2), -1),)) == (
        "move 0 value -1 outside codomain", 0)


def test_verifier_reports_the_earliest_bad_move(T):
    ok = d.SpiderMove((1, 1), 1)  # e3 -> e2 next to the corner
    clash = d.SpiderMove((1, 1), 4)  # then -e2, the antipode of the current e2
    outside = d.SpiderMove((9, 9), 1)
    assert _verify_moves(T, (ok, clash, outside)) == (
        "move 1 at (1, 1): new value not adjacent to current value", 1)
    assert _verify_moves(T, (ok, outside, clash)) == (
        "move 1 targets boundary or exterior cell (9, 9)", 1)
    assert _verify_moves(T, (d.SpiderMove((1, 1), 4), d.SpiderMove((2, 2), 7))) == (
        "move 0 at (1, 1): new value not adjacent to a neighbor", 0)


def _certificate(start, valid, bad=()):
    """A certificate of the ``valid`` moves from start, then the ``bad`` ones."""
    end = start
    for mv in valid:
        end = d.apply_spider(end, mv)
    return d.Certificate(
        start=start,
        moves=(*valid, *bad),
        end=end,
    )


@pytest.mark.parametrize("labels", [(1, 3, 4, 3), (1, 3, 4)])
def test_verifier_reads_no_later_write_in_a_block_on_one_cell(labels):
    # Sea to e2 and back, then to -e2 (and back): before its first move, the
    # cell holds sea, not the block's last write.
    cert = _certificate(sea(4, 4), [d.SpiderMove((1, 1), v) for v in labels])
    assert d.verify_certificate(cert).ok


def _rejection(cert):
    res = d.verify_certificate(cert)
    return res.reason, res.move_index


def test_verifier_sees_the_last_write_of_the_previous_block(monkeypatch):
    # Blocks of two moves: (1, 1) goes to e3 and then to e2, and in the next
    # block -e2 next to it clashes with the e2.
    monkeypatch.setattr(verify, "_VERIFY_BLOCK", 2)
    valid = (d.SpiderMove((1, 1), 2), d.SpiderMove((1, 1), 1))
    assert _rejection(_certificate(sea(4, 4), valid, [d.SpiderMove((2, 2), 4)])) == (
        "move 2 at (2, 2): new value not adjacent to a neighbor", 2)


def test_verifier_names_the_earliest_bad_move_not_the_first_bad_cell():
    # Both -e2 moves clash with the e2 at (2, 2); the later one is in the
    # lower cell.
    bad = (d.SpiderMove((3, 3), 4), d.SpiderMove((1, 1), 4))
    assert _rejection(_certificate(sea(4, 4), [d.SpiderMove((2, 2), 1)], bad)) == (
        "move 1 at (3, 3): new value not adjacent to a neighbor", 1)


@pytest.mark.parametrize("written", [False, True], ids=["in-start-map", "written"])
@pytest.mark.parametrize("offset", verify._OFFSETS, ids=lambda o: f"{o[0]},{o[1]}")
def test_verifier_checks_each_neighbor_alone(offset, written):
    # The e2 at (2, 2) is the only label -e2 clashes with, whether the start
    # map holds it or an earlier move of the block wrote it.
    e2 = [d.SpiderMove((2, 2), 1)]
    clash = d.SpiderMove((2 - offset[0], 2 - offset[1]), 4)
    if written:
        cert = _certificate(sea(4, 4), e2, [clash])
    else:
        cert = _certificate(_certificate(sea(4, 4), e2).end, [], [clash])
    assert _rejection(cert) == (
        f"move {len(cert) - 1} at {clash.at}: new value not adjacent to a neighbor",
        len(cert) - 1)


def _unchecked(f, arr):
    """A fresh GridMap of f's shape holding arr, which GridMap never checked."""
    g = object.__new__(d.GridMap)
    for field in ("rect", "codomain", "basepoint"):
        object.__setattr__(g, field, getattr(f, field))
    object.__setattr__(g, "values", np.ascontiguousarray(arr, dtype=np.uint8).tobytes())
    return g


@pytest.mark.parametrize("end", ["start", "end"])
def test_verifier_rechecks_both_endpoint_grids(T, end):
    def reason(bad, field=end):
        cert = d.Certificate(start=T, moves=(), end=T)
        object.__setattr__(cert, field, bad)
        res = d.verify_certificate(cert)
        assert not res.ok and res.move_index is None
        return res.reason

    unpinned = np.array(T.array)
    unpinned[4, 2] = 1
    assert reason(_unchecked(T, unpinned)) == f"{end} map boundary not pinned"
    torn = np.array(T.array)
    torn[1, 2] = 5  # -e3 beside the e3 at (1, 1)
    assert reason(_unchecked(T, torn)) == f"{end} map not continuous"
    torn[0, 0] = 0  # a boundary fault is named before a continuity fault
    assert reason(_unchecked(T, torn)) == f"{end} map boundary not pinned"
    # The start map fixes the rectangle, codomain and basepoint, so only the
    # end map can disagree with them.
    assert reason(d.trivial_extend(T, 5, 4), "end") == "end map not on common rectangle"
    rebased = _unchecked(T, T.array)
    object.__setattr__(rebased, "basepoint", 0)
    assert reason(rebased, "end") == "end map codomain/basepoint mismatch"
