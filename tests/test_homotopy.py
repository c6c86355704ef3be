import numpy as np
import pytest

import dpi2 as d
from dpi2 import homotopy

from conftest import DATA, grid


def sea(m, n):
    return d.constant_map(d.Rectangle(m, n), d.S2, d.BASEPOINT)


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
    assert d.one_step_check(T, T)


def test_one_step_after_single_move(T):
    g = d.apply_spider(T, d.SpiderMove((1, 1), 1))
    assert d.one_step_check(T, g)
    assert d.one_step_check(g, T)


def test_generator_not_one_step_from_constant(T):
    assert not d.one_step_check(T, sea(4, 4))


def test_one_step_requires_equal_frames(T):
    with pytest.raises(ValueError):
        d.one_step_check(T, sea(5, 5))


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
    assert moves and d.one_step_check(before, out)


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
    cert = d.translate_trace(big, d.SubRect(1, 3, 1, 3), (0, 0))
    assert cert.moves == () and d.verify_certificate(cert).ok


def test_translate_trace_slide_right(T):
    f = d.paste(sea(12, 8), d.SubRect(0, 4, 0, 4), T)
    cert = d.translate_trace(f, d.SubRect(1, 3, 1, 3), (3, 0))
    assert d.verify_certificate(cert).ok
    expected = d.paste(sea(12, 8), d.SubRect(3, 7, 0, 4), T)
    assert cert.end.values == expected.values


def test_doubling_trace_invariant_raises_on_corrupt_result(T, monkeypatch):
    real = homotopy.apply_alpha
    calls = []

    def alpha(f, i):
        calls.append(i)
        # Calls 1-5 build the walk 4 -> 0; call 6 is the end-state check,
        # which now sees a different doubling than the one the walk reached.
        return real(f, i + 1 if len(calls) == 6 else i)

    monkeypatch.setattr(homotopy, "apply_alpha", alpha)
    with pytest.raises(RuntimeError, match="doubling trace"):
        d.doubling_trace(T, 4, 0)
    assert len(calls) == 6


def test_translate_trace_invariant_raises_when_the_walk_misfires(T, monkeypatch):
    f = d.paste(sea(12, 8), d.SubRect(0, 4, 0, 4), T)
    monkeypatch.setattr(homotopy._TraceBuilder, "copy_column", lambda self, *a, **k: None)
    with pytest.raises(RuntimeError, match="translation walk"):
        d.translate_trace(f, d.SubRect(1, 3, 1, 3), (3, 0))


def test_translate_trace_swaps_two_blocks(T, T_inv):
    base = sea(12, 10)
    f = d.paste(base, d.SubRect(0, 4, 0, 4), T)
    f = d.paste(f, d.SubRect(4, 8, 0, 4), T_inv)
    blk_a, blk_b = d.SubRect(1, 3, 1, 3), d.SubRect(5, 7, 1, 3)
    parts = []
    cur = f
    for r, delta in [
        (blk_a, (0, 5)),
        (blk_b, (-4, 0)),
        (blk_a.shifted(0, 5), (4, 0)),
        (blk_a.shifted(4, 5), (0, -5)),
    ]:
        cert = d.translate_trace(cur, r, delta)
        parts.append(cert)
        cur = cert.end
    whole = d.chain_certificates(parts)
    assert d.verify_certificate(whole).ok
    swapped = d.paste(base, d.SubRect(0, 4, 0, 4), T_inv)
    swapped = d.paste(swapped, d.SubRect(4, 8, 0, 4), T)
    assert whole.end.values == swapped.values


def test_translate_trace_rejects_collisions(T, T_inv):
    f = d.paste(sea(12, 10), d.SubRect(0, 4, 0, 4), T)
    f = d.paste(f, d.SubRect(4, 8, 0, 4), T_inv)
    with pytest.raises(ValueError):
        d.translate_trace(f, d.SubRect(1, 3, 1, 3), (4, 0))  # lands on the mirror


def test_translate_trace_rejects_leaving_interior(T):
    f = d.trivial_extend(T, 8, 8)
    with pytest.raises(ValueError):
        d.translate_trace(f, d.SubRect(1, 3, 1, 3), (5, 0))


# ---------------------------------------------------------------------------
# Certificates and the verifier.


def test_identity_certificate(T):
    cert = d.identity_certificate(T)
    assert cert.moves == () and cert.start.values == cert.end.values
    assert d.verify_certificate(cert).ok


def test_certificate_extension_never_shrinks(T):
    cert = d.identity_certificate(T)
    bigger = cert.extended(6, 7)
    assert bigger.common_rect == d.Rectangle(6, 7)
    assert d.verify_certificate(bigger).ok
    with pytest.raises(ValueError):
        cert.extended(3, 3)


def test_then_requires_meeting_endpoints(T):
    c1 = d.identity_certificate(T)
    c2 = d.identity_certificate(sea(4, 4))
    with pytest.raises(ValueError):
        c1.then(c2)
    joined = c1.then(d.identity_certificate(T).extended(6, 6))
    assert joined.common_rect == d.Rectangle(6, 6)
    assert d.verify_certificate(joined).ok


def test_verifier_rejects_tampered_move(T):
    g = d.apply_spider(T, d.SpiderMove((1, 1), 1))
    cert = d.Certificate(
        codomain=d.S2,
        basepoint=d.BASEPOINT,
        common_rect=T.rect,
        start=T,
        moves=(d.SpiderMove((1, 1), 4),),  # -e2 against its e2 neighbor
        end=g,
    )
    res = d.verify_certificate(cert)
    assert not res.ok and res.move_index == 0


def test_verifier_rejects_wrong_endpoint(T):
    cert = d.Certificate(
        codomain=d.S2,
        basepoint=d.BASEPOINT,
        common_rect=T.rect,
        start=T,
        moves=(),
        end=sea(4, 4),
    )
    res = d.verify_certificate(cert)
    assert not res.ok and "end" in res.reason
