"""Property tests on maps from outside the `gen_random` distribution.

`gen_random` stacks degree stamps on a diagonal and scrambles them with a few
moves.  The maps drawn here are products, mirrors and subdivisions of such
maps and of the reference stamps, each then walked by random valid moves.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dpi2 as d

LABELS = range(len(d.S2.points))


@st.composite
def small_maps(draw):
    if draw(st.booleans()):
        m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        seed, moves = draw(st.integers(0, 10_000)), draw(st.integers(0, 12))
        return d.gen_random(seed, m, n, moves=moves)
    return draw(st.sampled_from([d.degree_one_map(), d.degree_minus_one_map()]))


@st.composite
def built_maps(draw):
    f = draw(small_maps())
    ops = st.sampled_from(["product", "inverse", "subdivide"])
    for op in draw(st.lists(ops, max_size=2)):
        if op == "product":
            f = d.product(f, draw(small_maps()))
        elif op == "inverse":
            f = d.inverse(f)
        elif f.rect.width <= 8 and f.rect.height <= 8:
            f = d.subdivide(f, draw(st.integers(2, 3)))
    return f


@st.composite
def walked_maps(draw):
    """A built map after up to 15 random moves, the invalid ones skipped."""
    f = draw(built_maps())
    for _ in range(draw(st.integers(0, 15))):
        cell = (draw(st.integers(1, f.rect.m - 1)), draw(st.integers(1, f.rect.n - 1)))
        mv = d.SpiderMove(cell, draw(st.sampled_from(LABELS)))
        if d.spider_valid(f, mv):
            f = d.apply_spider(f, mv)
    return f


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_spider_moves_are_reversible(data):
    # The premise of the oracle's backward search: a move back to the old
    # label is itself valid, and restores the map byte for byte.
    f = data.draw(walked_maps())
    valid = [
        d.SpiderMove((a, b), v)
        for a in range(1, f.rect.m)
        for b in range(1, f.rect.n)
        for v in LABELS
        if v != f.value_at(a, b) and d.spider_valid(f, d.SpiderMove((a, b), v))
    ]
    assume(valid)
    mv = data.draw(st.sampled_from(valid))
    g = d.apply_spider(f, mv)
    back = d.SpiderMove(mv.at, f.value_at(*mv.at))
    assert d.spider_valid(g, back)
    assert d.apply_spider(g, back).values == f.values
