"""Exhaustive-search equivalence oracle.

The oracle is only practical on tiny frames, so every scenario here is
hand-sized and the expected outcomes (including exact shortest-path move
counts) were frozen after independent runs.
"""

import tracemalloc

import numpy as np
import pytest

import dpi2 as d
from dpi2 import oracle

from conftest import grid


def ring_island():
    # degree-0 island: centre e1, uniform e2 ring (10 content cells)
    return grid(
        """
        . . . . .
        . 2 2 2 .
        . 2 1 2 .
        . 2 2 2 .
        . . . . .
        """
    )


def test_budget_validation(T):
    with pytest.raises(ValueError):
        d.SearchBudget(max_states=0)
    with pytest.raises(ValueError):
        d.SearchBudget(pad_limit=(4, 0))
    # pad_limit smaller than the inputs themselves is rejected at call time
    small = d.SearchBudget(pad_limit=(4, 4))
    g = d.constant_map(T.rect, d.S2, d.BASEPOINT)
    with pytest.raises(ValueError):
        d.homotopy_decide(T, g, small)  # T occupies 5x5 points


def test_mismatched_inputs_rejected(T):
    g = d.constant_map(T.rect, d.make_sphere(1), 1)
    with pytest.raises(ValueError):
        d.homotopy_decide(T, g)
    h = d.border_wrap(T, 1)  # different basepoint
    h2 = d.constant_map(h.rect, d.S2, d.BASEPOINT)
    with pytest.raises(ValueError):
        d.homotopy_decide(h, h2)


def test_map_is_equivalent_to_itself(T):
    res = d.homotopy_decide(T, T, d.SearchBudget(pad_limit=(5, 5), max_states=10))
    assert isinstance(res, d.Equivalent)
    assert res.certificate.moves == ()
    assert d.verify_certificate(res.certificate).ok


def test_one_move_apart():
    f = d.gen_random(3, 3, 3, moves=5)
    mv = None
    for cand in (
        d.SpiderMove((a, b), v)
        for a in (1, 2)
        for b in (1, 2)
        for v in range(6)
    ):
        if d.spider_valid(f, cand) and f.value_at(*cand.at) != cand.new_value:
            mv = cand
            break
    assert mv is not None
    g = d.apply_spider(f, mv)
    res = d.homotopy_decide(f, g, d.SearchBudget(pad_limit=(6, 6)))
    assert isinstance(res, d.Equivalent)
    assert len(res.certificate.moves) == 1
    assert d.verify_certificate(res.certificate).ok


def test_unequal_degree_exhausts_component(T):
    # Within its own frame T's spider component is finite and never meets
    # the constant map, so the search proves exhaustion rather than timing out.
    g = d.constant_map(T.rect, d.S2, d.BASEPOINT)
    res = d.homotopy_decide(T, g, d.SearchBudget(pad_limit=(5, 5), max_states=50_000))
    assert isinstance(res, d.Unknown)
    assert "component exhausted" in res.reason
    assert 0 < res.states_explored < 50_000


def test_state_cap_reported():
    f = d.gen_random(9, 4, 4, moves=30)
    g = d.constant_map(f.rect, d.S2, d.BASEPOINT)
    res = d.homotopy_decide(f, g, d.SearchBudget(pad_limit=(7, 7), max_states=200))
    assert isinstance(res, d.Unknown)
    assert "state" in res.reason and res.states_explored >= 200


def test_degree_zero_island_reaches_constant():
    f = ring_island()
    g = d.constant_map(f.rect, d.S2, d.BASEPOINT)
    res = d.homotopy_decide(f, g, d.SearchBudget(pad_limit=(5, 5), max_states=400_000))
    assert isinstance(res, d.Equivalent)
    # every one of the 10 content cells must change at least once, and a
    # 10-move schedule exists; breadth-first search returns that optimum
    assert len(res.certificate.moves) == 10
    v = d.verify_certificate(res.certificate)
    assert v.ok
    assert res.certificate.end.is_constant()


def test_equivalence_implies_equal_degree():
    found = 0
    for seed in range(12):
        f = d.gen_random(seed, 3, 3, moves=6)
        g = d.gen_random(seed, 3, 3, moves=8)  # same stream, two extra moves
        res = d.homotopy_decide(f, g, d.SearchBudget(pad_limit=(6, 6), max_states=60_000))
        if isinstance(res, d.Equivalent):
            found += 1
            assert d.triangle_count(f) == d.triangle_count(g)
            assert d.verify_certificate(res.certificate).ok
            # endpoints live on the (possibly padded) common frame
            cr = res.certificate.common_rect
            assert res.certificate.end.values == d.trivial_extend(g, cr.m, cr.n).values
    assert found >= 6


def test_oracle_is_deterministic():
    f = d.gen_random(21, 3, 3, moves=7)
    g = d.gen_random(21, 3, 3, moves=9)
    budget = d.SearchBudget(pad_limit=(6, 6), max_states=60_000)
    r1 = d.homotopy_decide(f, g, budget)
    r2 = d.homotopy_decide(f, g, budget)
    assert type(r1) is type(r2)
    if isinstance(r1, d.Equivalent):
        assert d.dump_certificate(r1.certificate) == d.dump_certificate(r2.certificate)
    else:
        assert (r1.states_explored, r1.reason) == (r2.states_explored, r2.reason)


def test_default_budget_applies(T):
    res = d.homotopy_decide(T, T)
    assert isinstance(res, d.Equivalent)


def test_shortest_path_through_padding(zero_map):
    # The two nonzero humps cancel only after the map is rewritten in place;
    # searched at its native frame the two sides meet after about 680k
    # states (a one-sided search needs millions), so this is the slowest
    # oracle test.
    g = d.constant_map(zero_map.rect, d.S2, d.BASEPOINT)
    res = d.homotopy_decide(
        zero_map, g, d.SearchBudget(pad_limit=(6, 5), max_states=4_500_000)
    )
    assert isinstance(res, d.Equivalent)
    assert len(res.certificate.moves) == 14
    assert d.verify_certificate(res.certificate).ok


# ---------------------------------------------------------------------------
# The search grows from both maps; these pin what that must not change.


def criterion_8_pairs():
    # the pairs of acceptance criterion 8: near pairs from one random stream,
    # far pairs from two
    for i in range(50):
        m = 3 if i % 2 == 0 else 4
        if i % 5 < 3:
            yield (d.gen_random(i, m, m, moves=4 + i % 3),
                   d.gen_random(i, m, m, moves=4 + i % 3 + 2))
        else:
            yield d.gen_random(2 * i, m, m, moves=6), d.gen_random(2 * i + 1, m, m, moves=6)


def test_argument_order_does_not_change_the_answer():
    budget = d.SearchBudget(pad_limit=(6, 6), max_states=40_000)
    equiv = 0
    for f, g in criterion_8_pairs():
        there = d.homotopy_decide(f, g, budget)
        back = d.homotopy_decide(g, f, budget)
        assert type(there) is type(back)
        if isinstance(there, d.Equivalent):
            equiv += 1
            assert len(there.certificate.moves) == len(back.certificate.moves)
            assert d.verify_certificate(back.certificate).ok
    assert equiv >= 20


def spider_component_size(f):
    """How many maps spider moves reach from f on f's own frame, f included."""
    seen = {f.values}
    todo = [f]
    while todo:
        h = todo.pop()
        for a in range(1, h.rect.m):
            for b in range(1, h.rect.n):
                for v in range(len(h.codomain.points)):
                    mv = d.SpiderMove((a, b), v)
                    if d.spider_valid(h, mv):
                        k = d.apply_spider(h, mv)
                        if k.values not in seen:
                            seen.add(k.values)
                            todo.append(k)
    return len(seen)


def test_exhausting_the_second_maps_component(T):
    # T's component is the finite one; as the second argument it is the
    # backward search that runs dry
    g = d.constant_map(T.rect, d.S2, d.BASEPOINT)
    res = d.homotopy_decide(g, T, d.SearchBudget(pad_limit=(5, 5), max_states=50_000))
    assert isinstance(res, d.Unknown)
    assert res.reason == "component exhausted within padding"
    # the count holds all of T's component plus the states of the other side
    assert spider_component_size(T) < res.states_explored < 50_000


def test_state_cap_is_shared_by_both_searches():
    f = d.gen_random(9, 4, 4, moves=30)
    g = d.constant_map(f.rect, d.S2, d.BASEPOINT)
    for cap in (1, 2, 3, 10, 200, 5_000):
        res = d.homotopy_decide(f, g, d.SearchBudget(pad_limit=(7, 7), max_states=cap))
        assert isinstance(res, d.Unknown)
        assert res.reason == "state budget exhausted"
        # both start states count from the outset
        assert res.states_explored == max(cap, 2)


def test_children_are_exactly_the_valid_spider_moves(monkeypatch):
    # the search's expansion must list every legal move, and only those, with
    # children by parent, then cells in raster order, then labels ascending;
    # a move is legal iff the adjacency matrix makes its new label adjacent to
    # each of the nine cells around it
    monkeypatch.setattr(oracle, "_CHUNK", 7)  # several chunks per call
    states = 0
    for m, n in ((5, 4), (5, 5)):  # 6x5 and 6x6 point pads
        maps = [
            d.gen_random(seed, m, n, moves=seed * 3, plant=seed % 3 - 1)
            for seed in range(30)
        ]
        amat = d.S2.adjacency_matrix
        want = []
        for f in maps:
            for b in range(1, n):
                for a in range(1, m):
                    nine = f.array[b - 1 : b + 2, a - 1 : a + 2]
                    for v in range(len(d.S2.points)):
                        if v != f.value_at(a, b) and amat[v, nine].all():
                            child = np.array(f.array)
                            child[b, a] = v
                            want.append((f.values, child.tobytes()))
        expand = oracle._expander(d.Rectangle(m, n), d.S2)
        got = [
            (chunk[k], child)
            for chunk, parents, children in expand([f.values for f in maps])
            for k, child in zip(parents, children)
        ]
        assert got == want
        states += len(maps)
    assert states >= 50


def test_search_bytes_bound_what_one_chunk_and_its_states_take(T):
    # 256 distinct states of an 8 x 8 pad, one whole chunk, expanded under
    # tracemalloc: the children and their parents' list stay below the
    # estimate's chunk term plus one state.
    rect = d.Rectangle(7, 7)
    expand = oracle._expander(rect, T.codomain)
    level = [d.trivial_extend(T, 7, 7).values]
    seen = set(level)
    while len(level) < oracle._CHUNK:
        new = []
        for _, _, kids in expand(level):
            for kid in kids:
                if kid not in seen:
                    seen.add(kid)
                    new.append(kid)
        level = new
    states = level[: oracle._CHUNK]
    tracemalloc.start()
    try:
        children = sum(len(kids) for _, _, kids in expand(states))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = oracle._search_bytes(T, T, d.SearchBudget(pad_limit=(8, 8), max_states=1))
    assert children > 10_000 and peak <= need
