"""Normal form pipeline: island isolation, classification, reduction."""

import hashlib
import itertools

import numpy as np
import pytest

import dpi2 as d
from dpi2 import homotopy, normalize
from dpi2.normalize import _check_isolated

from conftest import grid, T_TEXT


# --- canonical stacks ------------------------------------------------------

def test_canonical_stack_zero_is_constant():
    f = d.canonical_stack(0, d.Rectangle(4, 4))
    assert f.is_constant()


def test_canonical_stack_one_is_the_reference_stamp(T):
    f = d.canonical_stack(1, d.Rectangle(4, 4))
    assert f.values == T.values


def test_canonical_stack_degrees_and_placement():
    for c in (-3, -1, 1, 2, 4):
        r = d.Rectangle(5 * abs(c) - 1, 5 * abs(c) - 1)
        f = d.canonical_stack(c, r)
        assert d.triangle_count(f) == c
        # stamps march up the diagonal with an e1 cell at every center
        # (sign lives in the surrounding ring, not the center)
        for t in range(abs(c)):
            assert f.value_at(2 + 5 * t, 2 + 5 * t) == 0


def test_canonical_stack_needs_room():
    with pytest.raises(ValueError):
        d.canonical_stack(2, d.Rectangle(8, 8))  # needs 9x9


# --- isolation -------------------------------------------------------------

def test_isolate_constant_stays_constant():
    f = d.constant_map(d.Rectangle(6, 6), d.S2, d.BASEPOINT)
    g, cert = d.isolate_e1(f, 5)
    assert g.is_constant()
    assert d.verify_certificate(cert).ok


def test_isolate_requires_enough_subdivision(T):
    with pytest.raises(ValueError):
        d.isolate_e1(T, 1)


def isolation_postconditions(g):
    """After isolation every pole cell sits alone inside a pole-free ring."""
    arr = g.array
    n_pts, m_pts = arr.shape
    poles = {0, d.antipode(0)}
    centers = []
    for b in range(1, n_pts - 1):
        for a in range(1, m_pts - 1):
            if arr[b, a] == 0:
                centers.append((a, b))
                for db in (-1, 0, 1):
                    for da in (-1, 0, 1):
                        if (da, db) != (0, 0):
                            assert arr[b + db, a + da] not in poles
    return centers


def test_isolate_T(T):
    g, cert = d.isolate_e1(T, 5)
    assert d.verify_certificate(cert).ok
    # the trace starts at the plain extension; the subdividing duplication
    # walks are themselves part of the recorded moves
    cr = cert.common_rect
    assert cert.start.values == d.trivial_extend(T, cr.m, cr.n).values
    assert cert.end.values == g.values
    assert d.triangle_count(g) == 1
    centers = isolation_postconditions(g)
    assert len(centers) >= 1


def test_isolate_balanced_pair(T, T_inv):
    f = d.product(T, T_inv)
    g, cert = d.isolate_e1(f, 5)
    assert d.verify_certificate(cert).ok
    assert d.triangle_count(g) == 0
    centers = isolation_postconditions(g)
    islands = d.find_islands(g)
    assert len(islands) == len(centers)
    vals = sorted(d.classify_island(i) for i in islands)
    assert sum(vals) == 0


# --- island bookkeeping ----------------------------------------------------

def island_map(ring):
    """3x3-content map with an e1 center and the given CCW ring (from east)."""
    r = d.Rectangle(4, 4)
    f = d.constant_map(r, d.S2, d.BASEPOINT).array.copy()
    offs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    f[2, 2] = 0
    for (da, db), v in zip(offs, ring):
        f[2 + db, 2 + da] = v
    return d.from_array(f, d.S2, d.BASEPOINT)


def test_find_islands_locates_centers(T):
    arr = d.constant_map(d.Rectangle(10, 10), d.S2, d.BASEPOINT).array.copy()
    arr[0:5, 0:5] = arr[5:10, 5:10] = T.array
    g = d.from_array(arr, d.S2, d.BASEPOINT)
    islands = d.find_islands(g)
    assert sorted(i.center for i in islands) == [(2, 2), (7, 7)]
    for i in islands:
        assert d.classify_island(i) == 1


def test_find_islands_empty_for_constant():
    f = d.constant_map(d.Rectangle(5, 5), d.S2, d.BASEPOINT)
    assert d.find_islands(f) == []


def test_find_islands_rejects_crowded_poles():
    arr = d.constant_map(d.Rectangle(7, 7), d.S2, d.BASEPOINT).array.copy()
    arr[2, 2] = 0
    arr[2, 4] = 0  # two centers sharing ring cells
    for b in (1, 2, 3):
        for a in (1, 2, 3, 4, 5):
            if arr[b, a] != 0:
                arr[b, a] = 1
    f = d.from_array(arr, d.S2, d.BASEPOINT)
    with pytest.raises(ValueError):
        d.find_islands(f)


def test_find_islands_reads_the_reference_stamp(T):
    islands = d.find_islands(T)
    assert len(islands) == 1
    assert islands[0].center == (2, 2)
    assert islands[0].ring == (4, 5, 5, 1, 1, 2, 2, 4)


def test_find_islands_rejects_stray_equator_cells():
    arr = d.constant_map(d.Rectangle(5, 5), d.S2, d.BASEPOINT).array.copy()
    arr[2, 2] = 1  # a lone e2 cell belongs to no island
    f = d.from_array(arr, d.S2, d.BASEPOINT)
    with pytest.raises(ValueError):
        d.find_islands(f)


def _poles_in_e2(m, n, cells):
    """Sea around an e2 block, with e1 at ``cells`` (given as (a, b))."""
    arr = d.constant_map(d.Rectangle(m, n), d.S2, d.BASEPOINT).array.copy()
    arr[1:-1, 1:-1] = 1
    for a, b in cells:
        arr[b, a] = 0
    return d.from_array(arr, d.S2, d.BASEPOINT)


# In raster order (2, 2) comes first, but its nearest pole is 4 away; the
# first close pair is (9, 2) with (6, 5), 3 apart, and (13, 3) is 4 away
# from (9, 2) but comes before (6, 5).
SPACED_POLES = [(2, 2), (9, 2), (13, 3), (6, 5)]


def test_find_islands_names_the_first_close_pair():
    msg = r"^island centers \(9, 2\) and \(6, 5\) closer than 4 apart$"
    with pytest.raises(ValueError, match=msg):
        d.find_islands(_poles_in_e2(15, 8, SPACED_POLES))


def test_find_islands_names_the_first_stray_cell():
    arr = d.constant_map(d.Rectangle(5, 5), d.S2, d.BASEPOINT).array.copy()
    arr[2, 3] = arr[3, 2] = 1
    with pytest.raises(ValueError, match=r"^non-sea cell \(3, 2\) outside every island$"):
        d.find_islands(d.from_array(arr, d.S2, d.BASEPOINT))


def test_isolation_check_messages_and_spacing():
    crowded = _poles_in_e2(15, 8, SPACED_POLES)
    with pytest.raises(RuntimeError, match=r"^isolation failed: e1 cells 3 or closer apart$"):
        _check_isolated(crowded, 5)
    apart = _poles_in_e2(15, 8, SPACED_POLES[:1] + [(6, 5)])  # 4 apart
    with pytest.raises(RuntimeError, match=r"^isolation failed: e1 cells 4 or closer apart$"):
        _check_isolated(apart, 6)
    msg = r"^isolation failed: non-sea cell \(4, 1\) off-island$"
    with pytest.raises(RuntimeError, match=msg):
        _check_isolated(apart, 5)
    _check_isolated(d.isolate_e1(grid(T_TEXT), 6)[0], 6)


def test_classify_island_plus_forms():
    # the four 90-degree rotations of the reference stamp, as (W, S, E, N)
    for x, y, z, w in ((1, 2, 4, 5), (5, 1, 2, 4), (4, 5, 1, 2), (2, 4, 5, 1)):
        ring = (z, w, w, x, x, y, y, z)
        assert d.classify_island(d.Island((2, 2), ring)) == 1
        mirror = tuple(reversed(ring))
        mirror = mirror[-1:] + mirror[:-1]  # keep east first after reversal
        assert d.classify_island(d.Island((2, 2), mirror)) == -1


def test_classify_island_winding_zero_ring():
    assert d.classify_island(d.Island((2, 2), (1,) * 8)) == 0
    # out-and-back excursion: three labels, zero net winding
    assert d.classify_island(d.Island((2, 2), (1, 2, 2, 2, 1, 5, 5, 5))) == 0


def test_island_ring_validation():
    with pytest.raises(ValueError):
        d.Island((2, 2), (1,) * 7)  # wrong length
    with pytest.raises(ValueError):
        d.Island((2, 2), (0,) + (1,) * 7)  # pole label in the ring
    with pytest.raises(ValueError):
        d.Island((2, 2), (1, 4, 1, 4, 1, 4, 1, 4))  # antipodal neighbors
    with pytest.raises(ValueError):
        # consecutive entries fine, but opposite edges E/N clash across corner
        d.Island((2, 2), (1, 2, 4, 2, 1, 2, 4, 2))


def test_island_ring_check_matches_the_twelve_pair_checks():
    # The reference: consecutive ring cells are 8-adjacent, and so are the
    # edge cells on either side of a corner (E and N, N and W, ...).
    amat = d.S2.adjacency_matrix
    verdicts = {True: 0, False: 0}
    for ring in itertools.product((1, 2, 4, 5), repeat=8):
        want = all(amat[ring[i], ring[(i + 1) % 8]] for i in range(8)) and all(
            amat[ring[i], ring[(i + 2) % 8]] for i in (0, 2, 4, 6)
        )
        try:
            d.Island((2, 2), ring)
            got = True
        except ValueError:
            got = False
        assert got == want, ring
        verdicts[want] += 1
    assert min(verdicts.values()) > 1000


def test_classify_matches_triangle_count_on_random_islands():
    import random

    rng = random.Random(5)
    amat = d.S2.adjacency_matrix
    eq = [1, 2, 4, 5]
    hits = set()
    for _ in range(300):
        ring = [rng.choice(eq)]
        while len(ring) < 8:
            ring.append(rng.choice([v for v in eq if amat[ring[-1], v]]))
        if not amat[ring[-1], ring[0]]:
            continue
        try:
            isl = d.Island((2, 2), tuple(ring))
        except ValueError:
            continue
        got = d.classify_island(isl)
        assert got == d.triangle_count(island_map(ring))
        hits.add(got)
    assert {-1, 0, 1} <= hits


def _count_reductions(monkeypatch) -> dict[str, int]:
    """Count the calls pi2_class makes to the island erase and rotate steps."""
    calls = {"_erase_island": 0, "_rotate_island": 0}
    for name in calls:
        step = getattr(normalize, name)

        def counted(*args, _step=step, _name=name):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(normalize, name, counted)
    return calls


def _assert_reaches_canonical_stack(c, cert):
    assert d.verify_certificate(cert).ok
    assert cert.end.values == d.canonical_stack(c, cert.end.rect).values


def test_pi2_class_erases_a_null_island_and_rotates_charged_ones(monkeypatch):
    # The floods wash most null islands away.  This dense map leaves one for
    # the erase step, and its charged islands take two rotations.
    calls = _count_reductions(monkeypatch)
    c, cert = d.pi2_class(d.gen_random(0, 14, 14, moves=3000, plant=-1))
    assert c == -1
    assert calls == {"_erase_island": 1, "_rotate_island": 2}
    _assert_reaches_canonical_stack(c, cert)


def test_pi2_class_rotates_a_ring_to_the_reference_stamp(monkeypatch):
    calls = _count_reductions(monkeypatch)
    rot = island_map((2, 4, 4, 5, 5, 1, 1, 2))  # a +1 island, rotated form
    c, cert = d.pi2_class(rot)
    assert c == 1
    assert calls == {"_erase_island": 0, "_rotate_island": 3}
    _assert_reaches_canonical_stack(c, cert)


def test_pi2_class_adjusts_an_anti_diagonal_e1_corner():
    # Here e1 sits at (3,4) and (4,3) but not at (3,3) or (4,4): two blocks
    # meet corner to corner along the anti-diagonal, and the adjustment
    # adds six cells around the corner (19,20) of the 5-fold subdivision.
    f = d.gen_random(34, 6, 6, 200, -1)
    e = f.array == d.S2Label.E1
    assert e[4, 3] and e[3, 4] and not e[3, 3] and not e[4, 4]
    six = {(19, 18), (18, 19), (19, 19), (20, 20), (21, 20), (20, 21)}
    assert six <= set(normalize._adjustment_cells(f, 5))
    c, cert = d.pi2_class(f)
    assert c == d.triangle_count(f) == -1
    _assert_reaches_canonical_stack(c, cert)


# --- the full pipeline -----------------------------------------------------

def test_pi2_class_reference_values(T, T_inv):
    c, cert = d.pi2_class(T)
    assert c == 1
    assert d.verify_certificate(cert).ok
    c2, _ = d.pi2_class(T_inv)
    assert c2 == -1


def test_pi2_class_balanced_product_ends_constant(T, T_inv):
    f = d.product(T, T_inv)
    c, cert = d.pi2_class(f)
    assert c == 0
    assert d.verify_certificate(cert).ok
    assert cert.end.is_constant()
    cr = cert.common_rect
    assert cert.start.values == d.trivial_extend(f, cr.m, cr.n).values


def test_pi2_class_certificate_ends_at_canonical_stack(T):
    f = d.product(T, T)
    c, cert = d.pi2_class(f)
    assert c == 2
    end = cert.end
    assert end.values == d.canonical_stack(2, end.rect).values


def test_pi2_class_fixes_canonical_stacks():
    for c in (-2, 0, 1, 3):
        r = d.Rectangle(max(5 * abs(c) - 1, 4), max(5 * abs(c) - 1, 4))
        f = d.canonical_stack(c, r)
        got, cert = d.pi2_class(f)
        assert got == c
        assert d.verify_certificate(cert).ok


def test_pi2_class_subdivision_bounds(T):
    with pytest.raises(ValueError):
        d.pi2_class(T, k=2)  # isolation needs at least five-fold refinement
    for k in (5, 6):
        c, cert = d.pi2_class(T, k=k)
        assert c == 1
        assert d.verify_certificate(cert).ok


def test_cancel_certificate_constant_input():
    f = d.constant_map(d.Rectangle(5, 5), d.S2, d.BASEPOINT)
    cert = d.cancel_certificate(f)
    assert d.verify_certificate(cert).ok
    assert cert.end.is_constant()


def test_cancel_certificate_reference_stamp(T):
    cert = d.cancel_certificate(T)
    assert d.verify_certificate(cert).ok
    assert cert.end.is_constant()
    # the start is product(extended f, extended inverse) after subdivision;
    # its frame is strictly wider than T's
    assert cert.common_rect.m > T.rect.m


def test_cancel_certificate_random_maps():
    for seed in (1, 4, 9):
        f = d.gen_random(seed, 7, 6, moves=25, plant=(seed % 3) - 1)
        cert = d.cancel_certificate(f)
        assert d.verify_certificate(cert).ok
        assert cert.end.is_constant()


def test_i20_anchor_certificate_text_is_unchanged():
    # The ROADMAP I_20 anchor.  The digest was taken from the builders that
    # walked one line per one-step window and stored a tuple of SpiderMoves;
    # batched walks and packed moves must give the same .dcert, byte for byte.
    c, cert = d.pi2_class(d.gen_random(5, 20, 20, 100, 2))
    assert (c, len(cert.moves)) == (2, 71_058)
    digest = hashlib.sha256(d.dump_certificate(cert).encode()).hexdigest()
    assert digest == "b1f1dffada671d9face3d82f45dc3ea2f1d082a622ecace57683de2644483cd8"


def test_builder_certificate_texts_are_unchanged():
    # 40 seeded maps, sides 6 to 20, planted classes -3 to 3, four of them at
    # k = 7.  The digest was taken at commit d3948de, before the subdivision
    # walks shifted only the span that holds content.
    digest = hashlib.sha256()
    for i in range(40):
        m, n = 6 + i % 15, 6 + 7 * i % 15
        top = (min(m, n) + 1) // 5
        plant = max(-top, min(top, i % 7 - 3))
        k = 7 if i % 10 == 9 else 5
        c, cert = d.pi2_class(d.gen_random(i, m, n, 3 * m, plant), k)
        assert c == plant
        digest.update(d.dump_certificate(cert).encode())
    assert digest.hexdigest() == (
        "b37e0df72b5a9423488ce14c3f18fc65325373d960ec52bd250d759b43428da3"
    )


def test_pi2_class_shift_walks_make_no_window_check(monkeypatch):
    # On the I_40 anchor the walks make 13,280 line copies; each is checked by
    # the line-copy rule, so every window check comes from a lone rewrite or
    # a flood.
    kernel, shift = homotopy.allowed_grid, homotopy._TraceBuilder.shift
    windows, walking = [], []

    def counted(mask_arr, arr):
        assert not walking and arr.ndim == 2
        windows.append(arr.shape)
        return kernel(mask_arr, arr)

    def walk(self, *args, **kwargs):
        walking.append(True)
        try:
            return shift(self, *args, **kwargs)
        finally:
            walking.pop()

    monkeypatch.setattr(homotopy, "allowed_grid", counted)
    monkeypatch.setattr(homotopy._TraceBuilder, "shift", walk)
    c, cert = d.pi2_class(d.gen_random(5, 40, 40, 200, 4))
    assert (c, len(cert.moves)) == (4, 322_224)
    assert windows
