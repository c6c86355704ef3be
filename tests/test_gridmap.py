import numpy as np
import pytest

import dpi2 as d
from dpi2.grid import grid_fault


def const(m, n):
    return d.constant_map(d.Rectangle(m, n), d.S2, d.BASEPOINT)


def test_single_cell_constant():
    f = const(0, 0)
    assert f.values == bytes([d.BASEPOINT])
    assert grid_fault(f.array, f.basepoint, f.codomain) is None
    assert d.triangle_count(f) == 0


def test_rejects_unpinned_boundary():
    arr = np.full((4, 4), 3, dtype=np.uint8)
    arr[0, 1] = 1
    with pytest.raises(ValueError):
        d.from_array(arr, d.S2, d.BASEPOINT)


def test_rejects_discontinuous_values():
    arr = np.full((5, 5), 3, dtype=np.uint8)
    arr[1, 1] = 1
    arr[2, 2] = 4  # -e2 diagonally against e2
    with pytest.raises(ValueError):
        d.from_array(arr, d.S2, d.BASEPOINT)


def test_rejection_messages_name_the_fault():
    arr = np.full((4, 5), 3, dtype=np.uint8)
    arr[3, 2] = 1  # a top-row boundary cell off the basepoint
    arr[1, 1], arr[1, 2] = 1, 4  # and an antipodal pair inside
    with pytest.raises(ValueError) as ei:
        d.from_array(arr, d.S2, d.BASEPOINT)
    assert str(ei.value) == "boundary values must all equal the basepoint"
    arr[3, 2] = 3
    with pytest.raises(ValueError) as ei:
        d.from_array(arr, d.S2, d.BASEPOINT)
    assert str(ei.value) == (
        "map is not continuous: cells (1, 1) and (2, 1) carry non-adjacent values"
    )
    arr[1, 1], arr[1, 2] = 3, 3
    arr[1, 3], arr[2, 2] = 1, 4  # the pair on a falling diagonal
    with pytest.raises(ValueError) as ei:
        d.from_array(arr, d.S2, d.BASEPOINT)
    assert str(ei.value) == (
        "map is not continuous: cells (3, 1) and (2, 2) carry non-adjacent values"
    )


def test_array_view_layout(T):
    arr = T.array
    assert arr.shape == (5, 5)
    # value_at takes (a, b); the array is indexed [b, a]
    assert T.value_at(2, 2) == 0
    assert arr[2, 2] == 0
    assert T.value_at(3, 1) == 4 and arr[1, 3] == 4


def test_trivial_extend_keeps_content(T):
    g = d.trivial_extend(T, 5, 5)
    assert g.rect == d.Rectangle(5, 5)
    assert int((g.array != 3).sum()) == 9  # all content cells survive
    assert (g.array[:5, :5] == T.array).all()
    assert d.trivial_extend(T, 4, 4).values == T.values
    assert d.triangle_count(d.trivial_extend(T, 8, 8)) == 1
    with pytest.raises(ValueError):
        d.trivial_extend(T, 3, 4)


@pytest.mark.parametrize("seed", range(8))
def test_trivial_extend_builds_what_from_array_does_without_a_recheck(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    m, n, pad_m, pad_n = rng.integers(2, 7, size=2).tolist() + rng.integers(0, 4, size=2).tolist()
    f = d.gen_random(seed, m, n, moves=int(rng.integers(0, 20)))
    out = np.full((n + pad_n + 1, m + pad_m + 1), f.basepoint, dtype=np.uint8)
    out[: n + 1, : m + 1] = f.array
    want = d.from_array(out, f.codomain, f.basepoint)
    checks = []
    monkeypatch.setattr(d.GridMap, "__post_init__", lambda g: checks.append(g))
    g = d.trivial_extend(f, m + pad_m, n + pad_n)
    assert g == want and checks == []  # equal values, rect, codomain and basepoint


def test_apply_alpha_rightmost_is_trivial_extend(T):
    assert d.apply_alpha(T, 4).values == d.trivial_extend(T, 5, 4).values
    assert d.apply_beta(T, 4).values == d.trivial_extend(T, 4, 5).values


def test_apply_alpha_duplicates_column(T):
    for i in range(5):
        g = d.apply_alpha(T, i)
        assert g.rect.m == 5
        ga, ta = g.array, T.array
        assert (ga[:, i] == ta[:, i]).all()
        assert (ga[:, i + 1] == ta[:, i]).all()
        assert (ga[:, : i + 1] == ta[:, : i + 1]).all()
        assert (ga[:, i + 2 :] == ta[:, i + 1 :]).all()
        assert grid_fault(g.array, g.basepoint, g.codomain) is None


def test_apply_alpha_on_constant():
    g = d.apply_alpha(const(3, 3), 1)
    assert g.is_constant() and g.rect == d.Rectangle(4, 3)


def test_subdivide_identity_and_shape(T):
    assert d.subdivide(T, 1).values == T.values
    tiny = const(1, 1)
    assert d.subdivide(tiny, 2).rect == d.Rectangle(3, 3)
    with pytest.raises(ValueError):
        d.subdivide(T, 0)


def test_subdivide_makes_constant_blocks(T):
    k = 3
    g = d.subdivide(T, k)
    assert g.rect == d.Rectangle(3 * 5 - 1, 3 * 5 - 1)
    ga, ta = g.array, T.array
    for b in range(5):
        for a in range(5):
            block = ga[k * b : k * (b + 1), k * a : k * (a + 1)]
            # clipped at the far edges, but always a constant block
            assert (block == ta[b, a]).all()
    assert d.triangle_count(g) == 1


def test_product_degrees(T, T_inv):
    assert d.triangle_count(d.product(T, T)) == 2
    assert d.triangle_count(d.product(T, T_inv)) == 0
    p = d.product(const(0, 0), const(0, 0))
    assert p.is_constant() and p.rect == d.Rectangle(1, 1)


def test_product_block_placement(T, T_inv):
    p = d.product(T, T_inv)
    assert p.rect == d.Rectangle(9, 9)
    pa = p.array
    assert (pa[:5, :5] == T.array).all()
    assert (pa[5:, 5:] == T_inv.array).all()
    assert (pa[:5, 5:] == 3).all() and (pa[5:, :5] == 3).all()


def test_product_requires_matching_codomain(T):
    other = d.constant_map(d.Rectangle(2, 2), d.make_sphere(1), 2)
    with pytest.raises(ValueError):
        d.product(T, other)


def test_inverse_is_the_mirror(T, T_inv):
    assert d.inverse(T).values == T_inv.values
    assert d.inverse(T_inv).values == T.values
    assert d.inverse(const(3, 2)).values == const(3, 2).values
    assert d.triangle_count(d.inverse(T)) == -1


def test_border_wrap_shapes_and_values(T):
    g = d.border_wrap(const(2, 2), 1)  # ring of e2 around the old map
    assert g.rect == d.Rectangle(4, 4)
    assert g.basepoint == 1
    ga = g.array
    assert (ga[1:-1, 1:-1] == 3).all()  # the old constant fills the inside
    assert (ga[0, :] == 1).all() and (ga[:, -1] == 1).all()
    assert grid_fault(g.array, g.basepoint, g.codomain) is None
    assert d.border_wrap(T, 1).rect == d.Rectangle(6, 6)


def test_border_wrap_needs_adjacent_value():
    with pytest.raises(ValueError):
        d.border_wrap(const(2, 2), 0)  # e1 is antipodal to the basepoint


def test_border_wrap_random_property():
    for seed in range(8):
        f = d.gen_random(seed, 5, 4, moves=10)
        g = d.border_wrap(f, 2)
        assert grid_fault(g.array, g.basepoint, g.codomain) is None
        assert d.triangle_count(g) == d.triangle_count(f)


def test_map_compose_identity_and_constant(T):
    ident = list(range(6))
    assert d.map_compose(ident, T).values == T.values
    collapsed = d.map_compose([3] * 6, T)
    assert collapsed.is_constant()


def test_map_compose_swap_flips_degree(T):
    # swap e2 <-> e3 (and their negatives), fix +-e1: an orientation-reversing symmetry
    phi = [0, 2, 1, 3, 5, 4]
    assert d.triangle_count(d.map_compose(phi, T)) == -1


def test_map_compose_rejects_discontinuous_table(T):
    # sending e2 to e1's antipode while fixing everything else breaks adjacency
    phi = [0, 3, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        d.map_compose(phi, T)


def test_subrect_helpers():
    r = d.SubRect(1, 3, 2, 5)
    assert r.width == 3 and r.height == 4
    assert r.shifted(2, -1) == d.SubRect(3, 5, 1, 4)
    assert r.within(d.Rectangle(3, 5))
    assert not r.within(d.Rectangle(2, 5))
