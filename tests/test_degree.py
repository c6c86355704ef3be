import itertools
import random

import numpy as np
import pytest

import dpi2 as d
from dpi2.degree import _LOOKUP, _orientations
from dpi2.render import render_svg

from conftest import grid


def _charged(f):
    """Each triangle of f's triangulation that counts, by its CCW vertices."""
    lower, upper = _orientations(f)
    hits = {}
    for (b, a), sign in np.ndenumerate(lower):
        if sign:
            hits[((a, b), (a + 1, b), (a + 1, b + 1))] = int(sign)
    for (b, a), sign in np.ndenumerate(upper):
        if sign:
            hits[((a, b), (a + 1, b + 1), (a, b + 1))] = int(sign)
    return hits


def test_sign_table_is_the_determinant_of_the_corner_labels():
    # A triangle counts iff its labels are exactly e1, e2, e3, with the sign
    # of the determinant of their unit vectors.
    for i, j, k in itertools.product(range(6), repeat=3):
        det = round(np.linalg.det([d.S2.points[v] for v in (i, j, k)]))
        assert _LOOKUP[i, j, k] == (det if {i, j, k} == {0, 1, 2} else 0)


def test_reference_degrees(T, T_inv, zero_map):
    assert d.triangle_count(T) == 1
    assert d.triangle_count(T_inv) == -1
    assert d.triangle_count(zero_map) == 0
    c = d.constant_map(d.Rectangle(5, 5), d.S2, d.BASEPOINT)
    assert d.triangle_count(c) == 0


def test_requires_sphere_codomain():
    circle = d.make_sphere(1)
    f = d.constant_map(d.Rectangle(3, 3), circle, 2)
    with pytest.raises(ValueError):
        d.triangle_count(f)
    with pytest.raises(ValueError, match="sphere-valued"):
        _orientations(f)
    with pytest.raises(ValueError, match="sphere-valued"):
        render_svg(f, d.RenderSpec(format="svg", show_triangulation=True))


def test_single_counting_triangle_of_the_generator(T):
    assert _charged(T) == {((1, 1), (2, 2), (1, 2)): 1}


def test_mirror_image_has_single_negative_triangle(T_inv):
    hits = _charged(T_inv)
    assert len(hits) == 1 and list(hits.values()) == [-1]


def test_zero_map_triangle_breakdown(zero_map):
    # two positive and two negative triangles that cancel exactly
    assert _charged(zero_map) == {
        ((1, 1), (2, 2), (1, 2)): 1,
        ((2, 2), (3, 3), (2, 3)): -1,
        ((3, 2), (4, 3), (3, 3)): 1,
        ((3, 1), (4, 2), (3, 2)): -1,
    }


def test_orientation_rule_cyclic_rotations():
    # the four rotations of the generator's side values all have degree +1,
    # and their mirrors -1: every cyclic reading of (e1,e2,e3) counts once
    rotations = [
        ("2", "3", "-2", "-3"),
        ("-3", "2", "3", "-2"),
        ("-2", "-3", "2", "3"),
        ("3", "-2", "-3", "2"),
    ]
    for x, y, z, w in rotations:
        f = grid(
            f"""
            . .  .  . .
            . {x} {w} {w} .
            . {x} 1  {z} .
            . {y} {y} {z} .
            . .  .  . .
            """
        )
        assert d.triangle_count(f) == 1, (x, y, z, w)
        assert d.triangle_count(d.inverse(f)) == -1


def test_spider_invariance_sample():
    rng = random.Random(7)
    for seed in range(10):
        f = d.gen_random(seed, 8, 7, moves=30, plant=(seed % 3) - 1)
        before = d.triangle_count(f)
        applied = 0
        while applied < 25:
            mv = d.SpiderMove(
                (rng.randrange(1, 8), rng.randrange(1, 7)), rng.randrange(6)
            )
            if d.spider_valid(f, mv):
                f = d.apply_spider(f, mv)
                assert d.triangle_count(f) == before
                applied += 1


def test_additivity_over_products():
    for seed in range(12):
        f = d.gen_random(seed, 7, 5, moves=15, plant=seed % 2)
        g = d.gen_random(seed + 100, 9, 9, moves=15, plant=-(seed % 3))
        assert d.triangle_count(d.product(f, g)) == d.triangle_count(
            f
        ) + d.triangle_count(g)


def test_mirror_antisymmetry():
    for seed in range(12):
        f = d.gen_random(seed, 10, 9, moves=20, plant=(seed % 5) - 2)
        assert d.triangle_count(d.inverse(f)) == -d.triangle_count(f)


def test_extension_invariance():
    for seed in range(8):
        f = d.gen_random(seed, 6, 6, moves=10, plant=seed % 2)
        v = d.triangle_count(f)
        assert d.triangle_count(d.trivial_extend(f, 9, 11)) == v


def test_subdivision_invariance_small_k():
    for seed in range(6):
        f = d.gen_random(seed, 6, 5, moves=12, plant=seed % 2)
        v = d.triangle_count(f)
        for k in (2, 3, 4):
            assert d.triangle_count(d.subdivide(f, k)) == v


def test_reference_map_constructors(T, T_inv):
    assert d.degree_one_map().values == T.values
    assert d.inverse(d.degree_one_map()).values == T_inv.values
