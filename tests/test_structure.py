"""Structural guarantees: the verifier stands alone, the one adjacency rule
holds on every codomain size and is the only reader of adjacency on grids,
and invariants are never bare asserts."""

import ast
import itertools
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dpi2 as d
from dpi2 import grid, verify

SRC = pathlib.Path(d.__file__).parent


def test_the_verifier_imports_none_of_the_builders():
    # A stub package stands in for dpi2/__init__, which imports every module.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('dpi2')\n"
        f"pkg.__path__ = [{str(SRC)!r}]\n"
        "sys.modules['dpi2'] = pkg\n"
        "import dpi2.verify\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('dpi2.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["dpi2.grid", "dpi2.gridmap", "dpi2.verify"]


@pytest.mark.parametrize("n", [2, 3])
def test_both_forms_of_the_rule_agree_with_the_adjacency_matrix(n):
    # The AND does not depend on the order of the nine labels, so every
    # multiset of nine labels covers every 3x3 neighbourhood.
    sphere = d.make_sphere(n)
    amat, masks = sphere.adjacency_matrix, sphere.adjacency_masks
    nines = np.array(list(itertools.combinations_with_replacement(range(len(masks)), 9)))
    array_form = verify.allowed_array(verify.mask_array(masks), nines, axis=1)
    for nine, got in zip(nines.tolist(), array_form.tolist()):
        want = sum(1 << v for v in range(len(masks)) if amat[v, nine].all())
        assert verify.allowed(masks, nine) == got == want, nine


def _allowed_by_matrix(arr, amat):
    """Per cell, the labels adjacent to every label of its 3x3 block cut to
    the grid, as a bitmask read off the adjacency matrix."""
    h, w = arr.shape
    return [
        [
            sum(
                1 << v
                for v in range(len(amat))
                if amat[v, arr[max(b - 1, 0) : b + 2, max(a - 1, 0) : a + 2]].all()
            )
            for a in range(w)
        ]
        for b in range(h)
    ]


@pytest.mark.parametrize("n", [2, 3, 40])
def test_allowed_grid_agrees_with_a_per_cell_brute_force(n):
    # S40's masks are Python ints in an object array.
    sphere = d.make_sphere(n)
    amat = sphere.adjacency_matrix
    mask_arr = grid.mask_array(sphere.adjacency_masks)
    rng = np.random.default_rng(n)
    for _ in range(60):
        h, w = rng.integers(1, 6, size=2)
        # Few distinct labels per grid, so that cells often allow some.
        labels = rng.choice(len(amat), size=rng.integers(1, 4), replace=False)
        arr = rng.choice(labels, size=(h, w)).astype(np.uint8)
        want = _allowed_by_matrix(arr, amat)
        assert grid.allowed_grid(mask_arr, arr).tolist() == want, arr


def test_only_grid_and_two_gridmap_functions_read_the_adjacency_matrix():
    # Everything else decides adjacency by the rule over adjacency_masks.
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "adjacency_matrix") or (
                    isinstance(node, ast.Constant) and node.value == "adjacency_matrix"
                ):
                    readers.add((path.name, getattr(top, "name", "<module>")))
    assert {r for r in readers if r[0] != "grid.py"} == {
        ("gridmap.py", "border_wrap"),
        ("gridmap.py", "map_compose"),
    }


# The 40-sphere has 82 points: its masks fit no numpy integer type.
S40 = d.make_sphere(40)
SEA40 = S40.point_index[(-1,) + (0,) * 40]
FAR, NEAR = 81, 40  # -e41 and its antipode e41


def _sea40(m, n):
    return d.constant_map(d.Rectangle(m, n), S40, SEA40)


def test_a_codomain_past_64_points_verifies_and_rejects_as_the_sphere_does():
    sea = _sea40(4, 4)
    one = d.apply_spider(sea, d.SpiderMove((2, 2), FAR))
    cert = d.Certificate(S40, SEA40, sea.rect, sea, (d.SpiderMove((2, 2), FAR),), one)
    assert d.verify_certificate(cert).ok

    def rejection(*moves):
        res = d.verify_certificate(d.Certificate(S40, SEA40, sea.rect, sea, moves, one))
        return res.reason, res.move_index

    first = d.SpiderMove((2, 2), FAR)
    assert rejection(first, d.SpiderMove((3, 3), NEAR)) == (
        "move 1 at (3, 3): new value not adjacent to a neighbor", 1)
    assert rejection(first, d.SpiderMove((2, 2), NEAR)) == (
        "move 1 at (2, 2): new value not adjacent to current value", 1)


def test_the_oracle_decides_on_a_codomain_past_64_points():
    f = _sea40(3, 3)
    for cell in ((1, 1), (2, 2)):
        f = d.apply_spider(f, d.SpiderMove(cell, FAR))
    res = d.homotopy_decide(f, _sea40(3, 3), d.SearchBudget(max_states=50_000))
    assert isinstance(res, d.Equivalent) and len(res.certificate.moves) == 2
    assert d.verify_certificate(res.certificate).ok


def test_no_invariant_is_a_bare_assert():
    # python -O strips assert statements; invariants must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
