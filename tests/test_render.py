import pytest

import dpi2 as d


EXPECTED_T = (
    " .  .  .  .  .\n"
    " .  2 -3 -3  .\n"
    " .  2  1 -2  .\n"
    " .  3  3 -2  .\n"
    " .  .  .  .  .\n"
)


def test_ascii_reference_stamp(T):
    assert d.render_ascii(T) == EXPECTED_T


def test_ascii_top_row_first():
    sea = d.constant_map(d.Rectangle(3, 3), d.S2, d.BASEPOINT)
    arr = sea.array.copy()
    arr[2, 1] = 1  # (a=1, b=2): upper-left region of the frame
    f = d.from_array(arr, d.S2, d.BASEPOINT)
    lines = d.render_ascii(f).splitlines()
    assert "2" in lines[1] and all("2" not in ln for ln in lines[2:])


def test_ascii_color_wraps_every_cell(T):
    plain = d.render_ascii(T)
    col = d.render_ascii(T, color=True)
    assert "\x1b[" in col and "\x1b[0m" in col
    # stripping the escapes recovers the plain rendering
    import re

    assert re.sub(r"\x1b\[[0-9;]*m", "", col) == plain
    assert col.count("\x1b[0m") == 25


def test_ascii_color_env_toggle(T, monkeypatch):
    monkeypatch.setenv("DPI2_COLOR", "1")
    assert "\x1b[" in d.render_ascii(T)
    monkeypatch.setenv("DPI2_COLOR", "0")
    assert "\x1b[" not in d.render_ascii(T)
    # explicit argument beats the environment
    assert "\x1b[" in d.render_ascii(T, color=True)


def test_svg_cell_grid(T):
    spec = d.RenderSpec(format="svg", cell_size=20)
    svg = d.render_svg(T, spec)
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 25  # one per grid point
    assert 'width="100"' in svg and 'height="100"' in svg
    assert "<polygon" not in svg


def test_svg_triangulation_overlay(T):
    spec = d.RenderSpec(format="svg", cell_size=10, show_triangulation=True)
    svg = d.render_svg(T, spec)
    assert svg.count("<polygon") == 2 * T.rect.m * T.rect.n
    # T's one counting triangle, (1,1),(2,2),(1,2), is drawn green
    green = [ln for ln in svg.splitlines() if ln.startswith("<polygon") and "#2ca02c" in ln]
    assert green == [
        '<polygon points="15,35 25,25 15,25" fill="#2ca02c" fill-opacity="0.45" '
        'stroke="#000" stroke-width="0.5"/>'
    ]


def test_svg_scales_with_cell_size(T):
    small = d.render_svg(T, d.RenderSpec(format="svg", cell_size=8))
    assert 'width="40"' in small


def test_render_map_dispatch(T):
    assert d.render_map(T) == d.render_ascii(T)
    svg_spec = d.RenderSpec(format="svg")
    assert d.render_map(T, svg_spec) == d.render_svg(T, svg_spec)


def test_render_spec_validation():
    with pytest.raises(ValueError):
        d.RenderSpec(format="png")
    with pytest.raises(ValueError):
        d.RenderSpec(cell_size=0)
