"""Terminal and SVG renderings of grid maps.

ASCII output is the map's token grid (top row first) with aligned columns;
set DPI2_COLOR=1 to colorize labels with ANSI escapes.  SVG output draws one
square per grid point, optionally overlaid with the triangulation used by
the degree count, marking each triangle that contributes +1 or -1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .degree import _orientations
from .formats import TokenTable
from .gridmap import GridMap

# One color per label index, cycling for larger codomains.
_ANSI = ("\x1b[31m", "\x1b[32m", "\x1b[34m", "\x1b[90m", "\x1b[92m", "\x1b[96m")
_RESET = "\x1b[0m"
_FILLS = ("#d62728", "#2ca02c", "#1f77b4", "#d9d9d9", "#98df8a", "#9edae5")
# The overlay style of a triangle by its contribution to the degree.
_TRIANGLE_STYLES = {
    1: 'fill="#2ca02c" fill-opacity="0.45" stroke="#000" stroke-width="0.5"',
    -1: 'fill="#d62728" fill-opacity="0.45" stroke="#000" stroke-width="0.5"',
    0: 'fill="none" stroke="#888" stroke-dasharray="2,2" stroke-width="0.5"',
}


@dataclass(frozen=True)
class RenderSpec:
    format: str = "ascii"
    cell_size: int = 16
    show_triangulation: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("ascii", "svg"):
            raise ValueError(f"unknown render format {self.format!r}")
        if self.cell_size <= 0:
            raise ValueError("cell size must be positive")


def _use_color(color: bool | None) -> bool:
    if color is not None:
        return color
    return os.environ.get("DPI2_COLOR", "") == "1"


def render_ascii(f: GridMap, color: bool | None = None) -> str:
    """The token grid, top row first, columns space-aligned."""
    color = _use_color(color)
    names = TokenTable(f.codomain).tokens
    tokens = [[names[v] for v in row] for row in f.array.tolist()]
    width = max(len(t) for row in tokens for t in row)
    lines = []
    for b in range(f.rect.n, -1, -1):
        cells = []
        for a in range(f.rect.m + 1):
            cell = tokens[b][a].rjust(width)
            if color:
                idx = int(f.array[b, a])
                cell = _ANSI[idx % len(_ANSI)] + cell + _RESET
            cells.append(cell)
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def render_svg(f: GridMap, spec: RenderSpec) -> str:
    """An SVG drawing of the map; vertical axis points up."""
    s = spec.cell_size
    w, h = f.rect.width * s, f.rect.height * s
    names = TokenTable(f.codomain).tokens
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    for b in range(f.rect.n + 1):
        y = (f.rect.n - b) * s
        for a in range(f.rect.m + 1):
            idx = int(f.array[b, a])
            fill = _FILLS[idx % len(_FILLS)]
            out.append(
                f'<rect x="{a * s}" y="{y}" width="{s}" height="{s}" '
                f'fill="{fill}" stroke="#555" stroke-width="1">'
                f"<title>({a},{b}) {names[idx]}</title></rect>"
            )
    if spec.show_triangulation:
        lower, upper = _orientations(f)
        for (b, a), low in np.ndenumerate(lower):
            for verts, sign in (
                (((a, b), (a + 1, b), (a + 1, b + 1)), low),
                (((a, b), (a + 1, b + 1), (a, b + 1)), upper[b, a]),
            ):
                pts = " ".join(
                    f"{(x + 0.5) * s:g},{(f.rect.n - y + 0.5) * s:g}" for x, y in verts
                )
                out.append(f'<polygon points="{pts}" {_TRIANGLE_STYLES[int(sign)]}/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_map(f: GridMap, spec: RenderSpec | None = None, color: bool | None = None) -> str:
    spec = spec or RenderSpec()
    if spec.format == "svg":
        return render_svg(f, spec)
    return render_ascii(f, color)
