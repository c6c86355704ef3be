"""Brute-force homotopy decision on tiny instances, by bidirectional search.

This is the independent ground-truth generator for small cases: it knows
nothing about degrees, islands, or normalization.  Both maps are trivially
extended to one padding rectangle and the search walks the graph whose
vertices are continuous based maps and whose edges are single spider moves.
That graph is undirected (undoing a move is itself a legal move), so one
breadth-first search grows from each map, and each round expands the smaller
frontier by one whole level (Pohl, "Bi-directional search", 1971).  The first
state both searches reach joins them into a shortest certificate within that
padding.  The state cap counts the states of both searches together.
Exhausting the cap, or either map's component, proves nothing, which the
result type states honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .grid import DigitalImage, Rectangle, allowed_array, mask_array
from .gridmap import GridMap, trivial_extend
from .verify import Certificate, PackedMoves, nine_offsets


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the search: padding size (grid points) and state cap."""

    pad_limit: tuple[int, int] | None = None
    max_states: int = 500_000

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be positive")
        if self.pad_limit is not None:
            w, h = self.pad_limit
            if w < 1 or h < 1:
                raise ValueError("pad_limit must be at least 1x1 points")


@dataclass(frozen=True)
class Equivalent:
    certificate: Certificate


@dataclass(frozen=True)
class Unknown:
    states_explored: int
    reason: str


# States expanded together, by one round of numpy calls.
_CHUNK = 256


def _search_bytes(f: GridMap, g: GridMap, budget: SearchBudget) -> int:
    """About the most bytes ``homotopy_decide(f, g, budget)`` holds at once.

    Per child in a chunk: three padded grids (array, bytes, bytes object) and
    ~80 B; per visited state: its grid and ~100 B of dict slot and header.
    """
    w, h = budget.pad_limit or (
        max(f.rect.width, g.rect.width), max(f.rect.height, g.rect.height)
    )
    children = _CHUNK * max(w - 2, 0) * max(h - 2, 0) * (len(f.codomain.points) - 1)
    return children * (3 * w * h + 80) + budget.max_states * (w * h + 100)


def _expander(
    rect: Rectangle, codomain: DigitalImage
) -> Callable[[list[bytes]], Iterator[tuple[list[bytes], list[int], list[bytes]]]]:
    """Return a function that lists the children of a list of states.

    A child is a state one spider move away: label v goes to interior cell
    p where ``allowed_array`` allows it over p's nine labels, v being other
    than p's current label, so a child differs from its parent in exactly
    one cell.

    The states are taken in chunks.  For each chunk the function yields the
    chunk, the index in it of each child's parent, and the children: by
    parent, then cells in raster order, then labels ascending.
    """
    w = rect.width
    cells = np.array(
        [b * w + a for b in range(1, rect.n) for a in range(1, rect.m)], dtype=np.intp
    )
    # around[k, i]: flat index of interior cell i's k-th cell of nine, i itself first.
    around = cells[None, :] + np.array(nine_offsets(w), dtype=np.intp)[:, None]
    mask_arr = mask_array(codomain.adjacency_masks)
    # Label indices in the masks' dtype, so that shifting a mask by them stays in it.
    labels = np.arange(len(mask_arr)).astype(mask_arr.dtype)
    size = rect.width * rect.height

    def expand(
        states: list[bytes],
    ) -> Iterator[tuple[list[bytes], list[int], list[bytes]]]:
        for lo in range(0, len(states), _CHUNK):
            chunk = states[lo : lo + _CHUNK]
            arr = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(-1, size)
            # arr.T[around] stacks the nine labels outermost, cells then states
            # inside, so the rule's reduce runs over whole contiguous slabs.
            allowed = allowed_array(mask_arr, arr.T[around]).T[:, :, None]
            parent, cell, label = np.nonzero(
                allowed >> labels & (labels != arr[:, cells, None])
            )
            kids = arr[parent]
            kids[np.arange(len(parent)), cells[cell]] = label
            flat = kids.tobytes()
            yield chunk, parent.tolist(), [
                flat[k : k + size] for k in range(0, len(flat), size)
            ]

    return expand


def homotopy_decide(
    f: GridMap, g: GridMap, budget: SearchBudget | None = None
) -> Equivalent | Unknown:
    """Search for a spider-move path from f to g over one padded rectangle."""
    if budget is None:
        budget = SearchBudget()
    if f.codomain != g.codomain:
        raise ValueError("homotopy search requires a common codomain")
    if f.basepoint != g.basepoint:
        raise ValueError("homotopy search requires a common basepoint")
    need_w = max(f.rect.width, g.rect.width)
    need_h = max(f.rect.height, g.rect.height)
    if budget.pad_limit is None:
        pad_w, pad_h = need_w, need_h
    else:
        pad_w, pad_h = budget.pad_limit
        if pad_w < need_w or pad_h < need_h:
            raise ValueError(
                f"pad_limit {pad_w}x{pad_h} smaller than the inputs "
                f"({need_w}x{need_h} points)"
            )
    rect = Rectangle(pad_w - 1, pad_h - 1)
    f0 = trivial_extend(f, rect.m, rect.n)
    g0 = trivial_extend(g, rect.m, rect.n)
    start, target = f0.values, g0.values
    if start == target:
        return Equivalent(Certificate(start=f0, moves=(), end=f0))

    expand = _expander(rect, f.codomain)
    # Per side (0 grows from f, 1 from g): each visited state's parent, one
    # move nearer the side's root, which has none; and the newest level.
    visited: tuple[dict[bytes, bytes | None], ...] = ({start: None}, {target: None})
    frontiers = [[start], [target]]
    room = budget.max_states - 2
    while True:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        own, other = visited[side], visited[1 - side]
        level: list[bytes] = []
        for chunk, parents, children in expand(frontiers[side]):
            for k, child in zip(parents, children):
                if child in own:
                    continue
                if child in other:
                    own[child] = chunk[k]
                    return Equivalent(_certificate(f0, g0, child, *visited))
                if room <= 0:
                    return Unknown(len(own) + len(other), "state budget exhausted")
                room -= 1
                own[child] = chunk[k]
                level.append(child)
        if not level:
            return Unknown(len(own) + len(other), "component exhausted within padding")
        frontiers[side] = level


def _certificate(
    f0: GridMap,
    g0: GridMap,
    meet: bytes,
    fwd: dict[bytes, bytes | None],
    bwd: dict[bytes, bytes | None],
) -> Certificate:
    """The path start -> meet along fwd parents, then meet -> target along bwd."""
    path = []
    state: bytes | None = meet
    while state is not None:
        path.append(state)
        state = fwd[state]
    path.reverse()
    state = bwd[meet]
    while state is not None:
        path.append(state)
        state = bwd[state]
    w = f0.rect.width
    cells, labels = [], []
    for before, after in zip(path, path[1:]):
        pos = next(i for i, (x, y) in enumerate(zip(before, after)) if x != y)
        cells.append(pos)
        labels.append(after[pos])
    return Certificate(
        start=f0,
        moves=PackedMoves([p % w for p in cells], [p // w for p in cells], labels),
        end=g0,
    )
