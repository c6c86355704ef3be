"""Brute-force homotopy decision on tiny instances, by bidirectional search.

This is the independent ground-truth generator for small cases: it knows
nothing about degrees, islands, or normalization.  Both maps are trivially
extended to one padding rectangle and the search walks the graph whose
vertices are continuous based maps and whose edges are single spider moves.
That graph is undirected (undoing a move is itself a legal move), so one
search grows from each map.

First f's root and then g's root are expanded once each, breadth first, and
the first state both searches reach joins them.  That decides every pair at
most two moves apart, with the same certificate as a plain bidirectional
breadth-first search (Pohl, "Bi-directional search", 1971).

After that each side runs A* (Hart, Nilsson and Raphael, 1968) toward the
other side's root t, with h(s) = sum over cells of dist(s[c], t[c]), dist
being the graph distance in the codomain.  A move relabels one cell to a
label adjacent to its old one, so it changes h by at most 1: h is a
consistent lower bound, and a state is expanded only once its distance from
its root is known.  Each round expands the least g + h bucket of the side
with fewer open states.  Any path not yet found passes an open state of each
side, so it is at least as long as the larger of the two sides' least
g + h.  A meeting no longer than that is a shortest certificate within the
padding (the front-to-end test of Holte, Felner, Sharon and Sturtevant,
"Bidirectional search that is guaranteed to meet in the middle", 2016).

The state cap counts the states of both searches together.  Exhausting the
cap, or either map's component, proves nothing, which the result type states
honestly.
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


# States expanded together, by one round of numpy calls: at most _CHUNK, and
# at most _CHUNK_BYTES of their children.
_CHUNK = 256
_CHUNK_BYTES = 64 << 20


def _child_bytes(w: int, h: int, npts: int) -> int:
    """The most bytes one state's children take on a ``w`` x ``h`` pad.

    At most, every interior cell takes every other label.  Per child: two
    padded grids (the chunk's joined bytes and the child's own) and ~80 B.
    """
    return max(w - 2, 0) * max(h - 2, 0) * (npts - 1) * (2 * w * h + 80)


def _chunk_states(w: int, h: int, npts: int) -> int:
    """States per chunk on a ``w`` x ``h`` pad.

    One when a single state's children pass ``_CHUNK_BYTES``.
    """
    return max(1, min(_CHUNK, _CHUNK_BYTES // max(_child_bytes(w, h, npts), 1)))


def _search_bytes(f: GridMap, g: GridMap, budget: SearchBudget) -> int:
    """About the most bytes ``homotopy_decide(f, g, budget)`` holds at once.

    One chunk's children, and per visited state its grid and ~100 B of dict
    slot, open-bucket entry and header.
    """
    w, h = budget.pad_limit or (
        max(f.rect.width, g.rect.width), max(f.rect.height, g.rect.height)
    )
    npts = len(f.codomain.points)
    chunk = _chunk_states(w, h, npts) * _child_bytes(w, h, npts)
    return chunk + budget.max_states * (w * h + 100)


def _distances(codomain: DigitalImage) -> np.ndarray:
    """Graph distances between the codomain's points, by BFS over the masks.

    Points in different components are ``len(points)`` apart.
    """
    masks = codomain.adjacency_masks
    n = len(masks)
    dist = np.full((n, n), n, dtype=np.intp)
    for a in range(n):
        reached = ring = 1 << a
        k = 0
        while ring:
            near = 0
            for p in range(n):
                if ring >> p & 1:
                    dist[a, p] = k
                    near |= masks[p]
            ring = near & ~reached
            reached |= near
            k += 1
    return dist


_Expand = Callable[..., Iterator[tuple]]


def _expander(rect: Rectangle, codomain: DigitalImage) -> _Expand:
    """Return a function that lists the children of a list of states.

    A child is a state one spider move away: label v goes to interior cell
    p where ``allowed_array`` allows it over p's nine labels, v being other
    than p's current label, so a child differs from its parent in exactly
    one cell.

    The states are taken in chunks of ``_chunk_states``.  For each chunk
    the function yields the chunk, the index in it of each child's parent,
    and the children: by parent, then cells in raster order, then labels
    ascending.  Given ``toward``, a table of ``dist(v, t[p])`` by label v
    and flat cell p, it also yields how much each child's move changes
    ``sum dist(s[p], t[p])``.  The list of children is emptied when the next
    chunk is asked for, so that at most two copies of one chunk's children
    are held at once.
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
    step = _chunk_states(rect.width, rect.height, len(mask_arr))

    def expand(states: list[bytes], toward: np.ndarray | None = None) -> Iterator[tuple]:
        for lo in range(0, len(states), step):
            chunk = states[lo : lo + step]
            arr = np.frombuffer(b"".join(chunk), dtype=np.uint8).reshape(-1, size)
            # arr.T[around] stacks the nine labels outermost, cells then states
            # inside, so the rule's reduce runs over whole contiguous slabs.
            allowed = allowed_array(mask_arr, arr.T[around]).T[:, :, None]
            parent, cell, label = np.nonzero(
                allowed >> labels & (labels != arr[:, cells, None])
            )
            pos = cells[cell]
            kids = arr[parent]
            kids[np.arange(len(parent)), pos] = label
            flat = kids.tobytes()
            del kids
            children = [flat[k : k + size] for k in range(0, len(flat), size)]
            del flat
            if toward is None:
                yield chunk, parent.tolist(), children
            else:
                gain = toward[label, pos] - toward[arr[parent, pos], pos]
                yield chunk, parent.tolist(), children, gain.tolist()
            children.clear()

    return expand


def homotopy_decide(
    f: GridMap, g: GridMap, budget: SearchBudget | None = None
) -> Equivalent | Unknown:
    """Search for a shortest spider-move path from f to g over one padded rectangle.

    f's root and then g's root are expanded breadth first; then both sides
    run A* on the label-distance bound until a meeting is proved shortest,
    a side's component runs out, or the two sides hold ``max_states``
    states.  The module docstring gives the argument.
    """
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
    roots = (f0.values, g0.values)
    if roots[0] == roots[1]:
        return Equivalent(Certificate(start=f0, moves=(), end=f0))

    expand = _expander(rect, f.codomain)
    # Per side (0 grows from f, 1 from g): each visited state's g, the fewest
    # moves from the side's root found so far.
    seen: tuple[dict[bytes, int], ...] = ({roots[0]: 0}, {roots[1]: 0})
    room = budget.max_states - 2
    # The root expansions: any meeting here is at most two moves long, so
    # it is shortest.
    levels = []
    for side in (0, 1):
        own, other = seen[side], seen[1 - side]
        level = []
        for _, _, children in expand([roots[side]]):
            for child in children:
                if child in other:
                    own[child] = 1
                    return Equivalent(_certificate(f0, g0, child, seen, expand))
                if room <= 0:
                    return Unknown(len(own) + len(other), "state budget exhausted")
                room -= 1
                own[child] = 1
                level.append(child)
        if not level:
            return Unknown(len(own) + len(other), "component exhausted within padding")
        levels.append(level)

    # A*: per side, the open states in buckets keyed by g + h, h heading for
    # the other side's root.  An entry left behind when a state's g improves
    # is stale; it re-expands into children that improve nothing.
    dist = _distances(f.codomain)
    heads = [np.frombuffer(roots[1 - side], dtype=np.uint8) for side in (0, 1)]
    toward = [dist[:, head] for head in heads]
    opened: list[dict[int, list[bytes]]] = []
    for level, head in zip(levels, heads):
        arr = np.frombuffer(b"".join(level), dtype=np.uint8).reshape(len(level), -1)
        buckets: dict[int, list[bytes]] = {}
        for state, h in zip(level, dist[arr, head].sum(axis=1).tolist()):
            buckets.setdefault(1 + h, []).append(state)
        opened.append(buckets)
    sizes = [len(level) for level in levels]
    best: tuple[int, bytes] | None = None  # the shortest meeting found: its length and state
    while opened[0] and opened[1]:
        lows = [min(opened[0]), min(opened[1])]
        bound = max(lows)  # no path not yet found is shorter
        if best is not None and best[0] <= bound:
            break
        side = 0 if sizes[0] <= sizes[1] else 1
        own, other = seen[side], seen[1 - side]
        batch = opened[side].pop(lows[side])
        sizes[side] -= len(batch)
        # A child's h is its parent's plus the gain, -1, 0 or +1, so its
        # g + h is the bucket's plus 0, 1 or 2.
        grown: list[list[bytes]] = [[], [], []]
        for chunk, parents, children, gains in expand(batch, toward[side]):
            depth = [own[state] + 1 for state in chunk]
            for k, child, gain in zip(parents, children, gains):
                g1 = depth[k]
                was = own.get(child)
                if was is not None and was <= g1:
                    continue
                there = other.get(child)
                if there is not None and (best is None or g1 + there < best[0]):
                    best = (g1 + there, child)
                    if best[0] <= bound:
                        own[child] = g1
                        return Equivalent(_certificate(f0, g0, child, seen, expand))
                if was is None:
                    if room <= 0:
                        return Unknown(len(own) + len(other), "state budget exhausted")
                    room -= 1
                own[child] = g1
                grown[gain + 1].append(child)
        for k, kids in enumerate(grown):
            if kids:
                opened[side].setdefault(lows[side] + k, []).extend(kids)
                sizes[side] += len(kids)
    # The loop ends on a proved meeting, or when a side's component is spent:
    # every state of it then has its least g, the other root's among them.
    if best is None:
        return Unknown(sum(map(len, seen)), "component exhausted within padding")
    return Equivalent(_certificate(f0, g0, best[1], seen, expand))


def _descent(expand: _Expand, seen: dict[bytes, int], state: bytes) -> list[bytes]:
    """A path of ``seen[state]`` moves from state to its side's root.

    Each step takes the first child whose g is one less: the state that set
    a g was expanded with one less, and an expanded state's g is final.  A
    state at g 1 is the root's child, so it needs no expansion.
    """
    path = [state]
    for k in range(seen[state] - 1, 0, -1):
        for _, _, children in expand([state]):
            state = next(c for c in children if seen.get(c) == k)
        path.append(state)
    if seen[state]:
        path.append(next(iter(seen)))  # the root, inserted first
    return path


def _certificate(
    f0: GridMap,
    g0: GridMap,
    meet: bytes,
    seen: tuple[dict[bytes, int], ...],
    expand: _Expand,
) -> Certificate:
    """The path start -> meet down the forward g, then meet -> target down the backward g."""
    path = _descent(expand, seen[0], meet)
    path.reverse()
    path += _descent(expand, seen[1], meet)[1:]
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
