"""Seeded random sphere maps with a known class, for tests and fuzzing.

A generated map starts as a diagonal stack of planted stamps (so its class
is known exactly) and is then scrambled by uniformly chosen valid spider
moves.  Moves never change the class, so the construction doubles as a
ground-truth source: whatever the scrambling, the classifier must recover
``plant``.
"""

from __future__ import annotations

import random

from .grid import Rectangle, allowed
from .gridmap import GridMap
from .normalize import canonical_stack

_MAX_TRIES = 10_000


def gen_random(seed: int, m: int, n: int, moves: int = 0, plant: int = 0) -> GridMap:
    """A reproducible random map on I_{m,n}: byte-identical for equal seeds.

    ``plant`` copies of the degree +-1 stamp (sign of ``plant``) are placed
    on the diagonal, then ``moves`` spider moves are applied, each drawn
    uniformly from the currently valid ones by rejection sampling.
    """
    if plant != 0 and (m < 5 * abs(plant) - 1 or n < 5 * abs(plant) - 1):
        raise ValueError(
            f"I_{{{m},{n}}} is too small to plant {abs(plant)} stamps"
        )
    if moves < 0:
        raise ValueError("the number of scrambling moves cannot be negative")
    if moves > 0 and (m < 2 or n < 2):
        raise ValueError("scrambling needs at least one interior cell")
    rng = random.Random(seed)
    g = canonical_stack(plant, Rectangle(m, n))
    masks = g.codomain.adjacency_masks
    npts, w = len(masks), m + 1
    vals = bytearray(g.values)
    for _ in range(moves):
        for _attempt in range(_MAX_TRIES):
            a = rng.randrange(1, m)
            b = rng.randrange(1, n)
            p = b * w + a
            v = rng.randrange(npts - 1)
            if v >= vals[p]:
                v += 1
            nine = vals[p - w - 1 : p - w + 2] + vals[p - 1 : p + 2] + vals[p + w - 1 : p + w + 2]
            if allowed(masks, nine) >> v & 1:
                vals[p] = v
                break
        else:
            raise RuntimeError(
                f"no valid spider move found in {_MAX_TRIES} samples"
            )
    return GridMap(g.rect, g.codomain, g.basepoint, bytes(vals))
