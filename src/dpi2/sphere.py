"""The digital spheres and the 6-point sphere label algebra.

The digital n-sphere is the set of 2(n+1) signed unit points in the
(n+1)-dimensional lattice under the c_n adjacency.  For n = 2 this is the
6-point octahedral sphere where two points are adjacent exactly when they
are not antipodal; all degree and normalization machinery works over it.

Labels for the 2-sphere are small integers 0..5 in the fixed order
``e1, e2, e3, -e1, -e2, -e3`` so that the antipode is ``(i + 3) % 6``.
File tokens are ``1 2 3 -1 -2 -3`` with ``.`` as an alias for ``-1``
(the conventional basepoint); ``formats.TokenTable`` maps them.
"""

from __future__ import annotations

from enum import IntEnum

from .grid import DigitalImage, LatticeCq, Point


class S2Label(IntEnum):
    """One of the six points of the digital 2-sphere."""

    E1 = 0
    E2 = 1
    E3 = 2
    NEG_E1 = 3
    NEG_E2 = 4
    NEG_E3 = 5


def antipode(label: S2Label | int) -> S2Label:
    """The opposite point -l; an involution without fixed points."""
    return S2Label((int(label) + 3) % 6)


def make_sphere(n: int) -> DigitalImage:
    """The digital n-sphere: points ±e_i in the (n+1)-D lattice, c_n adjacent.

    Point order matches S2Label for n = 2: e1..e_{n+1} then -e1..-e_{n+1}.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    pts: list[Point] = []
    for sign in (1, -1):
        for i in range(n + 1):
            p = [0] * (n + 1)
            p[i] = sign
            pts.append(tuple(p))
    return DigitalImage(name=f"S{n}", points=tuple(pts), adjacency=LatticeCq(n))


#: The 2-sphere used throughout; ``a ~ b`` iff ``a != -b``.
S2: DigitalImage = make_sphere(2)

#: Index of the conventional basepoint -e1 in S2.
BASEPOINT: int = int(S2Label.NEG_E1)
