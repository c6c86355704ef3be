"""Text formats: `.dimg` codomains, `.dmap` grid maps, `.dcert` certificates.

All three are line-oriented UTF-8 with LF endings.  Grid bodies are written
top row first (row b = n down to b = 0) so files read like the rendered grid.
Sphere codomains use signed axis tokens (`1 2 3 -1 -2 -3` for the 2-sphere)
with `.` as an alias for `-1`; every other codomain uses decimal point
indices and no dot alias.

Parsers reject malformed, discontinuous, or boundary-violating input with
1-based line/column diagnostics (ParseError) rather than stack traces.
"""

from __future__ import annotations

import re

import numpy as np

from .grid import (
    DigitalImage,
    Explicit,
    LatticeCq,
    Rectangle,
    first_discontinuity,
    values_continuous,
)
from .gridmap import GridMap, from_array
from .homotopy import Certificate, PackedMoves
from .sphere import make_sphere


class ParseError(ValueError):
    """A format error with an optional 1-based source location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, column {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _tokens_with_cols(text_line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", text_line)]


def _body_lines(text: str) -> list[tuple[int, str]]:
    """All non-blank lines as (1-based line number, content)."""
    return [
        (i, raw) for i, raw in enumerate(text.split("\n"), start=1)
        if raw and not raw.isspace()
    ]


def _parse_kv(token: str, key: str, line: int) -> str:
    if not token.startswith(key + "="):
        raise ParseError(f"expected {key}=<value>, got {token!r}", line)
    return token[len(key) + 1 :]


# ---------------------------------------------------------------------------
# Label tokens.


def _sphere_n(codomain: DigitalImage) -> int | None:
    """The n for which this codomain is exactly the standard n-sphere."""
    m = re.fullmatch(r"S([1-9]\d*)", codomain.name)
    if m and codomain == make_sphere(int(m.group(1))):
        return int(m.group(1))
    return None


class TokenTable:
    """A codomain's label tokens, resolved once per document.

    ``tokens[i]`` is the canonical token of point index i; ``indices`` maps
    each canonical token (and ``-1`` on a sphere) back to its index.  Other
    spellings fall back to the regular-expression parse, so a non-canonical
    one such as ``007`` on a non-sphere codomain still names point 7.
    """

    def __init__(self, codomain: DigitalImage):
        self.codomain = codomain
        self.sphere_n = n = _sphere_n(codomain)
        if n is None:
            self.tokens = tuple(str(i) for i in range(len(codomain.points)))
        else:
            axes = tuple(str(axis) for axis in range(1, n + 2))
            self.tokens = axes + (".",) + tuple("-" + t for t in axes[1:])
        self.indices = {tok: i for i, tok in enumerate(self.tokens)}
        if n is not None:
            self.indices["-1"] = n + 1

    def index(self, token: str) -> int | None:
        """Point index for a token, or None if the token is unknown."""
        idx = self.indices.get(token)
        if idx is not None:
            return idx
        n = self.sphere_n
        if n is None:
            if re.fullmatch(r"\d+", token):
                idx = int(token)
                return idx if idx < len(self.tokens) else None
            return None
        m = re.fullmatch(r"(-?)([1-9]\d*)", token)
        if not m:
            return None
        axis = int(m.group(2))
        if axis > n + 1:
            return None
        return (axis - 1) + (n + 1 if m.group(1) else 0)


def token_of_index(idx: int, codomain: DigitalImage) -> str:
    """Canonical token for a point index (dot for a sphere's -e1)."""
    return TokenTable(codomain).tokens[idx]


def index_of_token(token: str, codomain: DigitalImage) -> int | None:
    """Point index for a token, or None if the token is unknown."""
    return TokenTable(codomain).index(token)


def _resolve_codomain(name: str, provided: DigitalImage | None, line: int) -> DigitalImage:
    if provided is not None:
        if provided.name != name:
            raise ParseError(
                f"file declares codomain {name!r} but {provided.name!r} was supplied",
                line,
            )
        return provided
    m = re.fullmatch(r"S([1-9]\d*)", name)
    if m:
        return make_sphere(int(m.group(1)))
    raise ParseError(
        f"unknown codomain {name!r}; pass the digital image loaded from its .dimg",
        line,
    )


# ---------------------------------------------------------------------------
# .dimg


def dump_image(img: DigitalImage) -> str:
    lines = []
    if isinstance(img.adjacency, LatticeCq):
        adj = f"c{img.adjacency.q}"
    else:
        adj = "explicit"
    lines.append(f"dimg v1 {img.name} dim={img.dimension} adj={adj}")
    for p in img.points:
        lines.append(" ".join(str(c) for c in p))
    if isinstance(img.adjacency, Explicit):
        lines.append("edges")
        for i, j in sorted(img.adjacency.edges):
            if i < j:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def load_image(text: str) -> DigitalImage:
    lines = _body_lines(text)
    if not lines:
        raise ParseError("empty document", 1)
    lno, header = lines[0]
    toks = header.split()
    if len(toks) != 5 or toks[0] != "dimg" or toks[1] != "v1":
        raise ParseError("expected header: dimg v1 <name> dim=<n> adj=<cq|explicit>", lno)
    name = toks[2]
    try:
        dim = int(_parse_kv(toks[3], "dim", lno))
    except ValueError as e:
        raise ParseError(f"bad dimension: {e}", lno) from None
    adj_token = _parse_kv(toks[4], "adj", lno)
    points: list[tuple[int, ...]] = []
    edge_pairs: list[tuple[int, int]] = []
    in_edges = False
    for lno2, line in lines[1:]:
        if line.strip() == "edges":
            if in_edges:
                raise ParseError("duplicate edges section", lno2)
            in_edges = True
            continue
        try:
            nums = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError("expected integers", lno2) from None
        if in_edges:
            if len(nums) != 2:
                raise ParseError("edge lines carry exactly two indices", lno2)
            edge_pairs.append((nums[0], nums[1]))
        else:
            if len(nums) != dim:
                raise ParseError(
                    f"point has {len(nums)} coordinates, expected {dim}", lno2
                )
            points.append(tuple(nums))
    if adj_token == "explicit":
        if not in_edges:
            raise ParseError("adj=explicit requires an edges section", lines[0][0])
        adjacency = Explicit.from_pairs(edge_pairs)
    else:
        m = re.fullmatch(r"c([1-9]\d*)", adj_token)
        if not m:
            raise ParseError(f"unknown adjacency {adj_token!r}", lines[0][0])
        if in_edges:
            raise ParseError("edges section is only valid with adj=explicit", lines[0][0])
        adjacency = LatticeCq(int(m.group(1)))
    try:
        return DigitalImage(name=name, points=tuple(points), adjacency=adjacency)
    except ValueError as e:
        raise ParseError(str(e), lines[0][0]) from None


# ---------------------------------------------------------------------------
# Grid bodies (shared by .dmap and .dcert).


def _grid_to_lines(arr: np.ndarray, tokens: tuple[str, ...]) -> list[str]:
    return [" ".join([tokens[v] for v in row]) for row in arr[::-1].tolist()]


def _parse_grid_rows(
    rows: list[tuple[int, str]], m: int, n: int, table: TokenTable
) -> np.ndarray:
    """Parse n+1 grid lines (top row first) into an (n+1, m+1) array."""
    if len(rows) != n + 1:
        where = rows[-1][0] if rows else None
        raise ParseError(f"expected {n + 1} grid rows, found {len(rows)}", where)
    index = table.index
    top_first = []
    for lno, line in rows:
        toks = line.split()
        if len(toks) != m + 1:
            raise ParseError(
                f"row has {len(toks)} labels, expected {m + 1}",
                lno,
                _tokens_with_cols(line)[-1][1] if len(toks) > m + 1 else None,
            )
        row = [index(tok) for tok in toks]
        if None in row:
            a = row.index(None)
            raise ParseError(
                f"unknown label token {toks[a]!r} for codomain {table.codomain.name}",
                lno,
                _tokens_with_cols(line)[a][1],
            )
        top_first.append(row)
    return np.array(top_first[::-1], dtype=np.uint8)


def _check_grid(
    arr: np.ndarray,
    basepoint: int,
    table: TokenTable,
    rows: list[tuple[int, str]],
) -> None:
    """Boundary and continuity checks with source locations."""
    n = arr.shape[0] - 1
    tokens = table.tokens

    def loc(a: int, b: int) -> tuple[int, int]:
        lno, line = rows[n - b]
        return lno, _tokens_with_cols(line)[a][1]

    off = arr != basepoint
    off[1:-1, 1:-1] = False  # only boundary cells must carry the basepoint
    if off.any():
        # argmax on the flat mask finds the first hit in b-then-a order.
        b, a = divmod(int(off.argmax()), arr.shape[1])
        lno, col = loc(a, b)
        raise ParseError(
            f"boundary cell ({a},{b}) is {tokens[arr[b, a]]!r}, expected "
            f"basepoint {tokens[basepoint]!r}",
            lno,
            col,
        )
    amat = table.codomain.adjacency_matrix
    if not values_continuous(arr, amat):
        (a1, b1), (a2, b2) = first_discontinuity(arr, amat)
        lno, col = loc(a1, b1)
        raise ParseError(
            f"cells ({a1},{b1}) and ({a2},{b2}) carry non-adjacent labels "
            f"{tokens[arr[b1, a1]]!r} and {tokens[arr[b2, a2]]!r}",
            lno,
            col,
        )


def _grid_map(
    arr: np.ndarray,
    codomain: DigitalImage,
    basepoint: int,
    table: TokenTable,
    rows: list[tuple[int, str]],
) -> GridMap:
    """Build a parsed grid's map, locating any fault in its source rows.

    GridMap validates the grid itself; only a grid it rejects is walked
    again by ``_check_grid`` for the line and column of the first fault.
    """
    try:
        return from_array(arr, codomain, basepoint)
    except ValueError as exc:
        error = exc
    _check_grid(arr, basepoint, table, rows)
    raise error


# ---------------------------------------------------------------------------
# .dmap


def dump_map(f: GridMap) -> str:
    tokens = TokenTable(f.codomain).tokens
    bp_token = tokens[f.basepoint]
    if bp_token == ".":
        bp_token = "-1"  # headers always carry the explicit signed token
    head = (
        f"dmap v1 w={f.rect.m} h={f.rect.n} codomain={f.codomain.name} "
        f"basepoint={bp_token}"
    )
    return "\n".join([head] + _grid_to_lines(f.array, tokens)) + "\n"


def load_map(text: str, codomain: DigitalImage | None = None) -> GridMap:
    lines = _body_lines(text)
    if not lines:
        raise ParseError("empty document", 1)
    lno, header = lines[0]
    toks = header.split()
    if len(toks) != 6 or toks[0] != "dmap" or toks[1] != "v1":
        raise ParseError(
            "expected header: dmap v1 w=<m> h=<n> codomain=<name> basepoint=<token>",
            lno,
        )
    try:
        m = int(_parse_kv(toks[2], "w", lno))
        n = int(_parse_kv(toks[3], "h", lno))
    except ValueError:
        raise ParseError("width/height must be integers", lno) from None
    if m < 0 or n < 0:
        raise ParseError("width/height must be >= 0", lno)
    cod = _resolve_codomain(_parse_kv(toks[4], "codomain", lno), codomain, lno)
    bp_token = _parse_kv(toks[5], "basepoint", lno)
    if bp_token == ".":
        raise ParseError("header basepoint must be an explicit token, not '.'", lno)
    table = TokenTable(cod)
    bp = table.index(bp_token)
    if bp is None:
        raise ParseError(f"unknown basepoint token {bp_token!r}", lno)
    rows = lines[1:]
    if len(rows) > n + 1:
        raise ParseError("unexpected content after grid rows", rows[n + 1][0])
    return _grid_map(_parse_grid_rows(rows, m, n, table), cod, bp, table, rows)


# ---------------------------------------------------------------------------
# .dcert

# Packed certificate moves hold their coordinates as int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def dump_certificate(cert: Certificate) -> str:
    tokens = TokenTable(cert.codomain).tokens
    lines = [
        f"dcert v1 codomain={cert.codomain.name} "
        f"w={cert.common_rect.m} h={cert.common_rect.n}",
        "start",
    ]
    lines += _grid_to_lines(cert.start.array, tokens)
    lines.append("moves")
    mv = cert.moves
    lines += [
        f"S {a} {b} {tokens[v]}"
        for a, b, v in zip(mv.a.tolist(), mv.b.tolist(), mv.label.tolist())
    ]
    lines.append("end")
    lines += _grid_to_lines(cert.end.array, tokens)
    return "\n".join(lines) + "\n"


def load_certificate(
    text: str, codomain: DigitalImage | None = None
) -> tuple[Certificate, list[int]]:
    """Parse a certificate; also returns the source line of each move.

    The basepoint is read off the corner cell (0,0) of the start grid (the
    whole boundary must agree with it).
    """
    lines = _body_lines(text)
    if not lines:
        raise ParseError("empty document", 1)
    lno, header = lines[0]
    toks = header.split()
    if len(toks) != 5 or toks[0] != "dcert" or toks[1] != "v1":
        raise ParseError(
            "expected header: dcert v1 codomain=<name> w=<m> h=<n>", lno
        )
    cod = _resolve_codomain(_parse_kv(toks[2], "codomain", lno), codomain, lno)
    try:
        m = int(_parse_kv(toks[3], "w", lno))
        n = int(_parse_kv(toks[4], "h", lno))
    except ValueError:
        raise ParseError("width/height must be integers", lno) from None
    if m < 0 or n < 0:
        raise ParseError("width/height must be >= 0", lno)

    table = TokenTable(cod)
    body = lines[1:]
    if not body or body[0][1].strip() != "start":
        raise ParseError("expected 'start' section", body[0][0] if body else lno)
    if len(body) < n + 2:
        raise ParseError("truncated start grid", body[-1][0])
    start_rows = body[1 : n + 2]
    start_arr = _parse_grid_rows(start_rows, m, n, table)
    bp = int(start_arr[0, 0])
    start = _grid_map(start_arr, cod, bp, table, start_rows)

    k = n + 2  # walks body by index: slicing it per move would be quadratic
    if k == len(body) or body[k][1].strip() != "moves":
        raise ParseError("expected 'moves' section", body[k][0] if k < len(body) else lno)
    index = table.index
    move_a: list[int] = []
    move_b: list[int] = []
    move_labels: list[int] = []
    move_lines: list[int] = []
    for k in range(k + 1, len(body)):
        mlno, line = body[k]
        mt = line.split()
        if len(mt) != 4 or mt[0] != "S":
            if mt == ["end"]:
                break
            raise ParseError("expected move line: S <a> <b> <token>", mlno)
        try:
            a, b = int(mt[1]), int(mt[2])
        except ValueError:
            raise ParseError("move coordinates must be integers", mlno) from None
        if not (_INT64_MIN <= a <= _INT64_MAX and _INT64_MIN <= b <= _INT64_MAX):
            raise ParseError("move coordinates must fit in 64 bits", mlno)
        idx = index(mt[3])
        if idx is None:
            raise ParseError(f"unknown label token {mt[3]!r}", mlno)
        move_a.append(a)
        move_b.append(b)
        move_labels.append(idx)
        move_lines.append(mlno)
    else:
        raise ParseError("expected 'end' section", lines[-1][0])
    end_rows = body[k + 1 :]
    if len(end_rows) > n + 1:
        raise ParseError("unexpected content after end grid", end_rows[n + 1][0])
    end = _grid_map(_parse_grid_rows(end_rows, m, n, table), cod, bp, table, end_rows)

    cert = Certificate(
        codomain=cod,
        basepoint=bp,
        common_rect=Rectangle(m, n),
        start=start,
        moves=PackedMoves(move_a, move_b, move_labels),
        end=end,
    )
    return cert, move_lines
