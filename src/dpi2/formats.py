"""Text formats: `.dmap` grid maps and `.dcert` certificates.

Both are line-oriented UTF-8 with LF endings.  Grid bodies are written
top row first (row b = n down to b = 0) so files read like the rendered grid.
Sphere codomains use signed axis tokens (`1 2 3 -1 -2 -3` for the 2-sphere)
with `.` as an alias for `-1`.  A file names its codomain: the spheres `S<n>`
resolve by name, and any other codomain must be passed in by the caller;
its labels are decimal point indices, with no dot alias.

Parsers reject malformed, discontinuous, or boundary-violating input with
1-based line/column diagnostics (ParseError) rather than stack traces.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .grid import DigitalImage, grid_fault
from .gridmap import GridMap, from_array
from .sphere import make_sphere
from .verify import Certificate, PackedMoves


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


def _lines_from(
    text: str, pos: int, lno: int, stop: int | None = None
) -> Iterator[tuple[int, str, int]]:
    """The non-blank lines of ``text[pos:stop]``, where ``pos`` starts line lno.

    Yields (1-based line number, content, offset past the line's newline),
    reading only as far as the caller asks.
    """
    stop = len(text) if stop is None else stop
    while pos < stop:
        nl = text.find("\n", pos, stop)
        end = stop if nl < 0 else nl
        raw = text[pos:end]
        if raw and not raw.isspace():
            yield lno, raw, end + 1
        pos, lno = end + 1, lno + 1


def _parse_kv(token: str, key: str, line: int) -> str:
    if not token.startswith(key + "="):
        raise ParseError(f"expected {key}=<value>, got {token!r}", line)
    return token[len(key) + 1 :]


def _parse_size(w_token: str, h_token: str, line: int) -> tuple[int, int]:
    """The header's w=<m> h=<n>: two integers >= 0."""
    w, h = _parse_kv(w_token, "w", line), _parse_kv(h_token, "h", line)
    try:
        m, n = int(w), int(h)
    except ValueError:
        raise ParseError("width/height must be integers", line) from None
    if m < 0 or n < 0:
        raise ParseError("width/height must be >= 0", line)
    return m, n


# ---------------------------------------------------------------------------
# Label tokens.


def _sphere_n(codomain: DigitalImage) -> int | None:
    """The n for which this codomain is exactly the standard n-sphere."""
    m = re.fullmatch(r"S([1-9][0-9]*)", codomain.name)
    if m and codomain == make_sphere(int(m.group(1))):
        return int(m.group(1))
    return None


class TokenTable:
    """A codomain's label tokens, resolved once per document.

    ``tokens[i]`` is the canonical token of point index i; ``indices`` maps
    each canonical token (and ``-1`` on a sphere) back to its index.  A
    sphere has no other spellings; on any other codomain a decimal with
    leading zeros, such as ``007``, still names point 7.
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
        if idx is None and self.sphere_n is None and re.fullmatch(r"[0-9]+", token):
            # Zeros aside, a decimal longer than the point count is past the
            # last point; int() would refuse one of over 4,300 digits.
            digits = token.lstrip("0") or "0"
            if len(digits) > len(str(len(self.tokens))):
                return None
            idx = int(digits)
            return idx if idx < len(self.tokens) else None
        return idx


def _resolve_codomain(name: str, provided: DigitalImage | None, line: int) -> DigitalImage:
    if provided is not None:
        if provided.name != name:
            raise ParseError(
                f"file declares codomain {name!r} but {provided.name!r} was supplied",
                line,
            )
        return provided
    m = re.fullmatch(r"S([1-9][0-9]*)", name)
    if m:
        return make_sphere(int(m.group(1)))
    raise ParseError(
        f"unknown codomain {name!r}; only the spheres S1, S2, ... are built in",
        line,
    )


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
    canonical, index = table.indices.get, table.index
    top_first = []
    for lno, line in rows:
        toks = line.split()
        if len(toks) != m + 1:
            raise ParseError(
                f"row has {len(toks)} labels, expected {m + 1}",
                lno,
                _tokens_with_cols(line)[-1][1] if len(toks) > m + 1 else None,
            )
        row = list(map(canonical, toks))
        if None in row:  # some token is not canonical: parse the row in full
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
    """Raise the grid's first boundary or continuity fault at its source."""
    fault = grid_fault(arr, basepoint, table.codomain)
    if fault is None:
        return
    tokens = table.tokens
    a, b = fault[0]
    lno, line = rows[arr.shape[0] - 1 - b]
    col = _tokens_with_cols(line)[a][1]
    if len(fault) == 1:
        raise ParseError(
            f"boundary cell ({a},{b}) is {tokens[arr[b, a]]!r}, expected "
            f"basepoint {tokens[basepoint]!r}",
            lno,
            col,
        )
    a2, b2 = fault[1]
    raise ParseError(
        f"cells ({a},{b}) and ({a2},{b2}) carry non-adjacent labels "
        f"{tokens[arr[b, a]]!r} and {tokens[arr[b2, a2]]!r}",
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
    lines = [(i, raw) for i, raw, _ in _lines_from(text, 0, 1)]
    if not lines:
        raise ParseError("empty document", 1)
    lno, header = lines[0]
    toks = header.split()
    if len(toks) != 6 or toks[0] != "dmap" or toks[1] != "v1":
        raise ParseError(
            "expected header: dmap v1 w=<m> h=<n> codomain=<name> basepoint=<token>",
            lno,
        )
    m, n = _parse_size(toks[2], toks[3], lno)
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

# Move lines are read and written in blocks, so that one block's temporaries
# bound the memory used beyond the document and the move arrays.  A load
# block of _LOAD_BLOCK characters holds at most 16k of the shortest move
# lines ("S 1 1 1\n"); a dump block holds _DUMP_BLOCK (16k) moves.
_LOAD_BLOCK = 1 << 17
_DUMP_BLOCK = 1 << 14


def _strings(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt.format(x)`` for each x in values, as an object array.

    One string is formatted per distinct value and then gathered, so no
    string is built per element.
    """
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < len(values):
        table, at = range(lo, hi + 1), values - lo
    else:  # sparse values: a table over their range would be larger than they are
        distinct, at = np.unique(values, return_inverse=True)
        table = distinct.tolist()
    return np.array([fmt.format(x) for x in table], dtype=object)[at]


def _move_blocks(moves: PackedMoves, tokens: tuple[str, ...]) -> Iterator[str]:
    """The move lines ``S <a> <b> <token>\\n``, joined _DUMP_BLOCK moves at a time."""
    ends = np.array([tok + "\n" for tok in tokens], dtype=object)
    a, b, label = moves.a, moves.b, moves.label
    for i in range(0, len(a), _DUMP_BLOCK):
        j = i + _DUMP_BLOCK
        fields = np.empty((len(a[i:j]), 3), dtype=object)
        fields[:, 0] = _strings(a[i:j], "S {} ")
        fields[:, 1] = _strings(b[i:j], "{} ")
        fields[:, 2] = ends[label[i:j]]
        yield "".join(fields.ravel().tolist())


def dump_certificate(cert: Certificate) -> str:
    tokens = TokenTable(cert.codomain).tokens
    head = [
        f"dcert v1 codomain={cert.codomain.name} "
        f"w={cert.common_rect.m} h={cert.common_rect.n}",
        "start",
        *_grid_to_lines(cert.start.array, tokens),
        "moves",
        "",
    ]
    tail = ["end", *_grid_to_lines(cert.end.array, tokens), ""]
    return "".join(
        ["\n".join(head), *_move_blocks(cert.moves, tokens), "\n".join(tail)]
    )


def _token_keys(table: TokenTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's tokens as sorted integer keys, and the label of each key.

    A key packs a token's bytes and its length, so equal keys are equal
    tokens.  Tokens longer than 7 bytes get no key.
    """
    keyed = sorted(
        (len(tok) << 56 | int.from_bytes(tok.encode("ascii"), "little"), idx)
        for tok, idx in table.indices.items()
        if len(tok) <= 7
    )
    keys, labels = zip(*keyed)
    return np.array(keys, dtype=np.uint64), np.array(labels, dtype=np.int64)


def _decimals(u: np.ndarray, start: np.ndarray, stop: np.ndarray, zero: int):
    """The fields ``u[start:stop]`` as int64, or None unless each is -?[0-9]{1,18}.

    ``u[zero]`` is the byte ``0``, read in place of the digits a field lacks.
    """
    neg = u[start] == ord("-")
    width = stop - start - neg
    if width.min() < 1 or width.max() > 18:
        return None
    value = np.zeros(len(start), dtype=np.int64)
    for j in range(int(width.max())):
        digit = u[np.where(j < width, stop - 1 - j, zero)] - np.uint8(ord("0"))
        if (digit > 9).any():  # bytes below '0' wrap around past 9
            return None
        value += digit.astype(np.int64) * 10**j
    return np.where(neg, -value, value)


def _token_labels(
    u: np.ndarray, start: np.ndarray, stop: np.ndarray, nul: int,
    keys: np.ndarray, labels: np.ndarray,
):
    """The labels of the tokens ``u[start:stop]``, or None unless all have keys.

    ``u[nul]`` is a zero byte, read in place of the bytes a token lacks.
    """
    width = stop - start
    if width.min() < 1 or width.max() > 7:
        return None
    key = width.astype(np.uint64) << np.uint64(56)
    for j in range(int(width.max())):
        key |= u[np.where(j < width, start + j, nul)].astype(np.uint64) << np.uint64(8 * j)
    at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    if not (keys[at] == key).all():
        return None
    return labels[at]


def _scan_moves(block: str, keys: np.ndarray, labels: np.ndarray):
    """Parse a block of canonical move lines in one pass over its bytes.

    A canonical line is ``S <a> <b> <token>\\n`` with single spaces, ASCII
    only, coordinates matching -?[0-9]{1,18} (so they fit int64) and a token
    with a key: what dump_certificate writes.  Returns the a, b and label
    arrays, or None if any line of the block is not canonical.
    """
    if not (block.isascii() and block.endswith("\n")):
        return None
    u = np.frombuffer(block.encode("ascii") + b"0\0", dtype=np.uint8)
    zero, nul = len(u) - 2, len(u) - 1
    nl = np.flatnonzero(u == ord("\n"))
    sp = np.flatnonzero(u == ord(" "))
    if len(sp) != 3 * len(nl):
        return None
    # With three spaces per line in all, a line whose first space follows its
    # leading S and whose third precedes its newline has no other space.
    sp = sp.reshape(-1, 3)
    line_start = np.concatenate(([0], nl[:-1] + 1))
    if not (
        (u[line_start] == ord("S")).all()
        and (sp[:, 0] == line_start + 1).all()
        and (sp[:, 2] < nl).all()
    ):
        return None
    a = _decimals(u, sp[:, 0] + 1, sp[:, 1], zero)
    b = _decimals(u, sp[:, 1] + 1, sp[:, 2], zero)
    label = _token_labels(u, sp[:, 2] + 1, nl, nul, keys, labels)
    if a is None or b is None or label is None:
        return None
    return a, b, label


def _parse_move_lines(lines: Iterator[tuple[int, str, int]], index):
    """The move-line grammar, one line at a time, up to an ``end`` line.

    This loop is the one definition of the grammar and of its ParseErrors;
    ``_scan_moves`` accepts only lines it reads the same way.  Returns the
    moves as lists a, b, label and source line, and the ``end`` line's
    (number, offset past it), or None if the lines ran out first.
    """
    rows: tuple[list[int], ...] = ([], [], [], [])
    for mlno, line, after in lines:
        mt = line.split()
        if len(mt) != 4 or mt[0] != "S":
            if mt == ["end"]:
                return rows, (mlno, after)
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
        for row, x in zip(rows, (a, b, idx, mlno)):
            row.append(x)
    return rows, None


def _parse_moves(
    text: str, pos: int, mlno: int, table: TokenTable
) -> tuple[PackedMoves, np.ndarray, tuple[int, int]]:
    """The moves after the ``moves`` line (line mlno, ending at offset pos).

    Returns the moves, their source lines as a read-only int64 array, and
    the ``end`` line's (number, offset past it).  The section runs to the
    first line reading exactly ``end``; it is parsed in blocks, each by
    ``_scan_moves`` or, if that refuses it, by ``_parse_move_lines``, which
    may also find an earlier, non-canonical ``end`` line.
    """
    keys, labels = _token_keys(table)
    found = text.find("\nend\n", pos - 1)
    stop = len(text) if found < 0 else found + 1
    # No more moves than lines, and none shorter than "S 1 1 1\n".
    cap = min(text.count("\n", pos, stop), (stop - pos) // 8) + 1
    abl = np.empty((3, cap), dtype=np.int64)
    move_lines = np.empty(cap, dtype=np.int64)
    count, lno, end = 0, mlno + 1, None
    while pos < stop and end is None:
        cut = text.find("\n", min(pos + _LOAD_BLOCK, stop) - 1, stop)
        block_end = stop if cut < 0 else cut + 1
        block = text[pos:block_end]
        scanned = _scan_moves(block, keys, labels)
        if scanned is not None:
            k = len(scanned[0])
            abl[:, count : count + k] = scanned
            move_lines[count : count + k] = np.arange(lno, lno + k)
            lno += k
        else:
            block_lines = _lines_from(text, pos, lno, block_end)
            rows, end = _parse_move_lines(block_lines, table.index)
            k = len(rows[0])
            abl[:, count : count + k] = rows[:3]
            move_lines[count : count + k] = rows[3]
            lno += block.count("\n")
        count += k
        pos = block_end
    if end is None:
        if found < 0:
            raise ParseError(
                "expected 'end' section", int(move_lines[count - 1]) if count else mlno
            )
        end = lno, stop + len("end\n")
    move_lines = move_lines[:count]
    move_lines.setflags(write=False)
    return PackedMoves._adopt(abl[:, :count]), move_lines, end


def load_certificate(
    text: str, codomain: DigitalImage | None = None
) -> tuple[Certificate, np.ndarray]:
    """Parse a certificate; also returns the source line of each move.

    The line numbers are a read-only int64 array, one per move.  The
    basepoint is read off the corner cell (0,0) of the start grid (the
    whole boundary must agree with it).
    """
    lines = _lines_from(text, 0, 1)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty document", 1)
    lno, header, _ = first
    toks = header.split()
    if len(toks) != 5 or toks[0] != "dcert" or toks[1] != "v1":
        raise ParseError(
            "expected header: dcert v1 codomain=<name> w=<m> h=<n>", lno
        )
    cod = _resolve_codomain(_parse_kv(toks[2], "codomain", lno), codomain, lno)
    m, n = _parse_size(toks[3], toks[4], lno)

    table = TokenTable(cod)
    # A grid needs n + 1 lines, more than the text has when n > len(text).
    rows_wanted = min(n, len(text)) + 1
    head = list(islice(lines, rows_wanted + 2))  # start, the start grid, moves
    if not head or head[0][1].strip() != "start":
        raise ParseError("expected 'start' section", head[0][0] if head else lno)
    if len(head) < n + 2:
        raise ParseError("truncated start grid", head[-1][0])
    start_rows = [(i, row) for i, row, _ in head[1 : n + 2]]
    start_arr = _parse_grid_rows(start_rows, m, n, table)
    bp = int(start_arr[0, 0])
    start = _grid_map(start_arr, cod, bp, table, start_rows)

    if len(head) == n + 2 or head[n + 2][1].strip() != "moves":
        raise ParseError(
            "expected 'moves' section", head[n + 2][0] if len(head) > n + 2 else lno
        )
    mlno, _, pos = head[n + 2]
    moves, move_lines, (elno, pos) = _parse_moves(text, pos, mlno, table)
    end_rows = [
        (i, row) for i, row, _ in islice(_lines_from(text, pos, elno + 1), rows_wanted + 1)
    ]
    if len(end_rows) > n + 1:
        raise ParseError("unexpected content after end grid", end_rows[n + 1][0])
    end = _grid_map(_parse_grid_rows(end_rows, m, n, table), cod, bp, table, end_rows)

    return Certificate(start=start, moves=moves, end=end), move_lines
