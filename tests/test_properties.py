"""Property tests on maps from outside the `gen_random` distribution.

`gen_random` stacks degree stamps on a diagonal and scrambles them with a few
moves.  The maps drawn here are products, mirrors and subdivisions of such
maps and of the reference stamps, each then walked by random valid moves.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import dpi2 as d
from dpi2 import verify
from dpi2.formats import _scan_moves
from dpi2.homotopy import _TraceBuilder
from dpi2.normalize import _emit_subdivision

from conftest import brute_force_continuous, grid

LABELS = range(len(d.S2.points))


@st.composite
def small_maps(draw):
    if draw(st.booleans()):
        m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        seed, moves = draw(st.integers(0, 10_000)), draw(st.integers(0, 12))
        return d.gen_random(seed, m, n, moves=moves)
    return draw(st.sampled_from([d.degree_one_map(), d.inverse(d.degree_one_map())]))


@st.composite
def built_maps(draw):
    f = draw(small_maps())
    ops = st.sampled_from(["product", "inverse", "subdivide"])
    for op in draw(st.lists(ops, max_size=2)):
        if op == "product":
            f = d.product(f, draw(small_maps()))
        elif op == "inverse":
            f = d.inverse(f)
        elif f.rect.width <= 8 and f.rect.height <= 8:
            f = d.subdivide(f, draw(st.integers(2, 3)))
    return f


@st.composite
def walked_maps(draw):
    """A built map after up to 15 random moves, the invalid ones skipped."""
    f = draw(built_maps())
    for _ in range(draw(st.integers(0, 15))):
        cell = (draw(st.integers(1, f.rect.m - 1)), draw(st.integers(1, f.rect.n - 1)))
        mv = d.SpiderMove(cell, draw(st.sampled_from(LABELS)))
        if d.spider_valid(f, mv):
            f = d.apply_spider(f, mv)
    return f


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_spider_moves_are_reversible(data):
    # The premise of the oracle's backward search: a move back to the old
    # label is itself valid, and restores the map byte for byte.
    f = data.draw(walked_maps())
    valid = [
        d.SpiderMove((a, b), v)
        for a in range(1, f.rect.m)
        for b in range(1, f.rect.n)
        for v in LABELS
        if v != f.value_at(a, b) and d.spider_valid(f, d.SpiderMove((a, b), v))
    ]
    assume(valid)
    mv = data.draw(st.sampled_from(valid))
    g = d.apply_spider(f, mv)
    back = d.SpiderMove(mv.at, f.value_at(*mv.at))
    assert d.spider_valid(g, back)
    assert d.apply_spider(g, back).values == f.values


def _stepwise_shift(builder, axis, lo, hi, step, span, times):
    """The walks ``_TraceBuilder.shift`` batches, as one ``one_step`` per line."""
    s0, s1 = span if span is not None else (0, builder.rect.n if axis == "a" else builder.rect.m)
    for t in range(times):
        for j in range(hi, lo - 1, -1) if step > 0 else range(lo, hi + 1):
            j += t * step
            src = j - step
            if axis == "a":
                window = d.SubRect(j, j, s0, s1)
                block = builder.arr[s0 : s1 + 1, src : src + 1]
            else:
                window = d.SubRect(s0, s1, j, j)
                block = builder.arr[src : src + 1, s0 : s1 + 1]
            builder.one_step(window, block.copy())


@st.composite
def shifts(draw):
    """A map with some sea around it, and a walk over it that may go wrong.

    Walks touch the rectangle's edge, copy content into boundary lines, and
    now and then reach one line past the rectangle.
    """
    f = draw(walked_maps())
    f = d.trivial_extend(f, f.rect.m + draw(st.integers(0, 3)), f.rect.n + draw(st.integers(0, 3)))
    axis = draw(st.sampled_from("ab"))
    last_l, last_c = (f.rect.m, f.rect.n) if axis == "a" else (f.rect.n, f.rect.m)
    lo = draw(st.integers(0, last_l))
    hi = lo + draw(st.integers(0, min(6, last_l - lo)))
    span = None
    if draw(st.booleans()):
        s0 = draw(st.integers(0, last_c))
        span = (s0, draw(st.integers(s0, last_c)))
    past = draw(st.sampled_from(["", "", "", "", "", "lo", "hi", "span"]))
    if past == "lo":
        lo = -1
    elif past == "hi":
        hi = last_l + 1
    elif past == "span":
        span = (span or (0, last_c))[0], last_c + 1
    return f, (axis, lo, hi, draw(st.sampled_from([1, -1])), span, draw(st.integers(1, 3)))


@settings(max_examples=600, deadline=None)
@given(shifts(), st.booleans())
def test_batched_shift_matches_the_stepwise_walk(case, twice):
    f, walk = case
    batched, stepwise = _TraceBuilder(f), _TraceBuilder(f)
    if twice:  # the run checked below then meets only windows already checked
        try:
            batched.shift(*walk)
        except ValueError:
            pass
        batched.arr[...] = f.array
        batched._chunks.clear()
    try:
        _stepwise_shift(stepwise, *walk)
    except ValueError as exc:
        kinds = ("not a one-step homotopy", "boundary cell")
        event("raises: " + next((k for k in kinds if k in str(exc)), "bad walk or span"))
        with pytest.raises(ValueError) as caught:
            batched.shift(*walk)
        if "leaves" not in str(caught.value):  # in range: the same first bad step
            assert str(caught.value) == str(exc)
        assert (batched.arr == f.array).all() and batched.certificate().moves == ()
        return
    batched.shift(*walk)
    event(f"{'some' if stepwise.certificate().moves else 'no'} moves")
    assert (batched.arr == stepwise.arr).all()
    assert batched.certificate().moves == stepwise.certificate().moves


@pytest.mark.parametrize("text, walk, window, passed", [
    # A walk's first step: copying column 1's e2 into column 2 puts it beside
    # column 3's -e2, two lines from the source.
    (". . . . .\n. 2 3 -2 .\n. . . . .", ("a", 2, 2, 1, None, 1), d.SubRect(2, 2, 0, 2), 0),
    # A later step of a spanned walk: the first copies (2, 2) into (3, 2);
    # the second puts column 1's e2 at (2, 2), diagonal to -e2 at (3, 1),
    # just beyond the span's lower end.
    (
        ". . . . . .\n. 2 3 . . .\n. . . -2 . .\n. . . . . .",
        ("a", 2, 3, 1, (2, 2), 1),
        d.SubRect(2, 2, 2, 2),
        1,
    ),
])
def test_shift_fails_where_the_line_copy_rule_looks(text, walk, window, passed):
    f = grid(text)
    message = f"window rewrite at {window} is not a one-step homotopy"
    stepwise, batched = _TraceBuilder(f), _TraceBuilder(f)
    with pytest.raises(ValueError) as caught:
        _stepwise_shift(stepwise, *walk)
    assert str(caught.value) == message
    assert len(stepwise.certificate().moves) == passed  # the steps before the bad one
    with pytest.raises(ValueError) as caught:
        batched.shift(*walk)
    assert str(caught.value) == message
    assert (batched.arr == f.array).all() and batched.certificate().moves == ()


def _raster_moves(f, g):
    """The cells where g differs from f, as moves to g's labels, in raster order."""
    return [
        d.SpiderMove((a, b), g.value_at(a, b))
        for b in range(f.rect.n + 1)
        for a in range(f.rect.m + 1)
        if f.value_at(a, b) != g.value_at(a, b)
    ]


def _flood_moves(f, label):
    """Flood by ``label`` cell by cell: every interior cell with no antipode in sight."""
    anti = d.S2.point_index[tuple(-c for c in d.S2.points[label])]
    return [
        d.SpiderMove((a, b), label)
        for b in range(1, f.rect.n)
        for a in range(1, f.rect.m)
        if f.value_at(a, b) != label
        and all(f.value_at(a + da, b + db) != anti for da in (-1, 0, 1) for db in (-1, 0, 1))
    ]


@settings(max_examples=200, deadline=None)
@given(walked_maps(), st.sampled_from(LABELS))
def test_packed_decomposition_matches_a_raster_reference(f, label):
    g, moves = d.flood(f, label)
    event(f"{'some' if moves else 'no'} moves")
    assert moves == _flood_moves(f, label)
    assert d.decompose_one_step(f, g) == moves
    assert d.decompose_one_step(g, f) == _raster_moves(g, f)
    cur = f
    for mv in moves:  # every prefix is a continuous map
        cur = d.apply_spider(cur, mv)
    assert cur.values == g.values
    for arr in (moves.a, moves.b, moves.label):
        assert not arr.flags.writeable
    with pytest.raises(AttributeError):
        moves.append(d.SpiderMove((1, 1), label))


def _stepwise_subdivision(builder, f, k):
    """The subdivision walk as k - 1 separate one-line duplications per line."""
    for axis, count in (("a", f.rect.m), ("b", f.rect.n)):
        for p in range(0, k * count, k):
            for _ in range(k - 1):
                content = (builder.arr != d.BASEPOINT).any(axis=0 if axis == "a" else 1)
                last = int(np.nonzero(content)[0].max(initial=-1))
                if last >= p:
                    event(f"last non-sea line {'is' if last == p else 'past'} the duplicated line")
                    builder.shift(axis, p + 1, last + 1, 1)


@settings(max_examples=100, deadline=None)
@given(walked_maps(), st.integers(0, 2), st.sampled_from([5, 6]))
@example(d.degree_one_map(), 0, 5)
def test_subdivision_walks_each_line_once_with_the_same_moves(f, pad, k):
    # Every map with content duplicates its last non-sea line at least once,
    # where the walk's run is that line alone; sea padding adds lines past it.
    f = d.trivial_extend(f, f.rect.m + pad, f.rect.n + pad)
    big = d.trivial_extend(f, k * (f.rect.m + 1) - 1, k * (f.rect.n + 1) - 1)
    batched, stepwise = _TraceBuilder(big), _TraceBuilder(big)
    _emit_subdivision(batched, f, k)
    _stepwise_subdivision(stepwise, f, k)
    assert batched.certificate() == stepwise.certificate()
    assert (batched.arr == d.subdivide(f, k).array).all()


@st.composite
def certificate_documents(draw):
    """A .dcert text of two floods from a walked map, its move lines maybe mutated.

    Each mutation touches one line: mostly a move line, else the ``moves``
    line, the ``end`` line or a grid row.
    """
    f = draw(walked_maps())
    g, first = d.flood(f, draw(st.sampled_from(LABELS)))
    h, second = d.flood(g, draw(st.sampled_from(LABELS)))
    cert = d.Certificate(start=f, moves=(*first, *second), end=h)
    lines = d.dump_certificate(cert).split("\n")
    top, bottom = lines.index("moves"), lines.index("end")
    kind = draw(st.sampled_from(sorted(_MUTATIONS)))
    if draw(st.integers(0, 3)) or kind == "none":
        at = draw(st.integers(top + 1, max(top + 1, bottom - 1)))
    else:
        at = draw(st.sampled_from([1, top, bottom, bottom + 1, len(lines) - 2]))
    event(f"mutation: {kind}")
    lines[at : at + 1] = _MUTATIONS[kind](lines[at], draw)
    return "\n".join(lines), kind


def _coordinate(value):
    def mutate(line, draw):
        parts = line.split(" ")
        if len(parts) != 4:
            return [value]
        parts[draw(st.sampled_from([1, 2]))] = value
        return [" ".join(parts)]

    return mutate


def _token(line, draw):
    token = draw(st.sampled_from(["1", ".", "-3", "4", "x", "01"]))
    return [line.rpartition(" ")[0] + " " + token]


def _alias(line, draw):
    head, _, token = line.rpartition(" ")
    return [head + " -1" if token == "." else line.replace(".", "-1")]


_MUTATIONS = {
    "none": lambda line, draw: [line],
    "token": _token,
    "alias -1": _alias,
    "double space": lambda line, draw: [line.replace(" ", "  ", 1)],
    "leading space": lambda line, draw: [" " + line],
    "tab": lambda line, draw: [line.replace(" ", "\t", 1)],
    "carriage return": lambda line, draw: [line + "\r"],
    "blank line": lambda line, draw: ["", line],
    "lower-case s": lambda line, draw: [line.replace("S", "s", 1)],
    "negative": _coordinate("-3"),
    "plus sign": _coordinate("+5"),
    "arabic digit": _coordinate("٣"),
    "19 digits": _coordinate("1234567890123456789"),
    "past int64": _coordinate(str(2**63)),
    "int64 min": _coordinate(str(-(2**63))),
    "leading zeros": _coordinate("007"),
    "early end": lambda line, draw: ["end", line],
    "indented end": lambda line, draw: [" end"],
}


def _load_outcome(doc):
    try:
        cert, lines = d.load_certificate(doc)
    except d.ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    return (
        "ok",
        [mv.tolist() for mv in (cert.moves.a, cert.moves.b, cert.moves.label)],
        lines.tolist(),
        cert.start.values,
        cert.end.values,
    )


@settings(max_examples=300, deadline=None)
@given(certificate_documents(), st.sampled_from([16, 64, 1 << 17]))
def test_block_parsed_moves_match_the_per_line_grammar(case, block_chars):
    # Small blocks split the moves section at many places; a refused block
    # falls back to the per-line loop, which is the reference here.
    doc, kind = case
    accepted = []

    def spy(*args):
        result = _scan_moves(*args)
        accepted.append(result is not None)
        return result

    with mock.patch.object(d.formats, "_LOAD_BLOCK", block_chars):
        with mock.patch.object(d.formats, "_scan_moves", spy):
            got = _load_outcome(doc)
        with mock.patch.object(d.formats, "_scan_moves", lambda *args: None):
            want = _load_outcome(doc)
    assert got == want
    if kind == "none":
        assert got[0] == "ok" and all(accepted)
        cert, lines = d.load_certificate(doc)
        assert lines.dtype == np.int64 and not lines.flags.writeable
        assert d.dump_certificate(cert) == doc


def _replayed(f, moves):
    """The map f after ``moves``, all of them valid."""
    vals, w = bytearray(f.values), f.rect.width
    for a, b, v in zip(moves.a.tolist(), moves.b.tolist(), moves.label.tolist()):
        vals[b * w + a] = v
    return dataclasses.replace(f, values=bytes(vals))


def _unchecked_end(f, a, b, label):
    """f with cell (a, b) relabeled, built without GridMap's checks."""
    vals = bytearray(f.values)
    vals[b * f.rect.width + a] = label
    g = object.__new__(d.GridMap)
    g.__dict__.update(
        rect=f.rect, codomain=f.codomain, basepoint=f.basepoint, values=bytes(vals)
    )
    return g


@st.composite
def mutated_certificates(draw):
    """Up to 200 moves cut from a pi2_class or two-flood certificate, maybe mutated.

    A mutation changes one move's label or moves its cell by one, drops a
    move, duplicates one with a new label, swaps two, or relabels one cell
    of the end grid.
    """
    if draw(st.booleans()):
        cert = d.pi2_class(draw(small_maps()))[1]
    else:
        f = draw(walked_maps())
        g, first = d.flood(f, draw(st.sampled_from(LABELS)))
        h, second = d.flood(g, draw(st.sampled_from(LABELS)))
        cert = d.Certificate(start=f, moves=(*first, *second), end=h)
    lo = draw(st.integers(0, len(cert.moves)))
    hi = draw(st.integers(lo, min(lo + 200, len(cert.moves))))
    start = _replayed(cert.start, cert.moves[:lo])
    moves = list(cert.moves[lo:hi])
    end = _replayed(start, cert.moves[lo:hi])
    kinds = ["none", "label", "cell", "drop", "duplicate", "swap", "end cell"]
    kind = draw(st.sampled_from(kinds if moves else ["none", "end cell"]))
    event(f"mutation: {kind}")
    i = draw(st.integers(0, len(moves) - 1)) if moves else 0
    if kind == "label":  # now and then one past either end of the codomain
        moves[i] = d.SpiderMove(moves[i].at, draw(st.integers(-1, len(LABELS))))
    elif kind == "cell":
        (a, b), step = moves[i].at, draw(st.sampled_from([-1, 1]))
        at = (a + step, b) if draw(st.booleans()) else (a, b + step)
        moves[i] = d.SpiderMove(at, moves[i].new_value)
    elif kind == "drop":
        del moves[i]
    elif kind == "duplicate":
        moves.insert(i + 1, d.SpiderMove(moves[i].at, draw(st.sampled_from(LABELS))))
    elif kind == "swap":
        j = draw(st.integers(0, len(moves) - 1))
        moves[i], moves[j] = moves[j], moves[i]
    elif kind == "end cell":
        at = draw(st.integers(0, end.rect.m)), draw(st.integers(0, end.rect.n))
        end = _unchecked_end(end, *at, draw(st.sampled_from(LABELS)))
    return dataclasses.replace(cert, start=start, moves=moves, end=end)


def _move_by_move(cert):
    """verify_certificate's verdict, from a replay one move at a time.

    A move is legal iff the adjacency matrix makes its new label adjacent to
    each of the nine cells around it, the cell itself included.  Endpoints
    are checked cell by cell, their boundary first.
    """
    amat = cert.codomain.adjacency_matrix
    for name, g in (("start", cert.start), ("end", cert.end)):
        arr = g.array
        rim = np.concatenate([arr[0], arr[-1], arr[:, 0], arr[:, -1]])
        if (rim != g.basepoint).any():
            return False, f"{name} map boundary not pinned", None
        if not brute_force_continuous(arr, g.codomain):
            return False, f"{name} map not continuous", None
    cur, rect = np.array(cert.start.array), cert.common_rect
    for i, mv in enumerate(cert.moves):
        (a, b), v = mv.at, mv.new_value
        if not (0 < a < rect.m and 0 < b < rect.n):
            return False, f"move {i} targets boundary or exterior cell {mv.at}", i
        if v not in LABELS:
            return False, f"move {i} value {v} outside codomain", i
        if not amat[v, cur[b - 1 : b + 2, a - 1 : a + 2]].all():
            what = "a neighbor" if amat[v, cur[b, a]] else "current value"
            return False, f"move {i} at {mv.at}: new value not adjacent to {what}", i
        cur[b, a] = v
    if cur.tobytes() != cert.end.values:
        return False, "replayed moves do not reach the end map", None
    return True, None, None


@settings(max_examples=120, deadline=None)
@given(mutated_certificates())
def test_blocked_verifier_matches_a_move_by_move_replay(cert):
    # Blocks of 1, 2 and 7 moves put block edges between every kind of
    # dependent pair: a cell written twice, and a move next to a write.
    want = _move_by_move(cert)
    event("accepted" if want[0] else "rejected")
    for block in (1, 2, 7, verify._VERIFY_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_VERIFY_BLOCK", block)
            res = d.verify_certificate(cert)
        assert (res.ok, res.reason, res.move_index) == want, block
