import re
import time
import tracemalloc

import numpy as np
import pytest

import dpi2 as d
from dpi2 import ParseError, verify
from dpi2.formats import TokenTable

from conftest import DATA, grid, T_TEXT

GOLDEN_CERT = DATA / "doubling_T.dcert"  # dump of doubling_trace(T, 4, 0)


def test_map_roundtrip_is_exact():
    for seed in range(10):
        f = d.gen_random(seed, 6, 5, moves=14, plant=seed % 2)
        doc = d.dump_map(f)
        g = d.load_map(doc)
        assert g.values == f.values and g.rect == f.rect
        assert g.codomain == f.codomain and g.basepoint == f.basepoint
        assert d.dump_map(g) == doc  # canonical documents are stable bytes


def test_map_header_uses_explicit_basepoint(T):
    doc = d.dump_map(T)
    head = doc.splitlines()[0]
    assert head == "dmap v1 w=4 h=4 codomain=S2 basepoint=-1"


def test_dot_alias_reads_as_negative_e1(T):
    assert grid(T_TEXT).values == T.values  # T_TEXT is written with dots


def test_load_map_rejects_dot_basepoint_header():
    doc = "dmap v1 w=1 h=1 codomain=S2 basepoint=.\n. .\n. .\n"
    with pytest.raises(ParseError):
        d.load_map(doc)


@pytest.mark.parametrize(
    "load, head",
    [
        (d.load_map, "dmap v1 {} {} codomain=S2 basepoint=-1"),
        (d.load_certificate, "dcert v1 codomain=S2 {} {}"),
    ],
)
def test_header_size_errors_name_what_is_wrong(load, head):
    # A misnamed key is reported as such, not as a non-integer size.
    for w, h, message in (
        ("x=4", "h=4", "expected w=<value>, got 'x=4'"),
        ("w=4", "y=4", "expected h=<value>, got 'y=4'"),
        ("w=four", "h=4", "width/height must be integers"),
        ("w=4", "h=-1", "width/height must be >= 0"),
    ):
        with pytest.raises(ParseError) as ei:
            load(head.format(w, h) + "\n")
        assert str(ei.value) == f"line 1: {message}"


def test_load_map_rejects_an_unknown_basepoint_and_extra_rows():
    with pytest.raises(ParseError) as ei:
        d.load_map("dmap v1 w=0 h=0 codomain=S2 basepoint=7\n.\n")
    assert str(ei.value) == "line 1: unknown basepoint token '7'"
    with pytest.raises(ParseError) as ei:
        d.load_map("dmap v1 w=0 h=0 codomain=S2 basepoint=-1\n.\n\n.\n")
    assert str(ei.value) == "line 4: unexpected content after grid rows"


def test_load_map_diagnoses_unknown_token():
    doc = "dmap v1 w=2 h=2 codomain=S2 basepoint=-1\n. . .\n. q .\n. . .\n"
    with pytest.raises(ParseError) as ei:
        d.load_map(doc)
    assert ei.value.line == 3 and ei.value.col == 3


def test_load_map_diagnoses_row_and_column_miscounts():
    with pytest.raises(ParseError):
        d.load_map("dmap v1 w=2 h=2 codomain=S2 basepoint=-1\n. . .\n. . .\n")
    with pytest.raises(ParseError):
        d.load_map(
            "dmap v1 w=2 h=2 codomain=S2 basepoint=-1\n. . .\n. . . .\n. . .\n"
        )


def test_load_map_rejects_discontinuity_with_location():
    doc = "dmap v1 w=3 h=3 codomain=S2 basepoint=-1\n. . . .\n. 2 . .\n. -2 2 .\n. . . .\n"
    with pytest.raises(ParseError) as ei:
        d.load_map(doc)
    assert ei.value.line is not None


def test_load_map_rejects_boundary_violation():
    doc = "dmap v1 w=2 h=2 codomain=S2 basepoint=-1\n. 2 .\n. . .\n. . .\n"
    with pytest.raises(ParseError) as ei:
        d.load_map(doc)
    assert "boundary" in str(ei.value)


def test_grid_diagnostics_name_the_first_bad_cell_bottom_row_first():
    # Two boundary violations: the scan runs b = 0 (the last line) upwards.
    doc = "dmap v1 w=2 h=2 codomain=S2 basepoint=-1\n. 2 .\n. . .\n. . 3\n"
    with pytest.raises(ParseError) as ei:
        d.load_map(doc)
    assert str(ei.value) == (
        "line 4, column 5: boundary cell (2,0) is '3', expected basepoint '.'"
    )
    doc = "dmap v1 w=3 h=3 codomain=S2 basepoint=-1\n. . . .\n. 2 . .\n. -2 2 .\n. . . .\n"
    with pytest.raises(ParseError) as ei:
        d.load_map(doc)
    assert str(ei.value) == (
        "line 4, column 3: cells (1,1) and (2,1) carry non-adjacent labels '-2' and '2'"
    )


def test_load_map_checks_codomain_consistency(T):
    doc = d.dump_map(T)
    with pytest.raises(ParseError):
        d.load_map(doc, codomain=d.make_sphere(1))
    assert d.load_map(doc, codomain=d.S2).values == T.values


def test_unknown_codomain_needs_explicit_image():
    doc = "dmap v1 w=1 h=1 codomain=mystery basepoint=0\n0 0\n0 0\n"
    with pytest.raises(ParseError):
        d.load_map(doc)
    img = d.DigitalImage(
        name="mystery", points=((0,), (1,)), adjacency=d.Explicit.from_pairs([(0, 1)])
    )
    f = d.load_map(doc, codomain=img)
    assert f.basepoint == 0


def test_non_sphere_codomains_use_decimal_tokens():
    img = d.DigitalImage(
        name="path3",
        points=((0,), (1,), (2,)),
        adjacency=d.Explicit.from_pairs([(0, 1), (1, 2)]),
    )
    f = d.constant_map(d.Rectangle(2, 2), img, 1)
    doc = d.dump_map(f)
    assert " . " not in doc and "1" in doc
    assert d.load_map(doc, codomain=img).values == f.values
    # the dot alias stays sphere-only
    bad = doc.replace("1 1 1", "1 . 1", 1)
    with pytest.raises(ParseError):
        d.load_map(bad, codomain=img)


def test_certificate_roundtrip(T):
    cls, cert = d.pi2_class(T)
    doc = d.dump_certificate(cert)
    cert2, lines = d.load_certificate(doc)
    assert cert2.moves == cert.moves
    assert cert2.start.values == cert.start.values
    assert cert2.end.values == cert.end.values
    assert len(lines) == len(cert.moves)
    assert d.dump_certificate(cert2) == doc
    assert d.verify_certificate(cert2).ok


def test_certificate_reads_basepoint_from_corner(T):
    f = d.border_wrap(T, 1)  # basepoint e2, not -e1
    cert = d.Certificate(start=f, moves=(), end=f)
    doc = d.dump_certificate(cert)
    cert2, _ = d.load_certificate(doc)
    assert cert2.basepoint == 1


def test_certificate_move_lines_point_at_the_file():
    t = grid(T_TEXT)
    cert = d.Certificate(start=t, moves=(), end=t)
    doc = d.dump_certificate(cert)
    # append a bogus move by hand right before the end section
    lines = doc.splitlines()
    at = lines.index("end")
    lines.insert(at, "S 1 1 -2")
    cert2, mlines = d.load_certificate("\n".join(lines) + "\n")
    assert mlines == [at + 1]  # 1-based line number of the injected move
    res = d.verify_certificate(cert2)
    assert not res.ok and res.move_index == 0


def test_certificate_parse_errors(T):
    doc = d.dump_certificate(d.Certificate(start=T, moves=(), end=T))
    with pytest.raises(ParseError):
        d.load_certificate(doc.replace("moves", "mves", 1))
    with pytest.raises(ParseError):
        d.load_certificate(doc.replace("dcert", "dquux", 1))
    truncated = "\n".join(doc.splitlines()[:4])
    with pytest.raises(ParseError):
        d.load_certificate(truncated)


def test_end_grid_faults_name_their_source_line():
    # The end grid is found past the canonical "end" line, and past one that
    # only the per-line grammar reads as the end of the moves.
    lines = GOLDEN_CERT.read_text().split("\n")
    at_end = lines.index("end")
    for spelled in ("end", "end "):
        for row in range(at_end + 1, len(lines) - 1):
            bad = lines.copy()
            bad[at_end] = spelled
            bad[row] = "q" + bad[row][1:]
            with pytest.raises(ParseError) as ei:
                d.load_certificate("\n".join(bad))
            assert str(ei.value) == (
                f"line {row + 1}, column 1: unknown label token 'q' for codomain S2"
            )


def test_token_helpers():
    table = TokenTable(d.S2)
    assert table.tokens[3] == "."
    assert table.tokens[4] == "-2"
    assert table.index(".") == 3
    assert table.index("-3") == 5
    assert table.index("7") is None


def _sphere_token_reference(token, n):
    """The parse of an S<n> label token that the canonical table replaced."""
    m = re.fullmatch(r"(-?)([1-9]\d*)", token)
    if not m or int(m.group(2)) > n + 1:
        return None
    return (int(m.group(2)) - 1) + (n + 1 if m.group(1) else 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_tokens_resolve_as_the_axis_rule_did(n):
    # Every token the axis rule reads is canonical, so the table alone
    # resolves the same ones; "." is the one alias the rule never read.
    table = TokenTable(d.make_sphere(n))
    odd = ["01", "+1", "-0", "0", "-01", "1.0", "--1", "1\u0660", str(n + 2), f"-{n + 2}"]
    for token in [*table.tokens, "-1", *odd]:
        if token != ".":
            assert table.index(token) == _sphere_token_reference(token, n), token
    assert table.index(".") == n + 1
    assert [table.index(t) for t in table.tokens] == list(range(2 * n + 2))


def test_golden_certificate_round_trips_byte_for_byte():
    doc = GOLDEN_CERT.read_text()
    cert, lines = d.load_certificate(doc)
    assert d.dump_certificate(cert) == doc
    assert d.verify_certificate(cert).ok and len(lines) == len(cert.moves)
    # the fixture exercises every S2 token in its grids and in its moves
    body = doc.splitlines()
    grids = body[2:7] + body[-5:]
    six = {"1", "2", "3", ".", "-2", "-3"}
    assert {t for row in grids for t in row.split()} == six
    assert {ln.split()[3] for ln in body if ln.startswith("S ")} == six


def test_dot_and_minus_one_load_to_the_same_certificate():
    doc = GOLDEN_CERT.read_text()
    spelled = re.sub(r"(?<!\S)\.(?!\S)", "-1", doc)
    assert "." not in spelled and spelled != doc
    a, _ = d.load_certificate(doc)
    b, _ = d.load_certificate(spelled)
    assert a.start.values == b.start.values and a.end.values == b.end.values
    assert a.moves == b.moves
    assert d.dump_certificate(b) == doc


def test_non_standard_six_point_s2_keeps_decimal_tokens():
    fake = d.DigitalImage(
        name="S2",
        points=tuple((i, 0) for i in range(6)),
        adjacency=d.Explicit.from_pairs([(i, i + 1) for i in range(5)]),
    )
    table = TokenTable(fake)
    assert table.tokens[3] == "3"
    assert table.index("3") == 3
    assert table.index(".") is None
    assert table.index("-1") is None
    # non-canonical decimal spellings still go through the numeric parse
    assert table.index("005") == 5
    assert table.index("007") is None  # 7 is past the last point
    f = d.constant_map(d.Rectangle(2, 2), fake, 3)
    doc = d.dump_map(f)
    assert doc.splitlines()[1] == "3 3 3"
    assert d.load_map(doc, codomain=fake).values == f.values
    assert d.load_map(doc.replace("3 3 3", "003 3 3", 1), codomain=fake).values == f.values


def _toggle_certificate(n_pairs: int) -> d.Certificate:
    """An identity certificate padded with legal there-and-back moves."""
    # Pair k takes cell (1 + k % 19, 1 + k // 19 % 19) to e2 and back.
    sea = d.constant_map(d.Rectangle(20, 20), d.S2, d.BASEPOINT)
    k = np.arange(n_pairs)
    a, b = np.repeat(1 + k % 19, 2), np.repeat(1 + k // 19 % 19, 2)
    label = np.tile([1, d.BASEPOINT], n_pairs)
    moves = verify.PackedMoves(a, b, label)
    return d.Certificate(start=sea, moves=moves, end=sea)


def test_certificate_load_is_linear_in_moves():
    def us_per_move(n_pairs):
        doc = d.dump_certificate(_toggle_certificate(n_pairs))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            cert, _ = d.load_certificate(doc)
            best = min(best, time.perf_counter() - t0)
        assert len(cert.moves) == 2 * n_pairs
        return best / (2 * n_pairs) * 1e6

    small, large = us_per_move(2_500), us_per_move(40_000)
    assert large <= 2 * small, f"{large:.2f} us/move at 80k vs {small:.2f} at 5k"


def _traced_peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` holds at its peak, result included (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_certificate_text_io_memory_is_bounded_by_the_document():
    # The loaded moves and their line numbers take 32 bytes a move, about
    # 3.5 times these 9-byte move lines; one block's temporaries come on top.
    cert = _toggle_certificate(100_000)
    doc = d.dump_certificate(cert)
    assert len(cert.moves) == 200_000 and len(doc) < 10 * 200_000
    load_peak = _traced_peak(d.load_certificate, doc)
    assert load_peak < 6 * len(doc), f"load peaks at {load_peak / len(doc):.1f}x the text"
    dump_peak = _traced_peak(d.dump_certificate, cert)
    assert dump_peak < 3 * len(doc), f"dump peaks at {dump_peak / len(doc):.1f}x the text"


def test_verify_memory_is_bounded_by_a_block():
    # The up-front range checks take two bytes a move; the replay holds one
    # block's arrays at a time, not nine lookups for every move at once.
    cert = _toggle_certificate(400_000)
    peak = _traced_peak(d.verify_certificate, cert)
    assert peak < 16_000_000, f"verify of 800k moves peaks at {peak / 1e6:.1f} MB"


def _with_first_move(doc: str, move: str) -> tuple[str, int]:
    """``doc`` with its first move line replaced, and that line's number."""
    lines = doc.split("\n")
    k = lines.index("moves") + 1
    lines[k] = move
    return "\n".join(lines), k + 1


def test_certificate_move_coordinates_must_fit_in_int64(T):
    doc = d.dump_certificate(d.doubling_trace(T, 4, 0))
    for a in (2**63 - 1, -(2**63)):
        cert, _ = d.load_certificate(_with_first_move(doc, f"S {a} 2 1")[0])
        res = d.verify_certificate(cert)
        assert res.move_index == 0 and "exterior cell" in res.reason
    for a, b in ((2**63, 2), (2, -(2**63) - 1), (10**30, 1)):
        bad, line = _with_first_move(doc, f"S {a} {b} 1")
        with pytest.raises(ParseError) as e:
            d.load_certificate(bad)
        assert e.value.line == line
        assert str(e.value) == f"line {line}: move coordinates must fit in 64 bits"


def test_sparse_and_extreme_move_coordinates_dump_and_load(T):
    # Values spread far apart are formatted one per distinct value, not per
    # value in their range.
    moves = [((2**63 - 1, 1), 0), ((-(2**63), 7), 3), ((1, 10**12), 4), ((1, 1), 5)]
    cert = d.Certificate(
        start=T, moves=tuple(d.SpiderMove(at, v) for at, v in moves), end=T
    )
    doc = d.dump_certificate(cert)
    lines = doc.split("\n")
    k = lines.index("moves") + 1
    assert lines[k : k + 5] == [
        f"S {a} {b} {TokenTable(d.S2).tokens[v]}" for (a, b), v in moves
    ] + ["end"]
    cert2, move_lines = d.load_certificate(doc)
    assert cert2.moves == cert.moves and move_lines.tolist() == [k + 1, k + 2, k + 3, k + 4]


def test_valid_grids_are_not_walked_again_for_diagnostics(T, monkeypatch):
    # GridMap validates a parsed grid; _check_grid only locates faults.
    doc_map, doc_cert = d.dump_map(T), d.dump_certificate(d.doubling_trace(T, 4, 0))

    def refuse(*args):
        raise AssertionError("_check_grid ran on a valid grid")

    monkeypatch.setattr(d.formats, "_check_grid", refuse)
    assert d.load_map(doc_map).values == T.values
    assert d.verify_certificate(d.load_certificate(doc_cert)[0]).ok
