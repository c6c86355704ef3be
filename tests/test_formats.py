import dataclasses
import re
import time

import pytest

import dpi2 as d
from dpi2 import ParseError

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


def test_image_roundtrip_sphere():
    doc = d.dump_image(d.S2)
    assert d.load_image(doc) == d.S2


def test_image_roundtrip_lattice():
    img = d.DigitalImage(
        name="Z2c1",
        points=tuple((a, b) for a in range(3) for b in range(3)),
        adjacency=d.LatticeCq(1),
    )
    assert d.load_image(d.dump_image(img)) == img


def test_image_parse_errors():
    with pytest.raises(ParseError):
        d.load_image("")
    with pytest.raises(ParseError):
        d.load_image("dimg v1 x dim=2 adj=c9000x\n0 0\n")
    with pytest.raises(ParseError):
        d.load_image("dimg v1 x dim=2 adj=c1\n0 0 0\n")  # wrong coordinate count


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
    cert = d.identity_certificate(d.border_wrap(T, 1))  # basepoint e2, not -e1
    doc = d.dump_certificate(cert)
    cert2, _ = d.load_certificate(doc)
    assert cert2.basepoint == 1


def test_certificate_move_lines_point_at_the_file():
    cert = d.identity_certificate(grid(T_TEXT))
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
    doc = d.dump_certificate(d.identity_certificate(T))
    with pytest.raises(ParseError):
        d.load_certificate(doc.replace("moves", "mves", 1))
    with pytest.raises(ParseError):
        d.load_certificate(doc.replace("dcert", "dquux", 1))
    truncated = "\n".join(doc.splitlines()[:4])
    with pytest.raises(ParseError):
        d.load_certificate(truncated)


def test_token_helpers():
    assert d.token_of_index(3, d.S2) == "."
    assert d.token_of_index(4, d.S2) == "-2"
    assert d.index_of_token(".", d.S2) == 3
    assert d.index_of_token("-3", d.S2) == 5
    assert d.index_of_token("7", d.S2) is None


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
    assert d.token_of_index(3, fake) == "3"
    assert d.index_of_token("3", fake) == 3
    assert d.index_of_token(".", fake) is None
    assert d.index_of_token("-1", fake) is None
    # non-canonical decimal spellings still go through the numeric parse
    assert d.index_of_token("005", fake) == 5
    assert d.index_of_token("007", fake) is None  # 7 is past the last point
    f = d.constant_map(d.Rectangle(2, 2), fake, 3)
    doc = d.dump_map(f)
    assert doc.splitlines()[1] == "3 3 3"
    assert d.load_map(doc, codomain=fake).values == f.values
    assert d.load_map(doc.replace("3 3 3", "003 3 3", 1), codomain=fake).values == f.values


def _toggle_certificate(n_pairs: int) -> d.Certificate:
    """An identity certificate padded with legal there-and-back moves."""
    sea = d.constant_map(d.Rectangle(20, 20), d.S2, d.BASEPOINT)
    moves = []
    for k in range(n_pairs):
        at = (1 + k % 19, 1 + (k // 19) % 19)
        moves += [d.SpiderMove(at, 1), d.SpiderMove(at, d.BASEPOINT)]
    return dataclasses.replace(d.identity_certificate(sea), moves=tuple(moves))


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
