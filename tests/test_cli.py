"""Command line driver, exercised in-process through dpi2.cli.run."""

import hashlib

import numpy as np
import pytest

import dpi2 as d
import dpi2.cli as cli
from dpi2 import oracle, verify
from dpi2.render import render_ascii

from conftest import grid, T_TEXT


@pytest.fixture
def tmap(tmp_path):
    p = tmp_path / "T.dmap"
    p.write_text(d.dump_map(grid(T_TEXT)))
    return p


def run(capsys, argv):
    code = cli.run(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_ok(capsys, tmap):
    code, out, err = run(capsys, ["check", str(tmap)])
    assert code == 0 and err == ""
    assert "5x5" in out and "S2" in out


def test_check_reports_position(capsys, tmp_path):
    p = tmp_path / "bad.dmap"
    p.write_text("dmap v1 w=2 h=2 codomain=S2 basepoint=-1\n. q .\n. . .\n. . .\n")
    code, out, err = run(capsys, ["check", str(p)])
    assert code == 1 and out == ""
    assert "line 2" in err and "column 3" in err


def test_check_names_an_unknown_codomain(capsys, tmp_path):
    p = tmp_path / "mystery.dmap"
    p.write_text("dmap v1 w=1 h=1 codomain=mystery basepoint=0\n0 0\n0 0\n")
    code, out, err = run(capsys, ["check", str(p)])
    assert code == 1 and out == ""
    assert err == (
        "error: line 1: unknown codomain 'mystery'; only the spheres S1, S2, ... "
        "are built in\n"
    )


def test_check_names_a_misnamed_size_key(capsys, tmp_path):
    p = tmp_path / "key.dmap"
    p.write_text("dmap v1 x=4 h=4 codomain=S2 basepoint=-1\n")
    assert run(capsys, ["check", str(p)]) == (
        1, "", "error: line 1: expected w=<value>, got 'x=4'\n"
    )


def test_missing_file_is_an_error(capsys, tmp_path):
    code, out, err = run(capsys, ["check", str(tmp_path / "nope.dmap")])
    assert code == 1 and "error:" in err


def test_degree(capsys, tmap):
    code, out, _ = run(capsys, ["degree", str(tmap)])
    assert code == 0 and out.strip() == "1"


def test_normalize_prints_class_and_writes_cert(capsys, tmp_path, tmap):
    cert_path = tmp_path / "t.dcert"
    code, out, _ = run(capsys, ["normalize", "--cert", str(cert_path), str(tmap)])
    assert code == 0 and out.strip() == "1"
    cert, _ = d.load_certificate(cert_path.read_text())
    assert d.verify_certificate(cert).ok

    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 0
    assert out.startswith("ok:") and "moves" in out


def test_normalize_zero_map(capsys, tmp_path, zero_map):
    p = tmp_path / "z.dmap"
    p.write_text(d.dump_map(zero_map))
    code, out, _ = run(capsys, ["normalize", str(p)])
    assert code == 0 and out.strip() == "0"


def test_normalize_rejects_small_k(capsys, tmap):
    code, _, err = run(capsys, ["normalize", "--k", "3", str(tmap)])
    assert code == 1 and "error:" in err


def test_verify_flags_tampering(capsys, tmp_path, tmap):
    cert_path = tmp_path / "t.dcert"
    run(capsys, ["normalize", "--cert", str(cert_path), str(tmap)])
    doc = cert_path.read_text()
    lines = doc.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("S "))
    parts = lines[at].split()
    parts[-1] = "1" if parts[-1] != "1" else "2"
    lines[at] = " ".join(parts)
    cert_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    assert out.startswith("invalid:") and "line" in out


def test_verify_names_the_line_of_a_bad_move_past_the_first_block(capsys, tmp_path):
    # Sea cells go to e2 and back; one move back, in the second block, goes
    # to -e2 instead.
    n = verify._VERIFY_BLOCK + 500
    k = np.arange(n // 2)
    a, b = np.repeat(1 + k % 5, 2), np.repeat(1 + k // 5 % 5, 2)
    label = np.tile([1, d.BASEPOINT], n // 2)
    bad = n - 101
    label[bad] = 4
    sea = d.constant_map(d.Rectangle(6, 6), d.S2, d.BASEPOINT)
    cert = d.Certificate(start=sea, moves=verify.PackedMoves(a, b, label), end=sea)
    cert_path = tmp_path / "t.dcert"
    doc = d.dump_certificate(cert)
    cert_path.write_text(doc)
    line = doc.split("\n").index("moves") + 2 + bad
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    assert out == (
        f"invalid: move {bad} at ({a[bad]}, {b[bad]}): new value not adjacent to "
        f"current value (line {line})\n"
    )


def test_oracle_equivalent(capsys, tmp_path):
    f = d.gen_random(1, 3, 3, moves=6)
    g = d.gen_random(1, 3, 3, moves=8)
    pf, pg = tmp_path / "f.dmap", tmp_path / "g.dmap"
    pf.write_text(d.dump_map(f))
    pg.write_text(d.dump_map(g))
    cert_path = tmp_path / "o.dcert"
    code, out, _ = run(
        capsys,
        ["oracle", "--pad", "6x6", "--max-states", "200000",
         "--cert", str(cert_path), str(pf), str(pg)],
    )
    assert code == 0
    assert out.startswith("equivalent:")
    cert, _ = d.load_certificate(cert_path.read_text())
    assert d.verify_certificate(cert).ok


def test_oracle_unknown(capsys, tmp_path, tmap):
    g = d.constant_map(d.Rectangle(4, 4), d.S2, d.BASEPOINT)
    pg = tmp_path / "c.dmap"
    pg.write_text(d.dump_map(g))
    code, out, _ = run(
        capsys, ["oracle", "--pad", "5x5", "--max-states", "50000", str(tmap), str(pg)]
    )
    # an inconclusive search is still a successful run
    assert code == 0
    assert out.startswith("unknown:") and "component exhausted" in out


def test_oracle_rejects_bad_pad(capsys, tmap):
    code, _, err = run(capsys, ["oracle", "--pad", "banana", str(tmap), str(tmap)])
    assert code == 1 and "error:" in err


def test_render_ascii_default(capsys, tmap):
    code, out, _ = run(capsys, ["render", str(tmap)])
    assert code == 0
    assert out == render_ascii(grid(T_TEXT))


def test_render_svg_to_file(capsys, tmp_path, tmap):
    target = tmp_path / "t.svg"
    code, out, _ = run(
        capsys,
        ["render", "--format", "svg", "--cell-size", "12", "--triangulation",
         "-o", str(target), str(tmap)],
    )
    assert code == 0
    svg = target.read_text()
    assert svg.startswith("<svg") and svg.count("<polygon") == 32


def test_gen_writes_deterministic_map(capsys, tmp_path):
    outp = tmp_path / "r.dmap"
    argv = ["gen", "--seed", "6", "-m", "7", "-n", "6", "--moves", "19",
            "--plant", "1", "-o", str(outp)]
    code, _, _ = run(capsys, argv)
    assert code == 0
    first = outp.read_text()
    assert d.triangle_count(d.load_map(first)) == 1
    run(capsys, argv)
    assert outp.read_text() == first


def test_gen_prints_to_stdout(capsys):
    code, out, _ = run(capsys, ["gen", "--seed", "0", "-m", "4", "-n", "4"])
    assert code == 0
    assert d.load_map(out).is_constant()


def test_op_product_and_inverse(capsys, tmp_path, tmap):
    inv = tmp_path / "inv.dmap"
    code, _, _ = run(capsys, ["op", "inverse", "-o", str(inv), str(tmap)])
    assert code == 0
    prod = tmp_path / "p.dmap"
    code, _, _ = run(capsys, ["op", "product", "-o", str(prod), str(tmap), str(inv)])
    assert code == 0
    f = d.load_map(prod.read_text())
    assert d.triangle_count(f) == 0
    assert f.rect.m == 9


def test_op_subdivide_extend_alpha_beta(capsys, tmp_path, tmap):
    for argv, m_expect in (
        (["op", "subdivide", str(tmap), "2"], 9),  # 5 points -> 10 points
        (["op", "extend", str(tmap), "6", "7"], 6),
        (["op", "alpha", str(tmap), "2"], 5),
        (["op", "beta", str(tmap), "0"], 4),
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert d.load_map(out).rect.m == m_expect


def test_op_flood_accepts_both_label_spellings(capsys, tmp_path, zero_map):
    p = tmp_path / "z.dmap"
    p.write_text(d.dump_map(zero_map))
    code, out1, _ = run(capsys, ["op", "flood", str(p), "-1"])
    assert code == 0
    code, out2, _ = run(capsys, ["op", "flood", str(p), "."])
    assert code == 0
    assert out1 == out2
    flooded = d.load_map(out1)
    assert d.triangle_count(flooded) == d.triangle_count(zero_map)


def test_op_flood_rejects_pole(capsys, tmap):
    # flooding by e1 cannot preserve the map's basepoint frame
    code, _, err = run(capsys, ["op", "flood", str(tmap), "7"])
    assert code == 1 and "error:" in err


def test_usage_error_exit_code(capsys):
    assert cli.run(["degree"]) == 2  # missing argument -> usage error
    cap = capsys.readouterr()
    assert "usage:" in cap.err


def test_verify_rejects_a_move_coordinate_past_int64(capsys, tmp_path, tmap):
    cert_path = tmp_path / "t.dcert"
    run(capsys, ["normalize", "--cert", str(cert_path), str(tmap)])
    lines = cert_path.read_text().split("\n")
    k = lines.index("moves") + 1
    lines[k] = f"S {2**63} 1 1"
    cert_path.write_text("\n".join(lines))
    code, out, err = run(capsys, ["verify", str(cert_path)])
    assert code == 1 and out == ""
    assert err == f"error: line {k + 1}: move coordinates must fit in 64 bits\n"


T_TEXT_DUMP = d.dump_map(grid(T_TEXT))


def _refuse(*args, **kwargs):
    raise AssertionError("a flag over the budget reached the work it sizes")


def test_memory_flags_over_the_budget_exit_2_before_any_work(capsys, tmap, monkeypatch):
    for name in ("pi2_class", "gen_random", "homotopy_decide", "load_map"):
        monkeypatch.setattr(cli, name, _refuse)
    for argv, flag in (
        (["gen", "-m", "100000", "-n", "100000"], "-m/-n"),
        (["oracle", "--max-states", str(10**12), str(tmap), str(tmap)], "--max-states"),
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} asks for ") and err.count("\n") == 1
        assert err.endswith(f"over the budget of {cli._BUDGET}\n")


def test_oracle_checks_its_search_bytes_before_searching(capsys, tmap, monkeypatch):
    monkeypatch.setattr(cli, "homotopy_decide", _refuse)
    monkeypatch.setattr(oracle, "_expander", _refuse)

    def need(side):
        budget = d.SearchBudget(pad_limit=(side, side))
        return oracle._search_bytes(grid(T_TEXT), grid(T_TEXT), budget)

    # At the default --max-states, 44 x 44 is the largest square pad that fits.
    assert need(44) <= cli._SEARCH_BYTES < need(45)
    over = (
        2,
        "",
        f"error: --pad/--max-states asks for {need(45)} bytes, "
        f"over the budget of {cli._SEARCH_BYTES}\n",
    )
    assert run(capsys, ["oracle", "--pad", "45x45", str(tmap), str(tmap)]) == over
    # Without --pad the search pads to the larger map.
    big = tmap.parent / "big.dmap"
    big.write_text(d.dump_map(d.constant_map(d.Rectangle(44, 44), d.S2, d.BASEPOINT)))
    assert run(capsys, ["oracle", str(big), str(tmap)]) == over
    monkeypatch.setattr(cli, "homotopy_decide", lambda f, g, budget: d.Unknown(0, "stub"))
    argv = ["oracle", str(tmap), str(tmap)]
    assert run(capsys, argv) == (0, "unknown: stub (0 states)\n", "")


def test_oracle_output_at_6x6_is_unchanged_by_the_byte_check(capsys, tmp_path):
    pf, pg, pc = tmp_path / "f.dmap", tmp_path / "g.dmap", tmp_path / "o.dcert"
    pf.write_text(d.dump_map(d.gen_random(0, 4, 4, moves=3)))
    pg.write_text(d.dump_map(d.gen_random(0, 4, 4, moves=15)))
    argv = ["oracle", "--pad", "6x6", "--cert", str(pc), str(pf), str(pg)]
    assert run(capsys, argv) == (0, "equivalent: 8 moves\n", "")
    # The digest of the certificate the search wrote before the check existed.
    assert hashlib.sha256(pc.read_bytes()).hexdigest() == (
        "9a5824d586263999ea46849f97efa086066d1db3d1a18be0e872e48fbb8bb805"
    )
    argv = ["oracle", "--pad", "6x6", "--max-states", "2000", str(pf), str(pg)]
    assert run(capsys, argv) == (0, "unknown: state budget exhausted (2000 states)\n", "")


def test_normalize_checks_the_frame_of_k_against_the_budget(capsys, tmap, monkeypatch):
    # T has 5 x 5 points, so --k k asks for a frame of 25 k^2 cells.
    fits = int((cli._BUDGET / 25) ** 0.5)
    assert 25 * fits**2 <= cli._BUDGET < 25 * (fits + 1) ** 2
    monkeypatch.setattr(cli, "pi2_class", _refuse)
    code, out, err = run(capsys, ["normalize", "--k", str(fits + 1), str(tmap)])
    assert code == 2 and out == ""
    assert err == (
        f"error: --k asks for {25 * (fits + 1) ** 2} frame cells, "
        f"over the budget of {cli._BUDGET}\n"
    )
    monkeypatch.setattr(
        cli, "pi2_class", lambda f, k: (1, d.Certificate(start=f, moves=(), end=f))
    )
    assert run(capsys, ["normalize", "--k", str(fits), str(tmap)]) == (0, "1\n", "")


def test_gen_and_oracle_accept_values_at_the_budget(capsys, tmap, monkeypatch):
    side = int(cli._BUDGET**0.5)
    assert side * side == cli._BUDGET
    monkeypatch.setattr(cli, "gen_random", lambda *a, **k: grid(T_TEXT))
    code, out, _ = run(capsys, ["gen", "-m", str(side - 1), "-n", str(side - 1)])
    assert code == 0 and out == d.dump_map(grid(T_TEXT))
    assert run(capsys, ["gen", "-m", str(side), "-n", str(side - 1)])[0] == 2
    monkeypatch.setattr(
        cli, "homotopy_decide", lambda f, g, budget: d.Unknown(budget.max_states, "stub")
    )
    argv = ["oracle", "--max-states", str(cli._BUDGET), str(tmap), str(tmap)]
    assert run(capsys, argv) == (0, f"unknown: stub ({cli._BUDGET} states)\n", "")
    argv[2] = str(cli._BUDGET + 1)
    assert run(capsys, argv)[0] == 2


def test_op_subdivide_and_extend_check_their_cells_against_the_budget(
    capsys, tmap, monkeypatch
):
    # T has 5 x 5 points: subdivide k makes 25 k^2 cells, extend m n (m+1)(n+1).
    fits = int((cli._BUDGET / 25) ** 0.5)
    assert 25 * fits**2 <= cli._BUDGET < 25 * (fits + 1) ** 2
    side = int(cli._BUDGET**0.5)
    cases = (
        ("subdivide", [fits], [fits + 1], "op subdivide k", 25 * (fits + 1) ** 2),
        ("extend", [side - 1] * 2, [side, side - 1], "op extend m/n", (side + 1) * side),
    )
    for op, at, past, flag, cells in cases:
        monkeypatch.setattr(cli, "subdivide", _refuse)
        monkeypatch.setattr(cli, "trivial_extend", _refuse)
        code, out, err = run(capsys, ["op", op, str(tmap), *map(str, past)])
        assert (code, out) == (2, "")
        assert err == f"error: {flag} asks for {cells} cells, over the budget of {cli._BUDGET}\n"
        monkeypatch.setattr(cli, "subdivide", lambda f, k: f)
        monkeypatch.setattr(cli, "trivial_extend", lambda f, m, n: f)
        assert run(capsys, ["op", op, str(tmap), *map(str, at)]) == (0, T_TEXT_DUMP, "")


def test_op_subdivide_and_extend_keep_their_own_errors(capsys, tmap):
    for argv, message in (
        (["subdivide", str(tmap), "0"], "subdivision factor must be >= 1, got 0"),
        (["subdivide", str(tmap), "-3"], "subdivision factor must be >= 1, got -3"),
        (["extend", str(tmap), "-5", "-5"], "cannot shrink I_{4,4} to I_{-5,-5}"),
    ):
        assert run(capsys, ["op", *argv]) == (1, "", f"error: {message}\n")


def test_run_reuses_one_parser_and_prints_what_a_fresh_one_does(capsys, tmap, monkeypatch):
    argvs = [
        ["check", str(tmap)],
        ["degree"],  # a usage error: exit 2
        ["--help"],
        ["op", "inverse", str(tmap)],
        ["normalize", "--k", "five", str(tmap)],
        ["op", "extend", "--help"],
        ["gen", "-m", "3", "-n", "3", "--seed", "2"],
        ["degree", str(tmap)],
        ["check", str(tmap)],
    ]
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert {code for code, _, _ in fresh} == {0, 2}
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [run(capsys, argv) for argv in argvs] == fresh
    assert built == [1]
