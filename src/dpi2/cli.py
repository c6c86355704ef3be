"""Command-line interface.

Exit codes: 0 on success (including an honest "unknown" from the oracle),
1 when input data fails to parse or a verification fails, 2 on usage errors,
among them a memory-sizing flag over the budget below.
All output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .degree import triangle_count
from .formats import (
    ParseError,
    TokenTable,
    dump_certificate,
    dump_map,
    load_certificate,
    load_map,
)
from .generate import gen_random
from .gridmap import apply_alpha, apply_beta, inverse, product, subdivide, trivial_extend
from .homotopy import flood
from .normalize import pi2_class
from .oracle import Equivalent, SearchBudget, _search_bytes, homotopy_decide
from .render import RenderSpec, render_map
from .verify import verify_certificate

# The most grid cells one map or normalization frame may take, the most states
# the oracle may keep, and the most bytes one oracle search may hold.  A flag
# asking for more exits 2 before anything it sizes is allocated.
_BUDGET = 1 << 22
_SEARCH_BYTES = 1 << 30


class _OverBudget(Exception):
    """A flag value whose memory would exceed _BUDGET: a usage error."""


def _check_budget(flag: str, amount: int, what: str, budget: int = _BUDGET) -> None:
    if amount > budget:
        raise _OverBudget(f"{flag} asks for {amount} {what}, over the budget of {budget}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers.


def _cmd_check(args) -> int:
    f = load_map(_read(args.map))
    print(
        f"ok: {f.rect.width}x{f.rect.height} map into {f.codomain.name}, "
        f"{len(f.values)} points"
    )
    return 0


def _cmd_degree(args) -> int:
    f = load_map(_read(args.map))
    print(triangle_count(f))
    return 0


def _cmd_normalize(args) -> int:
    f = load_map(_read(args.map))
    side = max(args.k, 0)
    _check_budget("--k", side * f.rect.width * side * f.rect.height, "frame cells")
    c, cert = pi2_class(f, k=args.k)
    print(c)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(dump_certificate(cert))
    return 0


def _cmd_verify(args) -> int:
    cert, move_lines = load_certificate(_read(args.cert))
    res = verify_certificate(cert)
    if res:
        print(f"ok: {len(cert.moves)} moves")
        return 0
    if res.move_index is not None and res.move_index < len(move_lines):
        print(f"invalid: {res.reason} (line {move_lines[res.move_index]})")
    else:
        print(f"invalid: {res.reason}")
    return 1


def _parse_pad(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ParseError("--pad expects WIDTHxHEIGHT, e.g. 6x6") from None


def _cmd_oracle(args) -> int:
    _check_budget("--max-states", args.max_states, "states")
    f = load_map(_read(args.map_f))
    g = load_map(_read(args.map_g))
    budget = SearchBudget(
        pad_limit=_parse_pad(args.pad) if args.pad else None,
        max_states=args.max_states,
    )
    need = _search_bytes(f, g, budget)
    _check_budget("--pad/--max-states", need, "bytes", _SEARCH_BYTES)
    res = homotopy_decide(f, g, budget)
    if isinstance(res, Equivalent):
        print(f"equivalent: {len(res.certificate.moves)} moves")
        if args.cert:
            with open(args.cert, "w", encoding="utf-8") as fh:
                fh.write(dump_certificate(res.certificate))
    else:
        print(f"unknown: {res.reason} ({res.states_explored} states)")
    return 0


def _cmd_render(args) -> int:
    f = load_map(_read(args.map))
    spec = RenderSpec(
        format=args.format,
        cell_size=args.cell_size,
        show_triangulation=args.triangulation,
    )
    _emit(render_map(f, spec), args.output)
    return 0


def _cmd_gen(args) -> int:
    _check_budget("-m/-n", max(args.m + 1, 0) * max(args.n + 1, 0), "cells")
    g = gen_random(args.seed, args.m, args.n, moves=args.moves, plant=args.plant)
    _emit(dump_map(g), args.output)
    return 0


def _op_product(f, other: str):
    return product(f, load_map(_read(other)))


def _op_subdivide(f, k: int):
    side = max(k, 0)
    _check_budget("op subdivide k", side * f.rect.width * side * f.rect.height, "cells")
    return subdivide(f, k)


def _op_extend(f, m: int, n: int):
    _check_budget("op extend m/n", max(m + 1, 0) * max(n + 1, 0), "cells")
    return trivial_extend(f, m, n)


def _op_flood(f, token: str):
    label = TokenTable(f.codomain).index(token)
    if label is None:
        raise ParseError(f"unknown label token {token!r}")
    return flood(f, label)[0]


# Each `op` command: its help, the (name, type) of each argument after the
# map, and the operation, called on the map and those arguments.
_OPS = {
    "product": ("side-by-side product of two maps", (("other", str),), _op_product),
    "inverse": ("mirror a map horizontally", (), inverse),
    "subdivide": ("repeat every cell k times per axis", (("k", int),), _op_subdivide),
    "extend": ("trivially extend to I_{m,n}", (("m", int), ("n", int)), _op_extend),
    "alpha": ("double column i", (("i", int),), apply_alpha),
    "beta": ("double row j", (("j", int),), apply_beta),
    "flood": ("flood by a label", (("label", str),), _op_flood),
}


def _cmd_op(args) -> int:
    f = load_map(_read(args.map))
    _, arguments, operation = _OPS[args.operation]
    out = operation(f, *(getattr(args, name) for name, _ in arguments))
    _emit(dump_map(out), args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpi2",
        description="Degrees, homotopy certificates, and normal forms of "
        "digital grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a .dmap file")
    p.add_argument("map")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("degree", help="print the degree of a sphere map")
    p.add_argument("map")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("normalize", help="classify a sphere map")
    p.add_argument("map")
    p.add_argument("--k", type=int, default=5, help="subdivision factor (>= 5)")
    p.add_argument("--cert", help="write the certificate to this .dcert file")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("verify", help="replay and check a .dcert file")
    p.add_argument("cert")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force homotopy search on small maps")
    p.add_argument("map_f")
    p.add_argument("map_g")
    p.add_argument("--pad", help="padding rectangle, WIDTHxHEIGHT in points")
    p.add_argument("--max-states", type=int, default=500_000)
    p.add_argument("--cert", help="write the found certificate here")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="render a map as text or SVG")
    p.add_argument("map")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--cell-size", type=int, default=16)
    p.add_argument("--triangulation", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen", help="generate a seeded random map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-m", type=int, default=8)
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--moves", type=int, default=0)
    p.add_argument("--plant", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("op", help="apply a map operation")
    p.set_defaults(func=_cmd_op)
    op_sub = p.add_subparsers(dest="operation", required=True)
    for name, (help_text, arguments, _) in _OPS.items():
        q = op_sub.add_parser(name, help=help_text)
        q.add_argument("map")
        for arg, kind in arguments:
            q.add_argument(arg, type=kind)
        q.add_argument("-o", "--output")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first run() and reused by every later one."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _OverBudget as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
