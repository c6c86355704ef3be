"""Seeded inputs, timed tasks and output checks for the three workloads.

Each workload is a ``Workload`` of three functions:

* ``make(api, seed, workdir)`` builds the fixed task list from the seed alone
  (this is set-up: ``gen_random`` and, for ``cli_chain``, the ``.dmap`` writes);
* ``run(api, task)`` is the timed task, calling dpi2 through module attributes
  so that a traced run can rebind them;
* ``check(ref, task, out)`` compares the output with ground truth the code
  under test did not produce, and returns a ``Result``.

``api`` is the imported ``dpi2`` package and ``ref`` a ``Reference`` holding
the untraced functions the checks call.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DATA = Path(__file__).resolve().parent / "data"

# The ROADMAP baseline inputs gen_random(5, m, m, moves, plant), with the
# certificate length and frame (in points) that pi2_class must give for them.
ANCHOR_SEED = 5
ANCHORS = (
    (10, 1, 40, 16_280, (55, 65)),
    (20, 2, 100, 71_058, (105, 120)),
    (40, 4, 200, 322_224, (205, 230)),
)

# Seeded maps besides the anchors, as (size m, planted class) slots.  Sizes
# and classes are fixed so that every seed costs about the same.  A block of
# like maps (I_10 with class +-2, I_6 with class +-1) holds the median and the
# tail percentile of the per-task times, so a seed cannot move either across a
# step between sizes; the larger maps above the block carry most of the time.
# Each task list is shuffled (by the seed) so that a block's tasks are spread
# over the whole pass instead of meeting one slow or fast stretch of the host.
CLASSIFY_SLOTS = tuple((10, 2 - 4 * (k % 2)) for k in range(15)) + (
    (16, -3), (20, 0), (24, 4), (30, -1),
)
CLI_SLOTS = tuple((6, 1 - 2 * (k % 2)) for k in range(20)) + (
    (8, 1), (10, -2), (12, 2), (14, -2),
)

ORACLE_NEAR = 200  # alternating I_3 / I_4, two spider moves apart
ORACLE_FAR = 20  # independent I_4 pairs, nearly all beyond the state cap
ORACLE_BUDGET = ((6, 6), 40_000)
ZERO_BUDGET = ((6, 5), 200_000)
UNKNOWN_REASONS = ("state budget exhausted", "component exhausted within padding")

# Characters of each S2 label token in .dcert v1: 1 2 3 . -2 -3.
_S2_TOKEN_LEN = (1, 1, 1, 1, 2, 2)


@dataclass(frozen=True)
class MapTask:
    label: str
    f: object
    plant: int
    expect: tuple[int, tuple[int, int]] | None = None  # (moves, frame) for anchors
    path: str | None = None


@dataclass(frozen=True)
class PairTask:
    label: str
    kind: str  # "near", "far" or "zero"
    f: object
    g: object
    budget: object


@dataclass
class Result:
    """What one checked task contributes to the end-to-end counts."""

    moves: int = 0
    nbytes: int = 0
    decided: bool = False
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    make: Callable
    run: Callable
    check: Callable


class Reference:
    """The untraced dpi2 functions the checks use, taken before tracing."""

    def __init__(self, api):
        self.triangle_count = api.degree.triangle_count
        self.canonical_stack = api.normalize.canonical_stack
        self.verify_certificate = api.homotopy.verify_certificate
        self.Equivalent = api.oracle.Equivalent
        self.Unknown = api.oracle.Unknown


class GenTimer:
    """Calls gen_random and keeps the seconds spent in it."""

    def __init__(self, api):
        self._gen = api.generate.gen_random
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._gen(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def dcert_size(cert) -> int:
    """Bytes of ``cert`` as .dcert v1 text, counted without writing it.

    Grid rows hold m + 1 space-separated tokens; move lines read
    ``S <a> <b> <token>``.  Only S2 certificates occur in these workloads.
    """
    if cert.codomain.name != "S2":
        raise ValueError("dcert_size counts S2 certificates only")
    m, n = cert.common_rect.m, cert.common_rect.n
    size = len(f"dcert v1 codomain=S2 w={m} h={n}\n") + len("start\nmoves\nend\n")
    for grid in (cert.start.array, cert.end.array):
        size += (n + 1) * 2 * (m + 1) + int(np.count_nonzero(grid >= 4))
    tok = _S2_TOKEN_LEN
    for mv in cert.moves:
        a, b = mv.at
        size += 5 + len(str(a)) + len(str(b)) + tok[mv.new_value]
    return size


def _is_extension(big, f) -> bool:
    """True iff ``big`` is ``f`` trivially extended (basepoint elsewhere)."""
    arr = big.array
    h, w = f.array.shape
    if arr.shape[0] < h or arr.shape[1] < w or big.basepoint != f.basepoint:
        return False
    rest = np.array(arr)
    if not (rest[:h, :w] == f.array).all():
        return False
    rest[:h, :w] = f.basepoint
    return bool((rest == f.basepoint).all())


# ---------------------------------------------------------------------------
# classify: pi2_class + verify_certificate through the library.


def make_classify(api, seed: int, workdir: Path):
    gen = GenTimer(api)
    tasks = []
    for m, plant, moves, n_moves, frame in ANCHORS:
        f = gen(ANCHOR_SEED, m, m, moves, plant)
        tasks.append(MapTask(f"anchor I_{m}", f, plant, expect=(n_moves, frame)))
    rng = random.Random(f"classify/{seed}")
    for m, plant in CLASSIFY_SLOTS:
        f = gen(rng.randrange(1 << 31), m, m, 5 * m, plant)
        tasks.append(MapTask(f"I_{m} c={plant}", f, plant))
    rng.shuffle(tasks)
    return tasks, gen.seconds


def run_classify(api, task: MapTask):
    c, cert = api.normalize.pi2_class(task.f)
    verdict = api.homotopy.verify_certificate(cert)
    return c, cert, verdict


def check_classify(ref: Reference, task: MapTask, out) -> Result:
    c, cert, verdict = out
    res = Result(moves=len(cert.moves))
    p = res.problems
    if c != task.plant:
        p.append(f"class {c}, planted {task.plant}")
    degree = ref.triangle_count(task.f)
    if degree != task.plant:
        p.append(f"triangle_count {degree}, planted {task.plant}")
    if not verdict:
        p.append(f"certificate rejected: {verdict.reason}")
    if not _is_extension(cert.start, task.f):
        p.append("certificate does not start at the input map")
    if cert.end.values != ref.canonical_stack(c, cert.common_rect).values:
        p.append("certificate does not end at canonical_stack(c)")
    if task.expect is not None:
        n_moves, frame = task.expect
        got = (cert.common_rect.width, cert.common_rect.height)
        if (len(cert.moves), got) != (n_moves, frame):
            p.append(f"{len(cert.moves)} moves on {got}, baseline {n_moves} on {frame}")
    res.decided = not p
    res.nbytes = dcert_size(cert)
    return res


# ---------------------------------------------------------------------------
# cli_chain: `normalize --cert` then `verify`, through dpi2.cli.run.


def make_cli_chain(api, seed: int, workdir: Path):
    gen = GenTimer(api)
    rng = random.Random(f"cli_chain/{seed}")
    tasks = []
    for i, (m, plant) in enumerate(CLI_SLOTS):
        f = gen(rng.randrange(1 << 31), m, m, 2 * m, plant)
        path = str(workdir / f"{i:02d}_I{m}.dmap")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(api.formats.dump_map(f))
        tasks.append(MapTask(f"I_{m} c={plant}", f, plant, path=path))
    rng.shuffle(tasks)
    return tasks, gen.seconds


def run_cli(api, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.run(argv)
    return code, out.getvalue() + err.getvalue()


def run_cli_chain(api, task: MapTask):
    cert_path = task.path[: -len(".dmap")] + ".dcert"
    normalized = run_cli(api, ["normalize", "--cert", cert_path, task.path])
    verified = run_cli(api, ["verify", cert_path])
    return normalized, verified, cert_path


def count_move_lines(text: str) -> int:
    """Move lines of a .dcert text: those between 'moves' and 'end'."""
    lines = text.split("\n")
    try:
        first = lines.index("moves") + 1
        last = lines.index("end", first)
    except ValueError:
        return -1
    return sum(1 for line in lines[first:last] if line.startswith("S "))


def check_cli_chain(ref: Reference, task: MapTask, out) -> Result:
    (code1, text1), (code2, text2), cert_path = out
    res = Result()
    p = res.problems
    if code1 != 0 or code2 != 0:
        p.append(f"exit codes {code1}, {code2}: {(text1 + text2).strip()[:200]}")
    if text1.strip() != str(task.plant):
        p.append(f"normalize printed {text1.strip()[:60]!r}, planted {task.plant}")
    degree = ref.triangle_count(task.f)
    if degree != task.plant:
        p.append(f"triangle_count {degree}, planted {task.plant}")
    try:
        with open(cert_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        p.append(f"no certificate written: {exc}")
        return res
    res.moves = count_move_lines(text)
    res.nbytes = len(text.encode("utf-8"))
    if text2 != f"ok: {res.moves} moves\n":
        p.append(f"verify printed {text2.strip()[:60]!r}, file has {res.moves} moves")
    res.decided = not p
    return res


# ---------------------------------------------------------------------------
# oracle: homotopy_decide on small pairs.


def make_oracle(api, seed: int, workdir: Path):
    gen = GenTimer(api)
    budget = api.oracle.SearchBudget(
        pad_limit=ORACLE_BUDGET[0], max_states=ORACLE_BUDGET[1]
    )
    rng = random.Random(f"oracle/{seed}")
    tasks = []
    for i in range(ORACLE_NEAR):
        # One random stream: g is f followed by two more spider moves.  Only
        # pairs differing in two cells are kept, so that every shortest path
        # has exactly two moves and cert_moves is the same for every seed.
        m, k = 3 if i % 2 == 0 else 4, 4 + i % 3
        while True:
            s = rng.randrange(1 << 31)
            f, g = gen(s, m, m, moves=k), gen(s, m, m, moves=k + 2)
            if np.count_nonzero(f.array != g.array) == 2:
                break
        tasks.append(PairTask(f"near I_{m} #{i}", "near", f, g, budget))
    for i in range(ORACLE_FAR):
        f = gen(rng.randrange(1 << 31), 4, 4, moves=6)
        g = gen(rng.randrange(1 << 31), 4, 4, moves=6)
        tasks.append(PairTask(f"far I_4 #{i}", "far", f, g, budget))
    with open(DATA / "degree_zero_6x5.dmap", "r", encoding="utf-8") as fh:
        zero = api.formats.load_map(fh.read())
    const = api.gridmap.constant_map(zero.rect, zero.codomain, zero.basepoint)
    zero_budget = api.oracle.SearchBudget(
        pad_limit=ZERO_BUDGET[0], max_states=ZERO_BUDGET[1]
    )
    tasks.append(PairTask("degree_zero_6x5", "zero", zero, const, zero_budget))
    rng.shuffle(tasks)
    return tasks, gen.seconds


def run_oracle(api, task: PairTask):
    return api.oracle.homotopy_decide(task.f, task.g, task.budget)


def check_oracle(ref: Reference, task: PairTask, out) -> Result:
    res = Result()
    p = res.problems
    if isinstance(out, ref.Equivalent):
        cert = out.certificate
        verdict = ref.verify_certificate(cert)
        if not verdict:
            p.append(f"certificate rejected: {verdict.reason}")
        if not (_is_extension(cert.start, task.f) and _is_extension(cert.end, task.g)):
            p.append("certificate does not join the two maps")
        df, dg = ref.triangle_count(task.f), ref.triangle_count(task.g)
        if df != dg:
            p.append(f"equivalent maps with degrees {df} and {dg}")
        if task.kind == "near":
            # f and g differ in two cells and two spider moves join them, so
            # a shortest path has exactly two moves.
            if len(cert.moves) != 2:
                p.append(f"{len(cert.moves)} moves for a pair two moves apart")
            res.moves, res.nbytes = len(cert.moves), dcert_size(cert)
        res.decided = not p
    elif isinstance(out, ref.Unknown):
        if out.reason not in UNKNOWN_REASONS:
            p.append(f"undocumented reason {out.reason!r}")
        if task.kind == "near":
            p.append("pair two moves apart left undecided")
    else:
        p.append(f"unexpected result {type(out).__name__}")
    return res


WORKLOADS = {
    "classify": Workload(make_classify, run_classify, check_classify),
    "cli_chain": Workload(make_cli_chain, run_cli_chain, check_cli_chain),
    "oracle": Workload(make_oracle, run_oracle, check_oracle),
}
