"""Spans around dpi2's entry points, recorded from outside the package.

``Tracer.install`` rebinds the module attributes that callers look up (for
example ``dpi2.normalize.isolate_e1`` or ``dpi2.cli.load_certificate``) to
wrappers that record a span, and wraps ``_TraceBuilder.one_step`` to count
one-step windows.  ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.

A span is ``[name, start, end, parent, task, counts]``: ``parent`` is the index
of the enclosing span or None, ``task`` the index of the task in the pass, and
``counts`` the work counted at that boundary (moves, states, windows).
"""

from __future__ import annotations

import statistics
import sys
import time

# (module, attribute, span name, counts taken from (args, result)).
TARGETS = (
    ("normalize", "pi2_class", "normalize.pi2_class",
     lambda a, r: {"moves": len(r[1].moves),
                   "frame_cells": r[1].common_rect.width * r[1].common_rect.height}),
    ("normalize", "isolate_e1", "normalize.isolate_e1", None),
    ("normalize", "find_islands", "normalize.find_islands", None),
    ("normalize", "classify_island", "normalize.classify_island", None),
    ("homotopy", "flood", "homotopy.flood", None),
    ("homotopy", "verify_certificate", "homotopy.verify",
     lambda a, r: {"moves": len(a[0].moves)}),
    ("formats", "load_certificate", "formats.load_certificate",
     lambda a, r: {"moves": len(r[0].moves)}),
    ("formats", "dump_certificate", "formats.dump_certificate",
     lambda a, r: {"moves": len(a[0].moves), "bytes": len(r)}),
    ("formats", "load_map", "formats.load_map", None),
    ("oracle", "homotopy_decide", "oracle.homotopy_decide",
     lambda a, r: ({"decided": 1, "moves": len(r.certificate.moves)}
                   if hasattr(r, "certificate")
                   else {"decided": 0, "states": r.states_explored})),
    ("degree", "triangle_count", "degree.triangle_count", None),
    ("gridmap", "trivial_extend", "gridmap.trivial_extend", None),
    ("gridmap", "subdivide", "gridmap.subdivide", None),
)

# Per-layer metrics, in report order: name -> (unit, better).
PER_LAYER = {
    "normalize.pi2_class_s": ("s", "lower"),
    "normalize.isolate_e1_s": ("s", "lower"),
    "normalize.find_islands_s": ("s", "lower"),
    "normalize.classify_island_s": ("s", "lower"),
    "normalize.pi2_class_self_s": ("s", "lower"),
    "normalize.moves_per_s": ("1/s", "higher"),
    "normalize.frame_cells": ("count", "lower"),
    "homotopy.one_step_windows": ("count", "lower"),
    "homotopy.one_step_s": ("s", "lower"),
    "homotopy.flood_s": ("s", "lower"),
    "homotopy.flood_calls": ("count", "lower"),
    "homotopy.verify_s": ("s", "lower"),
    "homotopy.verify_us_per_move": ("us", "lower"),
    "formats.load_certificate_s": ("s", "lower"),
    "formats.load_us_per_move": ("us", "lower"),
    "formats.load_scaling": ("ratio", "lower"),
    "formats.dump_certificate_s": ("s", "lower"),
    "formats.dump_us_per_move": ("us", "lower"),
    "formats.load_map_s": ("s", "lower"),
    "cli.normalize_s": ("s", "lower"),
    "cli.verify_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "oracle.homotopy_decide_s": ("s", "lower"),
    "oracle.decided": ("count", "higher"),
    "oracle.states_explored": ("count", "lower"),
    "oracle.states_per_s": ("1/s", "higher"),
    "degree.triangle_count_s": ("s", "lower"),
    "gridmap.trivial_extend_s": ("s", "lower"),
    "gridmap.subdivide_s": ("s", "lower"),
    "generate.gen_random_s": ("s", "lower"),
    "tracing_overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.task, {}]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5].update(count(args, result))
            return result

        return traced

    def _windows(self, one_step):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def counted(builder, window, new_block):
            t0 = clock()
            try:
                return one_step(builder, window, new_block)
            finally:
                counts = spans[stack[-1]][5] if stack else {}
                counts["windows"] = counts.get("windows", 0) + 1
                counts["one_step_s"] = counts.get("one_step_s", 0.0) + clock() - t0

        return counted

    def _rebind(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "dpi2" and not modname.startswith("dpi2."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self, api) -> None:
        for mod, attr, name, count in TARGETS:
            orig = getattr(getattr(api, mod), attr)
            self._rebind(orig, self._span(name, orig, count))
        run = api.cli.run
        spans = {cmd: self._span(f"cli.{cmd}", run, None) for cmd in ("normalize", "verify")}
        self._rebind(run, lambda argv=None: spans.get(argv[0], run)(argv))
        builder = api.homotopy._TraceBuilder
        self._saved.append((builder, "one_step", builder.one_step))
        builder.one_step = self._windows(builder.one_step)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans whose direct children add up to more than the span itself."""
    return [
        f"{spans[i][0]} (task {spans[i][4]}): children exceed it by {-t:.3g} s"
        for i, t in enumerate(self_times(spans))
        if t < -1e-9
    ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass (all but the two set-up ones)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], float] = {}
    for s in spans:
        total[s[0]] = total.get(s[0], 0.0) + s[2] - s[1]
        calls[s[0]] = calls.get(s[0], 0) + 1
        for key, v in s[5].items():
            counts[s[0], key] = counts.get((s[0], key), 0) + v

    def t(name):
        return total.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def windows(key):
        return sum(v for (_, k), v in counts.items() if k == key)

    def mean_self(prefix):
        vals = [x for s, x in zip(spans, selfs) if s[0].startswith(prefix)]
        return statistics.fmean(vals) if vals else 0.0

    def load_scaling():
        loads = [(s[5]["moves"], s[2] - s[1]) for s in spans
                 if s[0] == "formats.load_certificate" and s[5].get("moves")]
        if not loads:
            return 0.0
        (n_lo, t_lo), (n_hi, t_hi) = min(loads), max(loads)
        return per(t_hi / n_hi, t_lo / n_lo)

    unknown = [s for s in spans if s[0] == "oracle.homotopy_decide" and not s[5]["decided"]]
    states = sum(s[5]["states"] for s in unknown)
    frames = [s[5]["frame_cells"] for s in spans if s[0] == "normalize.pi2_class"]
    return {
        "normalize.pi2_class_s": t("normalize.pi2_class"),
        "normalize.isolate_e1_s": t("normalize.isolate_e1"),
        "normalize.find_islands_s": t("normalize.find_islands"),
        "normalize.classify_island_s": t("normalize.classify_island"),
        "normalize.pi2_class_self_s": sum(
            x for s, x in zip(spans, selfs) if s[0] == "normalize.pi2_class"),
        "normalize.moves_per_s": per(
            counts.get(("normalize.pi2_class", "moves"), 0), t("normalize.pi2_class")),
        "normalize.frame_cells": max(frames, default=0),
        "homotopy.one_step_windows": windows("windows"),
        "homotopy.one_step_s": windows("one_step_s"),
        "homotopy.flood_s": t("homotopy.flood"),
        "homotopy.flood_calls": calls.get("homotopy.flood", 0),
        "homotopy.verify_s": t("homotopy.verify"),
        "homotopy.verify_us_per_move": per(
            t("homotopy.verify"), counts.get(("homotopy.verify", "moves"), 0), 1e6),
        "formats.load_certificate_s": t("formats.load_certificate"),
        "formats.load_us_per_move": per(
            t("formats.load_certificate"),
            counts.get(("formats.load_certificate", "moves"), 0), 1e6),
        "formats.load_scaling": load_scaling(),
        "formats.dump_certificate_s": t("formats.dump_certificate"),
        "formats.dump_us_per_move": per(
            t("formats.dump_certificate"),
            counts.get(("formats.dump_certificate", "moves"), 0), 1e6),
        "formats.load_map_s": t("formats.load_map"),
        "cli.normalize_s": per(t("cli.normalize"), calls.get("cli.normalize", 0)),
        "cli.verify_s": per(t("cli.verify"), calls.get("cli.verify", 0)),
        "cli.self_s": mean_self("cli."),
        "oracle.homotopy_decide_s": t("oracle.homotopy_decide"),
        "oracle.decided": counts.get(("oracle.homotopy_decide", "decided"), 0),
        "oracle.states_explored": states,
        "oracle.states_per_s": per(states, sum(s[2] - s[1] for s in unknown)),
        "degree.triangle_count_s": t("degree.triangle_count"),
        "gridmap.trivial_extend_s": t("gridmap.trivial_extend"),
        "gridmap.subdivide_s": t("gridmap.subdivide"),
    }
