"""Tests of the benchmark's own output checks and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer, layer_metrics, nesting_errors  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return run.import_dpi2()


@pytest.fixture(scope="module")
def ref(api):
    return wl.Reference(api)


def flip_last_label(api, cert):
    """The certificate with its last move's label changed, which lands the
    replay on a different end map."""
    moves = list(cert.moves)
    last = moves[-1]
    moves[-1] = api.homotopy.SpiderMove(last.at, (last.new_value + 1) % 6)
    return dataclasses.replace(cert, moves=tuple(moves))


def test_classify_counts_a_flipped_label_as_failure(api, ref, monkeypatch):
    f = api.gen_random(3, 10, 10, 20, 1)
    task = wl.MapTask("I_10", f, 1)
    assert wl.check_classify(ref, task, wl.run_classify(api, task)).problems == []

    pi2_class = api.normalize.pi2_class

    def tampered(g, k=5):
        c, cert = pi2_class(g, k)
        return c, flip_last_label(api, cert)

    monkeypatch.setattr(api.normalize, "pi2_class", tampered)
    res = wl.check_classify(ref, task, wl.run_classify(api, task))
    assert any("rejected" in p for p in res.problems)
    assert not res.decided


def test_classify_counts_a_wrong_class_as_failure(api, ref):
    f = api.gen_random(3, 10, 10, 20, 1)
    c, cert, verdict = wl.run_classify(api, wl.MapTask("I_10", f, 1))
    res = wl.check_classify(ref, wl.MapTask("I_10", f, -1), (c, cert, verdict))
    assert any("planted" in p for p in res.problems)


def test_cli_chain_counts_a_flipped_label_as_failure(api, ref, tmp_path):
    tasks, _ = wl.make_cli_chain(api, 1, tmp_path)
    task = min(tasks, key=lambda t: t.f.rect.m)
    normalized, verified, cert_path = wl.run_cli_chain(api, task)
    good = wl.check_cli_chain(ref, task, (normalized, verified, cert_path))
    assert good.problems == [] and good.moves > 0

    lines = Path(cert_path).read_text(encoding="utf-8").split("\n")
    i = lines.index("end") - 1
    tag, a, b, token = lines[i].split()
    lines[i] = " ".join((tag, a, b, "2" if token != "2" else "3"))
    Path(cert_path).write_text("\n".join(lines), encoding="utf-8")
    res = wl.check_cli_chain(ref, task, (normalized, wl.run_cli(api, ["verify", cert_path]), cert_path))
    assert any("exit codes" in p for p in res.problems)


def test_oracle_counts_a_flipped_label_as_failure(api, ref):
    tasks, _ = wl.make_oracle(api, 1, Path("."))
    task = next(t for t in tasks if t.kind == "near")
    out = wl.run_oracle(api, task)
    good = wl.check_oracle(ref, task, out)
    assert good.problems == [] and good.moves == 2
    bad = dataclasses.replace(out, certificate=flip_last_label(api, out.certificate))
    assert any("rejected" in p for p in wl.check_oracle(ref, task, bad).problems)


def test_dcert_size_matches_dump(api):
    f = api.gen_random(4, 10, 10, 30, -2)
    _, cert = api.pi2_class(f)
    assert wl.dcert_size(cert) == len(api.dump_certificate(cert).encode("utf-8"))


@pytest.mark.parametrize("make", [wl.make_classify, wl.make_cli_chain, wl.make_oracle])
def test_inputs_depend_only_on_the_seed(api, make, tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        tasks, _ = make(api, seed, tmp_path / sub)
        return [(t.f.values, getattr(t, "g", t.f).values) for t in tasks]

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a2") != inputs(8, "c")


def test_anchors_reproduce_the_baseline_counts(api, ref):
    tasks, _ = wl.make_classify(api, 1, Path("."))
    # I_10 and I_20 here; the I_40 anchor is checked in every classify pass.
    for task in [t for t in tasks if t.expect and t.f.rect.m < 40]:
        res = wl.check_classify(ref, task, wl.run_classify(api, task))
        assert res.problems == [] and res.moves == task.expect[0]


def test_tracer_spans_nest_and_uninstall_restores(api):
    pi2_class = api.normalize.pi2_class
    one_step = api.homotopy._TraceBuilder.one_step
    tracer = Tracer()
    tracer.install(api)
    try:
        tracer.task = 0
        wl.run_classify(api, wl.MapTask("I_10", api.gen_random(2, 10, 10, 20, 2), 2))
    finally:
        tracer.uninstall()
    assert api.normalize.pi2_class is pi2_class
    assert api.homotopy._TraceBuilder.one_step is one_step
    names = {s[0] for s in tracer.spans}
    assert {"normalize.pi2_class", "normalize.isolate_e1", "homotopy.flood",
            "homotopy.verify", "degree.triangle_count"} <= names
    assert nesting_errors(tracer.spans) == []
    m = layer_metrics(tracer.spans)
    assert m["homotopy.flood_calls"] == 3
    assert m["homotopy.one_step_windows"] > 0
    assert 0 < m["normalize.pi2_class_self_s"] < m["normalize.pi2_class_s"]
