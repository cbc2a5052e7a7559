"""Tests of the benchmark's own machinery: self time, the correctness gate
and the zero-call guard.  Run with ``python -m pytest perfbench``."""

import contextlib
import io
import json
import sys

import run
import tracer

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def test_self_time_is_span_minus_children():
    now = [0.0]
    trace = tracer.Tracer(targets=[], clock=lambda: now[0])

    def inner():
        now[0] += 4.0

    inner_w = trace.wrap("inner", inner, "fake:inner")

    def outer():
        now[0] += 1.0
        inner_w()
        inner_w()
        now[0] += 2.0

    trace.wrap("outer", outer, "fake:outer")()
    spans = {(s["name"], s["parent"]): s for s in trace.dump()["spans"]}
    assert spans[("outer", tracer.ROOT)]["total_s"] == 11.0
    assert spans[("outer", tracer.ROOT)]["self_s"] == 3.0
    assert spans[("inner", "outer")]["calls"] == 2
    assert spans[("inner", "outer")]["self_s"] == 8.0


def test_layer_metrics_cover_every_named_metric():
    dump = {"spans": [], "outcomes": {}, "sites": {}}
    metrics = tracer.layer_metrics(dump)
    assert list(metrics) == [m for m, _source, _unit in tracer.LAYER_METRICS]
    assert metrics["paths.root_op.hit_ratio"] == (0.0, "ratio")


def _tiny_workload(monkeypatch, tmp_path, expected):
    job = ("gen-A1-w1-p1.json", ["gen", "--type", "A", "--rank", "1", "--i", "1"])
    monkeypatch.setitem(run.WORKLOADS, "tiny", [job])
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(run, "SETUP_SAMPLES_PER_PASS", 1)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"jobs": {job[0]: expected}, "driven_sites": {}}))
    monkeypatch.setattr(run, "EXPECTED", str(path))


def test_corrupted_digest_fails_the_run(monkeypatch, tmp_path, capsys):
    _tiny_workload(monkeypatch, tmp_path, {"sha256": "0" * 64})
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_extra_keys_and_passing_checks_are_allowed(tmp_path):
    report = {
        "pass": True,
        "checks": [{"name": "a", "pass": True}, {"name": "new", "pass": True}],
        "counts": {"base": 3, "examined": 7},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert run.check_output(str(path), {"passing_checks": ["a"], "counts": {"base": 3}}) == []
    assert run.check_output(str(path), {"passing_checks": ["a", "b"]}) == [
        "check b does not pass"
    ]
    assert run.check_output(str(path), {"passing_checks": [], "counts": {"base": 4}}) == [
        "counts.base: expected 4, got 3"
    ]


def test_separation_check_flags_a_layer_on_the_wrong_workload():
    layers = tracer.layer_totals({"spans": [], "outcomes": {}, "sites": {}})
    assert run.separation_problems("sl2", layers, 1.0) == []
    layers["cartan.weight"]["calls"] = 5
    layers["paths.root_op"]["self_s"] = 0.2
    assert run.separation_problems("sl2", layers, 1.0) == ["cartan.weight made 5 calls on sl2"]
    assert run.separation_problems("closure", layers, 1.0) == [
        "paths.root_op.self_s is 20.0% of pass_s on closure"
    ]


def _traced_sites(unbind=None):
    import loom.cli
    import loom.paths

    argv = ["verify", "--suite", "decompose", "--type", "A", "--rank", "1", "--i", "1",
            "--m", "2", "--window", "2", "--json"]
    with tracer.Tracer() as trace:
        if unbind:
            module, name = unbind
            setattr(module, name, getattr(module, name).__wrapped__)
        with contextlib.redirect_stdout(io.StringIO()):
            assert loom.cli.main(argv) == 0
    assert not hasattr(loom.paths.raising_op, "__wrapped__")
    return trace.dump()


def test_unbound_wrapper_is_caught_by_the_zero_call_guard():
    import loom.embedding

    full = _traced_sites()
    driven = [site for site, calls in full["sites"].items() if calls]
    assert "loom.embedding:raising_op" in driven
    assert tracer.silent_sites(full, driven) == []
    partial = _traced_sites(unbind=(loom.embedding, "raising_op"))
    assert tracer.silent_sites(partial, driven) == ["loom.embedding:raising_op"]
