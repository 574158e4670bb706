"""Tests of the benchmark itself: span arithmetic, the gate and the workloads."""
import itertools
import json
import threading
from pathlib import Path

import numpy as np
import pytest

import gate
import spans
import workloads
from orlicz_uat import fit, measure, net, orlicz, robust, serialize, young
from orlicz_uat.fit import make_target
from orlicz_uat.robust import build_family, run_robust_experiment


def _clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_nested_self_time_subtracts_children():
    tr = spans.Tracer(clock=_clock())
    with tr.span("outer"):          # t=0 .. t=7
        with tr.span("inner"):      # t=1 .. t=2
            pass
        with tr.span("inner"):      # t=3 .. t=6
            with tr.span("leaf"):   # t=4 .. t=5
                pass
    self_s = tr.self_times()
    assert self_s == {"outer": 7.0 - 4.0, "inner": 1.0 + 2.0, "leaf": 1.0}
    assert sum(self_s.values()) == 7.0


def test_spans_on_two_threads_keep_separate_stacks():
    tr = spans.Tracer(clock=_clock())
    opened, closed = threading.Event(), threading.Event()

    def worker():
        opened.wait(timeout=10)
        with tr.span("worker"):     # t=1 .. t=2
            pass
        closed.set()

    thread = threading.Thread(target=worker)
    thread.start()
    with tr.span("main"):           # t=0 .. t=3
        opened.set()
        assert closed.wait(timeout=10)
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["worker"].parent is None
    assert tr.self_times() == {"main": 3.0, "worker": 1.0}


def _desk_run(tmp_path):
    cfg = workloads.config("desk")
    result = run_robust_experiment(cfg, out_dir=tmp_path)
    members = build_family(cfg["family"])[0].members
    return cfg, members, result


def test_gate_accepts_a_run_and_rejects_tampering(tmp_path):
    cfg, members, result = _desk_run(tmp_path)
    rows = workloads.schedule_length("desk")
    ok = gate.check(tmp_path, members, cfg, rows)
    assert ok.sup_l1 == result.report.sup_l1
    ref = {"sup_l1": ok.sup_l1, "holder_rhs": ok.holder_rhs}
    assert gate.check(tmp_path, members, cfg, rows, ref, 1e-5) == ok

    off = {"sup_l1": ok.sup_l1 * 1.001, "holder_rhs": ok.holder_rhs}
    with pytest.raises(gate.GateError, match="reference"):
        gate.check(tmp_path, members, cfg, rows, off, 1e-5)

    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["per_measure_l1"][0] *= 1.0 + 1e-6
    report_path.write_text(json.dumps(report))
    with pytest.raises(gate.GateError, match="member 0"):
        gate.check(tmp_path, members, cfg, rows)


def test_gate_rejects_a_perturbed_network(tmp_path):
    cfg, members, _ = _desk_run(tmp_path)
    network_path = tmp_path / "network.json"
    network = json.loads(network_path.read_text())
    network["layers"][-1]["b"][0] += 1e-6
    network_path.write_text(json.dumps(network))
    with pytest.raises(gate.GateError, match="member"):
        gate.check(tmp_path, members, cfg, workloads.schedule_length("desk"))


def _patchable_state():
    owners = (robust, orlicz, fit, serialize, net.Network, young.YoungFunction,
              fit.TargetFunction, measure.MeasureFamily)
    return [dict(vars(owner)) for owner in owners]


def test_traced_run_writes_the_same_bytes_and_restores_the_program(tmp_path):
    cfg = workloads.config("desk")
    before = _patchable_state()
    run_robust_experiment(cfg, out_dir=tmp_path / "plain")
    tr = spans.Tracer()
    with spans.instrument(tr), tr.span("robust.run"):
        run_robust_experiment(cfg, out_dir=tmp_path / "traced")
    assert _patchable_state() == before
    for name in gate.ARTIFACTS:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    assert tr.counts["orlicz.gauge_calls"] > 0
    assert min(s.self_s for s in tr.spans) >= 0.0


def test_instrument_refuses_a_name_the_program_lost(monkeypatch):
    monkeypatch.delattr(robust, "verify_robust_bound")
    before = _patchable_state()
    with pytest.raises(LookupError, match="robust.verify_robust_bound"):
        with spans.instrument(spans.Tracer()):
            pass
    assert _patchable_state() == before


def test_instrument_allows_the_thread_pool_to_go(monkeypatch):
    monkeypatch.delattr(robust, "ThreadPoolExecutor")
    with spans.instrument(spans.Tracer()):
        assert not hasattr(robust, "ThreadPoolExecutor")


class _Validated(Exception):
    pass


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_configs_pass_validation(name, monkeypatch, tmp_path):
    def stop(spec):
        raise _Validated
    # run_robust_experiment validates the whole config before it builds the family
    monkeypatch.setattr(robust, "build_family", stop)
    with pytest.raises(_Validated):
        run_robust_experiment(workloads.config(name), out_dir=tmp_path)
    seeds = workloads.family_seeds(name, 7)
    assert seeds[0] == 7 and len(set(seeds)) == workloads.FAMILIES[name]


@pytest.mark.parametrize("spec", [{"name": "sin_product", "dim": 2},
                                  {"name": "gaussian_blob", "dim": 1}])
def test_gate_targets_match_the_program(spec):
    X = np.random.default_rng(0).uniform(size=(50, spec["dim"]))
    np.testing.assert_allclose(gate.target_values(spec, X),
                               make_target(spec).evaluate(X), rtol=1e-15)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_panel_families_have_reference_values(name):
    known = json.loads((Path(gate.__file__).parent / "reference.json").read_text())
    for fseed in workloads.panel_seeds(name):
        assert str(fseed) in known["families"][name]
