"""Tests of the benchmark's own machinery: the gate, the host speed probe
and the tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import signal
import time

import pytest

import hostspeed
import workloads as wl

wl.import_nudgeflow()

from nudgeflow.config import default_config  # noqa: E402
from nudgeflow.experiments import FAIL, PASS, ExperimentReport  # noqa: E402

import worker  # noqa: E402
from tracer import ROLES, Tracer, instrument, layer_metrics  # noqa: E402

DEFAULT_SEED = default_config().seed
TAU = wl.WORKLOADS["tau_sweep_nse"]
COUNTERS = (
    "operators.advect_raw.calls",
    "krylov.gmres.iters_per_solve",
    "schemes.picard_per_step",
    "schemes.check_applies_per_step",
)


@pytest.fixture(scope="module")
def tau_report(tmp_path_factory):
    return wl.run_call(TAU, DEFAULT_SEED, str(tmp_path_factory.mktemp("tau")))


def test_recorded_reference_passes_and_perturbed_reference_fails(tau_report):
    seed, expected = wl.recorded(TAU, DEFAULT_SEED)
    assert seed == DEFAULT_SEED
    calls = worker.Calls(expected)
    calls.check(tau_report)
    assert (calls.attempted, calls.failed) == (1, 0), calls.problems

    key = next(iter(calls.expected))
    calls.expected = dict(calls.expected, **{key: calls.expected[key] * (1 + 2 * wl.RTOL)})
    calls.check(tau_report)
    assert (calls.attempted, calls.failed) == (2, 1)
    assert key in calls.problems[0]


def test_fail_check_and_raising_call_count_as_failed():
    report = ExperimentReport("x", "semi_implicit", 0)
    report.add_check("a", PASS)
    assert wl.gate(report, None) == []
    report.add_check("b", FAIL, "broken")
    assert wl.gate(report, None) == ["check b = fail"]

    calls = worker.Calls(wl.recorded(TAU, 0)[1])
    calls.check(None)
    assert (calls.attempted, calls.failed) == (1, 1)


def test_unrecorded_seed_runs_as_a_recorded_one():
    assert wl.recorded(TAU, 7)[0] == 7
    seed, expected = wl.recorded(TAU, 10**9 + 3)
    assert seed == (10**9 + 3) % wl.RECORDED_SEEDS
    assert expected == wl.load_reference()[TAU.name][str(seed)]


def _traced_metrics(tmp_path, seed):
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        wl.run_call(TAU, seed, str(tmp_path), tracer)
    finally:
        restore()
    return layer_metrics(tracer, 1)


def test_counters_repeat_exactly_and_patches_are_undone(tmp_path):
    from nudgeflow import schemes

    original = schemes.gmres
    first = _traced_metrics(tmp_path, 3)
    assert schemes.gmres is original
    second = _traced_metrics(tmp_path, 3)
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}
    assert first["schemes.picard_per_step"] == 1.0  # semi-implicit: one solve per step
    # the roles the tracer attributes steps to are the ones the workload declares
    traced = {r: first[f"schemes.unknowns.{r}"] for r in ROLES if first[f"schemes.steps.{r}"]}
    assert traced == wl.unknowns_by_role(TAU)


def test_missing_entry_point_raises_and_leaves_nothing_patched(monkeypatch):
    from nudgeflow import experiments, schemes

    original = schemes.gmres
    monkeypatch.delattr(experiments, "norm_DA")
    with pytest.raises(AttributeError, match="norm_DA"):
        instrument(Tracer())
    assert schemes.gmres is original


def test_layer_metrics_attribute_roles_and_self_time():
    tracer = Tracer()
    spans = {}

    def span(name, start, end, parent=None, **facts):
        sid = len(tracer.names)
        tracer.names.append(name)
        tracer.parents.append(spans.get(parent, -1))
        tracer.starts.append(start)
        tracer.ends.append(end)
        if facts:
            tracer.facts[sid] = facts
        spans[name + str(start)] = sid
        return name + str(start)

    run = span("experiments.run", 0.0, 10.0)
    truth = span("experiments.build_truth", 0.0, 4.0, run)
    t_adv = span("schemes.advance", 0.0, 4.0, truth, steps=4, unknowns=100)
    span("operators.advect_raw", 0.0, 1.0, t_adv)
    adv = span("schemes.advance", 5.0, 9.0, run, steps=2, unknowns=50)
    gm = span("krylov.gmres", 5.0, 7.0, adv, iterations=3, converged=True)
    op = span("krylov.apply_op", 5.0, 6.0, gm)
    span("operators.advect_raw", 5.0, 6.0, op)
    span("operators.advect_raw", 7.0, 7.5, adv)
    span("experiments.on_step", 8.0, 8.5, adv)

    m = layer_metrics(tracer, 1)
    assert m["schemes.steps.truth"] == 4 and m["schemes.steps.assimilation"] == 2
    assert m["schemes.unknowns.truth"] == 100 and m["schemes.unknowns.assimilation"] == 50
    assert m["schemes.check_applies_per_step.truth"] == 0.25
    assert m["schemes.applies_per_step.assimilation"] == 1.0
    assert m["schemes.check_applies_per_step.assimilation"] == 0.5
    assert m["krylov.gmres.iters_per_solve"] == 3
    assert m["krylov.gmres.overhead_us_per_iter"] == pytest.approx(1e6 / 3)
    # advance 4 s minus GMRES 2 s, check apply 0.5 s and on_step 0.5 s, over 2 steps
    assert m["schemes.step_overhead_us.assimilation"] == pytest.approx(0.5e6)
    assert m["experiments.self_s"] == pytest.approx(2.0)
    assert m["experiments.truth.s"] == 4.0


def test_host_speed_probe_samples_and_rescales():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        deadline = time.perf_counter() + 20 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 10 and min(probe.samples) > 0

    ref = hostspeed.REFERENCE_KERNEL_S
    assert hostspeed.rescale(3.0, [ref, ref]) == pytest.approx(3.0)
    # the kernel ran at half the reference speed throughout the call
    assert hostspeed.rescale(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        hostspeed.rescale(3.0, [])
