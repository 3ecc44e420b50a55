"""Tests of the benchmark itself: tracer install/restore, self-time
arithmetic, the host-speed probe, repeatable traced counts, and agreement
with BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import signal
import sys
import time

import pytest

import probe
import run
import tracing

sys.path.insert(0, run.SRC)


def _workdir(name: str) -> str:
    work = os.path.join(run.RUNS, f"test-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def test_tracer_restores_every_name():
    import fedcl.store  # noqa: F401  (loads every fedcl module)

    before = {m.__name__: dict(vars(m)) for m in tracing.fedcl_modules()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.find_wrappers()
        # aliases are wrapped too: the store calls run_fl by its own name
        for name in ("fedcl.store.run_fl", "fedcl.orchestrator.compute_report",
                     "fedcl.nn.MlpModel.forward", "fedcl.continual.ReplayBuffer.add"):
            assert name in wrapped
    finally:
        tracer.uninstall()
    assert tracing.find_wrappers() == []
    for module in tracing.fedcl_modules():
        for attr, value in before[module.__name__].items():
            assert vars(module)[attr] is value, f"{module.__name__}.{attr} not restored"


def test_untraced_run_has_no_wrapper():
    work = _workdir("untraced")
    config = run.prepare("fl_grid", 0, work)
    report = run.Runner(config, 0, work).spawn("timed", os.path.join(work, "rep"))
    assert report["wrappers"] == []
    assert report["problems"] == []


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("c", 5.5, 7.0, 0),   # overlaps b: the union 5.0-7.0 counts once
        ("d", 9.5, 11.0, 0),  # runs past its parent: only 9.5-10.0 is covered
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 0.5, 2.0, 1.0, 1.0, 1.5, 1.5])


def test_summary_sums_self_time_per_function():
    tracer = tracing.Tracer()
    tracer.spans = [("store.run_suite", 0.0, 4.0, -1), ("nn.backward", 1.0, 2.0, 0),
                    ("nn.backward", 2.5, 3.0, 0)]
    summary = tracer.summary()
    assert summary["nn.backward.calls"] == 2
    assert summary["nn.backward.self_s"] == pytest.approx(1.5)
    assert summary["store.run_suite.self_s"] == pytest.approx(2.5)
    assert summary["continual.mas_importance.calls"] == 0


def test_probe_samples_while_running_and_restores_the_signal():
    host = probe.HostProbe()
    host.start()
    end = time.perf_counter() + 10 * probe.PERIOD_S
    while time.perf_counter() < end:
        sum(range(1000))
    host.stop()
    assert len(host.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert host.slowdown() == pytest.approx(sum(host.samples) / len(host.samples) / probe.REFERENCE_S)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    work = _workdir(workload)
    config = run.prepare(workload, 3, work)
    runner = run.Runner(config, 3, work)
    first, second = (runner.spawn("traced", os.path.join(work, f"traced{i}"))["layers"]
                     for i in range(2))
    counted = [k for k in first if k.endswith(".calls")] + list(tracing.COUNTERS)
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["nn.backward.train_rows"] > 0
    continual_calls = sum(first[f"{f}.calls"] for f in tracing.FUNCTIONS
                          if f.startswith("continual."))
    assert (continual_calls > 0) == (workload == "fcl_grid")
    assert (first["data.load_csv.rows"] > 0) == (workload == "central_csv")


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
