"""The names of ``eeesim`` that the benchmark harness in perfbench/ relies on.

perfbench/ is kept apart from the package and wraps or imports some of its
names; renaming one would break only a benchmark run. These tests make such a
rename fail here too.
"""

import hashlib
import importlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

import reference_port
from eeesim import (
    Algorithm,
    BundleConfig,
    EeePortConfig,
    SimConfig,
    cli,
    engine,
    run,
    scenarios,
    traffic,
)
from eeesim.eee_port import EeePort
from eeesim.engine import FlowTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_wrapper(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer(tmp_path)
    try:
        tracer.install()
        assert scenarios.merge is not traffic.merge_slabs
    finally:
        restored = tracer.uninstall()
    assert restored
    assert scenarios.merge is traffic.merge_slabs


def test_read_trace_yields_one_item_per_data_row(tmp_path):
    data = (b't_ns,flow,bytes,dscp\n0,a,100,0\n0,"b,c",64,46\n'
            b"7,\xc3\xa9,1500,0\n9,a,200,63\n")
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    assert sum(1 for _ in traffic.read_trace(path)) == data.count(b"\n") - 1


def _two_frame_buffer():
    """A one-port config with a two-frame buffer, and a stream that overfills it."""
    config = SimConfig(
        bundle=BundleConfig(n_ports=1, capacity_bps=10**9,
                            algorithm=Algorithm.CONSERVATIVE),
        port=EeePortConfig(capacity_bps=10**9, buffer_limit=2),
        duration_ns=10**7,
        warmup_ns=0,
    )
    return config, [(i * 1000, 1500, "f", 0, i) for i in range(100)]


def test_tracer_sees_the_handler_path(tmp_path, monkeypatch):
    # The tracer's class-level wrappers see each enqueue and each drop of
    # the reference driver, which serves the ports through the handlers.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(EeePort, "serve", reference_port.serve)
    monkeypatch.setattr(EeePort, "drain", reference_port.drain)
    tracer = importlib.import_module("tracer").Tracer(tmp_path)
    originals = (EeePort.enqueue, EeePort.on_tx_complete)
    config, pkts = _two_frame_buffer()
    try:
        tracer.install()
        report = run(config, pkts)
    finally:
        restored = tracer.uninstall()
    assert report.totals["dropped"] > 0
    assert tracer.cells["drops"][0] == report.totals["dropped"]
    assert tracer.cells["enqueue"][0] == len(pkts)
    assert restored and (EeePort.enqueue, EeePort.on_tx_complete) == originals


def test_a_run_serves_a_dropping_stream_without_the_handlers(monkeypatch):
    # The port's own serve and drain take the runs that drop too: the
    # two-frame buffer's stream makes no enqueue call and gives the
    # reference driver's report.
    config, pkts = _two_frame_buffer()
    enqueued = []
    enqueue = EeePort.enqueue

    def counting(self, *args):
        enqueued.append(args[-1])
        return enqueue(self, *args)

    monkeypatch.setattr(EeePort, "enqueue", counting)
    by_port = run(config, pkts)
    assert not enqueued
    monkeypatch.setattr(EeePort, "serve", reference_port.serve)
    monkeypatch.setattr(EeePort, "drain", reference_port.drain)
    by_handlers = run(config, pkts)
    assert len(enqueued) == len(pkts)
    assert by_port.totals["dropped"] > 0
    assert by_port.to_json() == by_handlers.to_json()


def test_tracer_counts_registrations_and_estimated_flows(tmp_path, monkeypatch):
    # Dispatch runs once per segment that holds new flows and registers them
    # together, and every epoch estimates every flow registered before it,
    # silent ones included.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer(tmp_path)
    originals = (FlowTable.dispatch, FlowTable.control_epoch,
                 engine.estimate_rates, engine.allocate)
    period = 10_000
    config = SimConfig(
        bundle=BundleConfig(n_ports=3, capacity_bps=10**10,
                            algorithm=Algorithm.TWO_QUEUES),
        port=EeePortConfig(capacity_bps=10**10),
        duration_ns=6 * period,
        sampling_period_ns=period,
        warmup_ns=0,
    )
    # flow f<i> starts in interval i // 2; the even ones send in that one only
    pkts = []
    for t in range(0, 5 * period, 500):
        for i in range(10):
            if i // 2 * period <= t and (i % 2 or t < (i // 2 + 1) * period):
                pkts.append((t, 1500, f"f{i}", 46 if i % 3 == 0 else 0, len(pkts)))
    try:
        tracer.install()
        run(config, pkts)
    finally:
        restored = tracer.uninstall()
    # the flows start in intervals 0-4, two in each: one segment apiece
    assert len({p[2] for p in pkts}) == 10
    assert tracer.cells["dispatch"][0] == 5
    estimated = [span[5]["flows"] for span in tracer.spans
                 if span[1] == "allocation.estimate_rates"]
    assert estimated == [len({p[2] for p in pkts if p[0] < e * period})
                         for e in range(1, 6)]
    assert restored
    assert (FlowTable.dispatch, FlowTable.control_epoch,
            engine.estimate_rates, engine.allocate) == originals


def test_tracer_sees_every_job_of_a_trace_sweep(tmp_path, monkeypatch):
    # The jobs of a sweep replay one parse of their trace, but each still
    # builds its own stream (tracer_saw_every_job) and merges the same
    # batches (traffic.pkts counts them).
    monkeypatch.syspath_prepend(str(PERFBENCH))
    rows = "".join(f"{i * 700},f{i % 13},{(64, 1500)[i % 2]},{(0, 46)[i % 5 == 0]}\n"
                   for i in range(10_000))
    trace = tmp_path / "trace.csv"
    trace.write_text("t_ns,flow,bytes,dscp\n" + rows)
    scenario = scenarios.Scenario.from_dict({
        "name": "traced",
        "sim": {"sampling_period_ns": 1_000_000, "duration_ns": 10_000_000},
        "sources": [{"kind": "trace", "path": str(trace)}],
        "algorithms": ["conservative", "spare_port", "two_queues"],
    })
    tracer = importlib.import_module("tracer").Tracer(tmp_path)
    try:
        tracer.install()
        jobs, _ = scenarios.run_sweep(scenario, threads=1)
    finally:
        restored = tracer.uninstall()
    assert restored
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span[1]].append(span[5])
    assert len(spans["scenarios.build_stream"]) == len(jobs) == 3
    # the slabs and batches of one read outside a sweep
    slabs = list(traffic.trace_slabs(trace))
    merged = list(traffic.merge_slabs([slabs]))
    assert [s["pkts"] for s in spans["traffic.synth"]] == [len(slabs)] * 3
    assert [s["pkts"] for s in spans["traffic.merge"]] == [len(merged)] * 3


@pytest.mark.parametrize("name", ["qos-point", "testbed-sweep", "trace-replay"])
def test_workload_outputs_match_the_recorded_digests(tmp_path, monkeypatch, name):
    # Each workload's own command, run in this process, writes the bytes
    # whose digests the benchmark checks.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("run").WORKLOADS[name]
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[name]
    if workload.seeded:  # the trace and the scenario, where its command finds them
        trace = tmp_path / ".perfbench-work" / "trace-replay" / "trace.csv"
        trace.parent.mkdir(parents=True)
        trace.write_bytes(importlib.import_module("tracegen").generate(recorded["seed"]))
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == recorded["trace_csv"]
        (tmp_path / "perfbench").symlink_to(PERFBENCH)
        monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert cli.main([*workload.argv, "--output-dir", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == recorded["files"]
