"""The names of ``eeesim`` that the benchmark harness in perfbench/ relies on.

perfbench/ is kept apart from the package and wraps or imports some of its
names; renaming one would break only a benchmark run. These tests make such a
rename fail here too.
"""

import importlib
from pathlib import Path

from eeesim import (
    Algorithm,
    BundleConfig,
    EeePortConfig,
    SimConfig,
    run,
    scenarios,
    traffic,
)
from eeesim.eee_port import EeePort

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


def test_tracer_sees_the_handler_path(tmp_path, monkeypatch):
    # A two-frame buffer keeps the busy-period kernel out (an arrival could
    # meet a full buffer), so the port's handlers serve the stream, and the
    # tracer's class-level wrappers must see each enqueue and each drop.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer(tmp_path)
    originals = (EeePort.enqueue, EeePort.on_tx_complete)
    config = SimConfig(
        bundle=BundleConfig(n_ports=1, capacity_bps=10**9,
                            algorithm=Algorithm.CONSERVATIVE),
        port=EeePortConfig(capacity_bps=10**9, buffer_limit=2),
        duration_ns=10**7,
        warmup_ns=0,
    )
    pkts = [(i * 1000, 1500, "f", 0, i) for i in range(100)]
    try:
        tracer.install()
        report = run(config, pkts)
    finally:
        restored = tracer.uninstall()
    assert report.totals["dropped"] > 0
    assert tracer.cells["drops"][0] == report.totals["dropped"]
    assert tracer.cells["enqueue"][0] > 0
    assert restored and (EeePort.enqueue, EeePort.on_tx_complete) == originals
