"""Event loop: exact timings, dispatch, epochs, metrics, oracle agreement."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_port
from eeesim import (
    Algorithm,
    BundleConfig,
    ConfigError,
    EeePortConfig,
    Packet,
    Queue,
    SimConfig,
    SimulationFault,
    oracle_simulate,
    run,
)
import eeesim
from eeesim import engine
from eeesim.allocation import flow_rank
from eeesim.eee_port import EeePort, PortState
from eeesim.engine import FlowTable
from eeesim.traffic import (
    MAX_DSCP,
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    SLAB_PKTS,
    Batch,
    batches,
    cbr_slabs,
    merge_slabs,
    packets,
)

RSEED = 77002
TEN_G = 10_000_000_000


def make_config(n_ports=1, capacity=TEN_G, algorithm=Algorithm.CONSERVATIVE,
                duration=1_000_000_000, warmup=0, period=500_000_000, **port_kw):
    return SimConfig(
        bundle=BundleConfig(n_ports=n_ports, capacity_bps=capacity,
                            algorithm=algorithm),
        port=EeePortConfig(capacity_bps=capacity, **port_kw),
        duration_ns=duration,
        sampling_period_ns=period,
        warmup_ns=warmup,
        record_departures=True,
        record_delay_log=True,
    )


# -- exact small cases ---------------------------------------------------------

def test_empty_stream_idles_at_lpi_power():
    config = make_config(n_ports=5, warmup=None)  # default warmup: one period
    config.record_departures = False
    report = run(config, iter([]))
    assert report.normalized_energy == 0.1
    assert report.mean_active_ports == 1.0
    assert report.delay["overall"] is None


def test_single_packet_wake_delay():
    config = make_config()
    report = run(config, [Packet(0, 1500, "f", 0, 0)])
    assert report.departures == {0: 5680}
    assert report.delay["overall"]["mean_us"] == 5.68


def test_three_packet_burst_departures():
    config = make_config()
    pkts = [Packet(0, 1500, "f", 0, i) for i in range(3)]
    report = run(config, pkts)
    assert report.departures == {0: 5680, 1: 6880, 2: 8080}


def test_arrival_at_exact_tx_completion_keeps_port_awake():
    # 125 B at 10 Gb/s takes exactly 100 ns, which is also the CBR spacing:
    # every arrival coincides with the previous departure and must be served
    # back to back rather than trigger a sleep/wake cycle.
    config = make_config(duration=2_000_000)
    pkts = list(packets(merge_slabs([cbr_slabs(TEN_G, 125, 0, 10_000, flow="wire")])))
    assert len(pkts) == 100
    report = run(config, pkts)
    delays = {delay for _, _, delay, _, _ in report.delay_log}
    assert delays == {4580}  # one wake for the first frame, then chained


def test_delay_decomposition_holds():
    rng = random.Random(RSEED)
    t = 0
    pkts = []
    for i in range(500):
        t += rng.randrange(0, 2_000)
        pkts.append(Packet(t, rng.randrange(64, 1518), f"f{i % 4}", 0, i))
    config = make_config(duration=t + 100_000_000, period=1_000_000)
    report = run(config, pkts)
    tx_time = config.port.tx_time_ns
    assert len(report.delay_log) == 500
    for flow, arrival, delay, started, size in report.delay_log:
        assert started >= arrival
        assert delay == (started - arrival) + tx_time(size)


# -- dispatch ------------------------------------------------------------------

PERIOD = 500_000_000


def _bytes_at(gbps):
    """Bytes a flow sends in one 500 ms period at ``gbps`` Gb/s (bits per ns)."""
    return gbps * PERIOD // 8


def _table_with_plan(config, rates_gbps):
    """A table whose first epoch planned one normal flow per ``rates_gbps`` item."""
    table = FlowTable(config)
    for seq, (flow, gbps) in enumerate(rates_gbps.items()):
        table.route_packet(Packet(0, _bytes_at(gbps), flow, 0, seq))
    table.control_epoch(PERIOD)
    return table


def test_dispatch_known_flow_follows_plan():
    config = make_config(n_ports=5)
    table = _table_with_plan(config, {"a": 9, "b": 8})  # 17 Gb/s: two ports
    assert table.plan.assignments == {"a": (0, Queue.LOW), "b": (1, Queue.LOW)}
    assert table.route_packet(Packet(PERIOD, 100, "a", 0, 2)) == (0, Queue.LOW)
    assert table.route_packet(Packet(PERIOD, 100, "b", 0, 3)) == (1, Queue.LOW)


def test_dispatch_unknown_flow_to_least_loaded_active_port():
    config = make_config(n_ports=5)
    table = _table_with_plan(config, {"a": 9, "b": 8})
    assert table.route_packet(Packet(PERIOD, 100, "new", 0, 2)) == (1, Queue.LOW)
    # registered: later packets take the same path
    assert table.route_packet(Packet(PERIOD + 5, 100, "new", 0, 3)) == (1, Queue.LOW)


def test_dispatch_unknown_ll_flow_under_two_queues_gets_high_queue():
    config = make_config(n_ports=5, algorithm=Algorithm.TWO_QUEUES)
    table = FlowTable(config)
    assert table.route_packet(Packet(0, 100, "ll", 46, 0)) == (0, Queue.HIGH)
    assert table.route_packet(Packet(0, 100, "bulk", 0, 1)) == (0, Queue.LOW)


# -- control epochs --------------------------------------------------------------

def test_epoch_with_zero_counters_keeps_flows_on_port_zero():
    config = make_config(n_ports=5)
    table = _table_with_plan(config, {"a": 6, "b": 6})
    assert table.plan.assignments["b"] == (1, Queue.LOW)
    plan = table.control_epoch(2 * PERIOD)  # silent interval
    assert plan.active_ports == 1
    assert plan.assignments == {"a": (0, Queue.LOW), "b": (0, Queue.LOW)}
    assert table.route_packet(Packet(2 * PERIOD, 100, "b", 0, 2)) == (0, Queue.LOW)


def test_epoch_sizing_at_32_5_gbps_uses_four_ports():
    config = make_config(n_ports=5)
    table = FlowTable(config)
    for i in range(8):
        table.route_packet(Packet(0, 2_031_250_000 // 8, f"f{i}", 0, i))  # 32.5 Gb/s aggregate
    plan = table.control_epoch(PERIOD)
    assert plan.active_ports == 4


def test_epoch_spare_port_places_ll_on_last_port():
    config = make_config(n_ports=5, algorithm=Algorithm.SPARE_PORT)
    table = FlowTable(config)
    table.route_packet(Packet(0, 406_250_000, "bulk", 0, 0))  # 6.5 Gb/s
    table.route_packet(Packet(0, 625_000, "ll", 46, 1))  # 10 Mb/s
    plan = table.control_epoch(PERIOD)
    assert plan.assignments["bulk"] == (0, Queue.LOW)
    assert plan.assignments["ll"] == (4, Queue.LOW)


def test_epoch_resets_counters():
    config = make_config()
    table = FlowTable(config)
    table.route_packet(Packet(0, 1500, "a", 0, 0))
    assert table.flows == ["a"] and table.nbytes[0] == 1500
    table.control_epoch(PERIOD)
    assert table.flows == ["a"] and not table.nbytes.any()


def test_epoch_rank_matches_a_fresh_sort_across_registrations(monkeypatch):
    # control_epoch re-ranks by merging the previous key order with the codes
    # registered since; the rank it hands the allocator must equal a fresh
    # sort of every key, whatever order the new keys arrive in and however
    # they interleave with the old ones.
    rng = random.Random(RSEED + 3)
    ranks = []
    estimate = engine.estimate_rates

    def log_estimate(nbytes, period, low_latency, flows, rank):
        ranks.append((list(flows), rank.copy()))
        return estimate(nbytes, period, low_latency, flows, rank)

    monkeypatch.setattr(engine, "estimate_rates", log_estimate)
    table = FlowTable(make_config(n_ports=5))
    seq = 0
    for epoch, new in enumerate([0, 1, 40, 0, 300, 7, 1000], start=1):
        for _ in range(new):
            flow = f"f{rng.randrange(10**6)}" if rng.random() < 0.9 else f"{seq}"
            table.route_packet(Packet(epoch * PERIOD - 1, 100, flow, 0, seq))
            seq += 1
        table.control_epoch(epoch * PERIOD)
        assert table._rank.tolist() == flow_rank(table.flows).tolist()
    assert [len(flows) for flows, _ in ranks] == [0, 1, 41, 41, 341, 348, 1348]
    for flows, rank in ranks:
        assert rank.tolist() == flow_rank(flows).tolist()


def test_ports_are_served_in_runs_of_one_to_two_slabs_and_match_the_oracle(monkeypatch):
    # Each port holds its routed arrivals across segments, batches and
    # epochs and is served engine._SERVE_PKTS to engine._RUN_PKTS of them
    # at a time, but for its last run. Every flow sits on port 0 until the
    # first epoch, where a 16-frame buffer drops; the plans that spread the
    # flows, and the ones that place "late", land while ports hold
    # arrivals. The stream is one batch, and port 0 takes ~1.17 runs of
    # arrivals before the first epoch: one full run, and the rest held
    # across it.
    period = 122 * engine._RUN_PKTS  # ns; ~9,550 arrivals a ms reach port 0
    streams = [cbr_slabs(4 * 10**9, 1500, 0, 12 * period, flow=f"bulk{i}")
               for i in range(4)]
    streams.append(cbr_slabs(400_000_000, 125, 46, 12 * period, flow="rt"))
    streams.append(cbr_slabs(4 * 10**9, 1500, 0, 5 * period, 7 * period, "late"))
    streams.append(cbr_slabs(4 * 10**9, 64, 0, period, flow="burst"))
    merged = list(merge_slabs(streams))
    batch = Batch(*map(np.concatenate, zip(*(b[:5] for b in merged))), merged[-1].names)
    pkts = list(packets([batch]))
    config = make_config(n_ports=3, algorithm=Algorithm.TWO_QUEUES,
                         period=period, duration=pkts[-1][0] + 5 * period,
                         buffer_limit=16)
    runs = {}
    plans = []
    serve, control_epoch = EeePort.serve, FlowTable.control_epoch

    def log_serve(self, t, *cols):
        runs.setdefault(self.index, []).append((len(t), int(t[0]), int(t[-1])))
        return serve(self, t, *cols)

    def log_epoch(self, now):
        plans.append((now, control_epoch(self, now).assignments))
        return self.plan

    monkeypatch.setattr(EeePort, "serve", log_serve)
    monkeypatch.setattr(FlowTable, "control_epoch", log_epoch)
    report = run(config, [batch])

    assert sorted(runs) == [0, 1, 2] and max(map(len, runs.values())) >= 3
    least, most = engine._SERVE_PKTS, engine._RUN_PKTS
    assert (least, most) == (SLAB_PKTS, 2 * SLAB_PKTS)
    for port_runs in runs.values():
        assert all(least <= n <= most for n, _, _ in port_runs[:-1])
        assert 0 < port_runs[-1][0] <= most
    assert runs[0][0][0] == most and runs[0][1][1] < plans[0][0] <= runs[0][1][2]
    changed = [now for (now, plan), (_, before) in zip(plans[1:], plans) if plan != before]
    spanned = [now for now in [plans[0][0], *changed] for port_runs in runs.values()
               for _, first, last in port_runs if first < now <= last]
    assert plans[0][0] in spanned and set(spanned) - {plans[0][0]}
    departures, dropped = oracle_simulate(config, pkts)
    assert report.drop_seqs == dropped and len(dropped) > 0
    assert report.departures == departures


@pytest.mark.parametrize("algorithm, ll_port, high", [
    (Algorithm.SPARE_PORT, 4, False),
    (Algorithm.TWO_QUEUES, 1, True),
])
def test_flows_register_once_and_keep_planned_routes(monkeypatch, algorithm,
                                                     ll_port, high):
    # Interval 0: "a" and "b" (6 Gb/s each) fill two ports, with a small
    # low-latency "voice". "b" is silent in interval 1 and comes back in
    # interval 2 on the port the second plan gave it. "rt", a low-latency
    # flow first seen mid-interval 1, goes at once to the spare port or the
    # high queue. The flows new in a segment are dispatched together, in
    # order of first sighting.
    config = make_config(n_ports=5, algorithm=algorithm, period=10_000,
                         duration=40_000)
    pkts = [Packet(0, 7500, "a", 0, 0), Packet(0, 7500, "b", 0, 1),
            Packet(0, 100, "voice", 46, 2),
            Packet(15_000, 7500, "a", 0, 3), Packet(15_000, 100, "rt", 46, 4),
            Packet(25_000, 7500, "b", 0, 5), Packet(25_000, 100, "rt", 46, 6)]
    dispatched, served, plans = [], [], []
    dispatch, serve, control_epoch = (FlowTable.dispatch, EeePort.serve,
                                      FlowTable.control_epoch)

    def log_dispatch(self, flows, dscp):
        dispatched.append((list(flows), dscp.tolist()))
        return dispatch(self, flows, dscp)

    def log_serve(self, t, size, flow, seq, in_high):
        served.extend((s, self.index, h) for s, h in zip(seq.tolist(), in_high.tolist()))
        return serve(self, t, size, flow, seq, in_high)

    def log_epoch(self, now):
        plans.append(control_epoch(self, now))
        return plans[-1]

    monkeypatch.setattr(FlowTable, "dispatch", log_dispatch)
    monkeypatch.setattr(EeePort, "serve", log_serve)
    monkeypatch.setattr(FlowTable, "control_epoch", log_epoch)
    run(config, pkts)
    assert dispatched == [(["a", "b", "voice"], [0, 0, 46]), (["rt"], [46])]
    first, second, _ = plans
    assert first.assignments["b"] == (1, Queue.LOW)
    assert second.assignments["b"] == (0, Queue.LOW)  # silent, planned at rate 0
    assert sorted(served) == [(0, 0, False), (1, 0, False), (2, 0, high),
                              (3, 0, False), (4, ll_port, high), (5, 0, False),
                              (6, second.assignments["rt"][0], high)]


# -- whole-run properties --------------------------------------------------------

def _mixed_scenario(algorithm, include_ll=True):
    config = SimConfig(
        bundle=BundleConfig(n_ports=5, capacity_bps=TEN_G, algorithm=algorithm),
        port=EeePortConfig(capacity_bps=TEN_G),
        duration_ns=50_000_000,
        sampling_period_ns=10_000_000,
        warmup_ns=20_000_000,
        record_departures=True,
        record_delay_log=True,
    )
    streams = [
        cbr_slabs(200_000_000, 1500, 0, 50_000_000, flow=f"bulk{i}") for i in range(3)
    ]
    if include_ll:
        streams.append(cbr_slabs(50_000_000, 125, 46, 50_000_000, flow="rt"))
    return config, list(packets(merge_slabs(streams)))


def _sort_keys(monkeypatch) -> list:
    """The dtypes of the arrays np.argsort sorts from now on."""
    keys = []
    argsort = np.argsort

    def logging(a, *args, **kwargs):
        keys.append(np.asarray(a).dtype)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", logging)
    return keys


@pytest.mark.parametrize("n_ports, key", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_segments_group_by_port_on_the_smallest_unsigned_key(monkeypatch, n_ports, key):
    keys = _sort_keys(monkeypatch)
    run(make_config(n_ports=n_ports), [Packet(0, 1500, "f", 0, 0)])
    assert {k for k in keys if k.kind == "u"} == {np.dtype(key)}


def test_flows_on_ports_past_255_match_the_oracle(monkeypatch):
    # 300 flows of 0.95 Gb/s spread over ports up to 287 of 300: a uint8 key
    # would sort port 287 with port 31
    n, period = 300, 200_000
    streams = [cbr_slabs(950_000_000, 1500, 46 if i % 7 == 0 else 0, 3 * period,
                         flow=f"f{i:03d}") for i in range(n)]
    pkts = list(packets(merge_slabs(streams)))
    config = make_config(n_ports=n, capacity=1_000_000_000, algorithm=Algorithm.TWO_QUEUES,
                         duration=3 * period + 1_000_000, period=period, buffer_limit=4)
    keys = _sort_keys(monkeypatch)
    report = run(config, pkts)
    assert {k for k in keys if k.kind == "u"} == {np.dtype(np.uint16)}
    assert max(k for _, k, _ in report.epoch_loads) > 256
    departures, dropped = oracle_simulate(config, pkts)
    assert report.departures == departures
    assert report.drop_seqs == dropped and len(dropped) > 0


def test_run_is_deterministic():
    config, pkts = _mixed_scenario(Algorithm.TWO_QUEUES)
    rep1 = run(config, iter(pkts))
    rep2 = run(config, iter(pkts))
    assert rep1.to_json() == rep2.to_json()
    assert rep1.departures == rep2.departures


def test_packet_conservation():
    rng = random.Random(RSEED + 3)
    t = 0
    pkts = []
    for i in range(2000):
        t += rng.randrange(0, 800)
        pkts.append(Packet(t, rng.randrange(64, 1518), f"f{i % 5}", 0, i))
    config = make_config(duration=t + 1, period=100_000, buffer_limit=4)
    report = run(config, pkts)
    totals = report.totals
    assert totals["arrived"] == 2000
    assert totals["arrived"] == (
        totals["delivered"] + totals["dropped"] + totals["queued_end"]
    )
    assert totals["dropped"] > 0  # the tiny buffer must actually drop


def test_delays_never_below_wire_time():
    config, pkts = _mixed_scenario(Algorithm.CONSERVATIVE)
    report = run(config, pkts)
    tx_time = config.port.tx_time_ns
    assert all(delay >= tx_time(size)
               for _, _, delay, _, size in report.delay_log)


def test_two_queues_and_conservative_share_energy_and_drops():
    config_c, pkts = _mixed_scenario(Algorithm.CONSERVATIVE)
    config_q, _ = _mixed_scenario(Algorithm.TWO_QUEUES)
    rep_c = run(config_c, iter(pkts))
    rep_q = run(config_q, iter(pkts))
    assert rep_c.energy_by_state_ns == rep_q.energy_by_state_ns
    assert rep_c.port_state_ns == rep_q.port_state_ns
    assert rep_c.normalized_energy == rep_q.normalized_energy
    assert rep_c.drops == rep_q.drops
    assert rep_c.mean_active_ports == rep_q.mean_active_ports


@st.composite
def _shared_size_streams(draw):
    n_ports = draw(st.integers(1, 4))
    capacity = draw(st.sampled_from([1_000_000_000, TEN_G]))
    size = draw(st.sampled_from([125, 1500]))
    unit = size * 8_000_000_000 // capacity // 2  # half a frame's wire time
    # (gap in units, flow, dscp); gap 0 makes bursts that fill small buffers
    rows = draw(st.lists(
        st.tuples(st.sampled_from([0, 0, 1, 2, 5, 12]), st.integers(0, 4),
                  st.sampled_from([0, 46])),
        min_size=1, max_size=60,
    ))
    pkts, t = [], 0
    for seq, (gap, flow, dscp) in enumerate(rows):
        t += gap * unit
        pkts.append(Packet(t, size, f"f{flow}", dscp, seq))
    period = draw(st.sampled_from([5, 20, 60])) * unit
    # cut the run before the ports drain, or let them drain
    duration = t + draw(st.sampled_from([1, 4 * unit, 200 * unit]))
    warmup = draw(st.sampled_from([0, period])) if period < duration else 0
    port = EeePortConfig(capacity_bps=capacity,
                         buffer_limit=draw(st.sampled_from([1, 2, 3, 8, 10000])))
    return n_ports, capacity, port, duration, period, warmup, pkts


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_shared_size_streams())
def test_two_queues_keeps_conservatives_placement_and_energy(case):
    # The paper's claim: separating real-time traffic into a priority queue
    # costs no energy. two_queues places flows as conservative does, and a
    # port is work-conserving and non-preemptive with one shared tail-drop
    # buffer, so only the order of service differs. With one frame size the
    # start instants do not depend on that order, and neither do the
    # buffer's occupancy, the drops or the frames done by the end.
    n_ports, capacity, port, duration, period, warmup, pkts = case
    reports = []
    for algorithm in (Algorithm.CONSERVATIVE, Algorithm.TWO_QUEUES):
        config = SimConfig(
            bundle=BundleConfig(n_ports=n_ports, capacity_bps=capacity,
                                algorithm=algorithm),
            port=port, duration_ns=duration, sampling_period_ns=period,
            warmup_ns=warmup,
        )
        reports.append(run(config, pkts))
    cons, two = reports
    assert two.energy_by_state_ns == cons.energy_by_state_ns
    assert two.port_state_ns == cons.port_state_ns
    assert two.totals == cons.totals
    assert two.mean_active_ports == cons.mean_active_ports
    assert two.epoch_loads == cons.epoch_loads


def test_spare_port_does_not_touch_normal_delays():
    # Same bulk traffic with and without a low-latency companion flow: under
    # the spare-port algorithm every post-warmup bulk delay is bit-identical
    # to a conservative run on the bulk-only trace.
    config_sp, merged = _mixed_scenario(Algorithm.SPARE_PORT, include_ll=True)
    config_c, bulk_only = _mixed_scenario(Algorithm.CONSERVATIVE, include_ll=False)
    rep_sp = run(config_sp, merged)
    rep_c = run(config_c, bulk_only)

    def bulk_delays(report):
        return sorted(
            (flow, arrival, delay)
            for flow, arrival, delay, _, _ in report.delay_log
            if flow.startswith("bulk")
        )

    assert bulk_delays(rep_sp) == bulk_delays(rep_c)


def test_small_scale_port_count():
    # 2.6 Gb/s across 13 flows on 5x1G concentrates on exactly three ports.
    config = SimConfig(
        bundle=BundleConfig(n_ports=5, capacity_bps=1_000_000_000,
                            algorithm=Algorithm.CONSERVATIVE),
        port=EeePortConfig(capacity_bps=1_000_000_000),
        duration_ns=20_000_000,
        sampling_period_ns=5_000_000,
        warmup_ns=10_000_000,
    )
    streams = [
        cbr_slabs(200_000_000, 1500, 0, 20_000_000, flow=f"f{i}") for i in range(13)
    ]
    report = run(config, merge_slabs(streams))
    assert report.mean_active_ports == 3.0


@pytest.mark.parametrize("algorithm", [Algorithm.SPARE_PORT, Algorithm.TWO_QUEUES])
def test_class_level_handler_wrappers_see_every_call(monkeypatch, algorithm):
    # A profiler or tracer wraps the port handlers and dispatch on the class.
    # A run serves and drains its ports without a handler call; the
    # reference driver, which serves them through the handlers, goes
    # through the wrappers for every arrival and transition.
    config, _ = _mixed_scenario(algorithm)
    streams = [cbr_slabs(200_000_000, 1500, 0, 40_000_000, flow=f"bulk{i}")
               for i in range(3)]
    streams.append(cbr_slabs(50_000_000, 125, 46, 40_000_000, flow="rt"))
    pkts = list(packets(merge_slabs(streams)))  # the ports drain before the 50 ms end
    plain = run(config, iter(pkts))

    calls = dict.fromkeys(("enqueue", "on_tx_complete", "on_sleep_complete",
                           "on_wake_complete"), 0)
    entered = {PortState.SLEEP_TRANS: 0, PortState.WAKE_TRANS: 0}
    dispatched = []

    def counting(name):
        original = getattr(EeePort, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(EeePort, name, wrapper)

    for name in calls:
        counting(name)
    set_state, dispatch = EeePort._set_state, FlowTable.dispatch

    def tally_state(self, new, now):
        if new in entered:
            entered[new] += 1
        set_state(self, new, now)

    def log_dispatch(self, flows, dscp):
        dispatched.append(list(flows))
        return dispatch(self, flows, dscp)

    monkeypatch.setattr(EeePort, "_set_state", tally_state)
    monkeypatch.setattr(FlowTable, "dispatch", log_dispatch)
    wrapped = run(config, iter(pkts))
    assert wrapped.to_json() == plain.to_json()
    assert not any(calls.values())
    monkeypatch.setattr(EeePort, "serve", reference_port.serve)
    monkeypatch.setattr(EeePort, "drain", reference_port.drain)
    by_handlers = run(config, iter(pkts))

    assert by_handlers.to_json() == plain.to_json()
    assert by_handlers.departures == plain.departures
    totals = by_handlers.totals
    assert totals["queued_end"] == 0 and totals["dropped"] == 0
    assert calls["enqueue"] == totals["arrived"] == len(pkts)
    assert calls["on_tx_complete"] == totals["delivered"]
    assert calls["on_wake_complete"] == entered[PortState.WAKE_TRANS] > 0
    assert calls["on_sleep_complete"] == entered[PortState.SLEEP_TRANS] > 0
    # every flow starts in the first segment: one dispatch per run registers
    # them all, in order of first sighting
    assert dispatched == [list(dict.fromkeys(p[2] for p in pkts))] * 2


def test_batches_with_tables_of_their_own_map_their_names_afresh():
    # each half numbers its flows in another order; the run follows the names
    config = make_config(n_ports=3, algorithm=Algorithm.TWO_QUEUES, period=20_000,
                         duration=300_000)
    config.track_flows = frozenset({"a", "c"})
    flows = ["a", "b", "c"] * 40 + ["c", "b", "a"] * 40
    pkts = [Packet(i * 1000, 1500 if f == "a" else 64, f, 46 * (f == "c"), i)
            for i, f in enumerate(flows)]
    halves = [*batches(pkts[:120]), *batches(pkts[120:])]
    assert halves[0].names == ["a", "b", "c"] and halves[1].names == ["c", "b", "a"]
    assert run(config, halves).to_json() == run(config, pkts).to_json()


def test_a_tuple_stream_reaches_the_run_cap(monkeypatch):
    # batches() packs tuples a run cap at a time, so engine._RUN_PKTS tuples
    # to one port make one serve call, as one Batch of the same rows does
    n = engine._RUN_PKTS
    config = make_config(duration=50_000_000)
    pkts = [Packet(i * 1300, 1500, "f", 0, i) for i in range(n)]
    t, size, _, dscp, seq = zip(*pkts)
    batch = Batch(*map(np.array, (t, size, [0] * n, dscp, seq)), ["f"])
    served = []
    serve = EeePort.serve

    def logging(port, t, *cols):
        served.append(len(t))
        return serve(port, t, *cols)

    monkeypatch.setattr(EeePort, "serve", logging)
    by_tuples = run(config, iter(pkts))
    assert served == [n]
    by_batch = run(config, [batch])
    assert served == [n, n]
    assert by_tuples.to_json() == by_batch.to_json()
    assert by_tuples.departures == by_batch.departures and len(by_batch.departures) == n


# -- oracle agreement ------------------------------------------------------------

def test_oracle_matches_run_on_random_traces():
    rng = random.Random(RSEED + 11)
    algorithms = list(Algorithm)
    for trial in range(12):
        n_ports = rng.randint(1, 5)
        cap = rng.choice([1_000_000_000, TEN_G])
        flows = [f"f{i}" for i in range(rng.randint(1, 6))]
        t = 0
        pkts = []
        for seq in range(rng.randint(1, 400)):
            t += rng.randrange(0, 20_000)
            pkts.append(Packet(t, rng.randrange(64, 1518), rng.choice(flows),
                               rng.choice([0, 0, 46]), seq))
        config = SimConfig(
            bundle=BundleConfig(n_ports=n_ports, capacity_bps=cap,
                                algorithm=algorithms[trial % len(algorithms)]),
            port=EeePortConfig(capacity_bps=cap,
                               buffer_limit=rng.choice([4, 10000])),
            duration_ns=t + 50_000_000,
            sampling_period_ns=rng.choice([500_000, 2_000_000]),
            warmup_ns=0,
            record_departures=True,
        )
        report = run(config, iter(pkts))
        departures, dropped = oracle_simulate(config, pkts)
        assert report.departures == departures
        assert report.drop_seqs == dropped


# -- validation -------------------------------------------------------------------

def test_unordered_stream_faults():
    config = make_config()
    pkts = [Packet(100, 100, "a", 0, 0), Packet(50, 100, "a", 0, 1)]
    with pytest.raises(SimulationFault):
        run(config, pkts)


def _lose_third_frame(monkeypatch):
    serve = EeePort.serve

    def lossy(self, *arrivals):
        served = serve(self, *arrivals)
        if 2 in arrivals[3]:
            self.low.tail -= 1  # the third frame, accepted, then silently lost
        return served

    monkeypatch.setattr(EeePort, "serve", lossy)


def _skip_final_accounting(monkeypatch):
    monkeypatch.setattr(EeePort, "finalize", lambda self, end: None)


@pytest.mark.parametrize("breakage, message", [
    (_lose_third_frame, "packet conservation"),
    (_skip_final_accounting, "state residence"),
])
def test_broken_invariant_raises_fault(monkeypatch, breakage, message):
    breakage(monkeypatch)
    pkts = [Packet(0, 1500, "f", 0, i) for i in range(3)]
    with pytest.raises(SimulationFault, match=message):
        run(make_config(), pkts)


def test_invalid_window_rejected():
    config = make_config()
    config.warmup_ns = config.duration_ns
    with pytest.raises(ConfigError):
        run(config, [])


def test_duration_beyond_int64_rejected():
    config = make_config()
    config.duration_ns = 2**63
    with pytest.raises(ConfigError, match="below 2"):
        run(config, [])


def test_unequal_bundle_and_port_capacities_rejected():
    # plans would size a 10G bundle while its 1G ports drop the excess
    config = make_config(n_ports=5)
    config.port.capacity_bps = 1_000_000_000
    pkts = [Packet(i * 4_000, 1500, "cbr", 0, i) for i in range(100)]  # 3 Gb/s
    with pytest.raises(ConfigError, match=r"bundle\.capacity_bps .* port\.capacity_bps"):
        run(config, pkts)


def test_packet_size_outside_the_frame_range_rejected():
    # a 10**17-byte frame would take its wire time out of int64
    for size in (MIN_FRAME_BYTES - 1, MAX_FRAME_BYTES + 1, 10**17):
        pkts = [Packet(0, 1500, "f", 0, 0), Packet(5, size, "f", 0, 1)]
        with pytest.raises(ConfigError, match=r"packet size outside \[64, 9216\]"):
            run(make_config(), pkts)


def test_packet_field_beyond_int64_rejected():
    pkts = [Packet(0, 1500, "f", 0, 0), Packet(5, 1500, "f", 0, 2**63)]
    with pytest.raises(ConfigError, match="^packet field exceeds the int64 range$"):
        run(make_config(), pkts)


def test_packet_dscp_outside_its_range_rejected():
    for dscp in (-1, MAX_DSCP + 1):
        pkts = [Packet(0, 1500, "f", 0, 0), Packet(5, 1500, "f", dscp, 1)]
        with pytest.raises(ConfigError, match=r"packet dscp outside \[0, 63\]"):
            run(make_config(), pkts)


def test_low_latency_dscp_outside_its_range_rejected():
    # dispatch classifies a flow by indexing a table of the 64 dscps
    for dscp in (-1, MAX_DSCP + 1, 99, "46"):
        config = make_config()
        config.ll_dscps = frozenset({46, dscp})
        with pytest.raises(ConfigError, match=rf"^ll_dscps: dscp {dscp!r} outside \[0, 63\]"):
            run(config, [])


def test_report_renders_text_and_csv():
    config, pkts = _mixed_scenario(Algorithm.TWO_QUEUES)
    report = run(config, pkts)
    text = report.to_text()
    assert "normalized energy" in text
    csv_text = report.epoch_loads_csv()
    assert csv_text.splitlines()[0].startswith("epoch_ns,active_ports")
    assert len(csv_text.splitlines()) == len(report.epoch_loads) + 1


def test_report_renders_a_class_without_packets():
    # normal packets only: the low-latency class has no delay to show
    rows = run(make_config(), [Packet(0, 1500, "f", 0, 0)]).to_text().splitlines()
    delay = {r.split()[1]: r for r in rows if r.startswith("delay ")}
    assert delay["low_latency"].endswith("  no packets")
    assert delay["overall"].endswith("n=1") and delay["normal"].endswith("n=1")


# -- delay statistics ---------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(samples=st.lists(st.one_of(st.integers(0, 10**9), st.integers(0, 2**63 - 1)),
                        min_size=1, max_size=300))
def test_delay_stats_equal_numpy_median_and_percentile(samples):
    # one partition gives np.median and np.percentile(99) bit for bit
    stats = engine._delay_stats(list(samples))
    arr = np.array(samples, dtype=np.int64)
    assert stats["median_us"] == float(np.median(arr)) / 1000.0
    assert stats["p99_us"] == float(np.percentile(arr, 99)) / 1000.0
    assert stats["count"] == len(samples)


def test_a_run_leaves_numpy_ma_unimported():
    # np.percentile and np.unique import numpy.ma, 7-10 ms of a cold process
    code = """
import sys
from eeesim import Algorithm, BundleConfig, EeePortConfig, SimConfig, run
from eeesim.traffic import cbr_slabs, merge_slabs
for algorithm in Algorithm:
    config = SimConfig(BundleConfig(3, 10**9, algorithm), EeePortConfig(10**9, buffer_limit=4),
                       duration_ns=10**7, sampling_period_ns=10**6, warmup_ns=0,
                       track_flows=frozenset({"b"}))
    streams = [cbr_slabs(9 * 10**8, 1500, 46 * (i == 1), 10**7, flow=f) for i, f in enumerate("abc")]
    assert run(config, merge_slabs(streams)).delay["overall"]["count"]
assert "numpy.ma" not in sys.modules
"""
    src = Path(eeesim.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
