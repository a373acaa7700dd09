"""Event loop: exact timings, dispatch, epochs, metrics, oracle agreement."""

import random
from fractions import Fraction

import pytest

from eeesim import (
    Algorithm,
    BundleConfig,
    ConfigError,
    EeePortConfig,
    Packet,
    Queue,
    SimConfig,
    SimulationFault,
    TrafficClass,
    conservative_allocate,
    oracle_simulate,
    run,
)
from eeesim import eee_port
from eeesim.allocation import FlowEstimate
from eeesim.eee_port import EeePort, PortState
from eeesim.engine import FlowTable
from eeesim.traffic import cbr_slabs, merge_slabs, packets

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

def _table_with_plan(config, estimates, k):
    table = FlowTable(config)
    table.plan = conservative_allocate(estimates, k, config.bundle.n_ports)
    table.plan.algorithm = config.bundle.algorithm
    return table


def test_dispatch_known_flow_follows_plan():
    config = make_config(n_ports=5)
    flows = [FlowEstimate("a", 0, Fraction(9 * 10**9), TrafficClass.NORMAL),
             FlowEstimate("b", 0, Fraction(8 * 10**9), TrafficClass.NORMAL)]
    table = _table_with_plan(config, flows, 2)
    assert table.dispatch(Packet(0, 100, "a", 0, 0)) == (0, Queue.LOW)


def test_dispatch_unknown_flow_to_least_loaded_active_port():
    config = make_config(n_ports=5)
    flows = [FlowEstimate("a", 0, Fraction(9 * 10**9), TrafficClass.NORMAL),
             FlowEstimate("b", 0, Fraction(8 * 10**9), TrafficClass.NORMAL)]
    table = _table_with_plan(config, flows, 2)
    assert table.dispatch(Packet(0, 100, "new", 0, 0)) == (1, Queue.LOW)
    # registered: later packets take the same path
    assert table.dispatch(Packet(5, 100, "new", 0, 1)) == (1, Queue.LOW)


def test_dispatch_unknown_ll_flow_under_two_queues_gets_high_queue():
    config = make_config(n_ports=5, algorithm=Algorithm.TWO_QUEUES)
    table = FlowTable(config)
    assert table.dispatch(Packet(0, 100, "ll", 46, 0)) == (0, Queue.HIGH)
    assert table.dispatch(Packet(0, 100, "bulk", 0, 1)) == (0, Queue.LOW)


# -- control epochs --------------------------------------------------------------

def test_epoch_with_zero_counters_keeps_flows_on_port_zero():
    config = make_config(n_ports=5)
    table = FlowTable(config)
    table.dispatch(Packet(0, 1500, "a", 0, 0))
    table.counters = {}  # silent interval
    table.plan.assignments["a"] = (2, Queue.LOW)
    plan = table.control_epoch(500_000_000)
    assert plan.active_ports == 1
    assert plan.assignments["a"] == (0, Queue.LOW)


def test_epoch_sizing_at_32_5_gbps_uses_four_ports():
    config = make_config(n_ports=5)
    table = FlowTable(config)
    for i in range(8):
        table.classes[f"f{i}"] = TrafficClass.NORMAL
        table.counters[f"f{i}"] = 2_031_250_000 // 8  # 32.5 Gb/s aggregate
    plan = table.control_epoch(500_000_000)
    assert plan.active_ports == 4


def test_epoch_spare_port_places_ll_on_last_port():
    config = make_config(n_ports=5, algorithm=Algorithm.SPARE_PORT)
    table = FlowTable(config)
    table.classes = {"bulk": TrafficClass.NORMAL, "ll": TrafficClass.LOW_LATENCY}
    table.counters = {"bulk": 406_250_000, "ll": 625_000}  # 6.5 Gb/s + 10 Mb/s
    plan = table.control_epoch(500_000_000)
    assert plan.assignments["bulk"] == (0, Queue.LOW)
    assert plan.assignments["ll"] == (4, Queue.LOW)


def test_epoch_resets_counters():
    config = make_config()
    table = FlowTable(config)
    table.dispatch(Packet(0, 1500, "a", 0, 0))
    assert table.counters == {"a": 1500}
    table.control_epoch(500_000_000)
    assert table.counters == {}


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
    # A profiler or tracer wraps the port handlers and dispatch on the class;
    # on the handler path the run must go through them for every arrival and
    # transition. The busy-period kernel skips the handlers (see
    # test_kernel_counts_transitions_like_the_handlers).
    config, _ = _mixed_scenario(algorithm)
    streams = [cbr_slabs(200_000_000, 1500, 0, 40_000_000, flow=f"bulk{i}")
               for i in range(3)]
    streams.append(cbr_slabs(50_000_000, 125, 46, 40_000_000, flow="rt"))
    pkts = list(packets(merge_slabs(streams)))  # the ports drain before the 50 ms end
    plain = run(config, iter(pkts))

    calls = {}
    entered = {PortState.SLEEP_TRANS: 0, PortState.WAKE_TRANS: 0}
    dispatched = []

    def counting(name):
        original = getattr(EeePort, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(EeePort, name, wrapper)

    for name in ("enqueue", "on_tx_complete", "on_sleep_complete", "on_wake_complete"):
        counting(name)
    set_state, dispatch = EeePort._set_state, FlowTable.dispatch

    def tally_state(self, new, now):
        if new in entered:
            entered[new] += 1
        set_state(self, new, now)

    def log_dispatch(self, pkt):
        dispatched.append((pkt[2], pkt[0] // config.sampling_period_ns))
        return dispatch(self, pkt)

    monkeypatch.setattr(EeePort, "_set_state", tally_state)
    monkeypatch.setattr(FlowTable, "dispatch", log_dispatch)
    monkeypatch.setattr(eee_port, "_PATH", "handlers")
    wrapped = run(config, iter(pkts))

    assert wrapped.to_json() == plain.to_json()
    assert wrapped.departures == plain.departures
    totals = wrapped.totals
    assert totals["queued_end"] == 0 and totals["dropped"] == 0
    assert calls["enqueue"] == totals["arrived"] == len(pkts)
    assert calls["on_tx_complete"] == totals["delivered"]
    assert calls["on_wake_complete"] == entered[PortState.WAKE_TRANS] > 0
    assert calls["on_sleep_complete"] == entered[PortState.SLEEP_TRANS] > 0
    # one dispatch per (flow, control interval) with traffic, no more
    assert len(dispatched) == len(set(dispatched))
    assert set(dispatched) == {
        (p[2], p[0] // config.sampling_period_ns) for p in pkts
    }
    assert len(dispatched) < len(pkts)


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
    enqueue = EeePort.enqueue

    def lossy(self, pkt, queue, cls, now):
        result = enqueue(self, pkt, queue, cls, now)
        if pkt[4] == 2:
            self.low.tail -= 1  # accepted, then silently lost
        return result

    monkeypatch.setattr(EeePort, "enqueue", lossy)
    monkeypatch.setattr(eee_port, "_PATH", "handlers")


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


def test_report_renders_text_and_csv():
    config, pkts = _mixed_scenario(Algorithm.TWO_QUEUES)
    report = run(config, pkts)
    text = report.to_text()
    assert "normalized energy" in text
    csv_text = report.epoch_loads_csv()
    assert csv_text.splitlines()[0].startswith("epoch_ns,active_ports")
    assert len(csv_text.splitlines()) == len(report.epoch_loads) + 1
