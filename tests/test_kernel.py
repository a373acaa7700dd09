"""Busy-period kernel against the handlers and the oracle.

:meth:`EeePort.serve` serves each run of arrivals with the busy-period
kernel and :meth:`EeePort.drain` finishes a port in closed form. These
tests run the engine on them (``"kernel"``) and on the per-event reference
driver of ``reference_port`` (``"handlers"``), which serves the same runs
through the port's handlers, and require the same reports, departures,
drops and port states after every ``serve`` call. Every time is a multiple
of ``UNIT``, so arrivals often fall exactly on a transmit, sleep or wake
completion or on an epoch. Ports are served every ``k`` arrivals, so frames
are also held from one ``serve`` call to the next. Where every frame is in
one queue, the blocks that decide the drops are held to the per-start
steps as well. ``drain`` is held to the driver at arbitrary horizons.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_port
from eeesim import (
    Algorithm,
    BundleConfig,
    ConfigError,
    EeePortConfig,
    Packet,
    SimConfig,
    SimulationFault,
    eee_port,
    engine,
    oracle_simulate,
    run,
)
from eeesim.eee_port import EeePort
from eeesim.engine import _delay_stats
from eeesim.traffic import (
    MAX_FRAME_BYTES,
    SLAB_PKTS,
    Batch,
    cbr_slabs,
    merge_slabs,
    packets,
)

UNIT = 100  # ns
#: wire times 100, 200 and 1200 ns at 10 Gb/s; ten times that at 1 Gb/s
SIZES = (125, 250, 1500)
CAPACITIES = (1_000_000_000, 10_000_000_000)
TEN_G = 10_000_000_000
#: arrivals per segment and per serve call; 4096 serves each port once
SERVE_SIZES = st.sampled_from([1, 2, 3, 7, 4096])

_STATE = ("state", "state_since", "next_at", "clock", "tx_packet", "tx_class",
          "tx_start", "residence_ns", "wakes", "sleeps")


def _queued(queue):
    """The frames waiting in one of a port's queues, as ``(pkt, cls)`` pairs."""
    t, size, flow, dscp, seq, ci, _ = (col.tolist() for col in queue.waiting())
    return list(zip(zip(t, size, flow, dscp, seq), ci))


def _snapshot(port):
    fields = {name: getattr(port, name) for name in _STATE}
    fields["residence_ns"] = list(port.residence_ns)
    fields["high"], fields["low"] = _queued(port.high), _queued(port.low)
    return port.index, fields


def _batches(pkts, cuts):
    """``pkts`` as batches cut before each position in ``cuts``; their flows
    are codes into one table of names, which grows as new names appear."""
    bounds = sorted({c for c in cuts if 0 < c < len(pkts)}) + [len(pkts)]
    code, names = {}, []
    lo = 0
    for hi in bounds:
        t, size, flow, dscp, seq = zip(*pkts[lo:hi])
        codes = [code.setdefault(f, len(code)) for f in flow]
        names += list(code)[len(names):]
        yield Batch(np.array(t), np.array(size), np.array(codes), np.array(dscp),
                    np.array(seq), names)
        lo = hi


def _run(monkeypatch, path, config, stream):
    """Report of ``run`` with the ports served on ``path``, ``"kernel"`` or
    ``"handlers"``, and each port's state and what it returned after every
    ``serve`` call."""
    states = []
    serve = EeePort.serve if path == "kernel" else reference_port.serve

    def recording(port, *arrivals):
        *served, dropped = serve(port, *arrivals)
        seq = arrivals[4]
        states.append((_snapshot(port), _returned(served), seq[dropped].tolist()))
        return (*served, dropped)

    with monkeypatch.context() as m:
        if path == "handlers":
            m.setattr(EeePort, "drain", reference_port.drain)
        m.setattr(EeePort, "serve", recording)
        report = run(config, stream)
    return report, states


def _returned(served):
    """The completions of one ``serve`` or ``drain`` return, independent of
    the path: sorted ``(seq, start, end)`` of the frames done."""
    (_, _, _, _, seq, _), start, end, done = served
    return sorted(zip(seq[done].tolist(), start[done].tolist(), end[done].tolist()))


def _assert_same(a, b):
    assert a.to_json() == b.to_json()
    assert a.departures == b.departures
    assert a.drop_seqs == b.drop_seqs
    assert a.delay_log is None or sorted(a.delay_log) == sorted(b.delay_log)
    assert a.transitions == b.transitions


@st.composite
def cases(draw):
    params = {
        "n_ports": draw(st.integers(1, 3)),
        "capacity": draw(st.sampled_from(CAPACITIES)),
        "algorithm": draw(st.sampled_from([a.value for a in Algorithm])),
        "t_sleep": draw(st.sampled_from([0, UNIT, 3 * UNIT, 23 * UNIT])),
        "t_wake": draw(st.sampled_from([0, UNIT, 2 * UNIT, 45 * UNIT])),
        "buffer_limit": draw(st.sampled_from([1, 2, 3, 5, 10000])),
        "period": draw(st.sampled_from([10 * UNIT, 30 * UNIT, 100 * UNIT])),
    }
    # (gap in units, size, flow, dscp); gap 0 puts arrivals in one nanosecond
    rows = draw(st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(SIZES),
                  st.integers(0, 3), st.sampled_from([0, 46])),
        min_size=1, max_size=40,
    ))
    cuts = draw(st.lists(st.integers(1, 39), max_size=6))
    return params, rows, cuts, draw(SERVE_SIZES)


def _config(params, rows):
    """The config of a case and its packets, every time a multiple of ``UNIT``."""
    cap = params["capacity"]
    port = EeePortConfig(capacity_bps=cap, t_sleep_ns=params["t_sleep"],
                         t_wake_ns=params["t_wake"],
                         buffer_limit=params["buffer_limit"])
    t = 0
    pkts = []
    for seq, (gap, size, flow, dscp) in enumerate(rows):
        t += gap * UNIT
        pkts.append((t, size, f"f{flow}", dscp, seq))
    # long enough for every port to drain, as the oracle always does
    drain = port.t_sleep_ns + port.t_wake_ns + sum(port.tx_time_ns(p[1]) for p in pkts)
    config = SimConfig(
        bundle=BundleConfig(n_ports=params["n_ports"], capacity_bps=cap,
                            algorithm=Algorithm(params["algorithm"])),
        port=port,
        duration_ns=t + drain + 1,
        sampling_period_ns=params["period"],
        warmup_ns=0,
        record_departures=True,
        record_delay_log=True,
    )
    return config, pkts


def _check(monkeypatch, params, rows, cuts, k):
    # segments and serve calls of k arrivals, so a port holds frames from
    # one serve call to the next
    monkeypatch.setattr(engine, "_SEGMENT_PKTS", k)
    monkeypatch.setattr(engine, "_SERVE_PKTS", k)
    config, pkts = _config(params, rows)
    by_kernel, kernel_states = _run(monkeypatch, "kernel", config, _batches(pkts, cuts))
    by_handlers, handler_states = _run(monkeypatch, "handlers", config,
                                       _batches(pkts, cuts))
    _assert_same(by_kernel, by_handlers)
    assert kernel_states == handler_states
    # the kernel again, on the engine's own batches
    again, _ = _run(monkeypatch, "kernel", config, pkts)
    _assert_same(again, by_handlers)
    departures, dropped = oracle_simulate(config, pkts)
    assert by_kernel.departures == departures
    assert by_kernel.drop_seqs == dropped
    assert by_kernel.totals["queued_end"] == 0


_BASE = {"n_ports": 1, "capacity": TEN_G, "algorithm": "conservative",
         "t_sleep": 3 * UNIT, "t_wake": 2 * UNIT, "buffer_limit": 10000,
         "period": 100 * UNIT}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(cases())
# one port: an arrival exactly at the first frame's end (t = 12), one during
# the sleep that follows (t = 25, sleep 24..27), one exactly at the end of
# the next sleep (t = 33: frame 27..29 + wake.. sleep 30..33), batches cut
# inside the busy periods
@example(({**_BASE, "t_sleep": 3 * UNIT},
          [(0, 1500, 0, 0), (12, 125, 0, 0), (13, 125, 0, 0), (8, 125, 0, 0),
           (0, 250, 1, 0)], [1, 3], 2))
# two_queues: a low-latency frame arriving exactly when a low frame ends
# (t = 12) jumps the low frames queued before it
@example(({**_BASE, "algorithm": "two_queues", "t_wake": 0},
          [(0, 1500, 0, 0), (0, 1500, 0, 0), (0, 1500, 0, 0), (12, 125, 1, 46),
           (0, 250, 1, 46), (1, 1500, 0, 0)], [2, 5], 1))
# a three-frame buffer that fills in one nanosecond
@example(({**_BASE, "buffer_limit": 3},
          [(0, 1500, 0, 0), (0, 1500, 0, 0), (0, 1500, 0, 0), (0, 1500, 0, 0),
           (0, 1500, 0, 0), (20, 125, 0, 0)], [3], 4096))
def test_kernel_matches_handlers_and_oracle(monkeypatch, case):
    _check(monkeypatch, *case)


@st.composite
def saturating_cases(draw):
    """A buffer of 1-5 frames and both classes arriving faster than the
    wire drains them, in bursts, so most serve calls drop."""
    params = {
        "n_ports": draw(st.integers(1, 2)),
        "capacity": TEN_G,
        "algorithm": draw(st.sampled_from(["two_queues", "two_queues", "conservative"])),
        "t_sleep": draw(st.sampled_from([0, UNIT, 23 * UNIT])),
        "t_wake": draw(st.sampled_from([0, 2 * UNIT, 45 * UNIT])),
        "buffer_limit": draw(st.integers(1, 5)),
        "period": draw(st.sampled_from([30 * UNIT, 1000 * UNIT])),
    }
    # a gap of 0 or 1 unit is well under the 12 units a 1500 B frame takes
    rows = draw(st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 1, 1, 2, 5, 60]),
                  st.sampled_from(SIZES), st.integers(0, 3), st.sampled_from([0, 0, 46])),
        min_size=10, max_size=120,
    ))
    cuts = draw(st.lists(st.integers(1, 119), max_size=8))
    return params, rows, cuts, draw(SERVE_SIZES)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(saturating_cases())
# one frame of buffer, a low frame queued behind the one on the wire: a
# high frame arriving exactly when the wire frees (t = 12) finds the buffer
# full and is dropped; the next (t = 13) takes the slot that start freed
@example(({**_BASE, "algorithm": "two_queues", "t_wake": 0, "buffer_limit": 1},
          [(0, 1500, 0, 0), (1, 1500, 0, 0), (11, 125, 1, 46), (1, 125, 1, 46),
           (0, 1500, 0, 0), (30, 250, 0, 0)], [2], 3))
def test_kernel_drops_like_the_handlers_and_oracle(monkeypatch, case):
    _check(monkeypatch, *case)


@st.composite
def one_queue_runs(draw):
    """Bursts of one queue's frames that fill a buffer of 8-64 frames, and
    pauses between them that let the queue empty and the port sleep. A port
    is served every ``k`` arrivals, so frames are held from one ``serve``
    call to the next."""
    params = {
        **_BASE,
        "capacity": draw(st.sampled_from(CAPACITIES)),
        "algorithm": draw(st.sampled_from(["conservative", "two_queues"])),
        "t_sleep": draw(st.sampled_from([0, UNIT, 23 * UNIT])),
        "t_wake": draw(st.sampled_from([0, 2 * UNIT, 45 * UNIT])),
        "buffer_limit": draw(st.integers(8, 64)),
    }
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        pause = draw(st.sampled_from([0, 40, 400, 4000]))
        # light traffic, whose frames may find the wire just freed or the
        # port in its sleep transition, then a burst: gaps of at most 2
        # units against 1, 2 or 12 units of wire time
        light = draw(st.lists(st.tuples(st.sampled_from([12, 13, 25, 30]),
                                        st.sampled_from(SIZES), st.integers(0, 3)),
                              max_size=8))
        burst = draw(st.lists(
            st.tuples(st.sampled_from([0, 0, 1, 2]), st.sampled_from(SIZES),
                      st.integers(0, 3)),
            min_size=params["buffer_limit"], max_size=3 * params["buffer_limit"],
        ))
        rows += [(pause if i == 0 else gap, size, flow, 0)
                 for i, (gap, size, flow) in enumerate(light + burst)]
    return params, rows, draw(st.sampled_from([7, 50, 4096]))


def _drops_of_each_call(monkeypatch, config, pkts, stretch):
    """Report of ``run`` with :meth:`EeePort._blocks` replaced by ``stretch``,
    and what each :meth:`EeePort._dropped` call returned."""
    calls = []
    dropped = EeePort._dropped

    def logged(port, *args):
        calls.append(dropped(port, *args).tolist())
        return np.array(calls[-1], dtype=np.int64)

    with monkeypatch.context() as m:
        m.setattr(EeePort, "_blocks", stretch)
        m.setattr(EeePort, "_dropped", logged)
        return run(config, pkts), calls


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(one_queue_runs())
# four high frames held (one on the wire, three queued) when low frames
# arrive: frames of both queues, so the steps decide the run
@example(({**_BASE, "algorithm": "two_queues", "t_wake": 0, "buffer_limit": 8},
          [(0, 1500, 0, 46)] * 4 + [(0, 1500, 1, 0)] * 20 + [(30, 250, 1, 0)], 4))
def test_blocks_drop_like_the_steps_and_the_oracle(monkeypatch, case):
    params, rows, k = case
    # segments and serve calls of k arrivals
    monkeypatch.setattr(engine, "_SEGMENT_PKTS", k)
    monkeypatch.setattr(engine, "_SERVE_PKTS", k)
    config, pkts = _config(params, rows)
    by_blocks, blocks = _drops_of_each_call(monkeypatch, config, pkts, EeePort._blocks)
    by_steps, steps = _drops_of_each_call(monkeypatch, config, pkts, EeePort._steps)
    assert blocks == steps
    _assert_same(by_blocks, by_steps)
    departures, dropped = oracle_simulate(config, pkts)
    assert by_blocks.departures == departures
    assert by_blocks.drop_seqs == dropped


def test_one_queue_runs_drop_in_blocks(monkeypatch):
    # A 4-frame buffer and 12 Gb/s offered to one 10G port: every run drops.
    # With one queue the blocks decide it; with a low-latency flow in the
    # high queue as well, the steps.
    calls = []
    steps, blocks = EeePort._steps, EeePort._blocks
    monkeypatch.setattr(EeePort, "_steps", lambda *a: calls.append("steps") or steps(*a))
    monkeypatch.setattr(EeePort, "_blocks", lambda *a: calls.append("blocks") or blocks(*a))
    for algorithm, paths in ((Algorithm.CONSERVATIVE, {"blocks"}),
                             (Algorithm.TWO_QUEUES, {"steps"})):
        config = SimConfig(
            bundle=BundleConfig(n_ports=1, capacity_bps=TEN_G, algorithm=algorithm),
            port=EeePortConfig(capacity_bps=TEN_G, buffer_limit=4),
            duration_ns=5_000_000,
            sampling_period_ns=1_000_000,
            warmup_ns=0,
        )
        stream = merge_slabs([cbr_slabs(6_000_000_000, 1500, 0, 4_000_000, flow=f"bulk{i}")
                              for i in range(2)]
                             + [cbr_slabs(100_000_000, 125, 46, 4_000_000, flow="rt")])
        calls.clear()
        report = run(config, stream)
        assert report.totals["dropped"] > 0
        assert set(calls) == paths


def _two_queue_config(**port_kw):
    return SimConfig(
        bundle=BundleConfig(n_ports=3, capacity_bps=TEN_G,
                            algorithm=Algorithm.TWO_QUEUES),
        port=EeePortConfig(capacity_bps=TEN_G, **port_kw),
        duration_ns=50_000_000,
        sampling_period_ns=10_000_000,
        warmup_ns=20_000_000,
        record_departures=True,
        track_flows=frozenset({"rt", "bulk0"}),
    )


def _mixed_stream():
    streams = [cbr_slabs(2_000_000_000, 1500, 0, 40_000_000, flow=f"bulk{i}")
               for i in range(3)]
    streams.append(cbr_slabs(50_000_000, 125, 46, 40_000_000, flow="rt"))
    return merge_slabs(streams)


def test_kernel_counts_transitions_like_the_handlers(monkeypatch):
    config = _two_queue_config()
    enqueued = []
    enqueue = EeePort.enqueue

    def counting(self, *args):
        enqueued.append(args[-1])
        return enqueue(self, *args)

    monkeypatch.setattr(EeePort, "enqueue", counting)
    by_kernel, _ = _run(monkeypatch, "kernel", config, _mixed_stream())
    assert not enqueued  # no arrival could meet the buffer: all in the kernel
    by_handlers, _ = _run(monkeypatch, "handlers", config, _mixed_stream())
    assert len(enqueued) == by_handlers.totals["arrived"]
    _assert_same(by_kernel, by_handlers)
    wakes, sleeps = zip(*by_kernel.transitions)
    assert sum(wakes) > 0 and sum(sleeps) > 0
    # a busy period wakes once and sleeps once when it ends; the last one
    # may not have ended
    assert all(s <= w <= s + 1 for w, s in by_kernel.transitions)


def test_times_up_to_the_int64_bound_match_the_handlers(monkeypatch):
    # SimConfig.validate bounds every port time by duration + 2 (t_sleep +
    # t_wake) + (buffer_limit + SLAB_PKTS + 2) wire(MAX_FRAME_BYTES). A wake
    # that puts the bound exactly at 2**63 - 1 runs like the handlers and
    # the oracle, with the frames held through a wake of ~2**61 ns; one
    # nanosecond more is refused before the run starts.
    port = EeePortConfig(capacity_bps=TEN_G, t_sleep_ns=7)
    config = SimConfig(
        bundle=BundleConfig(n_ports=2, capacity_bps=TEN_G,
                            algorithm=Algorithm.TWO_QUEUES),
        port=port,
        duration_ns=2**62 + 10**9 + 1,  # odd, so that the bound can be odd
        sampling_period_ns=2**60,
        warmup_ns=0,
        record_departures=True,
    )
    room = (2**63 - 1 - config.duration_ns - 2 * port.t_sleep_ns
            - (port.buffer_limit + SLAB_PKTS + 2) * port.tx_time_ns(MAX_FRAME_BYTES))
    assert room % 2 == 0
    port.t_wake_ns = room // 2
    pkts = [Packet(i * 1000, 1500, f"f{i % 3}", 46 * (i % 2), i) for i in range(200)]
    by_kernel, states = _run(monkeypatch, "kernel", config, pkts)
    by_handlers, handler_states = _run(monkeypatch, "handlers", config, pkts)
    _assert_same(by_kernel, by_handlers)
    assert states == handler_states
    departures, dropped = oracle_simulate(config, pkts)
    assert by_kernel.departures == departures and not dropped
    assert max(departures.values()) > 2**60
    port.t_wake_ns += 1
    with pytest.raises(ConfigError, match="port.t_wake_ns"):
        run(config, pkts)


def test_one_bit_per_second_matches_the_handlers(monkeypatch):
    # 12,000 s of wire time per 1500 B frame: large, exact ints throughout
    config = SimConfig(
        bundle=BundleConfig(n_ports=1, capacity_bps=1,
                            algorithm=Algorithm.CONSERVATIVE),
        port=EeePortConfig(capacity_bps=1),
        duration_ns=10**17,
        sampling_period_ns=10**16,
        warmup_ns=0,
        record_departures=True,
    )
    pkts = [Packet(i * 10**12, (64, 1500)[i % 2], "f", 0, i) for i in range(300)]
    by_kernel, states = _run(monkeypatch, "kernel", config, pkts)
    by_handlers, handler_states = _run(monkeypatch, "handlers", config, pkts)
    _assert_same(by_kernel, by_handlers)
    assert states == handler_states
    assert by_kernel.totals["delivered"] > 0


@st.composite
def drain_cases(draw):
    """A port's config, a run of arrivals to serve it and horizons to drain
    it at: each an event still due after the run (a transition, a frame's
    start or end), or the midpoint of two, moved by -1, 0 or +1 ns."""
    cfg = EeePortConfig(capacity_bps=TEN_G,
                        t_sleep_ns=draw(st.sampled_from([0, UNIT, 23 * UNIT])),
                        t_wake_ns=draw(st.sampled_from([0, 2 * UNIT, 45 * UNIT])),
                        buffer_limit=draw(st.sampled_from([2, 5, 10000])))
    # (gap in units, size, high queue): gaps of 13 and 40 units often land
    # in the sleep after a short busy period
    rows = draw(st.lists(
        st.tuples(st.sampled_from([0, 0, 1, 2, 13, 40]), st.sampled_from(SIZES),
                  st.booleans()),
        min_size=1, max_size=30,
    ))
    horizons = draw(st.lists(
        st.tuples(st.integers(0, 200), st.booleans(), st.sampled_from([-1, 0, 1])),
        min_size=1, max_size=3,
    ))
    return cfg, rows, horizons


def _arrivals(rows):
    """Columns of ``serve`` for ``(gap, size, high)`` rows; the class
    index follows the queue."""
    gap, size, high = (np.array(col) for col in zip(*rows))
    seq = np.arange(len(rows))
    return [np.cumsum(gap) * UNIT, size, seq, 46 * high, seq, high.astype(np.int64), high]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drain_cases())
# a frame queued during the sleep after the first (t = 13: wake 0..2, frame
# 2..3, sleep 3..26) and a high frame behind two low ones; drained exactly
# at the first completion, inside the wake, and past the last sleep
@example((EeePortConfig(capacity_bps=TEN_G, t_sleep_ns=23 * UNIT, t_wake_ns=2 * UNIT),
          [(0, 125, False), (13, 1500, False), (0, 1500, False), (0, 125, True)],
          [(2, False, 0), (1, True, 0), (200, False, 1)]))
def test_drain_matches_the_handlers_at_any_horizon(case):
    cfg, rows, picks = case
    arrivals = _arrivals(rows)
    kernel, handlers, probe = (EeePort(0, cfg, window=(UNIT, None)) for _ in range(3))
    kernel.serve(*arrivals)
    for port in (handlers, probe):
        reference_port.serve(port, *arrivals)
    assert _snapshot(kernel) == _snapshot(handlers)
    finished, log = [], []
    reference_port.fire(probe, float("inf"), finished, log)
    events = sorted({now for now, _, _ in log}
                    | {x for pkt, _, delay, started in finished
                       for x in (started, pkt[0] + delay)})
    horizons = []
    for k, mid, shift in picks:
        k %= len(events)
        at = events[k]
        if mid:  # halfway to the next event
            at = (at + events[min(k + 1, len(events) - 1)]) // 2
        horizons.append(max(at + shift, int(arrivals[0][-1])))
    for horizon in sorted(horizons):
        got = kernel.drain(horizon)
        want = reference_port.drain(handlers, horizon)
        assert _returned(got) == _returned(want)
        assert _snapshot(kernel) == _snapshot(handlers)


def test_kernel_rejects_arrivals_out_of_order():
    port = EeePort(0, EeePortConfig(capacity_bps=TEN_G))
    cols = [np.array(x, dtype=np.int64) for x in ([5, 3], [100, 100])]
    flows = np.zeros(2, dtype=np.int64)
    other = [np.zeros(2, dtype=np.int64)] * 3
    with pytest.raises(SimulationFault, match="not time-ordered"):
        port.serve(*cols, flows, *other, np.zeros(2, dtype=bool))


@pytest.mark.parametrize("t_wake, size", [(2**63 - 1000, 1500), (0, 10**17)])
def test_kernel_refuses_times_that_could_leave_int64(t_wake, size):
    # SimConfig.validate and batches keep such a port or frame out of a run;
    # serve called directly checks the bound again and changes nothing
    port = EeePort(0, EeePortConfig(capacity_bps=TEN_G, t_wake_ns=t_wake))
    arrivals = [np.array([0, 10]), np.array([1500, size])] + [np.zeros(2, dtype=np.int64)] * 4
    with pytest.raises(SimulationFault, match="could leave int64"):
        port.serve(*arrivals, np.zeros(2, dtype=bool))
    assert (port.state, port.held) == (eee_port.LPI, 0)


def test_delay_stats_do_not_depend_on_sample_order():
    rng = random.Random(8)
    samples = [rng.randrange(10**7) for _ in range(50_001)]
    stats = _delay_stats(samples)
    for _ in range(5):
        rng.shuffle(samples)
        assert _delay_stats(samples) == stats
    assert stats["mean_us"] == sum(samples) / len(samples) / 1000


def test_kernel_serves_the_fixed_stream_like_the_handlers(monkeypatch):
    config = _two_queue_config(buffer_limit=40)
    pkts = list(packets(_mixed_stream()))
    by_kernel, states = _run(monkeypatch, "kernel", config, iter(pkts))
    by_handlers, handler_states = _run(monkeypatch, "handlers", config, iter(pkts))
    _assert_same(by_kernel, by_handlers)
    assert states == handler_states
