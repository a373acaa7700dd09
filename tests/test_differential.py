"""Property test: the engine and the independent oracle agree on every trace.

Criterion 8 compares them on 200 seeded random traces; this test searches
for, and shrinks, counterexamples in the corners those traces rarely reach.
Every time below is a multiple of ``UNIT``, so arrivals often fall exactly
on an epoch boundary or on a port's transmit, sleep or wake completion.
"""

from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eeesim import (
    Algorithm,
    BundleConfig,
    EeePortConfig,
    Packet,
    SimConfig,
    oracle_simulate,
    run,
)

UNIT = 100  # ns
#: wire times 100, 200 and 1200 ns at 10 Gb/s; ten times that at 1 Gb/s
SIZES = (125, 250, 1500)
CAPACITIES = (1_000_000_000, 10_000_000_000)


@st.composite
def cases(draw):
    params = {
        "n_ports": draw(st.integers(1, 3)),
        "capacity": draw(st.sampled_from(CAPACITIES)),
        "algorithm": draw(st.sampled_from([a.value for a in Algorithm])),
        "t_sleep": draw(st.sampled_from([0, UNIT, 3 * UNIT, 23 * UNIT])),
        "t_wake": draw(st.sampled_from([0, UNIT, 2 * UNIT, 45 * UNIT])),
        "buffer_limit": draw(st.sampled_from([1, 2, 5, 10000])),
        "period": draw(st.sampled_from([10 * UNIT, 30 * UNIT, 100 * UNIT])),
    }
    # (gap in units, size, flow, dscp); gap 0 puts arrivals in one nanosecond
    rows = draw(st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(SIZES),
                  st.integers(0, 3), st.sampled_from([0, 46])),
        min_size=1, max_size=40,
    ))
    return params, rows


def _check(params, rows):
    cap = params["capacity"]
    port = EeePortConfig(capacity_bps=cap, t_sleep_ns=params["t_sleep"],
                         t_wake_ns=params["t_wake"],
                         buffer_limit=params["buffer_limit"])
    t = 0
    pkts = []
    for seq, (gap, size, flow, dscp) in enumerate(rows):
        t += gap * UNIT
        pkts.append(Packet(t, size, f"f{flow}", dscp, seq))
    # long enough for every port to drain, as the oracle always does
    drain = port.t_sleep_ns + port.t_wake_ns + sum(port.tx_time_ns(p.size) for p in pkts)
    config = SimConfig(
        bundle=BundleConfig(n_ports=params["n_ports"], capacity_bps=cap,
                            algorithm=Algorithm(params["algorithm"])),
        port=port,
        duration_ns=t + drain + 1,
        sampling_period_ns=params["period"],
        warmup_ns=0,
        record_departures=True,
    )
    report = run(config, pkts)
    departures, dropped = oracle_simulate(config, pkts)
    assert report.departures == departures
    assert report.drop_seqs == dropped
    assert report.totals["queued_end"] == 0
    # per class, a flow's class being its first packet's; the window is the
    # whole run (warmup 0)
    cls = {}
    for p in pkts:
        cls.setdefault(p.flow, "low_latency" if p.dscp in config.ll_dscps else "normal")
    for counted, seqs in ((report.delivered, departures), (report.drops, dropped)):
        by_class = Counter(cls[pkts[s].flow] for s in seqs)
        assert counted == {"normal": by_class["normal"], "low_latency": by_class["low_latency"]}


_BASE = {"n_ports": 1, "capacity": 10_000_000_000, "algorithm": "conservative",
         "t_sleep": 0, "t_wake": 0, "buffer_limit": 1, "period": 10 * UNIT}


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# zero-length transitions, a one-frame buffer, three arrivals in one
# nanosecond and one at the first frame's exact departure (t = 100)
@example((_BASE, [(0, 125, 0, 0), (0, 125, 0, 0), (0, 125, 1, 46), (1, 125, 0, 0)]))
# one port, 23-unit sleeps and 45-unit wakes: arrivals exactly at the wake
# end (t = 45), at transmit ends (57, and 70, which is also an epoch) and
# at the sleep end (94)
@example(({**_BASE, "t_sleep": 23 * UNIT, "t_wake": 45 * UNIT, "buffer_limit": 10000},
          [(0, 1500, 0, 0), (45, 1500, 1, 46), (12, 125, 2, 0), (13, 125, 3, 0),
           (24, 250, 0, 46)]))
# route cache, 10-unit epochs, 1500 B filling more than an interval: f1 is on
# port 0 in interval 0, moved to port 1 at t = 10, silent until t = 20 (kept
# at rate 0, still on port 1) and back at t = 20 beside f0 on port 0
@example(({**_BASE, "n_ports": 3, "t_sleep": 3 * UNIT, "t_wake": 2 * UNIT,
           "buffer_limit": 10000},
          [(0, 1500, 0, 0), (0, 1500, 1, 0), (10, 1500, 0, 0), (10, 1500, 0, 0),
           (0, 1500, 1, 0), (1, 125, 1, 0)]))
# low-latency flows first seen mid-interval (f2 at t = 15, again at 16 and 18)
# once interval 0's traffic has been planned, under spare_port (the spare
# port) and two_queues (the high queue)
@example(({**_BASE, "n_ports": 3, "algorithm": "spare_port", "t_wake": 2 * UNIT,
           "buffer_limit": 10000},
          [(0, 1500, 0, 0), (0, 125, 1, 46), (15, 125, 2, 46), (1, 125, 2, 46),
           (0, 1500, 3, 0), (2, 250, 2, 46), (0, 125, 1, 46)]))
@example(({**_BASE, "n_ports": 3, "algorithm": "two_queues", "t_wake": 2 * UNIT,
           "buffer_limit": 10000},
          [(0, 1500, 0, 0), (0, 125, 1, 46), (15, 1500, 3, 0), (0, 125, 2, 46),
           (1, 125, 2, 46), (2, 250, 2, 46), (0, 125, 1, 46)]))
# arrivals exactly on the epoch at t = 10 whose plan moves f0, routed to
# port 0 in interval 0, behind the larger f1 onto port 1
@example(({**_BASE, "n_ports": 3, "t_sleep": 3 * UNIT, "t_wake": 2 * UNIT,
           "buffer_limit": 10000},
          [(0, 1500, 0, 0), (0, 1500, 1, 0), (0, 125, 1, 0), (10, 1500, 0, 0),
           (0, 125, 1, 0), (0, 250, 0, 0)]))
def test_run_matches_oracle(case):
    _check(*case)
