"""Deterministic simulation loop binding traffic, ports and allocation.

One simulation run is strictly single threaded: identical config and input
stream produce a bit-identical report. Dispatch reads only the flow
counters and the plan, never port state, and each port's next transition
time is known to the port alone, so there is no global event queue: the
loop makes one pass over the arrival stream a batch of int64 columns at a
time and runs each port lazily.

Each batch is split at control-epoch instants (``searchsorted``, side
"left") into segments within one control interval. Flows travel as codes:
one ``take`` of an int array maps a batch's stream codes to run codes,
numbered once per run in order of first sighting, over which the
:class:`FlowTable` keeps byte counters and routes in int64 arrays. One
:meth:`FlowTable.dispatch` call registers the flows new in a segment. A
segment is routed with one ``take`` of the route array, its bytes counted
with an int64 ``np.add.at``, and grouped by port, stably; names come back
only in ``delay_log`` and tracked flows. A port meets only its own
arrivals, so each port holds its share across segments and epochs and takes
``SLAB_PKTS // 2`` to :data:`SLAB_PKTS` of them per :meth:`EeePort.serve`
call, and the rest before it drains. How a port's arrivals are cut into
runs changes only the order of delay samples and ``delay_log`` rows, and
no statistic depends on it.

Events at the same nanosecond keep a fixed order: control epochs first (a
plan takes effect at exactly t = nT), then arrivals in stream order, then
transmit/sleep/wake completions. An arrival that lands exactly when the
wire goes idle is therefore served back to back instead of paying a
gratuitous sleep/wake cycle.
"""

from __future__ import annotations

import json
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .allocation import (
    Algorithm,
    AllocationPlan,
    BundleConfig,
    allocate,
    estimate_rates,
    initial_plan,
)
from .eee_port import EeePort, EeePortConfig, PortState, Queue
from .errors import ConfigError, SimulationFault
from .traffic import DEFAULT_LL_DSCPS, MAX_FRAME_BYTES, SLAB_PKTS, batches

_INF = float("inf")


@dataclass
class SimConfig:
    """Everything one simulation run needs besides the packet stream."""

    bundle: BundleConfig
    port: EeePortConfig
    duration_ns: int
    sampling_period_ns: int = 500_000_000
    ll_dscps: frozenset = DEFAULT_LL_DSCPS
    warmup_ns: int | None = None  # None: one sampling period
    record_departures: bool = False
    record_delay_log: bool = False
    track_flows: frozenset = frozenset()

    def resolved_warmup(self) -> int:
        return self.sampling_period_ns if self.warmup_ns is None else self.warmup_ns

    def validate(self) -> None:
        self.bundle.validate()
        self.port.validate()
        if self.sampling_period_ns <= 0:
            raise ConfigError("sampling period must be positive")
        if self.duration_ns <= 0:
            raise ConfigError("duration must be positive")
        # Port times are int64, and none exceeds D + 2 (t_sleep + t_wake) +
        # (B + SLAB_PKTS + 2) W, with D the duration, B the buffer limit and W
        # the wire time of a MAX_FRAME_BYTES frame: arrivals come before D, so
        # a port's next transition is due before D plus one of W, t_sleep and
        # t_wake, and from there one serve call sends at most B queued frames,
        # the one in flight and SLAB_PKTS arrivals, after a sleep and a wake.
        port = self.port
        top = (port.buffer_limit + SLAB_PKTS + 2) * port.tx_time_ns(MAX_FRAME_BYTES)
        if self.duration_ns + 2 * (port.t_sleep_ns + port.t_wake_ns) + top >= 2**63:
            raise ConfigError("duration_ns, port.t_sleep_ns, port.t_wake_ns, port.buffer_limit "
                              "and port.capacity_bps must keep port times below 2**63 ns")
        if not 0 <= self.resolved_warmup() < self.duration_ns:
            raise ConfigError("warmup must satisfy 0 <= warmup < duration")


class FlowTable:
    """Incumbent allocation plan plus per-flow arrays indexed by flow code.

    Flows travel through a run as codes. Each is numbered once per run, in
    order of first sighting, when :meth:`dispatch` registers it with the
    other flows new in its segment: ``codes`` maps a flow key to its code
    and ``flows`` a code back to its key. ``nbytes[code]`` counts the flow's bytes
    in the current control interval and ``route[code]`` holds its route,
    ``port << 2 | high queue << 1 | low-latency class``; both arrays may
    outgrow ``flows``. Every registered flow keeps a plan entry, at rate 0
    while it is silent. Counters advance at dispatch time (the flow-rule
    view of traffic), so a frame that is later tail-dropped still counts
    toward its flow's rate.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.algorithm = config.bundle.algorithm
        self.plan = initial_plan(self.algorithm, config.bundle.n_ports)
        self.codes: dict = {}
        self.flows: list = []
        self.nbytes = np.zeros(64, dtype=np.int64)
        self.route = np.zeros(64, dtype=np.int64)
        self._rank = np.empty(0, dtype=np.int64)  # each code's place in key order

    def dispatch(self, flows, dscp) -> np.ndarray:
        """Register the list ``flows``, distinct and new, whose first packets
        carry ``dscp`` (int64); returns their codes, the next ones in order.

        A flow first seen mid-interval goes to the least-loaded active port
        of the plan; the spare-port algorithm sends low-latency ones straight
        to its spare port. Re-planned next epoch.
        """
        lo, hi = len(self.flows), len(self.flows) + len(flows)
        codes = np.arange(lo, hi)
        self.nbytes, self.route = _grown(self.nbytes, hi), _grown(self.route, hi)
        self.codes.update(zip(flows, range(lo, hi)))
        self.flows += flows
        low_latency = np.isin(dscp, tuple(self.config.ll_dscps)).astype(np.int64)
        plan = self.plan
        port = plan.least_loaded
        if plan.algorithm is Algorithm.SPARE_PORT and plan.spare_port is not None:
            port = np.where(low_latency, plan.spare_port, port)
        high = low_latency if self.algorithm is Algorithm.TWO_QUEUES else 0
        self.route[lo:hi] = port << 2 | high << 1 | low_latency
        return codes

    def route_packet(self, pkt):
        """(port, queue) for a packet tuple under the incumbent plan; counts
        its bytes, registering its flow first if it is new."""
        code = self.codes.get(pkt[2])
        if code is None:
            code = int(self.dispatch([pkt[2]], np.array([pkt[3]]))[0])
        self.nbytes[code] += pkt[1]
        route = int(self.route[code])
        return route >> 2, Queue.HIGH if route & 2 else Queue.LOW

    def control_epoch(self, now: int) -> AllocationPlan:
        """Estimate rates from the closed interval and install a fresh plan.

        Every registered flow is estimated, a silent one at rate 0. Queued
        packets are not migrated; counters reset.
        """
        n = len(self.flows)
        if len(self._rank) != n:  # flows registered since the last epoch
            # the old codes in key order, then the new: Timsort merges the runs
            order = np.argsort(self._rank).tolist() + list(range(len(self._rank), n))
            order.sort(key=self.flows.__getitem__)
            self._rank = np.argsort(order)  # rank and order are inverse permutations
        low_latency = self.route[:n] & 1
        estimates = estimate_rates(
            self.nbytes[:n],
            self.config.sampling_period_ns,
            low_latency.astype(bool),
            self.flows[:n],  # a copy: the plan keeps it as registrations go on
            self._rank,
        )
        plan = allocate(self.algorithm, estimates, self.config.bundle, epoch=now)
        self.route[:n] = plan.ports << 2 | plan.high << 1 | low_latency
        self.nbytes = np.zeros_like(self.nbytes)
        self.plan = plan
        return plan


def _grown(arr: np.ndarray, n: int) -> np.ndarray:
    """``arr`` if it holds ``n``, else a zero-padded copy at least twice as long."""
    if len(arr) >= n:
        return arr
    out = np.zeros(max(n, 2 * len(arr)), dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


def _delay_stats(delays_ns) -> dict | None:
    """Summary of int64 delay samples; it may reorder an int64 buffer in place.

    Every statistic depends on the samples alone, not on their order: ports
    hand them over in no fixed order.
    """
    if not delays_ns:
        return None
    arr = np.asarray(delays_ns, dtype=np.int64)
    n = int(arr.size)
    # np.median and np.percentile(99)'s "linear" rule from one partition in
    # place: a run's samples are its largest arrays (and np.percentile would
    # import numpy.ma)
    at = (n - 1) * 0.99
    i, j, g = int(at), min(int(at) + 1, n - 1), at - int(at)
    mid = (n - 1) // 2, n // 2
    arr.partition(sorted({*mid, i, j}))
    a, b = int(arr[i]), int(arr[j])
    return {
        "count": n,
        "mean_us": int(arr.sum()) / n / 1000,
        "median_us": (float(arr[mid[0]]) + float(arr[mid[1]])) / 2 / 1000.0,
        "p99_us": (a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)) / 1000.0,
        "min_us": int(arr.min()) / 1000.0,
        "max_us": int(arr.max()) / 1000.0,
    }


@dataclass
class MetricsReport:
    """Aggregated results of one run, measured after warmup.

    ``energy_by_state_ns`` holds exact integer residence times summed over
    ports, so energy comparisons between runs can be made bit-exactly.
    ``delay_log`` rows ``(flow, arrival, delay, tx_start, size)`` come in no
    fixed order: each port adds them a run of arrivals at a time.
    ``transitions`` holds each port's ``(wakes, sleeps)``, the wake and sleep
    transitions it entered over the whole run; like the departures it is not
    part of the report bytes.
    """

    algorithm: str
    n_ports: int
    duration_ns: int
    warmup_ns: int
    sampling_period_ns: int
    delay: dict
    delivered: dict
    drops: dict
    totals: dict
    energy_by_state_ns: dict
    port_state_ns: list
    total_energy: float
    normalized_energy: float
    mean_active_ports: float
    epoch_loads: list
    flow_delays: dict = field(default_factory=dict)
    departures: dict | None = None
    drop_seqs: set | None = None
    delay_log: list | None = None
    transitions: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n_ports": self.n_ports,
            "duration_ns": self.duration_ns,
            "warmup_ns": self.warmup_ns,
            "sampling_period_ns": self.sampling_period_ns,
            "delay_us": self.delay,
            "delivered": self.delivered,
            "drops": self.drops,
            "totals": self.totals,
            "energy_by_state_ns": self.energy_by_state_ns,
            "port_state_ns": self.port_state_ns,
            "total_energy": self.total_energy,
            "normalized_energy": self.normalized_energy,
            "mean_active_ports": self.mean_active_ports,
            "flow_delays_us": self.flow_delays,
            "epoch_loads": [
                {"epoch_ns": t, "active_ports": k, "port_loads_bps": loads}
                for t, k, loads in self.epoch_loads
            ],
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    def epoch_loads_csv(self) -> str:
        header = ["epoch_ns", "active_ports"] + [
            f"load_bps_port{i}" for i in range(self.n_ports)
        ]
        lines = [",".join(header)]
        for t, k, loads in self.epoch_loads:
            lines.append(",".join([str(t), str(k)] + [f"{x:.6f}" for x in loads]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        return render_report(self.to_json_dict())


def render_report(data: dict) -> str:
    """Text table of a report's JSON dict, as written by ``to_json``."""
    rows = [
        ("algorithm", data["algorithm"]),
        ("ports", str(data["n_ports"])),
        ("measured window",
         f"{(data['duration_ns'] - data['warmup_ns']) / 1e9:.6f} s"),
        ("normalized energy", f"{data['normalized_energy']:.6f}"),
        ("mean active ports", f"{data['mean_active_ports']:.4f}"),
        ("drops normal / low-latency",
         f"{data['drops']['normal']} / {data['drops']['low_latency']}"),
    ]
    for name in ("overall", "normal", "low_latency"):
        stats = data["delay_us"][name]
        if stats is None:
            rows.append((f"delay {name}", "no packets"))
        else:
            rows.append(
                (f"delay {name} (us)",
                 f"mean {stats['mean_us']:.3f}  median {stats['median_us']:.3f}"
                 f"  p99 {stats['p99_us']:.3f}  n={stats['count']}")
            )
    for flow, stats in sorted(data["flow_delays_us"].items()):
        if stats is None:
            rows.append((f"flow {flow}", "no packets"))
        else:
            rows.append(
                (f"flow {flow} delay (us)",
                 f"mean {stats['mean_us']:.3f}  n={stats['count']}")
            )
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


class _Tally:
    """Departures and drops of one run, as the ports hand them over."""

    def __init__(self, config: SimConfig, warmup: int, table: FlowTable):
        self.warmup = warmup
        self.table = table  # names the flows of the frames' run codes
        # Per-class samples are indexed by class: 0 normal, 1 low latency.
        # Delay samples are int64 arrays: 8 bytes each, not a Python int apiece.
        self.delays = (array("q"), array("q"))
        self.tracked = {flow: array("q") for flow in config.track_flows}
        self.delay_log = [] if config.record_delay_log else None
        self.departures = {} if config.record_departures else None
        self.drop_seqs = set() if config.record_departures else None
        self.drops_w = [0, 0]
        self.delivered = self.dropped = 0

    def frames(self, frames, start, end, done) -> None:
        """The frames ``done`` of a return of :meth:`EeePort.serve`."""
        t, size, flow, _, seq, ci = frames
        self.delivered += len(done)
        if self.departures is not None:
            self.departures.update(zip(seq[done].tolist(), end[done].tolist()))
        done = done[t[done] >= self.warmup]
        if not len(done):
            return
        delay = end[done] - t[done]
        ci = ci[done]
        for c, samples in enumerate(self.delays):
            samples.frombytes(delay[ci == c].tobytes())
        if self.tracked:
            flows = flow[done]
            for name, samples in self.tracked.items():
                code = self.table.codes.get(name)
                if code is not None:
                    samples.frombytes(delay[flows == code].tobytes())
        if self.delay_log is not None:
            names = map(self.table.flows.__getitem__, flow[done].tolist())
            self.delay_log.extend(zip(names, t[done].tolist(), delay.tolist(),
                                      start[done].tolist(), size[done].tolist()))

    def drops(self, run, dropped) -> None:
        """The arrivals ``dropped`` of the ``run`` handed to :meth:`EeePort.serve`."""
        t, _, _, _, seq, ci, _ = run
        self.dropped += len(dropped)
        late = ci[dropped][t[dropped] >= self.warmup]
        for c, n in enumerate(np.bincount(late, minlength=2).tolist()):
            self.drops_w[c] += n
        if self.drop_seqs is not None:
            self.drop_seqs.update(seq[dropped].tolist())


#: most arrivals routed at once; bounds the per-arrival arrays of a segment
_SEGMENT_PKTS = 2 * SLAB_PKTS
#: fewest routed arrivals a port is served at once, but for its last run
_SERVE_PKTS = SLAB_PKTS // 2


def run(config: SimConfig, stream) -> MetricsReport:
    """Simulate one packet stream through the bundle.

    ``stream`` yields :class:`~eeesim.traffic.Batch` es, as
    :func:`~eeesim.traffic.merge_slabs` makes, or packet tuples
    ``(arrival_time, size, flow, dscp, seq)`` in time order, which
    :func:`~eeesim.traffic.batches` packs into batches.

    Fires a control epoch every sampling period (t = T, 2T, ...), dispatches
    each arrival per the incumbent plan, and returns metrics measured over
    [warmup, duration). Packets still queued at the end are counted in the
    conservation totals but contribute no delay sample. Raises
    :class:`SimulationFault` if the run breaks packet conservation or a
    port's state residence times do not cover the measured window.
    """
    config.validate()
    n_ports = config.bundle.n_ports
    duration = config.duration_ns
    warmup = config.resolved_warmup()
    period = config.sampling_period_ns

    table = FlowTable(config)
    tally = _Tally(config, warmup, table)
    arrived_total = 0
    ports = [EeePort(i, config.port, (warmup, duration)) for i in range(n_ports)]
    # the stream's codes -> run codes, -1 for a flow not yet registered, for
    # the first ``mapped`` of its ``names``
    names, run_code, mapped = None, np.empty(0, dtype=np.int64), 0

    # Time-weighted incumbent-plan width ("ports the algorithm is using").
    ap_acc = 0
    ap_last = 0
    ap_k = table.plan.active_ports
    epoch_rows: list = []

    def fire_epoch(t):
        """Run the control epoch at ``t``; returns the next epoch's time."""
        nonlocal ap_acc, ap_last, ap_k
        lo = ap_last if ap_last > warmup else warmup
        if t > lo:
            ap_acc += ap_k * (t - lo)
        ap_last = t
        plan = table.control_epoch(t)
        ap_k = plan.active_ports
        epoch_rows.append((t, plan.active_ports, [float(x) for x in plan.port_loads]))
        nt = t + period
        return nt if nt < duration else _INF

    def segment(batch, lo, hi):
        """Route arrivals ``lo:hi`` of ``batch``, all in one interval, to the ports."""
        t, size, flow, dscp, seq, _ = batch
        c = run_code[flow[lo:hi]]
        new = np.flatnonzero(c < 0)
        if len(new):
            # register the new flows together, in order of first sighting,
            # each with its first packet's dscp
            s = flow[lo:hi][new]
            order = np.argsort(s, kind="stable")
            at = np.sort(order[np.diff(s[order], prepend=-1) != 0])  # first sightings
            fresh = s[at]
            run_code[fresh] = table.dispatch(list(map(names.__getitem__, fresh.tolist())),
                                             dscp[lo:hi][new[at]])
            c[new] = run_code[s]
        np.add.at(table.nbytes, c, size[lo:hi])
        r = table.route[c]
        seg = (t[lo:hi], size[lo:hi], c, dscp[lo:hi], seq[lo:hi], r & 1, (r & 2) > 0)
        on_port = r >> 2
        order = np.argsort(on_port, kind="stable")
        b = 0
        for i, e in enumerate(np.cumsum(np.bincount(on_port, minlength=n_ports)).tolist()):
            if e > b:
                pending[i].append([col[order[b:e]] for col in seg])
                if sum(len(part[0]) for part in pending[i]) >= _SERVE_PKTS:
                    serve(i)
            b = e

    # A port's routed arrivals wait until it holds _SERVE_PKTS of them: only
    # its own arrivals change a port, and serving a run in parts is exact.
    pending: list = [[] for _ in ports]

    def serve(i, least=_SERVE_PKTS):
        """Serve port ``i``'s pending arrivals, at most SLAB_PKTS a call,
        while at least ``least`` of them remain."""
        parts = pending[i]
        cols = parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]
        parts.clear()  # free the parts before the port makes its temporaries
        n, lo = len(cols[0]), 0
        while n - lo >= least:
            run = [col[lo:lo + SLAB_PKTS] for col in cols]
            *served, dropped = ports[i].serve(*run)
            tally.frames(*served)
            if len(dropped):
                tally.drops(run, dropped)
            lo += len(run[0])
        if lo < n:
            parts.append([col[lo:].copy() for col in cols])

    next_epoch = period if period < duration else _INF
    last_arrival = -1
    for batch in batches(stream):
        if batch.names is not names:  # another table: map its names afresh
            names, mapped = batch.names, 0
        if len(names) > mapped:
            run_code = _grown(run_code, len(names))
            run_code[mapped:len(names)] = list(map(table.codes.get, names[mapped:],
                                                   repeat(-1)))
            mapped = len(names)
        t = batch.t
        n = len(t)
        late = np.flatnonzero(t >= duration) if n and t.max() >= duration else ()
        cut = int(late[0]) if len(late) else n
        if cut:
            prev = np.concatenate(([last_arrival], t[:cut - 1]))
            back = np.flatnonzero(t[:cut] < prev)
            if len(back):
                raise SimulationFault(
                    f"arrival stream not time-ordered at t={t[back[0]]}")
            last_arrival = int(t[cut - 1])
            arrived_total += cut
            lo = 0
            while lo < cut:
                if next_epoch <= t[lo]:  # epochs precede same-instant arrivals
                    next_epoch = fire_epoch(next_epoch)
                    continue
                hi = min(cut, lo + _SEGMENT_PKTS)
                if next_epoch <= t[hi - 1]:
                    hi = lo + int(np.searchsorted(t[lo:hi], next_epoch))
                segment(batch, lo, hi)
                lo = hi
        if cut < n:
            break
    while next_epoch < duration:
        next_epoch = fire_epoch(next_epoch)
    for i, port in enumerate(ports):
        if pending[i]:
            serve(i, 1)
        tally.frames(*port.drain(duration))
        port.finalize(duration)
    lo = ap_last if ap_last > warmup else warmup
    if duration > lo:
        ap_acc += ap_k * (duration - lo)

    measured_ns = duration - warmup
    queued_end = sum(p.held for p in ports)
    delivered_total, dropped_total = tally.delivered, tally.dropped
    if arrived_total != delivered_total + dropped_total + queued_end:
        raise SimulationFault(
            f"packet conservation broken: {arrived_total} arrived != "
            f"{delivered_total} delivered + {dropped_total} dropped + "
            f"{queued_end} queued"
        )
    for p in ports:
        if sum(p.residence_ns) != measured_ns:
            raise SimulationFault(
                f"port {p.index}: state residence {sum(p.residence_ns)} ns != "
                f"measured window {measured_ns} ns"
            )

    by_state = {
        state.key: sum(p.residence_ns[state] for p in ports) for state in PortState
    }
    awake_ns = by_state["active"] + by_state["sleep_trans"] + by_state["wake_trans"]
    p_active, p_lpi = config.port.p_active, config.port.p_lpi
    total_energy = awake_ns * 1e-9 * p_active + by_state["lpi"] * 1e-9 * p_lpi
    normalized = total_energy / (n_ports * p_active * measured_ns * 1e-9)

    normal, low = tally.delays
    return MetricsReport(
        algorithm=config.bundle.algorithm.value,
        n_ports=n_ports,
        duration_ns=duration,
        warmup_ns=warmup,
        sampling_period_ns=period,
        delay={
            "normal": _delay_stats(normal),
            "low_latency": _delay_stats(low),
            "overall": _delay_stats(normal + low),
        },
        delivered={"normal": len(normal), "low_latency": len(low)},
        drops={"normal": tally.drops_w[0], "low_latency": tally.drops_w[1]},
        totals={
            "arrived": arrived_total,
            "delivered": delivered_total,
            "dropped": dropped_total,
            "queued_end": queued_end,
        },
        energy_by_state_ns=by_state,
        port_state_ns=[
            {state.key: p.residence_ns[state] for state in PortState} for p in ports
        ],
        total_energy=total_energy,
        normalized_energy=normalized,
        mean_active_ports=ap_acc / measured_ns,
        epoch_loads=epoch_rows,
        flow_delays={flow: _delay_stats(samples)
                     for flow, samples in tally.tracked.items()},
        departures=tally.departures,
        drop_seqs=tally.drop_seqs,
        delay_log=tally.delay_log,
        transitions=[(p.wakes, p.sleeps) for p in ports],
    )


def oracle_simulate(config: SimConfig, packets):
    """Per-packet departure times by direct chronological scan.

    Re-derives every departure with explicit per-port state variables and no
    event queue, as an independent cross-check of :func:`run`. The duration
    in ``config`` is ignored: every accepted packet is drained. Returns
    ``(departures, dropped)`` keyed by packet seq. Intended for small traces.
    """
    config.validate()
    pkts = list(packets)
    for a, b in zip(pkts, pkts[1:]):
        if b[0] < a[0]:
            raise SimulationFault("arrival stream not time-ordered")

    table = FlowTable(config)
    cfg = config.port
    t_sleep, t_wake = cfg.t_sleep_ns, cfg.t_wake_ns
    limit = cfg.buffer_limit
    tx_time = cfg.tx_time_ns

    ACTIVE, LPI, SLEEP, WAKE = 0, 1, 2, 3
    ports = [
        {"state": LPI, "until": 0, "high": deque(), "low": deque(), "tx_seq": -1, "tx_end": 0}
        for _ in range(config.bundle.n_ports)
    ]
    departures: dict = {}
    dropped: set = set()

    def advance(p, horizon):
        # Completions at exactly `horizon` wait until after that instant's
        # arrivals, mirroring the event-loop tie-break.
        while True:
            state = p["state"]
            if state == ACTIVE:
                end = p["tx_end"]
                if end >= horizon:
                    return
                departures[p["tx_seq"]] = end
                if p["high"]:
                    seq, size = p["high"].popleft()
                elif p["low"]:
                    seq, size = p["low"].popleft()
                else:
                    p["state"] = SLEEP
                    p["until"] = end + t_sleep
                    continue
                p["tx_seq"] = seq
                p["tx_end"] = end + tx_time(size)
            elif state == SLEEP:
                until = p["until"]
                if until >= horizon:
                    return
                if p["high"] or p["low"]:
                    p["state"] = WAKE
                    p["until"] = until + t_wake
                else:
                    p["state"] = LPI
            elif state == WAKE:
                until = p["until"]
                if until >= horizon:
                    return
                if p["high"]:
                    seq, size = p["high"].popleft()
                elif p["low"]:
                    seq, size = p["low"].popleft()
                else:
                    raise SimulationFault("oracle: wake completed with empty queues")
                p["state"] = ACTIVE
                p["tx_seq"] = seq
                p["tx_end"] = until + tx_time(size)
            else:  # LPI: nothing happens until an arrival
                return

    period = config.sampling_period_ns
    next_epoch = period
    for pkt in pkts:
        t = pkt[0]
        while next_epoch <= t:  # epochs run before same-instant arrivals
            for p in ports:
                advance(p, next_epoch)
            table.control_epoch(next_epoch)
            next_epoch += period
        for p in ports:
            advance(p, t)
        idx, queue = table.route_packet(pkt)
        p = ports[idx]
        if len(p["high"]) + len(p["low"]) >= limit:
            dropped.add(pkt[4])
            continue
        (p["high"] if queue is Queue.HIGH else p["low"]).append((pkt[4], pkt[1]))
        if p["state"] == LPI:
            p["state"] = WAKE
            p["until"] = t + t_wake
    for p in ports:
        advance(p, _INF)
    return departures, dropped
