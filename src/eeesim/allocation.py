"""Per-flow rate estimation and the flow -> (port, queue) allocation algorithms.

All allocators are pure functions from rate estimates to a plan, and all
are exact, so port-count thresholds and load tie-breaks never depend on
floating-point rounding. Estimates carry exact ``Fraction`` rates; an
allocator converts them once to integer units over one common denominator
(the lcm of the rate denominators), sorts, balances, packs and sizes on
Python ints, and turns the per-port loads back into ``Fraction`` only when
it builds the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from heapq import heapreplace
from operator import itemgetter

from .eee_port import Queue
from .errors import ConfigError
from .traffic import TrafficClass


class Algorithm(Enum):
    EQUITABLE = "equitable"
    GREEDY = "greedy"
    BOUNDED_GREEDY = "bounded_greedy"
    CONSERVATIVE = "conservative"
    SPARE_PORT = "spare_port"
    TWO_QUEUES = "two_queues"


@dataclass(slots=True)
class BundleConfig:
    n_ports: int
    capacity_bps: int
    algorithm: Algorithm = Algorithm.CONSERVATIVE
    bound_fraction: float = 0.9  # bounded-greedy per-port fill threshold

    def validate(self) -> None:
        if self.n_ports < 1:
            raise ConfigError(f"bundle needs at least one port, got {self.n_ports}")
        if self.capacity_bps <= 0:
            raise ConfigError(f"port capacity must be positive, got {self.capacity_bps}")
        if not 0 < self.bound_fraction <= 1:
            raise ConfigError(
                f"bound fraction must be in (0, 1], got {self.bound_fraction}"
            )


@dataclass(slots=True)
class FlowEstimate:
    """Rate a flow is expected to carry in the next interval."""

    flow: str
    bytes_last_period: int
    rate: Fraction  # bits/s, exactly bytes*8/period
    traffic_class: TrafficClass


@dataclass
class AllocationPlan:
    """Flow -> (port, queue) mapping installed at a control epoch.

    ``port_loads`` are the planned per-port loads (estimate sums) used to
    place flows that show up before the next epoch; ``active_set`` is where
    such unplanned normal flows may go, and ``spare_port`` is where the
    spare-port algorithm concentrates low-latency traffic.
    """

    assignments: dict = field(default_factory=dict)  # flow -> (port, Queue)
    active_ports: int = 1
    epoch: int = 0
    algorithm: Algorithm = Algorithm.CONSERVATIVE
    port_loads: list = field(default_factory=list)   # Fraction per port
    active_set: tuple = (0,)
    spare_port: int | None = None

    @cached_property
    def least_loaded(self) -> int:
        """Port of ``active_set`` with the lowest planned load, lowest index first."""
        loads = self.port_loads
        return min(self.active_set, key=lambda i: (loads[i], i))

    def to_json_dict(self) -> dict:
        return {
            "epoch_ns": self.epoch,
            "algorithm": self.algorithm.value,
            "active_ports": self.active_ports,
            "spare_port": self.spare_port,
            "port_loads_bps": [float(x) for x in self.port_loads],
            "assignments": {
                flow: {"port": port, "queue": queue.name.lower()}
                for flow, (port, queue) in sorted(self.assignments.items())
            },
        }


def initial_plan(algorithm: Algorithm, n_ports: int) -> AllocationPlan:
    """Plan in force before the first control epoch: port 0 only, no flows."""
    return AllocationPlan(
        assignments={},
        active_ports=1,
        epoch=0,
        algorithm=algorithm,
        port_loads=[Fraction(0)] * n_ports,
        active_set=(0,),
        spare_port=None,
    )


def estimate_rates(byte_counts, period_ns, classes, retained=()) -> list[FlowEstimate]:
    """One estimate per flow, rate = bytes*8/period.

    Flows absent from ``byte_counts`` but listed in ``retained`` (the
    previous plan) are kept with rate 0. Output is sorted by flow id.
    """
    if period_ns <= 0:
        raise ConfigError(f"estimation period must be positive, got {period_ns}")
    count_of = byte_counts.get
    class_of = classes.get
    normal = TrafficClass.NORMAL
    rates = {}  # byte count -> its rate; flows share few distinct counts
    out = []
    for flow in sorted(byte_counts.keys() | retained):
        nbytes = count_of(flow, 0)
        rate = rates.get(nbytes)
        if rate is None:
            rate = rates[nbytes] = Fraction(nbytes * 8_000_000_000, period_ns)
        out.append(FlowEstimate(flow, nbytes, rate, class_of(flow, normal)))
    return out


def _ports_for(units, den, capacity_bps, n_ports: int) -> int:
    """clamp(ceil(units / (den * capacity)), 1, N) in integers."""
    if capacity_bps <= 0:
        raise ConfigError(f"capacity must be positive, got {capacity_bps}")
    return min(n_ports, max(1, -(-units // (den * capacity_bps))))


def required_ports(total_rate, capacity_bps, n_ports: int) -> int:
    """Minimum number of ports for the load: clamp(ceil(total/capacity), 1, N)."""
    num, den = Fraction(total_rate).as_integer_ratio()
    return _ports_for(num, den, capacity_bps, n_ports)


def _ranked(estimates):
    """Exact integer view of the estimates, in allocation order.

    Returns ``(ranked, den)``: ``den`` is the lcm of the rate denominators
    and ``ranked`` holds ``(-units, flow)`` pairs, ``units = rate * den``,
    sorted by rate descending with equal rates by flow id so replays are
    deterministic.
    """
    ratios = [e.rate.as_integer_ratio() for e in estimates]
    den = math.lcm(*{d for _, d in ratios})
    ranked = [(-n * (den // d), e.flow) for (n, d), e in zip(ratios, estimates)]
    # Two stable sorts give the (-units, flow) order faster than one tuple
    # sort: by flow (estimate_rates output already is), then by int alone.
    ranked.sort(key=itemgetter(1))
    ranked.sort(key=itemgetter(0))
    return ranked, den


def _lpt(ranked, k, n_ports):
    """Longest-processing-time-first balancing over ports 0..k-1.

    Ties go to the lower port index. Returns (flow -> port, loads[n_ports]).
    """
    heap = [(0, i) for i in range(k)]  # (load, port): heap[0] is the choice
    placement = {}
    for neg, flow in ranked:
        load, port = heap[0]
        placement[flow] = port
        heapreplace(heap, (load - neg, port))
    loads = [0] * n_ports
    for load, port in heap:
        loads[port] = load
    return placement, loads


def _lpt_plan(ranked, den, k, n_ports, epoch, algorithm, queue_of=None):
    placement, loads = _lpt(ranked, k, n_ports)
    if queue_of is None:
        assignments = {f: (p, Queue.LOW) for f, p in placement.items()}
    else:
        assignments = {f: (p, queue_of[f]) for f, p in placement.items()}
    return AllocationPlan(
        assignments=assignments,
        active_ports=k,
        epoch=epoch,
        algorithm=algorithm,
        port_loads=[Fraction(x, den) for x in loads],
        active_set=tuple(range(k)),
    )


def conservative_allocate(estimates, k: int, n_ports: int, epoch: int = 0) -> AllocationPlan:
    """Balance all flows over the first k ports, keep the rest idle."""
    if not 1 <= k <= n_ports:
        raise ConfigError(f"k={k} outside [1, {n_ports}]")
    ranked, den = _ranked(estimates)
    return _lpt_plan(ranked, den, k, n_ports, epoch, Algorithm.CONSERVATIVE)


def _sized_conservative(estimates, capacity_bps, n_ports, epoch, algorithm,
                        queue_of=None):
    """LPT over just enough ports for the total estimated load."""
    ranked, den = _ranked(estimates)
    k = _ports_for(-sum(map(itemgetter(0), ranked)), den, capacity_bps, n_ports)
    return _lpt_plan(ranked, den, k, n_ports, epoch, algorithm, queue_of)


def equitable_allocate(estimates, n_ports: int, epoch: int = 0) -> AllocationPlan:
    """Spread flows over all N ports regardless of load."""
    plan = conservative_allocate(estimates, n_ports, n_ports, epoch)
    plan.algorithm = Algorithm.EQUITABLE
    return plan


def _first_fit(ranked, limit, n_ports):
    """First fit onto the lowest-index port whose load stays <= limit."""
    loads = [0] * n_ports
    placement = {}
    for neg, flow in ranked:
        for port, load in enumerate(loads):
            if load - neg <= limit:
                break
        else:
            # Flow does not fit anywhere: fall back to the least-loaded port.
            port = loads.index(min(loads))
        placement[flow] = port
        loads[port] -= neg
    return placement, loads


def _greedy_plan(estimates, threshold, n_ports, epoch, algorithm):
    ranked, den = _ranked(estimates)
    # load + rate <= threshold  <=>  load_units + units <= floor(threshold * den)
    num, tden = Fraction(threshold).as_integer_ratio()
    placement, loads = _first_fit(ranked, num * den // tden, n_ports)
    used = sorted(set(placement.values())) or [0]
    return AllocationPlan(
        assignments={f: (p, Queue.LOW) for f, p in placement.items()},
        active_ports=len(used),
        epoch=epoch,
        algorithm=algorithm,
        port_loads=[Fraction(x, den) for x in loads],
        active_set=tuple(used),
    )


def greedy_allocate(estimates, capacity_bps, n_ports: int, epoch: int = 0) -> AllocationPlan:
    """First-fit decreasing onto the lowest-index port with room up to capacity."""
    return _greedy_plan(estimates, capacity_bps, n_ports, epoch, Algorithm.GREEDY)


def bounded_greedy_allocate(
    estimates, capacity_bps, bound_fraction, n_ports: int, epoch: int = 0
) -> AllocationPlan:
    """Greedy with the per-port threshold lowered to bound_fraction * capacity."""
    if not 0 < bound_fraction <= 1:
        raise ConfigError(f"bound fraction must be in (0, 1], got {bound_fraction}")
    if isinstance(bound_fraction, float):
        bound_fraction = Fraction(str(bound_fraction))
    threshold = Fraction(bound_fraction) * capacity_bps
    return _greedy_plan(estimates, threshold, n_ports, epoch, Algorithm.BOUNDED_GREEDY)


def spare_port_allocate(estimates, capacity_bps, n_ports: int, epoch: int = 0) -> AllocationPlan:
    """Conservative on normal flows, low-latency flows onto the emptiest port.

    Pass 1 sizes the active set from normal traffic only. Pass 2 sends every
    low-latency flow to the port with the smallest pass-1 load, breaking ties
    toward the highest index so an untouched trailing port is preferred.
    """
    ranked, den = _ranked(estimates)
    lowlat_flows = {e.flow for e in estimates
                    if e.traffic_class is TrafficClass.LOW_LATENCY}
    normal = [r for r in ranked if r[1] not in lowlat_flows]
    lowlat = [r for r in ranked if r[1] in lowlat_flows]
    k = _ports_for(-sum(map(itemgetter(0), normal)), den, capacity_bps, n_ports)
    placement, loads = _lpt(normal, k, n_ports)
    assignments = {f: (p, Queue.LOW) for f, p in placement.items()}
    spare = None
    if lowlat:
        spare = n_ports - 1 - loads[::-1].index(min(loads))
        for neg, flow in lowlat:
            assignments[flow] = (spare, Queue.LOW)
            loads[spare] -= neg
    active = k + (1 if spare is not None and spare >= k else 0)
    return AllocationPlan(
        assignments=assignments,
        active_ports=active,
        epoch=epoch,
        algorithm=Algorithm.SPARE_PORT,
        port_loads=[Fraction(x, den) for x in loads],
        active_set=tuple(range(k)),
        spare_port=spare,
    )


def two_queues_allocate(estimates, capacity_bps, n_ports: int, epoch: int = 0) -> AllocationPlan:
    """Conservative port placement, class-based queue selection.

    The flow -> port map is bit-for-bit the conservative one computed over
    all flows; only the queue differs (high for low-latency flows).
    """
    queue_of = {
        e.flow: Queue.HIGH if e.traffic_class is TrafficClass.LOW_LATENCY else Queue.LOW
        for e in estimates
    }
    return _sized_conservative(estimates, capacity_bps, n_ports, epoch,
                               Algorithm.TWO_QUEUES, queue_of)


def allocate(algorithm: Algorithm, estimates, bundle: BundleConfig, epoch: int = 0) -> AllocationPlan:
    """Run the configured allocator over the estimates."""
    n, cap = bundle.n_ports, bundle.capacity_bps
    if algorithm is Algorithm.EQUITABLE:
        return equitable_allocate(estimates, n, epoch)
    if algorithm is Algorithm.GREEDY:
        return greedy_allocate(estimates, cap, n, epoch)
    if algorithm is Algorithm.BOUNDED_GREEDY:
        return bounded_greedy_allocate(estimates, cap, bundle.bound_fraction, n, epoch)
    if algorithm is Algorithm.CONSERVATIVE:
        return _sized_conservative(estimates, cap, n, epoch, Algorithm.CONSERVATIVE)
    if algorithm is Algorithm.SPARE_PORT:
        return spare_port_allocate(estimates, cap, n, epoch)
    if algorithm is Algorithm.TWO_QUEUES:
        return two_queues_allocate(estimates, cap, n, epoch)
    raise ConfigError(f"unknown algorithm {algorithm!r}")
