"""Per-flow rate estimation and the flow -> (port, queue) allocation algorithms.

:func:`allocate` is the entry point: it checks a :class:`BundleConfig` and
runs one of the six :class:`Algorithm` s; :func:`conservative_allocate`
balances over a fixed ``k`` ports, as the plan before the first epoch does.

All allocators are pure functions from rate estimates to a plan, and all
are exact, so port-count thresholds and load tie-breaks never depend on
floating-point rounding. They share one array core over :class:`Estimates`,
where flow ``i`` carries ``units[i] * unit`` bits/s: integer units and one
exact ``Fraction`` unit. Within a control epoch every rate is
``bytes * 8e9 / period``, so the byte counts are the units; a list of
:class:`FlowEstimate` is converted over the lcm of its rate denominators.
The core ranks flows by one int key (rate descending, equal rates by flow
name, see :attr:`Estimates.units`), balances, packs and sizes on Python
ints, and turns the per-port loads into ``Fraction`` only when it builds
the plan.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from heapq import heapreplace

import numpy as np

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

    def validate(self, prefix: str = "") -> None:
        """A ConfigError naming the first bad field, ``prefix`` before its name."""
        if self.n_ports < 1:
            raise ConfigError(f"{prefix}n_ports must be >= 1, got {self.n_ports}")
        if self.capacity_bps <= 0:
            raise ConfigError(f"{prefix}capacity_bps must be positive, got {self.capacity_bps}")
        if not 0 < self.bound_fraction <= 1:
            raise ConfigError(
                f"{prefix}bound_fraction must be in (0, 1], got {self.bound_fraction}"
            )


@dataclass(slots=True)
class FlowEstimate:
    """Rate a flow is expected to carry in the next interval."""

    flow: str
    rate: Fraction  # bits/s, exactly bytes*8/period
    traffic_class: TrafficClass


def flow_rank(flows) -> np.ndarray:
    """Position of each flow key in ``sorted(flows)``."""
    rank = np.empty(len(flows), dtype=np.int64)
    rank[sorted(range(len(flows)), key=flows.__getitem__)] = np.arange(len(flows))
    return rank


@dataclass(slots=True)
class Estimates:
    """Rates a set of flows is expected to carry in the next interval.

    Flow ``flows[i]`` carries exactly ``units[i] * unit`` bits/s and is
    low-latency where ``low_latency[i]``; ``rank[i]`` is the position of
    ``flows[i]`` in ``sorted(flows)``.
    """

    flows: Sequence
    # int64 >= 0, or Python ints (object) where max(units) * n leaves int64:
    # flows rank by the distinct keys rank - units * n, n = len(units)
    units: np.ndarray
    unit: Fraction
    low_latency: np.ndarray  # bool
    rank: np.ndarray

    def __post_init__(self):
        n = len(self.units)
        if n and self.units.dtype != object and int(self.units.max()) > (2**63 - 1) // n:
            self.units = self.units.astype(object)

    def __len__(self) -> int:
        return len(self.flows)

    @classmethod
    def of(cls, estimates) -> Estimates:
        """The arrays of a list of :class:`FlowEstimate`, with ``unit`` one
        over the lcm of the rate denominators."""
        ratios = [e.rate.as_integer_ratio() for e in estimates]
        den = math.lcm(*{d for _, d in ratios})
        units = [n * (den // d) for n, d in ratios]
        try:
            units = np.array(units, dtype=np.int64)
        except OverflowError:
            units = np.array(units, dtype=object)
        flows = [e.flow for e in estimates]
        low_latency = np.array(
            [e.traffic_class is TrafficClass.LOW_LATENCY for e in estimates], dtype=bool)
        return cls(flows, units, Fraction(1, den), low_latency, flow_rank(flows))


def _arrays(estimates) -> Estimates:
    """``estimates`` as :class:`Estimates`; a list of :class:`FlowEstimate` is converted."""
    return estimates if isinstance(estimates, Estimates) else Estimates.of(estimates)


@dataclass
class AllocationPlan:
    """Flow -> (port, queue) mapping installed at a control epoch.

    ``flows[i]`` goes to port ``ports[i]``, into the high-priority queue
    where ``high[i]``; ``assignments`` gives the same as a dict. ``port_loads``
    are the planned per-port loads (estimate sums) used to place flows that
    show up before the next epoch; ``active_set`` is where such unplanned
    normal flows may go, and ``spare_port`` is where the spare-port
    algorithm concentrates low-latency traffic.
    """

    flows: Sequence
    ports: np.ndarray  # int64 per flow
    high: np.ndarray   # bool per flow
    active_ports: int
    epoch: int
    algorithm: Algorithm
    port_loads: list   # Fraction per port
    active_set: tuple
    spare_port: int | None = None

    @cached_property
    def assignments(self) -> dict:
        """flow -> (port, Queue)."""
        queue = (Queue.LOW, Queue.HIGH)
        return {flow: (port, queue[high]) for flow, port, high
                in zip(self.flows, self.ports.tolist(), self.high.tolist())}

    @cached_property
    def least_loaded(self) -> int:
        """Port of ``active_set`` with the lowest planned load, lowest index first."""
        loads = self.port_loads
        return min(self.active_set, key=lambda i: (loads[i], i))


def initial_plan(algorithm: Algorithm, n_ports: int) -> AllocationPlan:
    """Plan in force before the first control epoch: port 0 only, no flows."""
    plan = conservative_allocate([], 1, n_ports)
    plan.algorithm = algorithm
    return plan


def estimate_rates(nbytes, period_ns, low_latency, flows, rank) -> Estimates:
    """Estimates from the bytes each flow sent in the closed interval.

    Flow ``flows[i]`` sent ``nbytes[i]`` bytes, so its rate is
    ``nbytes[i] * 8 / period`` (0 for a flow that was silent); ``rank`` is
    :func:`flow_rank` of ``flows``.
    """
    if period_ns <= 0:
        raise ConfigError(f"estimation period must be positive, got {period_ns}")
    return Estimates(flows, nbytes, Fraction(8_000_000_000, period_ns), low_latency, rank)


def required_ports(total_rate, capacity_bps, n_ports: int) -> int:
    """Minimum number of ports for the load: clamp(ceil(total/capacity), 1, N)."""
    if capacity_bps <= 0:
        raise ConfigError(f"capacity must be positive, got {capacity_bps}")
    num, den = Fraction(total_rate).as_integer_ratio()
    return min(n_ports, max(1, -(-num // (den * capacity_bps))))


def _sized(est, idx, capacity_bps, n_ports) -> int:
    """:func:`required_ports` for the total rate of the flows at ``idx``."""
    return required_ports(int(est.units[idx].sum()) * est.unit, capacity_bps, n_ports)


def _ranked(est) -> np.ndarray:
    """Flow indices in allocation order: rate descending, equal rates by flow
    name, so replays are deterministic."""
    return np.argsort(est.rank - est.units * len(est))


def _lpt(units, ranked, k, n_ports, port):
    """Longest-processing-time-first balancing of the flows ``ranked`` over
    ports 0..k-1, writing each flow's port into ``port``.

    Ties go to the lower port index. Returns the loads[n_ports] in units.
    """
    heap = [(0, i) for i in range(k)]  # (load, port): heap[0] is the choice
    sizes = units[ranked]
    busy = np.flatnonzero(sizes)
    m = int(busy[-1]) + 1 if len(busy) else 0  # the silent flows ranked last
    placed = []
    for size in sizes[:m].tolist():
        load, p = heap[0]
        placed.append(p)
        heapreplace(heap, (load + size, p))
    port[ranked[:m]] = placed
    # a silent flow adds nothing, so heap[0] stays the choice for each of them
    port[ranked[m:]] = heap[0][1]
    loads = [0] * n_ports
    for load, p in heap:
        loads[p] = load
    return loads


def _first_fit(units, ranked, limit, n_ports, port):
    """First fit onto the lowest-index port whose load stays <= limit."""
    loads = [0] * n_ports
    placed = []
    for size in units[ranked].tolist():
        for p, load in enumerate(loads):
            if load + size <= limit:
                break
        else:
            # Flow does not fit anywhere: fall back to the least-loaded port.
            p = loads.index(min(loads))
        placed.append(p)
        loads[p] += size
    port[ranked] = placed
    return loads


def _plan(est, algorithm, epoch, port, loads, active_ports, active_set, spare=None):
    high = (est.low_latency if algorithm is Algorithm.TWO_QUEUES
            else np.zeros(len(est), dtype=bool))
    return AllocationPlan(
        flows=est.flows,
        ports=port,
        high=high,
        active_ports=active_ports,
        epoch=epoch,
        algorithm=algorithm,
        port_loads=[x * est.unit for x in loads],
        active_set=tuple(active_set),
        spare_port=spare,
    )


def _lpt_plan(est, ranked, k, n_ports, epoch, algorithm):
    port = np.zeros(len(est), dtype=np.int64)
    loads = _lpt(est.units, ranked, k, n_ports, port)
    return _plan(est, algorithm, epoch, port, loads, k, range(k))


def conservative_allocate(estimates, k: int, n_ports: int, epoch: int = 0) -> AllocationPlan:
    """Balance all flows over the first k ports, keep the rest idle."""
    if not 1 <= k <= n_ports:
        raise ConfigError(f"k={k} outside [1, {n_ports}]")
    est = _arrays(estimates)
    return _lpt_plan(est, _ranked(est), k, n_ports, epoch, Algorithm.CONSERVATIVE)


def _greedy_plan(est, threshold, n_ports, epoch, algorithm):
    # load + rate <= threshold  <=>  load_units + units <= floor(threshold / unit)
    limit = math.floor(Fraction(threshold) / est.unit)
    port = np.zeros(len(est), dtype=np.int64)
    loads = _first_fit(est.units, _ranked(est), limit, n_ports, port)
    used = np.flatnonzero(np.bincount(port, minlength=n_ports)).tolist() or [0]
    return _plan(est, algorithm, epoch, port, loads, len(used), used)


def _spare_port_plan(est, capacity_bps, n_ports, epoch):
    """Pass 1 sizes the active set from normal traffic only. Pass 2 sends every
    low-latency flow to the port with the smallest pass-1 load, breaking ties
    toward the highest index so an untouched trailing port is preferred.
    """
    ranked = _ranked(est)
    ll = est.low_latency[ranked]
    normal, lowlat = ranked[~ll], ranked[ll]
    k = _sized(est, normal, capacity_bps, n_ports)
    port = np.zeros(len(est), dtype=np.int64)
    loads = _lpt(est.units, normal, k, n_ports, port)
    spare = None
    if len(lowlat):
        spare = n_ports - 1 - loads[::-1].index(min(loads))
        port[lowlat] = spare
        loads[spare] += int(est.units[lowlat].sum())
    active = k + (1 if spare is not None and spare >= k else 0)
    return _plan(est, Algorithm.SPARE_PORT, epoch, port, loads, active, range(k), spare)


def allocate(algorithm: Algorithm, estimates, bundle: BundleConfig, epoch: int = 0) -> AllocationPlan:
    """Run ``algorithm`` over the estimates for ``bundle``, once it is checked.

    ``equitable`` spreads flows over all N ports regardless of load.
    ``greedy`` places them first-fit decreasing onto the lowest-index port
    with room up to capacity; ``bounded_greedy`` lowers that per-port
    threshold to ``bound_fraction * capacity``. ``conservative`` balances
    them (LPT) over just enough ports for the total estimated load.
    ``spare_port`` is conservative on normal flows and sends low-latency
    flows onto the emptiest port. ``two_queues`` places flows on ports bit
    for bit as conservative does over all flows; only the queue differs
    (high for low-latency flows).
    """
    bundle.validate()
    est = _arrays(estimates)
    n, cap = bundle.n_ports, bundle.capacity_bps
    if algorithm is Algorithm.EQUITABLE:
        return _lpt_plan(est, _ranked(est), n, n, epoch, algorithm)
    if algorithm in (Algorithm.CONSERVATIVE, Algorithm.TWO_QUEUES):
        ranked = _ranked(est)
        return _lpt_plan(est, ranked, _sized(est, ranked, cap, n), n, epoch, algorithm)
    if algorithm is Algorithm.GREEDY:
        return _greedy_plan(est, cap, n, epoch, algorithm)
    if algorithm is Algorithm.BOUNDED_GREEDY:
        bound = Fraction(str(bundle.bound_fraction)) * cap
        return _greedy_plan(est, bound, n, epoch, algorithm)
    if algorithm is Algorithm.SPARE_PORT:
        return _spare_port_plan(est, cap, n, epoch)
    raise ConfigError(f"unknown algorithm {algorithm!r}")
