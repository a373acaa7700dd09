"""Reference allocators on ``Fraction`` arithmetic, kept apart from ``eeesim``.

These are the straightforward exact-rational versions of the six
allocators: rates and port loads are ``Fraction`` sums, the sort key is
``(-rate, flow)`` and every choice is a ``min`` over the ports. The fast
allocators in ``eeesim.allocation`` work on integer units instead; comparing
the two is a check on the allocator in the way ``oracle_simulate`` is one on
the engine (the oracle plans through ``eeesim.allocate`` itself, so it cannot
catch an allocator regression).

Each allocator returns a dict with the plan fields the engine reads:
``assignments`` (flow -> (port, Queue)), ``port_loads`` (Fraction per port),
``active_ports``, ``active_set`` and ``spare_port``. ``control_path`` plays
a whole run's control loop on dicts keyed by flow: its plans and the route
of every packet.
"""

import math
from fractions import Fraction

from eeesim import Algorithm, FlowEstimate, Queue, TrafficClass


def required_ports(total_rate, capacity_bps, n_ports):
    k = math.ceil(Fraction(total_rate) / capacity_bps)
    return min(n_ports, max(1, k))


def _by_rate_desc(estimates):
    return sorted(estimates, key=lambda e: (-e.rate, e.flow))


def _lpt(estimates, ports, n_ports):
    loads = [Fraction(0)] * n_ports
    placement = {}
    for est in _by_rate_desc(estimates):
        port = min(ports, key=lambda i: (loads[i], i))
        placement[est.flow] = port
        loads[port] += est.rate
    return placement, loads


def _first_fit(estimates, threshold, n_ports):
    loads = [Fraction(0)] * n_ports
    placement = {}
    for est in _by_rate_desc(estimates):
        port = None
        for i in range(n_ports):
            if loads[i] + est.rate <= threshold:
                port = i
                break
        if port is None:
            port = min(range(n_ports), key=lambda i: (loads[i], i))
        placement[est.flow] = port
        loads[port] += est.rate
    return placement, loads


def _plan(assignments, loads, active_ports, active_set, spare_port=None):
    return {
        "assignments": assignments,
        "port_loads": loads,
        "active_ports": active_ports,
        "active_set": tuple(active_set),
        "spare_port": spare_port,
    }


def conservative(estimates, k, n_ports):
    placement, loads = _lpt(estimates, range(k), n_ports)
    return _plan({f: (p, Queue.LOW) for f, p in placement.items()},
                 loads, k, range(k))


def _greedy(estimates, threshold, n_ports):
    placement, loads = _first_fit(estimates, threshold, n_ports)
    used = sorted(set(placement.values())) or [0]
    return _plan({f: (p, Queue.LOW) for f, p in placement.items()},
                 loads, len(used), used)


def spare_port(estimates, capacity_bps, n_ports):
    normal = [e for e in estimates if e.traffic_class is TrafficClass.NORMAL]
    lowlat = [e for e in estimates if e.traffic_class is TrafficClass.LOW_LATENCY]
    total = sum((e.rate for e in normal), Fraction(0))
    k = required_ports(total, capacity_bps, n_ports)
    placement, loads = _lpt(normal, range(k), n_ports)
    assignments = {f: (p, Queue.LOW) for f, p in placement.items()}
    spare = None
    if lowlat:
        spare = min(range(n_ports), key=lambda i: (loads[i], -i))
        for est in _by_rate_desc(lowlat):
            assignments[est.flow] = (spare, Queue.LOW)
            loads[spare] += est.rate
    active = k + (1 if spare is not None and spare >= k else 0)
    return _plan(assignments, loads, active, range(k), spare)


def two_queues(estimates, capacity_bps, n_ports):
    total = sum((e.rate for e in estimates), Fraction(0))
    plan = conservative(estimates, required_ports(total, capacity_bps, n_ports),
                        n_ports)
    cls = {e.flow: e.traffic_class for e in estimates}
    plan["assignments"] = {
        f: (p, Queue.HIGH if cls[f] is TrafficClass.LOW_LATENCY else Queue.LOW)
        for f, (p, _) in plan["assignments"].items()
    }
    return plan


def allocate(algorithm, estimates, n_ports, capacity_bps, bound_fraction=0.9):
    if algorithm is Algorithm.EQUITABLE:
        return conservative(estimates, n_ports, n_ports)
    if algorithm is Algorithm.GREEDY:
        return _greedy(estimates, Fraction(capacity_bps), n_ports)
    if algorithm is Algorithm.BOUNDED_GREEDY:
        if isinstance(bound_fraction, float):
            bound_fraction = Fraction(str(bound_fraction))
        return _greedy(estimates, Fraction(bound_fraction) * capacity_bps, n_ports)
    if algorithm is Algorithm.CONSERVATIVE:
        total = sum((e.rate for e in estimates), Fraction(0))
        return conservative(estimates, required_ports(total, capacity_bps, n_ports),
                            n_ports)
    if algorithm is Algorithm.SPARE_PORT:
        return spare_port(estimates, capacity_bps, n_ports)
    if algorithm is Algorithm.TWO_QUEUES:
        return two_queues(estimates, capacity_bps, n_ports)
    raise ValueError(algorithm)


def control_path(config, packets):
    """Epoch rows and packet routes of a run, from dict counters and the
    reference allocators.

    At each control epoch every flow seen so far is estimated, at
    ``bytes * 8e9 / period`` for the bytes of its packets in the closed
    interval (0 for a silent flow). A flow's first packet registers it: a
    low-latency flow under ``spare_port`` goes to the spare port, if the plan
    in force has one, and any other flow to the least-loaded port of its
    active set, into the high queue for a low-latency flow under
    ``two_queues``. Returns ``(rows, routes)``: ``(epoch, active_ports,
    port_loads)`` per epoch, and seq -> ``(port, Queue)`` per packet.
    """
    bundle, period = config.bundle, config.sampling_period_ns
    algorithm, n_ports = bundle.algorithm, bundle.n_ports
    classes, counts, registered = {}, {}, {}
    plan = _plan({}, [Fraction(0)] * n_ports, 1, (0,))
    rows, routes = [], {}
    epoch = period

    def fire():
        estimates = [FlowEstimate(f, Fraction(counts.get(f, 0) * 8_000_000_000, period), c)
                     for f, c in classes.items()]
        return allocate(algorithm, estimates, n_ports, bundle.capacity_bps,
                        bundle.bound_fraction)

    for t, size, flow, dscp, seq in packets:
        while epoch <= t:
            plan = fire()
            rows.append((epoch, plan["active_ports"], plan["port_loads"]))
            counts, registered = {}, {}
            epoch += period
        route = plan["assignments"].get(flow) or registered.get(flow)
        if route is None:
            low_latency = dscp in config.ll_dscps
            classes[flow] = (TrafficClass.LOW_LATENCY if low_latency
                             else TrafficClass.NORMAL)
            loads = plan["port_loads"]
            if (algorithm is Algorithm.SPARE_PORT and low_latency
                    and plan["spare_port"] is not None):
                port = plan["spare_port"]
            else:
                port = min(plan["active_set"], key=lambda i: (loads[i], i))
            high = algorithm is Algorithm.TWO_QUEUES and low_latency
            route = registered[flow] = (port, Queue.HIGH if high else Queue.LOW)
        routes[seq] = route
        counts[flow] = counts.get(flow, 0) + size
    while epoch < config.duration_ns:
        plan = fire()
        rows.append((epoch, plan["active_ports"], plan["port_loads"]))
        counts = {}
        epoch += period
    return rows, routes
