"""Rate estimation and the six allocators, checked against brute force."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from eeesim import (
    Algorithm,
    ConfigError,
    Queue,
    TrafficClass,
    allocate,
    conservative_allocate,
    estimate_rates,
    required_ports,
)
from eeesim.allocation import BundleConfig, FlowEstimate, flow_rank

RSEED = 1869
GBPS = 1_000_000_000


def est(flow, rate_bps, cls=TrafficClass.NORMAL):
    return FlowEstimate(flow, Fraction(int(rate_bps)), cls)


def alloc(algorithm, flows, n_ports=5, bound_fraction=0.9):
    """``allocate`` on a bundle of ``n_ports`` 10 Gb/s ports."""
    return allocate(algorithm, flows, BundleConfig(n_ports, 10 * GBPS, algorithm, bound_fraction))


def ests(rates_gbps, cls=TrafficClass.NORMAL, prefix="f"):
    return [est(f"{prefix}{i}", r * GBPS, cls) for i, r in enumerate(rates_gbps)]


def loads_gbps(plan):
    return [float(x) / GBPS for x in plan.port_loads]


def brute_min_makespan(rates, k):
    best = None
    for assignment in itertools.product(range(k), repeat=len(rates)):
        loads = [0] * k
        for rate, port in zip(rates, assignment):
            loads[port] += rate
        worst = max(loads)
        if best is None or worst < best:
            best = worst
    return best


# -- estimate_rates ----------------------------------------------------------

def _estimate(byte_counts, period_ns):
    flows = list(byte_counts)
    return estimate_rates(np.array(list(byte_counts.values()), dtype=np.int64),
                          period_ns, np.zeros(len(flows), dtype=bool), flows,
                          flow_rank(flows))


def test_estimate_rate_arithmetic():
    out = _estimate({"a": 1_000_000}, 500_000_000)
    assert out.units[0] * out.unit == Fraction(16_000_000)  # 1 MB over 0.5 s

    out = _estimate({"a": 625_000_000}, 500_000_000)
    assert out.units[0] * out.unit == Fraction(10 * GBPS)


def test_estimate_retains_silent_flows():
    out = _estimate({"a": 100, "b": 0}, 1_000_000)
    assert len(out) == 2
    assert out.units[1] * out.unit == 0
    for algorithm in Algorithm:
        plan = allocate(algorithm, out, BundleConfig(5, 10 * GBPS, algorithm))
        assert set(plan.assignments) == {"a", "b"}


def test_estimate_rejects_bad_period():
    with pytest.raises(ConfigError):
        _estimate({}, 0)


# -- required_ports ----------------------------------------------------------

def test_required_ports_reference_loads():
    ten_g = 10 * GBPS
    assert required_ports(26 * GBPS, ten_g, 5) == 3
    assert required_ports(Fraction(65 * GBPS, 2), ten_g, 5) == 4  # 32.5 Gb/s
    assert required_ports(Fraction(13 * GBPS, 2), ten_g, 5) == 1  # 6.5 Gb/s


def test_required_ports_clamps():
    assert required_ports(0, GBPS, 5) == 1
    assert required_ports(100 * GBPS, GBPS, 5) == 5


def test_required_ports_rejects_zero_capacity():
    with pytest.raises(ConfigError, match="^capacity must be positive, got 0$"):
        required_ports(GBPS, 0, 5)


def test_required_ports_monotone():
    rng = random.Random(RSEED)
    rates = sorted(rng.randrange(0, 60 * GBPS) for _ in range(100))
    ks = [required_ports(r, 10 * GBPS, 5) for r in rates]
    assert ks == sorted(ks)
    assert all(1 <= k <= 5 for k in ks)


# -- conservative ------------------------------------------------------------

def test_conservative_lpt_example():
    plan = conservative_allocate(ests([8, 7, 5, 3, 2, 1]), 3, 5)
    assert sorted(loads_gbps(plan)[:3], reverse=True) == [9.0, 9.0, 8.0]
    assert loads_gbps(plan)[3:] == [0.0, 0.0]
    # exhaustive search confirms 9 is the optimal makespan and LPT attains it
    assert brute_min_makespan([8, 7, 5, 3, 2, 1], 3) == 9
    assert all(q is Queue.LOW for _, q in plan.assignments.values())


def test_conservative_single_flow():
    plan = conservative_allocate(ests([4]), 1, 5)
    assert plan.assignments["f0"] == (0, Queue.LOW)
    assert plan.active_ports == 1


def test_conservative_symmetric_pair():
    plan = conservative_allocate(ests([5, 5]), 2, 5)
    assert sorted(p for p, _ in plan.assignments.values()) == [0, 1]
    assert loads_gbps(plan)[:2] == [5.0, 5.0]


def test_conservative_equal_rates_tie_break_by_flow_id():
    plan1 = conservative_allocate(ests([1, 1, 1]), 2, 3)
    plan2 = conservative_allocate(list(reversed(ests([1, 1, 1]))), 2, 3)
    assert plan1.assignments == plan2.assignments


@pytest.mark.parametrize("k", [0, 6])
def test_conservative_rejects_k_outside_the_bundle(k):
    with pytest.raises(ConfigError, match=rf"^k={k} outside \[1, 5\]$"):
        conservative_allocate(ests([1]), k, 5)


# -- equitable ---------------------------------------------------------------

def test_equitable_spreads_over_all_ports():
    plan = alloc(Algorithm.EQUITABLE, ests([8, 7, 5, 3, 2, 1]))
    assert loads_gbps(plan) == [8.0, 7.0, 5.0, 3.0, 3.0]
    assert plan.active_ports == 5


def test_equitable_single_flow_uses_one_port():
    plan = alloc(Algorithm.EQUITABLE, ests([9]))
    assert sum(1 for load in plan.port_loads if load > 0) == 1


def test_equitable_one_port_equals_conservative():
    flows = ests([3, 2, 1])
    eq = alloc(Algorithm.EQUITABLE, flows, 1)
    cons = conservative_allocate(flows, 1, 1)
    assert eq.assignments == cons.assignments


# -- greedy family -----------------------------------------------------------

def test_greedy_first_fit_example():
    plan = alloc(Algorithm.GREEDY, ests([6, 5, 4]))
    ports = {f: p for f, (p, _) in plan.assignments.items()}
    assert ports == {"f0": 0, "f2": 0, "f1": 1}
    assert loads_gbps(plan)[:2] == [10.0, 5.0]


def test_greedy_all_on_first_port_when_it_fits():
    plan = alloc(Algorithm.GREEDY, ests([4, 3, 2]))
    assert {p for p, _ in plan.assignments.values()} == {0}
    assert plan.active_ports == 1


def test_greedy_oversize_flow_falls_back():
    plan = alloc(Algorithm.GREEDY, ests([12]))
    assert plan.assignments["f0"] == (0, Queue.LOW)


def test_bounded_greedy_spills_at_threshold():
    plan = alloc(Algorithm.BOUNDED_GREEDY, ests([6, 5, 4]), bound_fraction=0.9)
    ports = {f: p for f, (p, _) in plan.assignments.items()}
    assert ports == {"f0": 0, "f1": 1, "f2": 1}  # 6+4 > 9 spills; 5+4 = 9 fits
    assert loads_gbps(plan)[:2] == [6.0, 9.0]


def test_bounded_greedy_with_bound_one_equals_greedy():
    flows = ests([6, 5, 4, 3, 2])
    bg = alloc(Algorithm.BOUNDED_GREEDY, flows, bound_fraction=1.0)
    greedy = alloc(Algorithm.GREEDY, flows)
    assert bg.assignments == greedy.assignments


def test_bounded_greedy_oversize_fallback():
    plan = alloc(Algorithm.BOUNDED_GREEDY, ests([6]), bound_fraction=0.5)
    assert plan.assignments["f0"] == (0, Queue.LOW)


# -- spare port --------------------------------------------------------------

def test_spare_port_picks_trailing_idle_port():
    flows = ests([8, 7, 5, 3, 2, 1]) + ests([0.01], TrafficClass.LOW_LATENCY, "ll")
    plan = alloc(Algorithm.SPARE_PORT, flows)
    assert plan.spare_port == 4
    assert plan.assignments["ll0"] == (4, Queue.LOW)
    assert plan.active_ports == 4  # 3 bulk ports + the spare


def test_spare_port_competes_when_bundle_full():
    flows = ests([8, 7, 5]) + ests([0.01], TrafficClass.LOW_LATENCY, "ll")
    plan = alloc(Algorithm.SPARE_PORT, flows, 2)
    # both ports carry bulk traffic (k = N = 2): the low-latency flow joins
    # the least-loaded one and competes on equal terms
    port, queue = plan.assignments["ll0"]
    assert port == 0 and queue is Queue.LOW  # pass-1 loads are (8, 12)
    assert plan.active_ports == 2


def test_spare_port_without_ll_equals_conservative():
    flows = ests([8, 7, 5, 3, 2, 1])
    spare = alloc(Algorithm.SPARE_PORT, flows)
    cons = conservative_allocate(flows, 3, 5)
    assert spare.assignments == cons.assignments
    assert spare.spare_port is None


# -- two queues --------------------------------------------------------------

def test_two_queues_port_map_matches_conservative():
    rng = random.Random(RSEED)
    for _ in range(50):
        flows = [
            est(f"f{i}", rng.randrange(1, 12 * GBPS),
                rng.choice((TrafficClass.NORMAL, TrafficClass.LOW_LATENCY)))
            for i in range(rng.randrange(1, 12))
        ]
        total = sum(e.rate for e in flows)
        k = required_ports(total, 10 * GBPS, 5)
        tq = alloc(Algorithm.TWO_QUEUES, flows)
        cons = conservative_allocate(flows, k, 5)
        assert {f: p for f, (p, _) in tq.assignments.items()} == {
            f: p for f, (p, _) in cons.assignments.items()
        }
        assert tq.port_loads == cons.port_loads
        for e in flows:
            _, queue = tq.assignments[e.flow]
            expected = (
                Queue.HIGH
                if e.traffic_class is TrafficClass.LOW_LATENCY
                else Queue.LOW
            )
            assert queue is expected


def test_two_queues_all_normal_equals_conservative():
    flows = ests([4, 3, 2])
    tq = alloc(Algorithm.TWO_QUEUES, flows)
    cons = conservative_allocate(flows, 1, 5)
    assert tq.assignments == cons.assignments


def test_two_queues_zero_rate_ll_flow():
    flows = ests([4, 3]) + [est("ll0", 0, TrafficClass.LOW_LATENCY)]
    tq = alloc(Algorithm.TWO_QUEUES, flows)
    cons = conservative_allocate(flows, 1, 5)
    port, queue = tq.assignments["ll0"]
    assert port == cons.assignments["ll0"][0]
    assert queue is Queue.HIGH


# -- cross-cutting properties ------------------------------------------------

def test_lpt_within_four_thirds_of_optimum():
    rng = random.Random(RSEED)
    for _ in range(60):
        k = rng.randrange(2, 4)
        rates = [rng.randrange(1, 100) for _ in range(rng.randrange(1, 7))]
        plan = conservative_allocate(
            [est(f"f{i}", r) for i, r in enumerate(rates)], k, k
        )
        lpt_makespan = max(plan.port_loads)
        optimum = brute_min_makespan(rates, k)
        assert lpt_makespan <= Fraction(4, 3) * optimum
        # classical guarantee: max load <= sum/k + max rate
        assert lpt_makespan <= Fraction(sum(rates), k) + max(rates)


def test_rate_scaling_leaves_lpt_assignment_unchanged():
    rng = random.Random(RSEED + 5)
    for _ in range(30):
        rates = [rng.randrange(1, 1000) for _ in range(8)]
        flows = [est(f"f{i}", r) for i, r in enumerate(rates)]
        scaled = [est(f"f{i}", r * 7) for i, r in enumerate(rates)]
        a = conservative_allocate(flows, 3, 5)
        b = conservative_allocate(scaled, 3, 5)
        assert a.assignments == b.assignments


def test_allocators_are_deterministic():
    flows = ests([5, 4, 3, 2, 1]) + ests([0.5, 0.2], TrafficClass.LOW_LATENCY, "ll")
    bundle = BundleConfig(n_ports=5, capacity_bps=10 * GBPS)
    for algorithm in Algorithm:
        p1 = allocate(algorithm, flows, bundle, epoch=7)
        p2 = allocate(algorithm, flows, bundle, epoch=7)
        assert p1.assignments == p2.assignments
        assert p1.port_loads == p2.port_loads
        assert p1.active_ports == p2.active_ports


def test_plan_places_low_latency_flow_in_high_queue():
    plan = alloc(Algorithm.TWO_QUEUES, ests([4]) + ests([0.1], TrafficClass.LOW_LATENCY, "ll"))
    assert plan.assignments["ll0"] == (0, Queue.HIGH)
    assert plan.algorithm is Algorithm.TWO_QUEUES


@pytest.mark.parametrize("field, value, message", [
    ("n_ports", 0, "n_ports must be >= 1, got 0"),
    ("capacity_bps", 0, "capacity_bps must be positive, got 0"),
    ("bound_fraction", 0, "bound_fraction must be in (0, 1], got 0"),
    ("bound_fraction", 1.5, "bound_fraction must be in (0, 1], got 1.5"),
], ids=["n-ports-0", "capacity-0", "bound-0", "bound-1.5"])
@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_allocate_rejects_a_bad_bundle_naming_the_field(algorithm, field, value, message):
    bundle = BundleConfig(5, 10 * GBPS, algorithm)
    setattr(bundle, field, value)
    with pytest.raises(ConfigError) as error:
        allocate(algorithm, ests([4, 3]), bundle)
    assert str(error.value) == message


def test_allocate_rejects_an_unknown_algorithm():
    with pytest.raises(ConfigError, match="^unknown algorithm 'greedy'$"):
        allocate("greedy", ests([4]), BundleConfig(5, 10 * GBPS))
