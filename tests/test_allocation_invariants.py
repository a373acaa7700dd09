"""Property tests of the array control path: allocator invariants on
:func:`estimate_rates` output, and a whole run's plans and routes against
the ``Fraction`` reference in ``reference_allocation.py``.

The run test draws streams whose flows register in random name order, fall
silent and come back, with equal frame sizes common, so that the flow-name
tie-break, the run-wide flow rank, the estimates of silent flows, the byte
counts and the routes refreshed at each epoch all decide some plan.
"""

from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_allocation as ref
from eeesim import (
    Algorithm,
    BundleConfig,
    EeePortConfig,
    FlowEstimate,
    Packet,
    Queue,
    SimConfig,
    TrafficClass,
    allocate,
    estimate_rates,
    required_ports,
    run,
)
from eeesim import allocation as alloc
from eeesim.allocation import Estimates, flow_rank
from eeesim.eee_port import EeePort

NORMAL, LL = TrafficClass.NORMAL, TrafficClass.LOW_LATENCY
TEN_G = 10_000_000_000
BOUNDS = (0.9, 0.3, Fraction(1, 3), 1)


# -- allocator invariants on the array API --------------------------------------

@st.composite
def epochs(draw):
    # 8 ns and 24 ns periods put whole and third Gb/s on one byte, so loads
    # land exactly on capacity; the prime period makes every rate awkward
    period = draw(st.sampled_from([8, 24, 1_000_000_007]))
    scale = draw(st.sampled_from([1, 125_000_000]))
    pool = draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    n = draw(st.integers(0, 24))
    names = draw(st.permutations(range(n)))
    flows = [f"f{i:02d}" for i in names]
    nbytes = [draw(st.sampled_from(pool)) * scale for _ in flows]
    low_latency = [draw(st.booleans()) for _ in flows]
    return (draw(st.integers(1, 5)), draw(st.sampled_from(BOUNDS)), period,
            flows, nbytes, low_latency)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(epochs())
@example((3, 0.9, 24, [], [], []))
@example((3, 0.9, 8, ["c", "a", "b", "d"], [5, 5, 0, 5], [False, True, False, True]))
def test_allocators_keep_invariants_on_estimates(case):
    n_ports, bound, period, flows, nbytes, low_latency = case
    estimates = estimate_rates(np.array(nbytes, dtype=np.int64), period,
                               np.array(low_latency, dtype=bool), flows,
                               flow_rank(flows))
    assert len(estimates) == len(flows)
    rates = [Fraction(b * 8_000_000_000, period) for b in nbytes]
    total = sum(rates, Fraction(0))
    listed = [FlowEstimate(f, r, LL if ll else NORMAL)
              for f, r, ll in zip(flows, rates, low_latency)]
    for algorithm in Algorithm:
        plan = allocate(algorithm, estimates, BundleConfig(n_ports, TEN_G, algorithm, bound))
        allowed = set(plan.active_set) | {plan.spare_port}
        assert {port for port, _ in plan.assignments.values()} <= allowed, algorithm
        assert set(plan.assignments) == set(flows)
        assert sum(plan.port_loads) == total, algorithm
        if algorithm is Algorithm.CONSERVATIVE:
            assert plan.active_ports == required_ports(total, TEN_G, n_ports)
        want = ref.allocate(algorithm, listed, n_ports, TEN_G, bound)
        assert plan.assignments == want["assignments"], algorithm
        assert plan.port_loads == want["port_loads"], algorithm


# -- ranking and sizing keys ------------------------------------------------------

I64_MAX = 2**63 - 1


@st.composite
def unit_arrays(draw):
    """(units, rank, subset) where units sit at zero, in ties, or just below
    and past the bound where rank - units * n leaves int64."""
    n = draw(st.integers(0, 12))
    bound = I64_MAX // max(n, 1)
    pool = draw(st.lists(st.sampled_from([0, 1, 2, bound - 1, bound, bound + 1, 2**64])
                         | st.integers(0, 2**65), min_size=1, max_size=4))
    units = [draw(st.sampled_from(pool)) for _ in range(n)]
    return units, draw(st.permutations(range(n))), draw(st.lists(st.booleans(), min_size=n,
                                                                 max_size=n))


@st.composite
def huge_lcm_estimates(draw):
    """:class:`FlowEstimate` s whose rate denominators are distinct large
    primes, so their lcm takes the units past int64."""
    primes = draw(st.permutations([1_000_000_007, 998_244_353, 2_147_483_647, 65_537]))
    n = draw(st.integers(0, 4))
    return [FlowEstimate(f"f{draw(st.integers(0, 99)):02d}-{i}",
                         Fraction(draw(st.integers(0, 3)) * 10**9, primes[i]), NORMAL)
            for i in range(n)]


def _check_ranked_and_sized(est, units, subset):
    assert alloc._ranked(est).tolist() == np.lexsort(
        (est.rank, -np.array(units, dtype=object))).tolist()
    idx = np.flatnonzero(np.array(subset, dtype=bool))
    for capacity in (1, TEN_G):
        want = required_ports(sum(units[i] for i in idx.tolist()) * est.unit, capacity, 5)
        assert alloc._sized(est, idx, capacity, 5) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(unit_arrays())
@example(([], [], []))
@example(([I64_MAX], [0], [True]))
@example(([I64_MAX // 2, I64_MAX // 2, 0], [2, 0, 1], [True, True, False]))
@example(([I64_MAX // 3 + 1, 0, I64_MAX // 3 + 1], [1, 2, 0], [True, False, True]))
def test_ranking_key_and_sizes_match_lexsort_and_python_sums(case):
    # flows rank by rate descending, then name: one sort of rank - units * n,
    # with units widened to Python ints where max(units) * n leaves int64
    units, rank, subset = case
    n = len(units)
    dtype = np.int64 if max(units, default=0) <= I64_MAX else object
    est = Estimates([f"f{i}" for i in range(n)], np.array(units, dtype=dtype), Fraction(1, 3),
                    np.zeros(n, dtype=bool), np.array(rank, dtype=np.int64))
    assert (est.units.dtype == object) == (n > 0 and max(units) > I64_MAX // n)
    _check_ranked_and_sized(est, units, subset)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(huge_lcm_estimates(), st.data())
def test_ranking_key_and_sizes_hold_on_huge_lcm_units(estimates, data):
    est = Estimates.of(estimates)
    units = est.units.tolist()
    assert sum(e.rate > 0 for e in estimates) < 3 or est.units.dtype == object
    _check_ranked_and_sized(est, units, data.draw(st.lists(
        st.booleans(), min_size=len(units), max_size=len(units))))


# -- a run's plans and routes against the reference ------------------------------

UNIT = 100  # ns
SIZES = (125, 1500)


@st.composite
def streams(draw):
    algorithm = draw(st.sampled_from(list(Algorithm)))
    n_ports = draw(st.integers(2, 4))
    # (gap in units, size, flow, dscp); a long gap leaves flows silent for
    # whole 10-unit intervals
    rows = draw(st.lists(
        st.tuples(st.sampled_from([0, 0, 1, 4, 10, 25]), st.sampled_from(SIZES),
                  st.integers(0, 5), st.sampled_from([0, 0, 46])),
        min_size=1, max_size=40,
    ))
    return algorithm, n_ports, rows


def _routes_of_run(monkeypatch, config, pkts):
    """The report of ``run`` and seq -> (port, Queue) as the ports were handed them."""
    routes = {}
    serve = EeePort.serve

    def logging(self, t, size, flow, seq, high):
        for s, h in zip(seq.tolist(), high.tolist()):
            routes[s] = (self.index, Queue.HIGH if h else Queue.LOW)
        return serve(self, t, size, flow, seq, high)

    with monkeypatch.context() as patch:
        patch.setattr(EeePort, "serve", logging)
        report = run(config, pkts)
    return report, routes


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(streams())
# f1 registers after f0 but sorts first; equal rates split them over two
# ports in name order, and f0, silent in interval 1, comes back in interval 2
@example((Algorithm.CONSERVATIVE, 2,
          [(0, 1500, 5, 0), (0, 1500, 1, 0), (10, 1500, 5, 0), (0, 1500, 1, 0),
           (0, 1500, 0, 0), (0, 1500, 0, 0), (10, 1500, 0, 0), (0, 1500, 1, 0),
           (0, 1500, 5, 0), (10, 125, 5, 0)]))
def test_run_plans_and_routes_match_reference(monkeypatch, case):
    algorithm, n_ports, rows = case
    t, pkts = 0, []
    for seq, (gap, size, flow, dscp) in enumerate(rows):
        t += gap * UNIT
        pkts.append(Packet(t, size, f"f{flow}", dscp, seq))
    config = SimConfig(
        bundle=BundleConfig(n_ports=n_ports, capacity_bps=TEN_G, algorithm=algorithm),
        port=EeePortConfig(capacity_bps=TEN_G),
        duration_ns=t + 30 * UNIT,
        sampling_period_ns=10 * UNIT,
        warmup_ns=0,
    )
    report, routes = _routes_of_run(monkeypatch, config, pkts)
    want_rows, want_routes = ref.control_path(config, pkts)
    assert report.epoch_loads == [(e, k, [float(x) for x in loads])
                                  for e, k, loads in want_rows]
    assert routes == want_routes
