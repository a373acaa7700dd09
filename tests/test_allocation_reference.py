"""Property test: the integer-unit allocators against the Fraction reference.

Rates are drawn as small multiples of ``capacity / q`` so that per-port
sums often land exactly on ``k * capacity`` and first-fit loads exactly on
the bounded-greedy threshold, from a small pool so that equal rates (and
so flow-id tie-breaks) are common, with mixed denominators and zero-rate
retained flows. Estimates are handed over in a shuffled order, not sorted
by flow id as ``estimate_rates`` returns them.
"""

from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_allocation as ref
from eeesim import Algorithm, BundleConfig, FlowEstimate, TrafficClass, allocate

NORMAL, LL = TrafficClass.NORMAL, TrafficClass.LOW_LATENCY
CAPACITIES = (10, 1_000, 10_000_000_000)
BOUNDS = (0.9, 0.3, Fraction(1, 3), 1)


@st.composite
def cases(draw):
    capacity = draw(st.sampled_from(CAPACITIES))
    pool = draw(st.lists(
        st.builds(lambda a, q: capacity * Fraction(a, q),
                  st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 10])),
        min_size=1, max_size=4,
    ))
    n = draw(st.integers(0, 24))
    ids = draw(st.permutations(range(n)))
    flows = [
        (f"f{i:02d}", draw(st.sampled_from(pool)), draw(st.sampled_from([NORMAL, LL])))
        for i in ids
    ]
    return (draw(st.integers(1, 5)), capacity, draw(st.sampled_from(BOUNDS)), flows)


def _check(n_ports, capacity, bound, flows):
    estimates = [FlowEstimate(flow, Fraction(rate), cls) for flow, rate, cls in flows]
    for algorithm in Algorithm:
        bundle = BundleConfig(n_ports, capacity, algorithm, bound)
        plan = allocate(algorithm, estimates, bundle)
        want = ref.allocate(algorithm, estimates, n_ports, capacity, bound)
        got = {
            "assignments": plan.assignments,
            "port_loads": plan.port_loads,
            "active_ports": plan.active_ports,
            "active_set": plan.active_set,
            "spare_port": plan.spare_port,
        }
        assert got == want, algorithm
        assert all(type(x) is Fraction for x in plan.port_loads)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
# empty estimate list
@example((3, 10, 0.9, []))
# equal rates handed over out of flow-id order, one port and several
@example((1, 10, 0.9, [("c", 4, NORMAL), ("a", 4, LL), ("b", 4, NORMAL)]))
@example((3, 10, 0.9, [("c", 4, NORMAL), ("a", 4, LL), ("b", 4, NORMAL),
                       ("d", 4, NORMAL)]))
# totals exactly 3 * capacity; zero-rate retained flows
@example((5, 10, 0.9, [("a", 10, NORMAL), ("b", 5, NORMAL), ("c", 5, NORMAL),
                       ("d", 10, LL), ("z0", 0, NORMAL), ("z1", 0, LL)]))
# mixed denominators, first-fit loads exactly on 0.9 * capacity = 9
@example((3, 10, 0.9, [("a", Fraction(9, 2), NORMAL), ("b", Fraction(3, 2), NORMAL),
                       ("c", 3, NORMAL), ("d", Fraction(9, 7), LL),
                       ("e", Fraction(54, 7), LL)]))
# first fit exactly on 0.3 * capacity = 3
@example((4, 10, 0.3, [("a", 2, NORMAL), ("b", 1, NORMAL), ("c", 3, NORMAL),
                       ("d", Fraction(3, 2), NORMAL), ("e", Fraction(3, 2), LL)]))
# denominators whose lcm puts the integer units past int64
@example((3, 10, 0.9, [("a", Fraction(2**62, 3), NORMAL), ("b", Fraction(5, 2**61 - 1), LL),
                       ("c", Fraction(2**62, 3), NORMAL), ("d", Fraction(9, 2**31 - 1), NORMAL)]))
def test_allocators_match_fraction_reference(case):
    _check(*case)
