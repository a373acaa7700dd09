#!/usr/bin/env python3
"""The six flow-allocation algorithms on one set of rate estimates.

Six bulk flows (26 Gb/s total) plus one small low-latency flow cross a
bundle of five 10 Gb/s ports. Each algorithm answers the same question,
"which port and which queue does each flow get", with a different goal.
"""

from fractions import Fraction

from eeesim import Algorithm, BundleConfig, TrafficClass, allocate
from eeesim.allocation import FlowEstimate

GBPS = 1_000_000_000

flows = [
    FlowEstimate(f"bulk{i}", Fraction(r * GBPS), TrafficClass.NORMAL)
    for i, r in enumerate((8, 7, 5, 3, 2, 1))
]
flows.append(
    FlowEstimate("voice", Fraction(GBPS // 100), TrafficClass.LOW_LATENCY)
)
bundle = BundleConfig(n_ports=5, capacity_bps=10 * GBPS)

print("flows: " + ", ".join(
    f"{e.flow}={float(e.rate) / GBPS:g}G" for e in flows
))
print(f"bundle: {bundle.n_ports} ports x {bundle.capacity_bps / GBPS:g}G, "
      f"bounded-greedy threshold {bundle.bound_fraction:g} x capacity\n")

header = f"{'algorithm':<15} {'port loads (Gb/s)':<31} voice flow"
print(header)
print("-" * len(header))
for algorithm in Algorithm:
    plan = allocate(algorithm, flows, bundle)
    loads = " ".join(f"{float(x) / GBPS:5.2f}" for x in plan.port_loads)
    port, queue = plan.assignments["voice"]
    print(f"{algorithm.value:<15} {loads:<31} port {port}, {queue.name.lower()} queue")

print("""
Reading the table:
 * equitable ignores energy and spreads over all five ports;
 * greedy/bounded-greedy pack first-fit up to (a fraction of) line rate;
 * conservative activates ceil(load/capacity) ports and balances them;
 * spare_port plays conservative with bulk flows, then parks the voice
   flow on the emptiest port (port 4, still asleep otherwise);
 * two_queues copies the conservative placement but upgrades the voice
   flow to the high-priority queue of its shared port.""")
