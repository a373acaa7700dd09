"""Seeded trace-csv generator for the ``trace-replay`` workload.

The trace is a function of the seed alone: the same seed gives the same
bytes. Flow rates follow a Pareto law capped below one port's capacity, a
few percent of flows carry DSCP 46, and arrivals are spread uniformly over
the trace with a per-flow frame size, so most flows are alive in every
sampling period and the allocators see nearly every flow in each epoch.
The packet count is fixed, so every seed gives the simulator the same amount
of per-packet work.
"""

from __future__ import annotations

import numpy as np

HEADER = "t_ns,flow,bytes,dscp\n"

N_FLOWS = 10_000
N_PACKETS = 100_000
DURATION_NS = 50_000_000        # sim.DURATION_NS of perfbench/trace-replay.json
TOTAL_BPS = 25_000_000_000      # rates are scaled to this sum before capping
CAP_BPS = 8_000_000_000         # below one 10G port
LL_CAP_BPS = 100_000_000        # real-time flows stay small
LL_SHARE = 0.03                 # share of flows on DSCP 46
PARETO_SHAPE = 1.2
NORMAL_SIZES = np.array([576, 1024, 1500, 1500, 1500])
LL_SIZES = np.array([64, 125, 256])


def generate(seed: int) -> bytes:
    """Trace CSV bytes: header ``t_ns,flow,bytes,dscp``, time-ordered rows."""
    rng = np.random.default_rng(seed)
    weights = rng.pareto(PARETO_SHAPE, N_FLOWS) + 1.0
    is_ll = rng.random(N_FLOWS) < LL_SHARE
    rates = np.minimum(weights * (TOTAL_BPS / weights.sum()),
                       np.where(is_ll, LL_CAP_BPS, CAP_BPS))
    sizes = np.where(is_ll, rng.choice(LL_SIZES, N_FLOWS),
                     rng.choice(NORMAL_SIZES, N_FLOWS))
    dscps = np.where(is_ll, 46, rng.choice([0, 10, 18, 26], N_FLOWS))
    # One packet per flow, the rest shared in proportion to rate / size with
    # largest-remainder rounding, so the total is exactly N_PACKETS.
    share = rates / sizes
    ideal = share * ((N_PACKETS - N_FLOWS) / share.sum())
    counts = 1 + np.floor(ideal).astype(np.int64)
    short = N_PACKETS - int(counts.sum())
    counts[np.argsort(ideal - np.floor(ideal), kind="stable")[::-1][:short]] += 1
    flow = np.repeat(np.arange(N_FLOWS), counts)
    t = rng.integers(0, DURATION_NS, flow.size)
    order = np.lexsort((flow, t))
    t, flow = t[order], flow[order]
    names = np.char.add("f", np.char.zfill(np.arange(N_FLOWS).astype(str), 5))
    rows = [f"{a},{b},{c},{d}\n" for a, b, c, d in
            zip(t.tolist(), names[flow].tolist(), sizes[flow].tolist(),
                dscps[flow].tolist())]
    return (HEADER + "".join(rows)).encode()
