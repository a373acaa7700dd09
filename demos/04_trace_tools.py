#!/usr/bin/env python3
"""Trace tooling round trip: synthesize, rescale, tag and merge.

Builds the kind of input the experiment harness feeds the simulator: a bulk
trace sped up to a target rate, merged with a slower stream of DSCP-46
frames. Everything lands in trace-csv files (`t_ns,flow,bytes,dscp`) inside
a temporary directory.
"""

import tempfile
from pathlib import Path

from eeesim import read_trace, write_trace
from eeesim.traffic import cbr_slabs, merge_slabs, packets, trace_slabs


def mean_rate_bps(path):
    pkts = list(read_trace(path))
    span = pkts[-1][0] - pkts[0][0]
    return sum(p[1] for p in pkts[:-1]) * 8 * 1e9 / span


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    bulk = tmp / "bulk.csv"
    n = write_trace(bulk, packets(merge_slabs([
        cbr_slabs(3_250_000_000, 1250, 0, 20_000_000, flow="bulk")])))
    print(f"{bulk.name}: {n} rows, {mean_rate_bps(bulk) / 1e9:.3f} Gb/s")

    faster = tmp / "bulk-x2.csv"
    write_trace(faster, packets(merge_slabs([trace_slabs(bulk, 2)])))
    print(f"{faster.name}: timestamps halved -> {mean_rate_bps(faster) / 1e9:.3f} Gb/s")

    voice = tmp / "voice.csv"
    write_trace(voice, packets(merge_slabs([
        cbr_slabs(10_000_000, 125, 46, 20_000_000, flow="voice")])))
    print(f"{voice.name}: {mean_rate_bps(voice) / 1e6:.2f} Mb/s of DSCP-46 frames")

    both = tmp / "merged.csv"
    total = write_trace(both, packets(merge_slabs([trace_slabs(faster),
                                                   trace_slabs(voice)])))
    print(f"{both.name}: {total} rows, globally time-ordered, seq renumbered")

    print("\nfirst rows of the merged trace:")
    for line in both.read_text().splitlines()[:6]:
        print(f"  {line}")

print("\nThe CLI wraps the same functions: eeesim gen / scale / merge.")
