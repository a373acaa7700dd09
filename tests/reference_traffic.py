"""Pure-Python reference generators, kept apart from ``eeesim.traffic``.

These are one packet at a time, Python-int versions of the CBR, frame-train
and bursty sources and of the heap-based merge. They import nothing from
``eeesim``, so comparing the columnar code against them is a check in the
way ``oracle_simulate`` is one for the engine. Packets are plain tuples
``(arrival_time, size, flow, dscp, seq)``.
"""

import heapq
import math
import zlib


def _round_div(num, den):
    return (2 * num + den) // (2 * den)


def cbr(rate, pkt_size, dscp, duration_ns, start_offset_ns=0, flow="cbr"):
    """``rate`` is an int or a ``Fraction`` in bits per second."""
    step_num = pkt_size * 8 * 10**9 * rate.denominator
    step_den = rate.numerator
    end = start_offset_ns + duration_ns
    i = 0
    while True:
        t = start_offset_ns + _round_div(i * step_num, step_den)
        if t >= end:
            return
        yield (t, pkt_size, flow, dscp, i)
        i += 1


def frames(rate, pkt_size, dscp, duration_ns, line_rate_bps,
           start_offset_ns=0, flow="frames", pkts_per_frame=None):
    m = pkts_per_frame or max(1, math.ceil(rate / 100_000_000))
    bits = pkt_size * 8
    intra = _round_div(bits * 10**9, line_rate_bps)
    frame_bits_ns = m * bits * 10**9
    end = start_offset_ns + duration_ns
    seq = 0
    f = 0
    while True:
        start = start_offset_ns + _round_div(f * frame_bits_ns, rate)
        if start >= end:
            return
        for j in range(m):
            t = start + j * intra
            if t >= end:
                return
            yield (t, pkt_size, flow, dscp, seq)
            seq += 1
        f += 1


def bursty(pkts_per_window, pkt_size, dscp, window_ns, bursts_per_window,
           line_rate_bps, duration_ns, flow="bursty"):
    intra = _round_div(pkt_size * 8 * 10**9, line_rate_bps)
    slot = window_ns // bursts_per_window
    base_chunk, extra = divmod(pkts_per_window, bursts_per_window)
    seq = 0
    n_windows = -(-duration_ns // window_ns)
    for w in range(n_windows):
        base = w * window_ns
        for b in range(bursts_per_window):
            chunk = base_chunk + (1 if b < extra else 0)
            if chunk == 0:
                continue
            span = (chunk - 1) * intra + 1
            room = slot - span
            jitter = zlib.crc32(f"{flow}|{w}|{b}".encode()) % room if room > 0 else 0
            start = base + b * slot + jitter
            for j in range(chunk):
                t = start + j * intra
                if t >= duration_ns:
                    return
                yield (t, pkt_size, flow, dscp, seq)
                seq += 1


def merge(streams):
    """Order by (time, stream index, source seq); renumber seq globally."""

    def tagged(idx, stream):
        for p in stream:
            yield (p[0], idx, p[4], p)

    sources = [tagged(idx, stream) for idx, stream in enumerate(streams)]
    for seq, (_, _, _, p) in enumerate(heapq.merge(*sources)):
        yield (p[0], p[1], p[2], p[3], seq)
