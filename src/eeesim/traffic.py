"""Packet streams: trace replay, time rescaling, CBR synthesis, merging.

All timestamps are integer nanoseconds since the start of the simulation.
A 64-byte frame lasts 51.2 ns on a 10 Gb/s link, so nanosecond resolution
is sufficient and avoids floating-point drift in the event loop.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ConfigError, TraceError

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 9216
MAX_DSCP = 63

#: DSCP codepoints treated as low latency by default (46 = Expedited Forwarding).
DEFAULT_LL_DSCPS = frozenset({46})

TRACE_HEADER = ("t_ns", "flow", "bytes", "dscp")


class TrafficClass(Enum):
    NORMAL = "normal"
    LOW_LATENCY = "low_latency"


@dataclass(slots=True)
class Packet:
    """One frame travelling through the simulator."""

    arrival_time: int  # ns
    size: int          # bytes on the wire
    flow: str          # opaque flow key
    dscp: int          # 0..63
    seq: int = 0       # monotone per-stream sequence number


def _round_div(num: int, den: int) -> int:
    """Round num/den to the nearest integer, ties away from zero (positive args)."""
    return (2 * num + den) // (2 * den)


def _check_size(size: int, line: int | None = None) -> None:
    if not MIN_FRAME_BYTES <= size <= MAX_FRAME_BYTES:
        raise TraceError(
            f"frame size {size} outside [{MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}] bytes",
            line=line,
        )


def _check_dscp(dscp: int, line: int | None = None) -> None:
    if not 0 <= dscp <= MAX_DSCP:
        raise TraceError(f"dscp {dscp} outside [0, {MAX_DSCP}]", line=line)


def read_trace(path) -> Iterator[Packet]:
    """Yield packets from a trace-csv file in file order.

    Expected header: ``t_ns,flow,bytes,dscp``. Sequence numbers are assigned
    in file order. Malformed rows raise :class:`TraceError` naming the line;
    timestamps running backwards raise :class:`TraceError` as well.
    """
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
            raise TraceError(
                f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}", line=1
            )
        last_t = -1
        seq = 0
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceError(f"expected 4 fields, got {len(row)}", line=lineno)
            try:
                t = int(row[0])
                size = int(row[2])
                dscp = int(row[3])
            except ValueError as exc:
                raise TraceError(f"malformed row: {exc}", line=lineno) from None
            flow = row[1].strip()
            if t < 0:
                raise TraceError(f"negative timestamp {t}", line=lineno)
            if not flow:
                raise TraceError("empty flow id", line=lineno)
            _check_size(size, lineno)
            _check_dscp(dscp, lineno)
            if t < last_t:
                raise TraceError(
                    f"timestamp {t} earlier than previous {last_t}", line=lineno
                )
            last_t = t
            yield Packet(t, size, flow, dscp, seq)
            seq += 1


def write_trace(path, stream: Iterable[Packet]) -> int:
    """Write packets to a trace-csv file. Returns the number of rows written."""
    count = 0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(TRACE_HEADER)
        for pkt in stream:
            out.writerow((pkt.arrival_time, pkt.flow, pkt.size, pkt.dscp))
            count += 1
    return count


def scale_trace(stream: Iterable[Packet], factor) -> Iterator[Packet]:
    """Divide every arrival time by ``factor`` (rounded to integer ns).

    factor > 1 compresses the trace (higher rate), factor < 1 stretches it.
    Sizes, flows, DSCPs and sequence numbers are unchanged; order is
    preserved. Ties in the rounding are resolved upward.
    """
    frac = Fraction(factor)
    if frac <= 0:
        raise ConfigError(f"scale factor must be positive, got {factor}")
    num, den = frac.numerator, frac.denominator

    def gen():
        for pkt in stream:
            yield Packet(
                _round_div(pkt.arrival_time * den, num),
                pkt.size, pkt.flow, pkt.dscp, pkt.seq,
            )

    return gen()


def gen_cbr(
    rate_bps,
    pkt_size: int,
    dscp: int,
    duration_ns: int,
    start_offset_ns: int = 0,
    flow: str = "cbr",
) -> Iterator[Packet]:
    """Constant-bit-rate stream of equal-size packets.

    Packet ``i`` arrives at ``start_offset + round(i * size * 8e9 / rate)``,
    so the long-run rate is exact even when the ideal inter-arrival time is
    not an integer number of nanoseconds. The first packet arrives at
    ``start_offset_ns``; the last one strictly before ``start_offset_ns +
    duration_ns``.
    """
    rate = Fraction(rate_bps)
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate_bps}")
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    if start_offset_ns < 0:
        raise ConfigError(f"start offset must be non-negative, got {start_offset_ns}")
    _check_size(pkt_size)
    _check_dscp(dscp)

    # i-th ideal arrival = i * (size*8 / rate) seconds; keep it as an exact
    # integer ratio so rounding errors never accumulate.
    step_num = pkt_size * 8 * 10**9 * rate.denominator
    step_den = rate.numerator

    def gen():
        end = start_offset_ns + duration_ns
        i = 0
        while True:
            t = start_offset_ns + _round_div(i * step_num, step_den)
            if t >= end:
                return
            yield Packet(t, pkt_size, flow, dscp, i)
            i += 1

    return gen()


def merge(streams: Iterable[Iterable[Packet]]) -> Iterator[Packet]:
    """Merge time-ordered streams into one globally ordered stream.

    Ordering key is (arrival_time, stream index, source seq), so replays are
    bit-identical for the same inputs. Sequence numbers are reassigned
    globally in output order.
    """

    def tagged(idx, stream):
        last = -1
        for pkt in stream:
            if pkt.arrival_time < last:
                raise TraceError(
                    f"stream {idx} not time-ordered: {pkt.arrival_time} after {last}"
                )
            last = pkt.arrival_time
            yield (pkt.arrival_time, idx, pkt.seq, pkt)

    def gen():
        sources = [tagged(i, s) for i, s in enumerate(streams)]
        seq = 0
        for t, _, _, pkt in heapq.merge(*sources):
            yield Packet(t, pkt.size, pkt.flow, pkt.dscp, seq)
            seq += 1

    return gen()
