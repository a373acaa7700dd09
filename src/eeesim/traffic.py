"""Packet streams: trace replay, time rescaling, synthetic sources, merging.

All timestamps are integer nanoseconds since the start of the simulation.
A 64-byte frame lasts 51.2 ns on a 10 Gb/s link, so nanosecond resolution
is sufficient and avoids floating-point drift in the event loop.

Traffic is built in columns. A *source* (:func:`cbr_slabs`,
:func:`frames_slabs`, :func:`bursty_slabs`, :func:`trace_slabs`) is a lazy
iterable of :class:`Slab` s: int64 numpy columns ``t``, ``size`` and
``dscp`` plus an object column ``flow``, time-ordered, at most
:data:`SLAB_PKTS` packets each (a frames slab holds whole frames). Sources
validate their arguments when called but synthesize nothing before the first
``next()``. Every arrival time comes from an exact integer formula; a
column is computed in int64 only where a bound shows that no intermediate
exceeds ``2**63 - 1``, and with Python ints otherwise.

:func:`merge_slabs` orders the packets of several sources by (time, source
index, position in source) and yields plain 5-tuples ``(arrival_time,
size, flow, dscp, seq)``. That tuple is the packet contract: the engine,
the ports and the oracle read a packet by position only, so a
:class:`Packet` and a plain tuple are the same thing to them.

:func:`gen_cbr`, :func:`gen_frames`, :func:`gen_bursty`,
:func:`read_trace`, :func:`scale_trace` and :func:`merge` are
:class:`Packet` views over the same columns.
"""

from __future__ import annotations

import csv
import zlib
from array import array
from enum import Enum
from fractions import Fraction
from itertools import chain, count, islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, TraceError

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 9216
MAX_DSCP = 63

#: DSCP codepoints treated as low latency by default (46 = Expedited Forwarding).
DEFAULT_LL_DSCPS = frozenset({46})

TRACE_HEADER = ("t_ns", "flow", "bytes", "dscp")

#: packets per frame grow with the rate so the frame pace stays well below
#: the sleep/wake time scale (one packet per frame up to 100 Mb/s).
FRAME_UNIT_BPS = 100_000_000

#: packets per slab; merge output is converted to tuples in runs this long.
SLAB_PKTS = 4096

_I64_MAX = 2**63 - 1


class TrafficClass(Enum):
    NORMAL = "normal"
    LOW_LATENCY = "low_latency"


class Packet(NamedTuple):
    """One frame travelling through the simulator."""

    arrival_time: int  # ns
    size: int          # bytes on the wire
    flow: str          # opaque flow key
    dscp: int          # 0..63
    seq: int = 0       # monotone per-stream sequence number


class Slab(NamedTuple):
    """Time-ordered packets of one source, one numpy column per field."""

    t: np.ndarray      # int64 arrival times
    size: np.ndarray   # int64
    flow: np.ndarray   # object (str)
    dscp: np.ndarray   # int64


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


def _check_end(end: int) -> None:
    if end > _I64_MAX:
        raise ConfigError(f"stream end {end} ns exceeds the int64 time range")


def _int64(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ConfigError("packet field exceeds the int64 range") from None


def _round_div_col(x: np.ndarray, num: int, den: int, offset: int = 0) -> np.ndarray:
    """``offset + _round_div(x * num, den)`` for each element of ``x``.

    ``num >= 0`` and ``den > 0``. With ``num = q*den + r`` the result is
    ``offset + x*q + (2*x*r + den) // (2*den)``, which stays in int64
    whenever the checked bound holds; otherwise it is computed with Python
    ints.
    """
    top = max(int(x.max()), -int(x.min())) if len(x) else 0
    if top == 0:  # q may not fit in int64, and every result is the offset
        return np.full(len(x), offset, dtype=np.int64)
    q, r = divmod(num, den)
    if 2 * (top * r + den) <= _I64_MAX and offset + top * (q + 1) <= _I64_MAX:
        return offset + x * q + (2 * r * x + den) // (2 * den)
    return _int64([offset + _round_div(v * num, den) for v in x.tolist()])


def _count_below(num: int, den: int, limit: int) -> int:
    """How many ``i >= 0`` have ``_round_div(i * num, den) < limit`` (``limit > 0``)."""
    return -(-(2 * den * limit - den) // (2 * num))


def _const_columns(n: int, size: int, flow: str, dscp: int) -> tuple:
    """Size, flow and dscp columns for up to ``n`` packets of one source."""
    return (np.full(n, size, dtype=np.int64), np.full(n, flow, dtype=object),
            np.full(n, dscp, dtype=np.int64))


def _const_slab(t: np.ndarray, columns: tuple) -> Slab:
    """Slab of times ``t`` whose other columns are views of ``columns``."""
    n = len(t)
    return Slab(t, *(col[:n] for col in columns))


def _take(slab: Slab, index) -> Slab:
    return Slab(*(col[index] for col in slab))


def _concat(slabs) -> Slab:
    return Slab(*(np.concatenate(cols) for cols in zip(*slabs)))


def _packets(slabs: Iterable[Slab]) -> Iterator[Packet]:
    """Packet view of a source; ``seq`` is the position in the source."""
    seqs = count()
    return chain.from_iterable(
        map(Packet._make, zip(s.t.tolist(), s.size.tolist(), s.flow.tolist(),
                              s.dscp.tolist(), seqs))
        for s in slabs
    )


def _batches(packets: Iterable) -> Iterator[list]:
    it = iter(packets)
    while batch := list(islice(it, SLAB_PKTS)):
        yield batch


def _slabs_of(packets: Iterable) -> Iterator[Slab]:
    """Columns of a stream of packet tuples."""
    for batch in _batches(packets):
        t, size, flow, dscp, _ = zip(*batch)
        yield Slab(_int64(t), _int64(size), np.array(flow, dtype=object),
                   _int64(dscp))


# -- sources ------------------------------------------------------------------

def cbr_slabs(rate_bps, pkt_size: int, dscp: int, duration_ns: int,
              start_offset_ns: int = 0, flow: str = "cbr") -> Iterator[Slab]:
    """Constant-bit-rate source of equal-size packets.

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
    _check_end(start_offset_ns + duration_ns)

    # i-th ideal arrival = i * (size*8 / rate) seconds; keep it as an exact
    # integer ratio so rounding errors never accumulate.
    step_num = pkt_size * 8 * 10**9 * rate.denominator
    step_den = rate.numerator
    total = _count_below(step_num, step_den, duration_ns)

    def slabs():
        columns = _const_columns(min(SLAB_PKTS, total), pkt_size, flow, dscp)
        for lo in range(0, total, SLAB_PKTS):
            i = np.arange(lo, min(lo + SLAB_PKTS, total), dtype=np.int64)
            t = _round_div_col(i, step_num, step_den, start_offset_ns)
            yield _const_slab(t, columns)

    return slabs()


def frames_slabs(rate_bps, pkt_size, dscp, duration_ns, line_rate_bps,
                 start_offset_ns=0, flow="frames", pkts_per_frame=None):
    """Packet trains at line rate, paced so the mean rate is exact.

    Each frame carries ``pkts_per_frame`` back-to-back packets (spacing =
    wire time at ``line_rate_bps``); frames repeat so the long-run average
    equals ``rate_bps``. With one packet per frame this is plain CBR. The
    source ends at its first packet at or after ``start_offset_ns +
    duration_ns``.
    """
    rate = int(rate_bps)
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate_bps}")
    if line_rate_bps < rate:
        raise ConfigError("line rate below mean rate")
    if start_offset_ns < 0:
        raise ConfigError(f"start offset must be non-negative, got {start_offset_ns}")
    _check_size(pkt_size)
    _check_dscp(dscp)
    m = pkts_per_frame or max(1, -(-rate // FRAME_UNIT_BPS))
    bits = pkt_size * 8
    intra = _round_div(bits * 10**9, line_rate_bps)
    frame_bits_ns = m * bits * 10**9  # frame period = this / rate
    end = start_offset_ns + duration_ns
    _check_end(end + m * intra)
    n_frames = _count_below(frame_bits_ns, rate, duration_ns) if duration_ns > 0 else 0
    per_slab = max(1, SLAB_PKTS // m)
    within = np.arange(m, dtype=np.int64) * intra

    def slabs():
        columns = _const_columns(per_slab * m, pkt_size, flow, dscp)
        for lo in range(0, n_frames, per_slab):
            f = np.arange(lo, min(lo + per_slab, n_frames), dtype=np.int64)
            starts = _round_div_col(f, frame_bits_ns, rate, start_offset_ns)
            t = (starts[:, None] + within).ravel()
            late = np.flatnonzero(t >= end)
            if late.size:
                if late[0]:
                    yield _const_slab(t[:late[0]], columns)
                return
            yield _const_slab(t, columns)

    return slabs()


def bursty_slabs(pkts_per_window, pkt_size, dscp, window_ns, bursts_per_window,
                 line_rate_bps, duration_ns, flow="bursty"):
    """Line-rate bursts carrying an exact per-window packet budget.

    Every window of ``window_ns`` contains exactly ``pkts_per_window``
    packets split into ``bursts_per_window`` bursts whose start times are
    jittered deterministically (CRC of flow/window/burst), so rate estimates
    taken on the window grid are identical every period while arrival phases
    stay decorrelated between flows. The source ends at its first packet at
    or after ``duration_ns``.
    """
    if pkts_per_window < 1:
        raise ConfigError("pkts_per_window must be >= 1")
    if bursts_per_window < 1:
        raise ConfigError("bursts_per_window must be >= 1")
    _check_size(pkt_size)
    _check_dscp(dscp)
    intra = _round_div(pkt_size * 8 * 10**9, line_rate_bps)
    slot = window_ns // bursts_per_window
    base_chunk, extra = divmod(pkts_per_window, bursts_per_window)
    if (base_chunk + (1 if extra else 0) - 1) * intra >= slot:
        raise ConfigError("burst does not fit its slot; lower pkts or raise bursts")
    n_windows = -(-duration_ns // window_ns)
    _check_end(n_windows * window_ns)
    chunks = [base_chunk + (1 if b < extra else 0) for b in range(bursts_per_window)]
    # index of each burst's first packet within its window
    first = np.cumsum([0] + chunks[:-1], dtype=np.int64)

    def slabs():
        columns = _const_columns(min(SLAB_PKTS, pkts_per_window), pkt_size, flow, dscp)
        for w in range(n_windows):
            base = w * window_ns
            starts = []
            for b, chunk in enumerate(chunks):
                room = slot - ((chunk - 1) * intra + 1)
                jitter = (
                    zlib.crc32(f"{flow}|{w}|{b}".encode()) % room
                    if chunk and room > 0 else 0
                )
                starts.append(base + b * slot + jitter)
            starts = np.array(starts, dtype=np.int64)
            for lo in range(0, pkts_per_window, SLAB_PKTS):
                k = np.arange(lo, min(lo + SLAB_PKTS, pkts_per_window), dtype=np.int64)
                burst = np.searchsorted(first, k, side="right") - 1
                t = starts[burst] + (k - first[burst]) * intra
                late = np.flatnonzero(t >= duration_ns)
                if late.size:
                    if late[0]:
                        yield _const_slab(t[:late[0]], columns)
                    return
                yield _const_slab(t, columns)

    return slabs()


def _scale_factor(factor) -> Fraction:
    frac = Fraction(factor)
    if frac <= 0:
        raise ConfigError(f"scale factor must be positive, got {factor}")
    return frac


def _scale_col(t: np.ndarray, frac: Fraction) -> np.ndarray:
    """Arrival times divided by ``frac``, rounded to integer ns, ties up."""
    if frac == 1:
        return t
    return _round_div_col(t, frac.denominator, frac.numerator)


def trace_slabs(path, factor=1) -> Iterator[Slab]:
    """Slabs of a trace-csv file in file order, arrival times divided by ``factor``.

    Expected header: ``t_ns,flow,bytes,dscp``. Malformed rows raise
    :class:`TraceError` naming the line; timestamps running backwards raise
    :class:`TraceError` as well. The file is opened at the first ``next()``.
    """
    frac = _scale_factor(factor)

    def slabs():
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
                raise TraceError(
                    f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}",
                    line=1,
                )
            last_t = -1
            lineno = 1
            while True:
                # int columns go straight into arrays, a row at a time, so a
                # slab costs 8 bytes per field rather than a row of strings
                ts, sizes, dscps = array("q"), array("q"), array("q")
                flows = []
                start = lineno
                for row in islice(rows, SLAB_PKTS):
                    lineno += 1
                    if not row:
                        continue
                    if len(row) != 4:
                        raise TraceError(f"expected 4 fields, got {len(row)}",
                                         line=lineno)
                    try:
                        t, size, dscp = int(row[0]), int(row[2]), int(row[3])
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
                    try:
                        ts.append(t)
                    except OverflowError:
                        raise TraceError(f"timestamp {t} outside the int64 range",
                                         line=lineno) from None
                    sizes.append(size)
                    dscps.append(dscp)
                    flows.append(flow)
                if lineno == start:
                    return
                if ts:
                    yield Slab(_scale_col(np.array(ts, dtype=np.int64), frac),
                               np.array(sizes, dtype=np.int64),
                               np.array(flows, dtype=object),
                               np.array(dscps, dtype=np.int64))

    return slabs()


# -- merge --------------------------------------------------------------------

def merge_slabs(sources: Iterable[Iterable[Slab]]) -> Iterator[tuple]:
    """Merge time-ordered slab sources into one stream of packet tuples.

    Yields ``(arrival_time, size, flow, dscp, seq)`` ordered by (time,
    source index, position in source), with ``seq`` numbering the output.
    Each round emits every buffered packet earlier than the smallest last
    buffered time of the sources not yet exhausted, then refills the
    sources that set it, so the order does not depend on where slabs end.
    Nothing is read from the sources before the first ``next()``.
    """
    return chain.from_iterable(_merged_runs(sources))


def _merged_runs(sources):
    """Runs of merged packet tuples, as ``zip`` iterators, for :func:`merge_slabs`."""
    feeds = [iter(s) for s in sources]
    buf = [None] * len(feeds)   # not yet emitted packets of each source
    last = [-1] * len(feeds)    # time of each source's last buffered packet

    def pull(i):
        for slab in feeds[i]:
            t = slab.t
            if not len(t):
                continue
            prev = np.concatenate(([last[i]], t[:-1]))
            back = np.flatnonzero(t < prev)
            if back.size:
                j = int(back[0])
                raise TraceError(
                    f"stream {i} not time-ordered: {t[j]} after {prev[j]}"
                )
            buf[i] = slab if buf[i] is None else _concat((buf[i], slab))
            last[i] = int(t[-1])
            return True
        return False

    live = [i for i in range(len(feeds)) if pull(i)]  # may yield more slabs
    seq = 0
    while True:
        horizon = min(last[i] for i in live) if live else None
        parts = []
        for i, b in enumerate(buf):
            if b is None:
                continue
            cut = len(b.t) if horizon is None else int(np.searchsorted(b.t, horizon))
            if cut:
                parts.append(_take(b, slice(None, cut)))
                buf[i] = _take(b, slice(cut, None)) if cut < len(b.t) else None
        if parts:
            out = parts[0]
            if len(parts) > 1:
                out = _concat(parts)
                out = _take(out, np.argsort(out.t, kind="stable"))
            for lo in range(0, len(out.t), SLAB_PKTS):
                hi = lo + SLAB_PKTS
                yield zip(out.t[lo:hi].tolist(), out.size[lo:hi].tolist(),
                          out.flow[lo:hi].tolist(), out.dscp[lo:hi].tolist(),
                          range(seq + lo, seq + hi))
            seq += len(out.t)
        if not live:
            return
        live = [i for i in live if last[i] != horizon or pull(i)]


# -- Packet views -------------------------------------------------------------

def gen_cbr(rate_bps, pkt_size: int, dscp: int, duration_ns: int,
            start_offset_ns: int = 0, flow: str = "cbr") -> Iterator[Packet]:
    """Packets of :func:`cbr_slabs`; ``seq`` is the packet index."""
    return _packets(cbr_slabs(rate_bps, pkt_size, dscp, duration_ns,
                              start_offset_ns, flow))


def gen_frames(rate_bps, pkt_size, dscp, duration_ns, line_rate_bps,
               start_offset_ns=0, flow="frames", pkts_per_frame=None):
    """Packets of :func:`frames_slabs`; ``seq`` is the packet index."""
    return _packets(frames_slabs(rate_bps, pkt_size, dscp, duration_ns,
                                 line_rate_bps, start_offset_ns, flow,
                                 pkts_per_frame))


def gen_bursty(pkts_per_window, pkt_size, dscp, window_ns, bursts_per_window,
               line_rate_bps, duration_ns, flow="bursty"):
    """Packets of :func:`bursty_slabs`; ``seq`` is the packet index."""
    return _packets(bursty_slabs(pkts_per_window, pkt_size, dscp, window_ns,
                                 bursts_per_window, line_rate_bps, duration_ns,
                                 flow))


def read_trace(path) -> Iterator[Packet]:
    """Packets of :func:`trace_slabs`; sequence numbers follow file order."""
    return _packets(trace_slabs(path))


def write_trace(path, stream: Iterable[Packet]) -> int:
    """Write packets to a trace-csv file. Returns the number of rows written."""
    written = 0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(TRACE_HEADER)
        for t, size, flow, dscp, _ in stream:
            out.writerow((t, flow, size, dscp))
            written += 1
    return written


def scale_trace(stream: Iterable[Packet], factor) -> Iterator[Packet]:
    """Divide every arrival time by ``factor`` (rounded to integer ns).

    factor > 1 compresses the trace (higher rate), factor < 1 stretches it.
    Sizes, flows, DSCPs and sequence numbers are unchanged; order is
    preserved. Ties in the rounding are resolved upward.
    """
    frac = _scale_factor(factor)

    def gen():
        for batch in _batches(stream):
            t, size, flow, dscp, seq = zip(*batch)
            scaled = _scale_col(_int64(t), frac).tolist()
            yield from map(Packet._make, zip(scaled, size, flow, dscp, seq))

    return gen()


def merge(streams: Iterable[Iterable[Packet]]) -> Iterator[Packet]:
    """Merge time-ordered packet streams into one globally ordered stream.

    Ordering key is (arrival_time, stream index, position in stream), so
    replays are bit-identical for the same inputs. Sequence numbers are
    reassigned globally in output order.
    """
    return map(Packet._make, merge_slabs(_slabs_of(s) for s in streams))
