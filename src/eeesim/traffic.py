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

:func:`trace_slabs` parses a chunk of plain ASCII rows with one
:func:`numpy.loadtxt` call and checks it in bulk; a chunk with quotes or
other characters is read by the csv reader and checked in bulk, and a chunk
with any fault goes to the csv row parser, the one judge of errors.

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
import warnings
import zlib
from array import array
from enum import Enum
from fractions import Fraction
from itertools import chain, count, islice
from operator import length_hint
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


#: one trace-csv record, field for field, as :func:`numpy.loadtxt` reads it
_TRACE_DTYPE = np.dtype([("t", "i8"), ("flow", "O"), ("size", "i8"), ("dscp", "i8")])

#: the bytes a chunk may hold and still go to ``loadtxt``: printable ASCII
#: but ``"``, and tab to carriage return. ``loadtxt`` knows no csv quoting,
#: strips ``\x1c``-``\x1f`` where ``int()`` refuses them, and (numpy 2.4)
#: reads some non-ASCII letters as digits (``"\u01fe"`` as 462).
_BULK_BYTES = bytes(range(0x09, 0x0E)) + b" !" + bytes(range(0x23, 0x7F))


def _parse_rows(rows, lineno: int, last_t: int) -> Slab:
    """Columns of csv ``rows``, parsed and checked one row at a time.

    This is the exact decider of what a trace may hold. ``lineno`` is the
    record number before the first row and ``last_t`` the time of the row
    before it (-1 if none). Empty records are skipped; the first bad record
    raises :class:`TraceError` naming its number.
    """
    # int columns go straight into arrays, a row at a time, so a slab costs
    # 8 bytes per field rather than a row of strings
    ts, sizes, dscps = array("q"), array("q"), array("q")
    flows = []
    for lineno, row in enumerate(rows, lineno + 1):
        if not row:
            continue
        try:  # the file is read with errors="surrogateescape"
            ",".join(row).encode()
        except UnicodeEncodeError as exc:
            byte = ord(exc.object[exc.start]) - 0xDC00
            raise TraceError(f"undecodable byte 0x{byte:02x}", line=lineno) from None
        if len(row) != 4:
            raise TraceError(f"expected 4 fields, got {len(row)}", line=lineno)
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
            raise TraceError(f"timestamp {t} earlier than previous {last_t}", line=lineno)
        last_t = t
        try:
            ts.append(t)
        except OverflowError:
            raise TraceError(f"timestamp {t} outside the int64 range", line=lineno) from None
        sizes.append(size)
        dscps.append(dscp)
        flows.append(flow)
    return Slab(np.array(ts, dtype=np.int64), np.array(sizes, dtype=np.int64),
                np.array(flows, dtype=object), np.array(dscps, dtype=np.int64))


def _checked(t, flows, size, dscp, last_t: int) -> Slab | None:
    """Slab of parsed columns if every row passes :func:`_parse_rows`' checks."""
    flows = list(map(str.strip, flows))
    if (not all(flows) or t[0] < max(last_t, 0)
            or (t[1:] < t[:-1]).any()
            or size.min() < MIN_FRAME_BYTES or size.max() > MAX_FRAME_BYTES
            or dscp.min() < 0 or dscp.max() > MAX_DSCP):
        return None
    return Slab(t, size, np.array(flows, dtype=object), dscp)


def _parse_lines(lines: list, last_t: int) -> Slab | None:
    """Columns of ``lines``, one csv record each, read by one ``loadtxt`` call
    and checked in bulk; None leaves the chunk to the csv reader."""
    text = "".join(lines)
    limit = csv.field_size_limit()  # the csv reader refuses longer fields
    if (not text.isascii() or text.encode().translate(None, _BULK_BYTES)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        # numpy 1.x reads an integer field such as "5.7" as a float, truncates
        # it and only warns; blank lines alone also only warn ("no data")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = np.loadtxt(lines, delimiter=",", dtype=_TRACE_DTYPE, comments=None,
                             ndmin=1)
    except (ValueError, Warning):
        return None
    return _checked(rec["t"].copy(), rec["flow"].tolist(), rec["size"].copy(),
                    rec["dscp"].copy(), last_t)


def _parse_records(rows: list, last_t: int) -> Slab | None:
    """Columns of csv ``rows`` read with ``int()`` a column at a time and checked
    in bulk; None if any row is bad or none holds data."""
    rows = [row for row in rows if row]
    if not rows or set(map(len, rows)) != {4}:
        return None
    t, flows, size, dscp = zip(*rows)
    try:
        t, size, dscp = (np.fromiter(map(int, col), np.int64, len(rows))
                         for col in (t, size, dscp))
        # an undecodable byte, read as a surrogate escape, fails encode();
        # int() refuses one itself
        "".join(flows).encode()
    except (ValueError, OverflowError):
        return None
    return _checked(t, flows, size, dscp, last_t)


def _chunk_rows(lines: list, fh, lineno: int, last_t: int) -> list:
    """The csv records that start in ``lines``; the last may read on into ``fh``.

    A record the csv reader refuses, such as one with a field over
    ``csv.field_size_limit()``, raises :class:`TraceError` naming its number,
    unless :func:`_parse_rows` finds an earlier record bad.
    """
    rest = iter(lines)
    reader = csv.reader(chain(rest, fh))
    rows = []
    try:
        while length_hint(rest):  # lines not yet consumed by the reader
            rows.append(next(reader))
    except csv.Error as exc:
        _parse_rows(rows, lineno, last_t)
        raise TraceError(f"malformed row: {exc}", line=lineno + len(rows) + 1) from None
    return rows


def trace_slabs(path, factor=1) -> Iterator[Slab]:
    """Slabs of a trace-csv file in file order, arrival times divided by ``factor``.

    Expected header: ``t_ns,flow,bytes,dscp``; fields follow csv quoting.
    Each chunk of :data:`SLAB_PKTS` lines is parsed by one
    :func:`numpy.loadtxt` call and checked in bulk, unless it holds a ``"``,
    a character outside printable ASCII and tab to carriage return or a line
    over ``csv.field_size_limit()``, or ``loadtxt`` or a check rejects it.
    Such a chunk is read by the csv reader, on to the end of a quoted record
    the chunk cuts, converted with ``int()`` a column at a time and checked
    in bulk again. Only a chunk that still fails goes to the row parser,
    which alone decides errors: a malformed row, an undecodable byte or a
    timestamp running backwards raises :class:`TraceError` naming the line
    (csv record number), an unreadable file one naming the path. The file
    opens at the first ``next()``.
    """
    frac = _scale_factor(factor)

    def slabs():
        try:
            fh = open(path, newline="", errors="surrogateescape")
        except OSError as exc:
            raise TraceError(f"cannot read trace {path}: {exc.strerror}") from None
        with fh:
            header = next(csv.reader(fh), None)
            if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
                raise TraceError(
                    f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}",
                    line=1,
                )
            last_t = -1
            lineno = 1
            while lines := list(islice(fh, SLAB_PKTS)):
                slab = _parse_lines(lines, last_t)
                if slab is not None:
                    lineno += len(lines)
                else:
                    rows = _chunk_rows(lines, fh, lineno, last_t)
                    slab = _parse_records(rows, last_t)
                    if slab is None:
                        slab = _parse_rows(rows, lineno, last_t)
                    lineno += len(rows)
                if len(slab.t):
                    last_t = int(slab.t[-1])
                    yield slab._replace(t=_scale_col(slab.t, frac))

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
