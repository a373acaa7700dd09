"""Packet streams: trace replay, time rescaling, synthetic sources, merging.

All timestamps are integer nanoseconds since the start of the simulation.
A 64-byte frame lasts 51.2 ns on a 10 Gb/s link, so nanosecond resolution
is sufficient and avoids floating-point drift in the event loop.

Traffic is built in columns. A *source* (:func:`cbr_slabs`,
:func:`frames_slabs`, :func:`bursty_slabs`, :func:`trace_slabs`) is a lazy
iterable of :class:`Slab` s: int64 numpy columns ``t``, ``size`` and
``dscp`` plus ``flow``, time-ordered, at most :data:`SLAB_PKTS` packets
each. Flows travel as int codes into the source's table of names. CBR is
a frames train of one packet per frame; a synthetic source gives the times
of a range of its packets to one emitter that cuts slabs by packet index,
and its other columns are stride-0 views of one value.
Sources validate their arguments when called but synthesize nothing
before the first ``next()``. Every arrival
time comes from an exact integer formula; a column is computed in int64
only where a bound shows that no intermediate exceeds ``2**63 - 1``, and
with Python ints otherwise.

:func:`trace_slabs` parses a chunk of plain ASCII rows with one
:func:`numpy.loadtxt` call and checks it in bulk; any other chunk (quotes,
other characters or a fault) is read by the csv reader and goes to the row
parser, the one judge of errors. Inside a :func:`trace_memo`, which a
sweep opens in each process that runs more than one of its jobs, it
replays an earlier complete read of an unchanged regular file.

:func:`merge_slabs` orders the packets of several sources by (time, source
index, position in source) and yields :class:`Batch` es, one column per
field of the packet tuple ``(arrival_time, size, flow, dscp, seq)``,
``flow`` renumbered with one ``take`` per slab into the stream's table of
names (a lone source's table is the stream's). It holds each source's
slabs as views until it emits them, and a batch holds about ``2 *
SLAB_PKTS`` packets at most, sorted once. Names come back only at the
edges: :func:`packets` is the one place that turns batches into tuples and
:func:`batches` the one place that turns tuples into batches. A packet
tuple is read by position only, so a :class:`Packet` and a plain tuple are
the same thing. :func:`write_trace` writes packet tuples to a trace-csv
file.
"""

from __future__ import annotations

import csv
import os
import stat
import warnings
import zlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice
from operator import length_hint
from typing import Iterable, Iterator, NamedTuple, Sequence

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

#: packets per slab; :func:`packets` turns batches into tuples in runs this long.
SLAB_PKTS = 8192

#: most trace lines one ``loadtxt`` call parses, so a trace slab holds at
#: most this many packets or SLAB_PKTS, whichever is fewer: a chunk makes a
#: ``str`` per row for its flows
TRACE_CHUNK_LINES = 4096

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
    flow: np.ndarray   # int codes into ``names``
    dscp: np.ndarray   # int64
    names: Sequence    # distinct flow names by code; later slabs may only extend it


class Batch(NamedTuple):
    """Merged packets in stream order, one column per packet-tuple field."""

    t: np.ndarray      # int64 arrival times
    size: np.ndarray   # int64
    flow: np.ndarray   # int codes into ``names``
    dscp: np.ndarray   # int64
    seq: np.ndarray    # int64
    names: Sequence    # distinct flow names by code; later batches may only extend it


def _numbering() -> tuple:
    """``(codes, names)``: ``codes(keys)`` numbers each new key with the next
    code and appends it to the list ``names``."""
    index, names = defaultdict(count().__next__), []

    def codes(keys) -> list:
        out = list(map(index.__getitem__, keys))
        names.extend(reversed([*islice(reversed(index), len(index) - len(names))]))
        return out

    return codes, names


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


def _outside(size: np.ndarray, dscp: np.ndarray) -> str | None:
    """The first field of the int64 columns ``size`` and ``dscp`` with a value
    out of its range, and that range; None if both are in range."""
    for name, col, lo, hi in (("size", size, MIN_FRAME_BYTES, MAX_FRAME_BYTES),
                              ("dscp", dscp, 0, MAX_DSCP)):
        if col.min() < lo or col.max() > hi:
            return f"{name} outside [{lo}, {hi}]"
    return None


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


def _take(slab: Slab, index) -> Slab:
    return Slab(*(col[index] for col in slab[:4]), slab.names)


# -- sources ------------------------------------------------------------------

def _synthetic(n: int, end: int, times, size: int, flow: str, dscp: int) -> Iterator[Slab]:
    """Slabs of a one-flow source's packets ``0..n-1``, :data:`SLAB_PKTS` by
    index, ending before the first at or after ``end``: ``times(lo, hi)`` gives
    the int64 times of packets ``lo:hi``; size, flow (code 0) and dscp are stride-0 views."""
    cols = [np.broadcast_to(np.int64(x), min(n, SLAB_PKTS)) for x in (size, 0, dscp)]
    names = (flow,)
    for lo in range(0, n, SLAB_PKTS):
        t = times(lo, min(lo + SLAB_PKTS, n))
        late = np.flatnonzero(t >= end)
        k = int(late[0]) if late.size else len(t)
        if k:
            yield Slab(t[:k], *(col[:k] for col in cols), names)
        if late.size:
            return


def cbr_slabs(rate_bps, pkt_size: int, dscp: int, duration_ns: int,
              start_offset_ns: int = 0, flow: str = "cbr") -> Iterator[Slab]:
    """Constant-bit-rate source of equal-size packets.

    Packet ``i`` arrives at ``start_offset + round(i * size * 8e9 / rate)``,
    so the long-run rate is exact even when the ideal inter-arrival time is
    not an integer number of nanoseconds. The first packet arrives at
    ``start_offset_ns``; the last one strictly before ``start_offset_ns +
    duration_ns``. This is a :func:`frames_slabs` train of one packet per
    frame.
    """
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    return frames_slabs(rate_bps, pkt_size, dscp, duration_ns, rate_bps,
                        start_offset_ns, flow, 1)


def frames_slabs(rate_bps, pkt_size, dscp, duration_ns, line_rate_bps,
                 start_offset_ns=0, flow="frames", pkts_per_frame=None):
    """Packet trains at line rate, paced so the mean rate is exact.

    Each frame carries ``pkts_per_frame`` back-to-back packets (spacing =
    wire time at ``line_rate_bps``); frame ``f`` starts at ``start_offset +
    round(f * pkts_per_frame * size * 8e9 / rate)``, so the long-run
    average equals ``rate_bps``, which may be a :class:`~fractions.Fraction`.
    The source ends at its first packet at or after ``start_offset_ns +
    duration_ns``.
    """
    rate = Fraction(rate_bps)
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate_bps}")
    if line_rate_bps < rate:
        raise ConfigError("line rate below mean rate")
    if start_offset_ns < 0:
        raise ConfigError(f"start offset must be non-negative, got {start_offset_ns}")
    if pkts_per_frame is not None and pkts_per_frame < 1:
        raise ConfigError(f"pkts_per_frame must be >= 1, got {pkts_per_frame}")
    _check_size(pkt_size)
    _check_dscp(dscp)
    m = pkts_per_frame or max(1, -(-rate // FRAME_UNIT_BPS))
    bits = pkt_size * 8
    intra = _round_div(bits * 10**9, line_rate_bps)
    end = start_offset_ns + duration_ns
    _check_end(end + (m - 1) * intra)
    # frame f starts f * frame_num / frame_den ns after the offset, an exact
    # integer ratio so rounding errors never accumulate
    frame_num = m * bits * 10**9 * rate.denominator
    frame_den = rate.numerator
    n_frames = _count_below(frame_num, frame_den, duration_ns) if duration_ns > 0 else 0
    # (m - 1) * intra fits int64 by the check above; intra alone need not (m = 1)
    within = np.arange(m, dtype=np.int64) * (intra if m > 1 else 0)

    def times(lo, hi):  # the frames that hold packets lo:hi, the first and last cut
        f, g = lo // m, (hi - 1) // m
        starts = _round_div_col(np.arange(f, g + 1, dtype=np.int64),
                                frame_num, frame_den, start_offset_ns)
        if f == g:
            return starts[0] + within[lo - f * m:hi - f * m]
        return np.concatenate((starts[0] + within[lo - f * m:],
                               (starts[1:-1, None] + within).ravel(),
                               starts[-1] + within[:hi - g * m]))

    return _synthetic(n_frames * m, end, times, pkt_size, flow, dscp)


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
    if line_rate_bps <= 0:
        raise ConfigError(f"line rate must be positive, got {line_rate_bps}")
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
    # per burst: its first packet's index in the window, and its start's room to jitter
    first = np.cumsum([0] + chunks[:-1], dtype=np.int64)
    rooms = [slot - ((chunk - 1) * intra + 1) for chunk in chunks]

    @lru_cache(maxsize=1)  # the window a slab ends in is the next slab's first
    def window_starts(w):
        return [w * window_ns + b * slot
                + (zlib.crc32(f"{flow}|{w}|{b}".encode()) % room if room > 0 else 0)
                for b, room in enumerate(rooms)]

    def times(lo, hi):
        # bursts of the windows holding packets lo:hi by the source-wide index
        # of their first packets; an empty burst's equals the next one's, and
        # searchsorted takes the last of equal indices
        w = np.arange(lo // pkts_per_window, (hi - 1) // pkts_per_window + 1)
        firsts = (w[:, None] * pkts_per_window + first).ravel()
        starts = np.array([window_starts(v) for v in w.tolist()], dtype=np.int64).ravel()
        k = np.arange(lo, hi, dtype=np.int64)
        burst = np.searchsorted(firsts, k, side="right") - 1
        return starts[burst] + (k - firsts[burst]) * intra

    return _synthetic(n_windows * pkts_per_window, duration_ns, times, pkt_size, flow, dscp)


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


def _parse_rows(rows, lineno: int, last_t: int) -> tuple:
    """Columns ``(t, size, flows, dscp)`` of csv ``rows``, parsed and checked
    one row at a time; ``flows`` is a list of names.

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
    return (np.array(ts, dtype=np.int64), np.array(sizes, dtype=np.int64), flows,
            np.array(dscps, dtype=np.int64))


def _parse_lines(lines: list, last_t: int) -> tuple | None:
    """:func:`_parse_rows` of ``lines``, one csv record each, read by one
    ``loadtxt`` call and checked in bulk; None leaves the chunk to the csv
    reader and the row parser."""
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
    t, size, dscp = rec["t"].copy(), rec["size"].copy(), rec["dscp"].copy()
    flows = list(map(str.strip, rec["flow"].tolist()))
    if (not all(flows) or t[0] < max(last_t, 0)
            or (t[1:] < t[:-1]).any() or _outside(size, dscp)):
        return None
    return t, size, flows, dscp


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


#: a trace memo's budget over all its traces, 2**20 rows: 15 MiB of columns
#: (8 + 2 + 1 + 4 bytes a row) plus the distinct names is the most a sweep
#: process holds for replay; a trace past it streams once per job
_MEMO_ROWS = 1 << 20

#: the open trace memo, trace key -> (names, slabs), or None outside one
_memo: dict | None = None


@contextmanager
def trace_memo():
    """Keep complete trace reads for replay until the block ends.

    Inside, the first :func:`trace_slabs` read of a regular file that yields
    every slab without error keeps them compact (int64 ``t``, int16 ``size``,
    int8 ``dscp``, the int32 flow codes and the names) under the file's
    resolved path, device, inode, size and modification time; a later read
    of that key replays them without opening the file. A read stopped early
    or failing, or one that would take the memo past ``_MEMO_ROWS`` rows, is
    not kept.
    """
    global _memo
    outer, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = outer


def open_trace_memo() -> None:
    """Open a trace memo for the rest of the process, as a pool initializer."""
    global _memo
    if _memo is None:
        _memo = {}


def _kept_rows(memo: dict) -> int:
    return sum(len(t) for _, kept in memo.values() for t, *_ in kept)


def _trace_key(path, st) -> tuple:
    return (os.path.realpath(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def trace_slabs(path, factor=1) -> Iterator[Slab]:
    """Slabs of a trace-csv file in file order, arrival times divided by ``factor``.

    Expected header: ``t_ns,flow,bytes,dscp``; fields follow csv quoting.
    Each chunk of :data:`TRACE_CHUNK_LINES` lines (:data:`SLAB_PKTS` if
    fewer) is parsed by one :func:`numpy.loadtxt` call and checked in bulk,
    unless it holds a ``"``, a character outside printable ASCII and tab to
    carriage return or a line over ``csv.field_size_limit()``, or
    ``loadtxt`` or a check rejects it.
    Such a chunk is read by the csv reader, on to the end of a quoted record
    the chunk cuts, and parsed by the row parser, which alone decides
    errors: a malformed row, an undecodable byte or a timestamp running
    backwards raises :class:`TraceError` naming the line (csv record
    number), an unreadable file one naming the path. Each flow name takes
    the next code where it first appears. The file opens at the first
    ``next()``, unless a :func:`trace_memo` holds a complete read of it,
    which is replayed instead.
    """
    frac = _scale_factor(factor)

    def slabs():
        memo = _memo
        if memo is not None:
            try:
                names, kept = memo[_trace_key(path, os.stat(path))]
            except (OSError, KeyError):
                pass
            else:
                for t, size, dscp, codes in kept:
                    yield Slab(_scale_col(t, frac), size.astype(np.int64), codes,
                               dscp.astype(np.int64), names)
                return
        try:
            fh = open(path, newline="", errors="surrogateescape")
        except OSError as exc:
            raise TraceError(f"cannot read trace {path}: {exc.strerror}") from None
        with fh:
            st = os.fstat(fh.fileno())
            key = memo is not None and stat.S_ISREG(st.st_mode) and _trace_key(path, st)
            room = key and _MEMO_ROWS - _kept_rows(memo)
            (codes_of, names), kept = _numbering(), []
            header = next(csv.reader(fh), None)
            if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
                raise TraceError(
                    f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}",
                    line=1,
                )
            last_t = -1
            lineno = 1
            while lines := list(islice(fh, min(SLAB_PKTS, TRACE_CHUNK_LINES))):
                cols = _parse_lines(lines, last_t)
                if cols is not None:
                    lineno += len(lines)
                else:
                    rows = _chunk_rows(lines, fh, lineno, last_t)
                    cols = _parse_rows(rows, lineno, last_t)
                    lineno += len(rows)
                t, size, flows, dscp = cols
                if len(t):
                    last_t = int(t[-1])
                    codes = np.array(codes_of(flows), dtype=np.int32)
                    room -= len(t)
                    if key and room >= 0:
                        t.flags.writeable = codes.flags.writeable = False
                        kept.append((t, size.astype(np.int16), dscp.astype(np.int8), codes))
                    else:  # not kept: stream it
                        key = kept = None
                    del lines, cols, flows  # not held while the next chunk is read
                    yield Slab(_scale_col(t, frac), size, codes, dscp, names)
            if key and _trace_key(path, os.fstat(fh.fileno())) == key:
                memo[key] = (names, kept)
                if _kept_rows(memo) > _MEMO_ROWS:  # another read was kept meanwhile
                    del memo[key]

    return slabs()


# -- merge --------------------------------------------------------------------

def merge_slabs(sources: Iterable[Iterable[Slab]]) -> Iterator[Batch]:
    """Merge time-ordered slab sources into one stream of :class:`Batch` es.

    Packets are ordered by (time, source index, position in source), with
    ``seq`` numbering the output. Each source keeps the slabs it has not yet
    emitted as views. A round emits, as one batch, the packets earlier than
    the horizon, the smallest last held time of the sources not yet
    exhausted, but at most ``2 * SLAB_PKTS // k`` from each of the ``k``
    sources that hold packets: where a source has more, the round ends at
    the first packet, in stream order, that a source could not give. A round
    that reaches the horizon refills the sources that set it. So no batch
    holds much more than ``2 * SLAB_PKTS`` packets, and the order depends on
    neither where slabs end nor where rounds end. With several sources, each
    one's flow codes are renumbered into the stream's table of names as its
    slabs arrive, a new name taking the next code; a lone source's codes and
    table are the stream's. Nothing is read from the sources before the
    first ``next()``.
    """
    feeds = [iter(s) for s in sources]
    held = [[] for _ in feeds]  # each source's slabs not yet emitted, as views
    last = [-1] * len(feeds)    # time of each source's last held packet
    codes_of, names = _numbering()  # the stream's codes
    # each source's codes -> the stream's, for the names it has shown so far
    recode = [np.empty(0, dtype=np.int64) for _ in feeds]

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
            if len(feeds) > 1:  # renumber into the stream's table
                known = len(recode[i])
                if len(slab.names) > known:
                    recode[i] = np.concatenate((recode[i], codes_of(slab.names[known:])))
                slab = slab._replace(flow=_lookup(recode[i], slab.flow), names=names)
            held[i].append(slab)
            last[i] = int(t[-1])
            return True
        return False

    live = [i for i in range(len(feeds)) if pull(i)]  # may yield more slabs
    seq = 0
    while busy := [i for i, views in enumerate(held) if views]:
        horizon = min(last[i] for i in live) if live else None
        quota = max(1, 2 * SLAB_PKTS // len(busy))
        cuts = {i: _before(held[i], horizon) for i in busy}
        capped = [(_time_at(held[i], quota), i) for i in busy if cuts[i] > quota]
        if capped:  # end the round at the first packet a source could not give
            at, k = min(capped)
            cuts = {i: quota if i == k else _before(held[i], at, "right" if i < k else "left")
                    for i in busy}
        n = sum(cuts.values())
        if n:
            yield _round([part for i in busy for part in _split(held[i], cuts[i])], seq)
            seq += n
        if not capped:
            live = [i for i in live if last[i] != horizon or pull(i)]


def _lookup(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``table[codes]``, a stride-0 view where ``codes`` is one."""
    if codes.strides == (0,):
        return np.broadcast_to(table[codes[0]], len(codes))
    return table[codes]


def _before(views: list, at, side: str = "left") -> int:
    """How many packets of the time-ordered slabs ``views`` come before time
    ``at`` (all of them if ``at`` is None), or at it too if ``side`` is "right"."""
    n = 0
    for view in views:
        k = len(view.t) if at is None else int(np.searchsorted(view.t, at, side))
        n += k
        if k < len(view.t):
            break
    return n


def _time_at(views: list, i: int) -> int:
    """Time of packet ``i`` of the slabs ``views``."""
    for view in views:
        if i < len(view.t):
            return int(view.t[i])
        i -= len(view.t)


def _split(views: list, n: int) -> list:
    """Views of the first ``n`` packets of the slabs ``views``, which keeps the rest."""
    parts = []
    while n:
        view = views[0]
        if len(view.t) > n:
            parts.append(_take(view, slice(None, n)))
            views[0] = _take(view, slice(n, None))
            break
        parts.append(views.pop(0))
        n -= len(view.t)
    return parts


def _round(parts: list, seq: int) -> Batch:
    """One batch of the slabs ``parts``, each time-ordered, in source order,
    numbered from ``seq``: sorted once by time, stably, and each column
    gathered once."""
    if len(parts) == 1:
        out = parts[0]
    else:
        order = np.argsort(np.concatenate([part.t for part in parts]), kind="stable")
        out = [np.concatenate([part[c] for part in parts])[order] for c in range(4)]
    n = len(out[0])
    return Batch(*out[:4], np.arange(seq, seq + n, dtype=np.int64), parts[-1].names)


def packets(stream: Iterable[Batch]) -> Iterator[tuple]:
    """Packet tuples ``(arrival_time, size, flow, dscp, seq)`` of ``stream``'s
    batches, each flow by its name."""
    for batch in stream:
        name = batch.names.__getitem__
        for lo in range(0, len(batch.t), SLAB_PKTS):
            t, size, flow, dscp, seq = (col[lo:lo + SLAB_PKTS].tolist() for col in batch[:5])
            yield from zip(t, size, map(name, flow), dscp, seq)


def batches(stream: Iterable) -> Iterator[Batch]:
    """Batches of a stream of packet tuples, or of batches, which pass through.

    Tuples are read by position, ``2 * SLAB_PKTS`` at a time (the engine's
    run cap), and their flows numbered into one table of names; a field
    outside the int64 range, or a size or dscp outside the range a trace
    row may hold, raises :class:`ConfigError`.
    """
    it = iter(stream)
    codes_of, names = _numbering()
    for first in it:
        if isinstance(first, Batch):
            yield first
            del first  # hold no batch while the stream builds the next
            yield from it
            return
        rows = [first, *islice(it, 2 * SLAB_PKTS - 1)]
        t, size, flow, dscp, seq = zip(*rows)
        size, dscp = _int64(size), _int64(dscp)
        if bad := _outside(size, dscp):
            raise ConfigError(f"packet {bad}")
        yield Batch(_int64(t), size, _int64(codes_of(flow)), dscp, _int64(seq), names)


# -- trace files --------------------------------------------------------------

def read_trace(path) -> Iterator[tuple]:
    """Packet tuples of :func:`trace_slabs`; ``seq`` follows file order."""
    return packets(merge_slabs([trace_slabs(path)]))


def write_trace(path, stream: Iterable[tuple]) -> int:
    """Write packet tuples to a trace-csv file. Returns the number of rows written.

    Rows go to a temporary file beside ``path`` that replaces it after the
    last row, so a stream that fails leaves ``path`` as it was, and the
    stream may read ``path`` itself.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    written = 0
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:
        raise TraceError(f"cannot write trace {path}: {exc.strerror}") from None
    try:
        with fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(TRACE_HEADER)
            for t, size, flow, dscp, _ in stream:
                out.writerow((t, flow, size, dscp))
                written += 1
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return written
