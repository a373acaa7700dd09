"""Trace parsing, rescaling, CBR generation, merging and classification."""

import random
from collections import Counter

import numpy as np
import pytest

from eeesim import (
    DEFAULT_LL_DSCPS,
    BundleConfig,
    ConfigError,
    EeePortConfig,
    FlowTable,
    Packet,
    SimConfig,
    TraceError,
    TrafficClass,
    read_trace,
    write_trace,
)
from eeesim.traffic import (
    _scale_col, _scale_factor, bursty_slabs, cbr_slabs, merge_slabs, packets, trace_slabs,
)
from test_columnar import slab_of

RSEED = 1869


def classify(packet, ll_dscps=DEFAULT_LL_DSCPS):
    """Class the flow table registers for the flow of ``packet``."""
    config = SimConfig(
        bundle=BundleConfig(n_ports=1, capacity_bps=10**10),
        port=EeePortConfig(capacity_bps=10**10),
        duration_ns=1,
        ll_dscps=frozenset(ll_dscps),
    )
    table = FlowTable(config)
    table.route_packet(packet)
    low_latency = table.route[table.codes[packet[2]]] & 1  # route bit 0: the class
    return TrafficClass.LOW_LATENCY if low_latency else TrafficClass.NORMAL


def _write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _cbr(*args, **kwargs):
    """Packet tuples of one CBR source."""
    return list(packets(merge_slabs([cbr_slabs(*args, **kwargs)])))


def _scaled(tmp_path, pkts, factor):
    """Packet tuples of ``pkts``, written as a trace and read back scaled."""
    path = tmp_path / "unscaled.csv"
    write_trace(path, pkts)
    return list(packets(merge_slabs([trace_slabs(path, factor)])))


def _scale_times(times, factor):
    return _scale_col(np.array(times, dtype=np.int64), _scale_factor(factor)).tolist()


def _merge(streams):
    """Packet tuples of time-ordered packet lists, merged as slabs."""
    return list(packets(merge_slabs([[slab_of(s)] if s else [] for s in streams])))


# -- read_trace --------------------------------------------------------------

def test_read_trace_maps_fields(tmp_path):
    path = _write(tmp_path, "t_ns,flow,bytes,dscp\n0,42,1500,0\n1000,7,100,46\n")
    pkts = list(read_trace(path))
    assert pkts == [Packet(0, 1500, "42", 0, 0), Packet(1000, 100, "7", 46, 1)]


def test_read_trace_rejects_small_frame(tmp_path):
    path = _write(tmp_path, "t_ns,flow,bytes,dscp\n0,1,40,0\n")
    with pytest.raises(TraceError, match="line 2"):
        list(read_trace(path))


def test_read_trace_rejects_bad_header(tmp_path):
    path = _write(tmp_path, "time,flow,bytes,dscp\n0,1,100,0\n")
    with pytest.raises(TraceError, match="line 1"):
        list(read_trace(path))


def test_read_trace_rejects_time_regression(tmp_path):
    path = _write(tmp_path, "t_ns,flow,bytes,dscp\n50,1,100,0\n49,1,100,0\n")
    with pytest.raises(TraceError, match="line 3"):
        list(read_trace(path))


def test_read_trace_rejects_malformed_int(tmp_path):
    path = _write(tmp_path, "t_ns,flow,bytes,dscp\nten,1,100,0\n")
    with pytest.raises(TraceError, match="line 2"):
        list(read_trace(path))


def test_read_trace_rejects_bad_dscp(tmp_path):
    path = _write(tmp_path, "t_ns,flow,bytes,dscp\n0,1,100,64\n")
    with pytest.raises(TraceError, match="dscp"):
        list(read_trace(path))


def test_write_then_read_roundtrip(tmp_path):
    pkts = [Packet(0, 64, "a", 0, 0), Packet(5, 9216, "b", 63, 1)]
    path = tmp_path / "t.csv"
    assert write_trace(path, pkts) == 2
    assert list(read_trace(path)) == pkts


# -- trace scaling -----------------------------------------------------------

def test_scale_identity(tmp_path):
    pkts = [Packet(t, 100, "f", 0, i) for i, t in enumerate((0, 7, 1234))]
    assert _scaled(tmp_path, pkts, 1) == pkts


def test_scale_divides_times(tmp_path):
    pkts = [Packet(t, 100, "f", 0, i) for i, t in enumerate((0, 1000, 3000))]
    assert [p[0] for p in _scaled(tmp_path, pkts, 10)] == [0, 100, 300]


def test_scale_rejects_nonpositive_factor(tmp_path):
    with pytest.raises(ConfigError):
        trace_slabs(tmp_path / "unread.csv", 0)
    with pytest.raises(ConfigError):
        trace_slabs(tmp_path / "unread.csv", -2.5)


def test_scale_doubles_mean_rate(tmp_path):
    # 1250 B every 3077 ns is roughly 3.25 Gb/s; factor 2 must double it.
    base = _cbr(3_250_000_000, 1250, 0, 10_000_000)
    scaled = _scaled(tmp_path, base, 2)

    def mean_rate(pkts):
        span = pkts[-1][0] - pkts[0][0]
        return sum(p[1] for p in pkts[:-1]) * 8 * 1e9 / span

    assert mean_rate(scaled) == pytest.approx(2 * mean_rate(base), rel=1e-6)
    assert mean_rate(scaled) == pytest.approx(6.5e9, rel=1e-3)


def test_scale_roundtrip_within_one_ns():
    # Stretching first (factor <= 1) then compressing back loses at most the
    # final rounding step, so every timestamp lands within 1 ns.
    rng = random.Random(RSEED)
    times = sorted(rng.randrange(0, 10**9) for _ in range(300))
    for factor in (0.5, 0.1, 0.37, 1.0):
        back = _scale_times(_scale_times(times, factor), 1.0 / factor)
        for orig, rt in zip(times, back):
            assert abs(rt - orig) <= 1


def test_scale_roundtrip_bound_for_compression():
    # Compressing first discards sub-factor detail; the round trip error is
    # bounded by (factor + 1) / 2.
    rng = random.Random(RSEED + 1)
    times = sorted(rng.randrange(0, 10**9) for _ in range(300))
    for factor in (2, 8, 25):
        back = _scale_times(_scale_times(times, factor), 1.0 / factor)
        bound = (factor + 1) / 2
        for orig, rt in zip(times, back):
            assert abs(rt - orig) <= bound


# -- cbr_slabs ---------------------------------------------------------------

def test_cbr_interarrival_is_ten_microseconds():
    pkts = _cbr(100_000_000, 125, 46, 100_000)
    gaps = {b[0] - a[0] for a, b in zip(pkts, pkts[1:])}
    assert gaps == {10_000}


def test_cbr_packet_count_over_one_second():
    pkts = _cbr(10_000_000, 125, 0, 1_000_000_000)
    assert len(pkts) == 10_000


def test_cbr_default_ll_dscp_classifies_low_latency():
    pkt = _cbr(1_000_000, 100, 46, 1_000_000)[0]
    assert classify(pkt) is TrafficClass.LOW_LATENCY


def test_cbr_long_run_rate_exact_to_one_ppm():
    # Awkward rate: the ideal spacing is not an integer nanosecond count.
    rate = 997_331
    pkts = _cbr(rate, 125, 0, 3_000_000_000)
    span = pkts[-1][0] - pkts[0][0]
    measured = (len(pkts) - 1) * 125 * 8 * 1e9 / span
    assert abs(measured / rate - 1) < 1e-6


@pytest.mark.parametrize("pkts, bursts, field", [
    (0, 1, "pkts_per_window"), (4, 0, "bursts_per_window")])
def test_bursty_rejects_counts_below_one(pkts, bursts, field):
    with pytest.raises(ConfigError, match=f"^{field} must be >= 1$"):
        bursty_slabs(pkts, 1500, 0, 10**6, bursts, 10**10, 10**6)


def test_cbr_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        cbr_slabs(0, 125, 0, 1000)
    with pytest.raises(ConfigError):
        cbr_slabs(1000, 125, 0, 0)
    with pytest.raises(TraceError):
        _cbr(1000, 40, 0, 1000)


# -- merge -------------------------------------------------------------------

def test_merge_interleaves_by_time():
    a = [Packet(0, 100, "a", 0, 0), Packet(20, 100, "a", 0, 1)]
    b = [Packet(10, 100, "b", 0, 0)]
    out = _merge([a, b])
    assert [(p[2], p[0]) for p in out] == [("a", 0), ("b", 10), ("a", 20)]
    assert [p[4] for p in out] == [0, 1, 2]


def test_merge_tie_breaks_by_stream_index():
    a = [Packet(5, 100, "a", 0, 0)]
    b = [Packet(5, 100, "b", 0, 0)]
    assert [p[2] for p in _merge([a, b])] == ["a", "b"]
    assert [p[2] for p in _merge([b, a])] == ["b", "a"]


def test_merge_single_stream_identity():
    a = [Packet(t, 100, "a", 0, i) for i, t in enumerate((0, 3, 9))]
    assert _merge([a]) == a


def test_merge_preserves_multiset():
    rng = random.Random(RSEED)
    streams = []
    for s in range(5):
        t = 0
        stream = []
        for i in range(rng.randrange(0, 80)):
            t += rng.randrange(0, 50)
            stream.append(Packet(t, rng.randrange(64, 1500), f"s{s}", 0, i))
        streams.append(stream)
    out = _merge(streams)
    assert len(out) == sum(len(s) for s in streams)
    key = lambda p: p[:4]  # (arrival_time, size, flow, dscp)
    assert Counter(map(key, out)) == Counter(
        key(p) for stream in streams for p in stream
    )
    assert all(a[0] <= b[0] for a, b in zip(out, out[1:]))


def test_merge_rejects_unordered_stream():
    bad = [Packet(5, 100, "a", 0, 0), Packet(4, 100, "a", 0, 1)]
    with pytest.raises(TraceError):
        _merge([bad])


# -- classification by the flow table ------------------------------------

def test_classify_membership():
    assert classify(Packet(0, 100, "f", 46, 0), {46}) is TrafficClass.LOW_LATENCY
    assert classify(Packet(0, 100, "f", 0, 0), {46}) is TrafficClass.NORMAL
    assert classify(Packet(0, 100, "f", 46, 0), set()) is TrafficClass.NORMAL
