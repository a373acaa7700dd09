"""Columnar traffic against the pure-Python reference generators.

Every source is compared element by element with ``reference_traffic``,
also with tiny slabs so that slab ends fall on every kind of boundary, and
the slab merge with the heap merge, including same-nanosecond ties across
streams and slab boundaries exactly on packet times.
"""

import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_traffic as ref
from eeesim import (
    Algorithm, BundleConfig, EeePortConfig, SimConfig, oracle_simulate, read_trace, run,
    write_trace,
)
from eeesim import engine, scenarios, traffic
from eeesim.errors import ConfigError
from eeesim.scenarios import Scenario, build_sim_config, build_stream, run_scenario
from eeesim.traffic import (
    Slab, bursty_slabs, cbr_slabs, frames_slabs, merge_slabs, packets,
)

SLAB_SIZES = st.sampled_from([1, 2, 3, 7, 64, traffic.SLAB_PKTS])
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


#: the engine's windows, which are fixed multiples of the slab size
WINDOWS = ("_SEGMENT_PKTS", "_SERVE_PKTS", "_RUN_PKTS")


@contextmanager
def slab_size(n):
    """Slabs of ``n`` packets, and the engine's windows scaled with them."""
    old = [traffic.SLAB_PKTS, *(getattr(engine, w) for w in WINDOWS)]
    traffic.SLAB_PKTS = n
    for w, size in zip(WINDOWS, old[1:]):
        assert size % old[0] == 0, w
        setattr(engine, w, size // old[0] * n)
    try:
        yield
    finally:
        traffic.SLAB_PKTS = old[0]
        for w, size in zip(WINDOWS, old[1:]):
            setattr(engine, w, size)


def _times(slabs):
    parts = [s.t for s in slabs]
    return np.concatenate(parts).tolist() if parts else []


# -- sources -------------------------------------------------------------------

@SETTINGS
@given(data=st.data(), slab=SLAB_SIZES)
def test_cbr_matches_reference(data, slab):
    rate = data.draw(st.one_of(
        st.integers(10**5, 4 * 10**10),
        st.builds(Fraction, st.integers(10**5, 10**12), st.integers(1, 1000)),
    ))
    size = data.draw(st.integers(64, 9216))
    offset = data.draw(st.integers(0, 10**5))
    step = Fraction(size * 8 * 10**9) / Fraction(rate)
    duration = data.draw(st.integers(1, max(1, int(step * 300))))
    with slab_size(slab):
        got = list(packets(merge_slabs([cbr_slabs(rate, size, 46, duration, offset,
                                                     "c")])))
    assert got == list(ref.cbr(Fraction(rate), size, 46, duration, offset, "c"))


@SETTINGS
@given(data=st.data(), slab=SLAB_SIZES)
def test_frames_matches_reference(data, slab):
    rate = data.draw(st.one_of(
        st.integers(10**5, 4 * 10**9),
        st.builds(Fraction, st.integers(10**5, 4 * 10**12), st.integers(1, 1000)),
    ))
    line = data.draw(st.sampled_from([10**9, 10**10, 4 * 10**10]).filter(
        lambda x: x >= rate) | st.just(rate))
    size = data.draw(st.integers(64, 1500))
    m = data.draw(st.one_of(st.none(), st.integers(1, 5)))
    offset = data.draw(st.integers(0, 10**4))
    frame_ns = (m or max(1, -(-rate // 10**8))) * size * 8 * 10**9 // rate
    duration = data.draw(st.integers(1, 40 * frame_ns + 100))
    args = (rate, size, 0, duration, line, offset, "fr", m)
    with slab_size(slab):
        got = list(packets(merge_slabs([frames_slabs(*args)])))
    assert got == list(ref.frames(*args))


@SETTINGS
@given(data=st.data(), slab=SLAB_SIZES)
def test_bursty_matches_reference(data, slab):
    ppw = data.draw(st.integers(1, 300))
    bursts = data.draw(st.integers(1, 20))
    size = data.draw(st.sampled_from([64, 125, 1500]))
    line = data.draw(st.sampled_from([10**9, 10**10, 4 * 10**10]))
    intra = (2 * size * 8 * 10**9 + line) // (2 * line)
    chunk = -(-ppw // bursts)
    fits = bursts * ((chunk - 1) * intra + 1)  # shortest window the bursts fit
    window = data.draw(st.integers(fits, max(fits, 10**6)))
    duration = data.draw(st.integers(1, 4 * window))
    args = (ppw, size, 0, window, bursts, line, duration, "b")
    with slab_size(slab):
        got = list(packets(merge_slabs([bursty_slabs(*args)])))
    assert got == list(ref.bursty(*args))


#: (source, its reference, arguments): about 20,000 packets each; frames of
#: three packets, and bursty windows of 3,001 packets, a multiple of no slab
#: size tested
FULL_SLAB_SOURCES = {
    "cbr": (cbr_slabs, ref.cbr, (Fraction(10**10), 64, 0, 10**6, 5, "c")),
    "frames": (frames_slabs, ref.frames, (10**9, 64, 46, 10**7, 10**10, 3, "fr", 3)),
    "bursty": (bursty_slabs, ref.bursty, (3001, 100, 0, 10**6, 3, 10**10, 7 * 10**6, "b")),
}


@pytest.mark.parametrize("slab", [1, 7, traffic.SLAB_PKTS])
@pytest.mark.parametrize("name", list(FULL_SLAB_SOURCES))
def test_synthetic_slabs_are_full_but_the_last(name, slab):
    # Slabs are cut by packet index over the whole source, so a frames slab
    # may end mid-frame and a bursty one may span windows.
    source, reference, args = FULL_SLAB_SOURCES[name]
    with slab_size(slab):
        slabs = list(source(*args))
        got = list(packets(merge_slabs([iter(slabs)])))
    want = list(reference(*args))
    assert len(want) > 2 * traffic.SLAB_PKTS
    assert all(len(s.t) == slab for s in slabs[:-1]) and 0 < len(slabs[-1].t) <= slab
    assert got == want
    if name == "bursty" and slab > 1:  # a slab holds the end of a window and the next's start
        window = args[3]
        assert any(s.t[0] // window != s.t[-1] // window for s in slabs)


def test_qos_point_stream_is_merged_into_few_batches():
    # qos-sweep's eight bulk flows each give 16,927 packets a 50 ms window;
    # with slabs cut by index, not per window, no third short slab per window
    # ends a merge round (204 batches when slabs were cut per window)
    scenario = scenarios.qos_sweep_scenario()
    point = next(p for p in scenario.sweep_points() if p["ll_rate_bps"] == 100_000_000)
    assert sum(1 for _ in build_stream(scenario, point)) <= 170


# -- merge ---------------------------------------------------------------------

@st.composite
def split_streams(draw):
    """Time-ordered streams on a coarse grid, each cut into slabs."""
    streams, slabbed = [], []
    for s in range(draw(st.integers(1, 5))):
        gaps = draw(st.lists(st.integers(0, 3), max_size=30))
        times = list(np.cumsum(gaps) * 10) if gaps else []
        pkts = [(int(t), 100 + s, f"s{s}", 46 * (s % 2), i) for i, t in enumerate(times)]
        # cut points anywhere, so slab ends often share the next slab's time
        cuts = sorted(draw(st.sets(st.integers(0, len(pkts)), max_size=6)))
        bounds = [0] + cuts + [len(pkts)]
        slabs = [traffic._take(slab_of(pkts), slice(a, b))
                 for a, b in zip(bounds, bounds[1:])] if pkts else []
        streams.append(pkts)
        slabbed.append(slabs)
    return streams, slabbed


def coded(t, size, flows, dscp):
    """A slab of the columns ``t``, ``size``, ``dscp`` and the flow names
    ``flows``, numbered in order of first appearance."""
    names = list(dict.fromkeys(flows))
    code = {name: i for i, name in enumerate(names)}
    return Slab(np.array(t, dtype=np.int64), np.array(size, dtype=np.int64),
                np.array([code[f] for f in flows], dtype=np.int64),
                np.array(dscp, dtype=np.int64), names)


def slab_of(pkts):
    """One slab of the packet tuples ``pkts``."""
    t, size, flow, dscp, _ = zip(*pkts)
    return coded(t, size, flow, dscp)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=split_streams(), slab=SLAB_SIZES)
def test_merge_matches_heap_merge(case, slab):
    streams, slabbed = case
    expected = list(ref.merge(streams))
    with slab_size(slab):
        assert list(packets(merge_slabs(slabbed))) == expected


#: flow names a csv writer, a trace parser or a numbering could get wrong
NAMES = ["a", "b", "42", "007", "7", "\u00fc", "line\nbreak", "x,y"]


def _source(pkts, cuts):
    """One source's slabs of ``pkts``, cut before each of ``cuts``: the names
    are numbered across the source, and each slab's table holds the names
    seen up to its end."""
    code = {}
    flows = [code.setdefault(p[2], len(code)) for p in pkts]
    names = list(code)
    bounds = [0, *sorted({c for c in cuts if 0 < c < len(pkts)}), len(pkts)]
    slabs = []
    for a, b in zip(bounds, bounds[1:]):
        t, size, _, dscp, _ = zip(*pkts[a:b])
        slabs.append(Slab(np.array(t, dtype=np.int64), np.array(size, dtype=np.int64),
                          np.array(flows[a:b], dtype=np.int64),
                          np.array(dscp, dtype=np.int64), names[:max(flows[:b]) + 1]))
    return slabs


@st.composite
def named_streams(draw):
    """Up to four sources drawing their flows from NAMES, so sources share
    names and names first appear mid-slab; the packet lists and the slabs."""
    streams, sources = [], []
    for _ in range(draw(st.integers(1, 4))):
        rows = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(NAMES),
                                       st.sampled_from([64, 1500]),
                                       st.sampled_from([0, 46])), max_size=40))
        t, pkts = 0, []
        for seq, (gap, name, size, dscp) in enumerate(rows):
            t += gap * 1000
            pkts.append((t, size, name, dscp, seq))
        cuts = draw(st.sets(st.integers(1, 40), max_size=5))
        streams.append(pkts)
        sources.append(_source(pkts, cuts) if pkts else [])
    return streams, sources


@contextmanager
def segment_size(k):
    old = engine._SEGMENT_PKTS, engine._SERVE_PKTS
    engine._SEGMENT_PKTS = engine._SERVE_PKTS = k
    try:
        yield
    finally:
        engine._SEGMENT_PKTS, engine._SERVE_PKTS = old


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=named_streams(), algorithm=st.sampled_from(list(Algorithm)),
       k=st.sampled_from([1, 3, 4096]), buffer=st.integers(2, 30))
def test_flow_names_survive_the_codes(tmp_path, case, algorithm, k, buffer):
    # Sources number their own names and the merge renumbers them into one
    # table: the stream, its report, its departures and its trace file are
    # those of the same packets handed over as tuples.
    streams, sources = case
    pkts = list(ref.merge(streams))
    assert list(packets(merge_slabs(sources))) == pkts
    if not pkts:
        return
    path = tmp_path / "t.csv"
    write_trace(path, packets(merge_slabs(sources)))
    assert list(read_trace(path)) == pkts
    config = SimConfig(
        BundleConfig(n_ports=3, capacity_bps=10**10, algorithm=algorithm),
        EeePortConfig(capacity_bps=10**10, buffer_limit=buffer),
        duration_ns=pkts[-1][0] + 100_000, sampling_period_ns=20_000, warmup_ns=0,
        record_departures=True, record_delay_log=True,
        track_flows=frozenset({"\u00fc", "line\nbreak", "42", "never"}))
    with segment_size(k):
        by_codes = run(config, merge_slabs(sources))
        by_tuples = run(config, iter(pkts))
    assert by_codes.to_json() == by_tuples.to_json()
    assert sorted(by_codes.delay_log) == sorted(by_tuples.delay_log)
    assert {row[0] for row in by_codes.delay_log} <= set(NAMES)
    assert by_codes.totals["queued_end"] == 0
    departures, dropped = oracle_simulate(config, pkts)
    assert by_codes.departures == by_tuples.departures == departures
    assert by_codes.drop_seqs == by_tuples.drop_seqs == dropped


def test_merge_tie_at_slab_boundary():
    # stream 0 has three packets at t=10 split over two slabs; stream 1's
    # packet at t=10 must come after all of them, stream 2's t=5 first.
    a = [(0, 100, "a", 0, 0), (10, 100, "a", 0, 1), (10, 100, "a", 0, 2),
         (10, 100, "a", 0, 3)]
    b = [(10, 100, "b", 0, 0)]
    c = [(5, 100, "c", 0, 0), (10, 100, "c", 0, 1)]
    slabs = [[slab_of(a[:2]), slab_of(a[2:])], [slab_of(b)], [slab_of(c)]]
    got = [(t, f) for t, _, f, _, _ in packets(merge_slabs(slabs))]
    assert got == [(0, "a"), (5, "c"), (10, "a"), (10, "a"), (10, "a"),
                   (10, "b"), (10, "c")]


@pytest.mark.parametrize("slab, ppw", [(1, 4), (2, 5), (3, 7),
                                       (traffic.SLAB_PKTS, traffic.SLAB_PKTS)])
def test_merge_rounds_are_bounded_and_never_stall(slab, ppw):
    # Nine bursty sources, seven of them with no room to jitter, so that
    # their bursts start at the same instants and their packets tie: 100 B
    # ones every 80 ns, and source 0's 200 B ones on every other of those
    # instants. A round takes at most 2 * SLAB_PKTS // 9 packets from each
    # source, even where a source holds more before the horizon, and a
    # capped round ends inside the ties without losing the (time, source)
    # order.
    tight = (ppw - 1) * 80 + 1  # the window a 100 B burst fills with no jitter
    few = max(1, ppw // 8)
    args = [(few, 200, 0, (few - 1) * 160 + 1, 1, 10**10, 4 * tight, "b0")]
    args += [(ppw, 100, 0, tight if i % 3 else 3 * tight, 1, 10**10, 4 * tight, f"b{i}")
             for i in range(1, 9)]
    streams = [list(ref.bursty(*a)) for a in args]
    with slab_size(slab):
        merged = list(merge_slabs([bursty_slabs(*a) for a in args]))
    assert max(len(b.t) for b in merged) <= max(2 * slab, 9)
    assert list(packets(merged)) == list(ref.merge(streams))
    if slab == ppw:  # the first round is capped: a source has more before the horizon
        horizon = min(stream[min(slab, a[0]) - 1][0] for stream, a in zip(streams, args))
        assert max(sum(p[0] < horizon for p in stream) for stream in streams) > 2 * slab // 9


def _synthetic_sources():
    return {"cbr-flow": cbr_slabs(10**9, 100, 0, 10**6, flow="cbr-flow"),
            "frames-flow": frames_slabs(10**9, 100, 46, 10**6, 10**10, flow="frames-flow"),
            "bursty-flow": bursty_slabs(400, 100, 0, 10**6, 2, 10**10, 10**6,
                                        flow="bursty-flow")}


def test_synthetic_flow_column_shares_one_str():
    # code 0 into one table of one name
    for name, source in _synthetic_sources().items():
        slabs = list(source)
        flows = np.concatenate([slab.flow for slab in slabs])
        assert len(flows) > 1 and flows.dtype == np.int64 and not flows.any()
        assert all(slab.names is slabs[0].names == (name,) for slab in slabs)


def test_synthetic_constant_columns_are_read_only_stride_0_views():
    # a source stores only its times: size, flow and dscp are one value each
    for source in _synthetic_sources().values():
        for slab in source:
            for col in (slab.size, slab.flow, slab.dscp):
                assert col.strides == (0,) and not col.flags.writeable
                assert len(col) == len(slab.t)


@pytest.mark.parametrize("names", [["cbr-flow"], ["cbr-flow", "frames-flow", "bursty-flow"]])
def test_merge_of_views_equals_merge_of_materialized_columns(names):
    def materialized(source):
        for slab in source:
            yield Slab(slab.t, *(np.array(col) for col in slab[1:4]), slab.names)

    views = list(merge_slabs([_synthetic_sources()[name] for name in names]))
    copies = list(merge_slabs([materialized(_synthetic_sources()[name]) for name in names]))
    assert len(views) == len(copies) > 1
    for a, b in zip(views, copies):
        assert a.names == b.names
        for x, y in zip(a[:5], b[:5]):
            assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


# -- exact int64 arithmetic ----------------------------------------------------

def test_testbed_bulk_source_over_full_run():
    # 700 Mb/s of 1250 B frames for 8.5 s: 2*i*step_num reaches 1.19e19,
    # beyond int64, so the column must come from the divmod split.
    rate, size, duration = 700_000_000, 1250, 8_500_000_000
    got = _times(cbr_slabs(rate, size, 0, duration))
    want = [p[0] for p in ref.cbr(Fraction(rate), size, 0, duration)]
    assert 2 * (len(want) - 1) * size * 8 * 10**9 > 2**63
    assert got == want


def test_fractional_rate_over_full_run():
    rate, size, duration = Fraction(10**9, 3), 1250, 8_500_000_000
    got = _times(cbr_slabs(rate, size, 0, duration, 7143))
    want = [p[0] for p in ref.cbr(rate, size, 0, duration, 7143)]
    step_num = size * 8 * 10**9 * rate.denominator
    assert 2 * (len(want) - 1) * step_num > 2**63
    assert got == want


def test_rate_beyond_int64_falls_back_to_python_ints():
    rate = Fraction(10**20 + 1, 10**11)  # numerator does not fit in int64
    got = list(packets(merge_slabs([cbr_slabs(rate, 1250, 0, 1_000_000)])))
    assert got and got == list(ref.cbr(rate, 1250, 0, 1_000_000))


def test_trace_scaling_with_wide_fraction():
    times = np.array([0, 1, 999_999_999_999, 10**15], dtype=np.int64)
    frac = Fraction(0.37)  # 53-bit numerator and denominator
    got = traffic._scale_col(times, frac).tolist()
    want = [(2 * t * frac.denominator + frac.numerator) // (2 * frac.numerator)
            for t in times.tolist()]
    assert got == want


def test_stream_end_beyond_int64_is_rejected():
    with pytest.raises(ConfigError, match="int64"):
        cbr_slabs(10**9, 1250, 0, 2**63 - 10, 100)


@pytest.mark.parametrize("slab", [1, 3, traffic.SLAB_PKTS])
def test_bursty_windows_ending_at_the_int64_bound(slab):
    # Two windows of (2**63 - 1) // 2 ns end 1 ns short of 2**63 - 1; five
    # packets a window, so slabs of 3 cross the window boundary.
    window = (2**63 - 1) // 2
    args = (5, 1500, 0, window, 2, 10**10, 2 * window, "b")
    with slab_size(slab):
        got = list(packets(merge_slabs([bursty_slabs(*args)])))
    want = list(ref.bursty(*args))
    assert len(want) == 10 and want[-1][0] > 2**63 - window // 2
    assert got == want
    with pytest.raises(ConfigError, match="int64"):
        bursty_slabs(*args[:6], 2 * window + 1, "b")  # a third window


@pytest.mark.parametrize("slab", [1, 7, 64, traffic.SLAB_PKTS])
def test_frames_near_the_int64_bound_straddle_slab_ends(slab):
    # Frames of three packets, 1,200 ns apart, whose last ones end just
    # below 2**63 - 1; the slab sizes are multiples of no frame.
    offset = 2**63 - 10**7
    args = (10**9, 1500, 46, 10**7 - 2 * 1200 - 1, 10**10, offset, "fr", 3)
    with slab_size(slab):
        slabs = list(frames_slabs(*args))
        got = list(packets(merge_slabs([iter(slabs)])))
    want = list(ref.frames(*args))
    assert len(want) > 800 and want[-1][0] > 2**63 - 10**5
    assert got == want
    assert all(len(s.t) == slab for s in slabs[:-1])


@pytest.mark.parametrize("slab", [1, 7, 64])
def test_frames_far_longer_than_a_slab_compute_only_the_slab(slab):
    # 1,000 packets a frame: each slab's times are computed alone, not with
    # the rest of the frames it cuts, and match the reference
    args = (10**9, 64, 0, 2 * 10**6, 10**10, 5, "fr", 1000)
    with slab_size(slab):
        slabs = list(frames_slabs(*args))
        got = list(packets(merge_slabs([iter(slabs)])))
    want = list(ref.frames(*args))
    assert len(want) > 3000
    assert got == want
    assert all(s.t.base is None or s.t.base.size <= slab for s in slabs)


# -- build_stream --------------------------------------------------------------

def _two_source_scenario():
    # Rates 201 and 183 b/s scaled to the 1 Mb/s point: source n0 gets
    # exactly 523437.5 b/s, which rounds to 523438 (half to even); the float
    # product 523437.49999999994 would round to 523437.
    return Scenario(
        name="exact",
        sim={"n_ports": 1, "capacity_bps": 1_000_000_000,
             "sampling_period_ns": 5_000_000, "warmup_ns": 0,
             "duration_ns": 10_000_000},
        sources=[
            {"kind": "cbr", "flow": "n0", "size": 125, "dscp": 0, "rate_bps": 201},
            {"kind": "cbr", "flow": "n1", "size": 125, "dscp": 0, "rate_bps": 183},
        ],
        algorithms=["conservative"],
        normal_rates_bps=[1_000_000],
    )


def test_sweep_point_rate_is_scaled_exactly():
    scenario = _two_source_scenario()
    point = scenario.sweep_points()[0]
    assert int(round(201 * (point["normal_rate_bps"] / 384))) == 523437
    got = [p[0] for p in packets(build_stream(scenario, point)) if p[2] == "n0"]

    def ref_times(rate):
        return [p[0] for p in ref.cbr(Fraction(rate), 125, 0, 10_000_000)]

    assert got == ref_times(523438)
    assert got != ref_times(523437)


def test_integral_float_pkts_per_frame_reads_as_int():
    # 2.0 passes validation as an exact integer, so it must build as 2 does
    streams = []
    for m in (2, 2.0):
        scenario = _two_source_scenario()
        scenario.sources = [{"kind": "frames", "flow": "rt", "size": 125, "dscp": 46,
                             "rate_bps": 50_000_000, "pkts_per_frame": m}]
        scenario.normal_rates_bps = []
        scenario.validate()
        streams.append(list(packets(build_stream(scenario, scenario.sweep_points()[0]))))
    assert streams[0] and streams[0] == streams[1]


def test_build_stream_synthesizes_nothing_until_next(monkeypatch):
    # every synthetic source hands the emitter its times function; any call
    # of it is synthesis
    emit = traffic._synthetic

    def refuse(lo, hi):
        raise AssertionError("synthesized")

    monkeypatch.setattr(traffic, "_synthetic",
                        lambda n, end, times, *cols: emit(n, end, refuse, *cols))
    scenario = scenarios.qos_sweep_scenario()
    stream = build_stream(scenario, scenario.sweep_points()[0])
    with pytest.raises(AssertionError, match="synthesized"):
        next(stream)


def test_validate_builds_every_source_but_no_stream(monkeypatch, tmp_path):
    # validate checks each source by its constructor at every sweep point: it
    # builds no stream (the tracer counts one build_stream per job), merges
    # nothing, synthesizes nothing and opens no trace
    emit, emitted = traffic._synthetic, []

    def refuse(lo, hi):
        raise AssertionError("synthesized")

    def emit_refusing(n, end, times, *cols):
        emitted.append(cols[1])  # the flow
        return emit(n, end, refuse, *cols)

    def not_here(*args):
        raise AssertionError("stream built")

    monkeypatch.setattr(traffic, "_synthetic", emit_refusing)
    monkeypatch.setattr(scenarios, "build_stream", not_here)
    monkeypatch.setattr(scenarios, "merge", not_here)
    source = {"size": 1500, "dscp": 0, "rate_bps": 50_000_000}
    scenario = Scenario(
        name="every-kind",
        sim={"n_ports": 2, "capacity_bps": 1_000_000_000, "sampling_period_ns": 5_000_000,
             "warmup_ns": 5_000_000, "duration_ns": 20_000_000},
        sources=[{"kind": "trace", "path": str(tmp_path / "missing.csv")},
                 {**source, "kind": "bursty", "flow": "b"},
                 {**source, "kind": "cbr", "flow": "c"}],
        ll_source={**source, "kind": "frames", "flow": "f", "size": 125, "dscp": 46},
        algorithms=["conservative"],
        ll_rates_bps=[1_000_000, 2_000_000],
    )
    scenario.validate()  # the trace does not exist: opening it would fail here
    assert emitted == ["b", "c", "f"] * 2


def test_build_stream_calls_module_merge_once(monkeypatch):
    calls = []
    monkeypatch.setattr(scenarios, "merge", lambda sources: calls.append(sources))
    scenario = scenarios.qos_sweep_scenario()
    build_stream(scenario, scenario.sweep_points()[0])
    assert len(calls) == 1 and isinstance(calls[0], list)
    assert len(calls[0]) == len(scenario.sources) + 1


@pytest.mark.parametrize("name, period", [("qos-sweep", 1_000_000),
                                          ("testbed", 10_000_000)])
def test_report_bytes_do_not_depend_on_the_slab_size(tmp_path, name, period):
    # Serving a port's arrivals in parts is exact, and the merge order depends
    # on neither where slabs end nor where rounds end: a short run writes the
    # same files with slabs of 7 and 64 packets, the engine's windows scaled
    # with them, as with the default.
    scenario = scenarios.load_scenario(name)
    scenario.sim.update(sampling_period_ns=period, warmup_ns=period, duration_ns=3 * period)
    scenario.ll_rates_bps = scenario.ll_rates_bps[2:3]
    files = []
    for slab in (7, 64, traffic.SLAB_PKTS):
        with slab_size(slab):
            _, reports, written = run_scenario(scenario, tmp_path / str(slab), threads=1,
                                               epoch_csv=True)
        files.append({path.name: path.read_bytes() for path in written})
    assert files[0] == files[1] == files[2]
    assert all(r.totals["arrived"] > 8 * 64 and r.totals["delivered"] for r in reports)


def test_run_reads_packets_and_plain_tuples_alike():
    scenario = _two_source_scenario()
    scenario.normal_rates_bps = [200_000_000]
    config = build_sim_config(scenario, Algorithm.TWO_QUEUES.value)
    config.record_departures = True
    point = scenario.sweep_points()[0]
    pkts = list(map(traffic.Packet._make, packets(build_stream(scenario, point))))
    a = run(config, pkts)
    b = run(config, map(tuple, pkts))
    c = run(config, build_stream(scenario, point))
    assert a.to_json() == b.to_json() == c.to_json()
    assert a.departures == b.departures == c.departures
    assert a.drop_seqs == b.drop_seqs == c.drop_seqs


# -- trace parsing -------------------------------------------------------------

@pytest.mark.parametrize("slab", [1, 2, 3, 4096])
@pytest.mark.parametrize("body, line, message", [
    ("0,a,100,0\n\n5,a,40,0\n", 4, "frame size 40"),
    ("0,a,100,0\n5,a,100,0\n4,b,100,0\n", 4, "timestamp 4 earlier than previous 5"),
    # the first bad row wins, whatever kind of fault comes later
    ("0,a,100,0\n-1,a,40,0\n5,a,x,0\n", 3, "negative timestamp -1"),
    ("0,a,100,0\n3, ,100,0\n5,a,x,0\n", 3, "empty flow id"),
    ("0,a,100,0\n3,a,100,64\n9,a,100\n", 3, "dscp 64"),
    ("0,a,100,0\n3,a,100,0\n9,a,100\n", 4, "expected 4 fields"),
    ("0,a,100,0\n3,a,x,0\n1,a,40,0\n", 3, "malformed row"),
    ("0,a,100,0\n99999999999999999999,a,100,0\n", 3, "int64"),
    # line numbers count csv records; a quoted record may span lines
    ('0,"a\nb",100,0\n5,a,40,0\n', 3, "frame size 40"),
    ("0,a,100,0\n5,a\udcff,100,0\n", 3, "undecodable byte 0xff"),
    pytest.param("0,a,100,0\n5," + "x" * 200_000 + ",100,0\n", 3,
                 "field larger than field limit", id="flow-over-csv-field-limit"),
])
def test_trace_errors_name_the_first_bad_line(tmp_path, slab, body, line, message):
    path = tmp_path / "t.csv"
    path.write_bytes(("t_ns,flow,bytes,dscp\n" + body).encode("utf-8", "surrogateescape"))
    with slab_size(slab), pytest.raises(traffic.TraceError, match=message) as info:
        list(traffic.read_trace(path))
    assert f"line {line}" in str(info.value)


def test_trace_slabs_scale_and_number_in_file_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t_ns,flow,bytes,dscp\n0,a,100,0\n\n7,b,200,46\n7,a,64,0\n")
    with slab_size(2):
        assert list(traffic.read_trace(path)) == [
            (0, 100, "a", 0, 0), (7, 200, "b", 46, 1), (7, 64, "a", 0, 2)]
        assert _times(traffic.trace_slabs(path, Fraction(2))) == [0, 4, 4]


# -- bulk trace parsing against the row parser ---------------------------------

def _quoted(flow):
    return '"' + flow.replace('"', '""') + '"'


#: Arabic-Indic digits, which ``int()`` reads like ASCII ones
_ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")


def _int_field(draw, value):
    """``value`` as ``int()`` reads it: plain, signed, padded, with underscores
    or in non-ASCII digits."""
    text = draw(st.sampled_from([str(value)] * 4 + [
        f"+{value}", f"{value:_}", f"0{value}", str(value).translate(_ARABIC_DIGITS)]))
    pad = st.sampled_from(["", "", " ", "\t"])
    return draw(pad) + text + draw(pad)


#: one malformed record each, given the time of the record before it; the
#: row parser names its line
BAD_ROWS = [
    "{t},z,40,0", "{t},z,9217,0", "{t},z,100,64", "{t},z,100,-1", "-1,z,100,0",
    "{back},z,100,0", "{t},z,100", "{t},z,100,0,x", "{t},z,x,0", "{t}, ,100,0",
    "99999999999999999999,z,100,0", "{t},z,100,0#c", "{t},z\udcff,100,0", "  ",
    "{t},z,1.0,0",
]


@st.composite
def trace_texts(draw, bad):
    """Trace csv bodies with the forms that send a chunk to the row parser.

    The record ``bad`` (None for none), put at a random place, is the only
    fault, so its error is the first in the file.
    """
    flows = st.sampled_from(["a", "f#1", " b ", "c d", "\te", "\u00e9"])
    if draw(st.booleans()):
        odd = st.text(alphabet='x,"\n #', min_size=1, max_size=4).filter(str.strip)
        flows = flows | odd.map(_quoted)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines, times, t = [], [0], 0
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
        else:
            t += draw(st.sampled_from([0, 1, 7, 1000]))
            lines.append(",".join((
                _int_field(draw, t), draw(flows),
                _int_field(draw, draw(st.sampled_from([64, 100, 1500, 9216]))),
                _int_field(draw, draw(st.sampled_from([0, 46, 63]))))))
        times.append(t)
    if bad is not None:
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, bad.format(t=times[at], back=times[at] - 1))
    return "".join(line + eol for line in lines)


def _outcome(parse, path):
    """Columns of ``parse(path)``'s slabs as lists, or its TraceError message."""
    try:
        slabs = list(parse(path))
    except traffic.TraceError as exc:
        return str(exc)
    assert all(0 < len(s.t) <= traffic.SLAB_PKTS for s in slabs)
    assert all(col.dtype == np.int64 for s in slabs for col in (s.t, s.size, s.dscp))
    cols = [np.concatenate(c).tolist() for c in zip(*(s[:4] for s in slabs))]
    if cols:  # flows by name: the slabs of one read share its table
        cols[2] = [slabs[-1].names[code] for code in cols[2]]
    return cols


def _row_parse(path):
    """The row parser over the whole file: at most one slab."""
    with open(path, newline="", errors="surrogateescape") as fh:
        lines = fh.readlines()[1:]
        slab = coded(*traffic._parse_rows(traffic._chunk_rows(lines, fh, 1, -1), 1, -1))
    return [slab] if len(slab.t) else []


@pytest.mark.parametrize("bad", [None] + BAD_ROWS)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_trace_slabs_match_the_row_parser(tmp_path, bad, data):
    path = tmp_path / "t.csv"
    body = data.draw(trace_texts(bad))
    path.write_bytes(("t_ns,flow,bytes,dscp\n" + body).encode("utf-8", "surrogateescape"))
    want = _outcome(_row_parse, path)
    for slab in (1, 2, 3, 4096):
        with slab_size(slab):
            assert _outcome(traffic.trace_slabs, path) == want, slab


def _loadtxt_float_fallback(lines, **kwargs):
    """``np.loadtxt`` as numpy 1.23-1.26 reads an integer field that ``int()``
    refuses but ``float()`` reads: truncated, with a DeprecationWarning."""
    fixed = []
    for line in lines:
        t, flow, size, dscp = line.split(",")
        fields = []
        for field in (t, size, dscp.rstrip("\r\n")):
            try:
                int(field)
            except ValueError:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                field = str(int(float(field)))
            fields.append(field)
        fixed.append(",".join((fields[0], flow, fields[1], fields[2])) + "\n")
    return _REAL_LOADTXT(fixed, **kwargs)


_REAL_LOADTXT = np.loadtxt


@pytest.mark.parametrize("loadtxt", [_REAL_LOADTXT, _loadtxt_float_fallback],
                         ids=["installed", "numpy1-float-fallback"])
@pytest.mark.parametrize("row", ["5.0,a,100,0", "5,a,1e2,0", "5,a,100,7.9"])
def test_float_integer_field_is_malformed_at_default_warning_filter(
        tmp_path, monkeypatch, loadtxt, row):
    path = tmp_path / "t.csv"
    path.write_text(f"t_ns,flow,bytes,dscp\n0,a,100,0\n{row}\n")
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(traffic.TraceError, match="malformed row") as info:
            list(traffic.trace_slabs(path))
    assert "line 3" in str(info.value)
