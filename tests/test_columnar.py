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
from eeesim import Algorithm, run
from eeesim import scenarios, traffic
from eeesim.errors import ConfigError
from eeesim.scenarios import Scenario, build_sim_config, build_stream
from eeesim.traffic import Slab, cbr_slabs, gen_bursty, gen_cbr, gen_frames, merge

SLAB_SIZES = st.sampled_from([1, 2, 3, 7, 64, traffic.SLAB_PKTS])
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@contextmanager
def slab_size(n):
    old = traffic.SLAB_PKTS
    traffic.SLAB_PKTS = n
    try:
        yield
    finally:
        traffic.SLAB_PKTS = old


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
        got = list(gen_cbr(rate, size, 46, duration, offset, "c"))
    assert got == list(ref.gen_cbr(Fraction(rate), size, 46, duration, offset, "c"))


@SETTINGS
@given(data=st.data(), slab=SLAB_SIZES)
def test_frames_matches_reference(data, slab):
    rate = data.draw(st.integers(10**5, 4 * 10**9))
    line = data.draw(st.sampled_from([10**9, 10**10, 4 * 10**10]).filter(
        lambda x: x >= rate) | st.just(rate))
    size = data.draw(st.integers(64, 1500))
    m = data.draw(st.one_of(st.none(), st.integers(1, 5)))
    offset = data.draw(st.integers(0, 10**4))
    frame_ns = (m or max(1, -(-rate // 10**8))) * size * 8 * 10**9 // rate
    duration = data.draw(st.integers(1, 40 * frame_ns + 100))
    args = (rate, size, 0, duration, line, offset, "fr", m)
    with slab_size(slab):
        got = list(gen_frames(*args))
    assert got == list(ref.gen_frames(*args))


@SETTINGS
@given(data=st.data(), slab=SLAB_SIZES)
def test_bursty_matches_reference(data, slab):
    ppw = data.draw(st.integers(1, 300))
    bursts = data.draw(st.integers(1, 20))
    size = data.draw(st.sampled_from([64, 125, 1500]))
    line = data.draw(st.sampled_from([10**9, 10**10, 4 * 10**10]))
    intra = (2 * size * 8 * 10**9 + line) // (2 * line)
    chunk = -(-ppw // bursts)
    window = data.draw(st.integers(bursts * ((chunk - 1) * intra + 1), 10**6))
    duration = data.draw(st.integers(1, 4 * window))
    args = (ppw, size, 0, window, bursts, line, duration, "b")
    with slab_size(slab):
        got = list(gen_bursty(*args))
    assert got == list(ref.gen_bursty(*args))


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
        slabs = [traffic._take(_slab_of(pkts), slice(a, b))
                 for a, b in zip(bounds, bounds[1:])] if pkts else []
        streams.append(pkts)
        slabbed.append(slabs)
    return streams, slabbed


def _slab_of(pkts):
    t, size, flow, dscp, _ = zip(*pkts)
    return Slab(np.array(t, dtype=np.int64), np.array(size, dtype=np.int64),
                np.array(flow, dtype=object), np.array(dscp, dtype=np.int64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=split_streams(), slab=SLAB_SIZES)
def test_merge_matches_heap_merge(case, slab):
    streams, slabbed = case
    expected = list(ref.merge(streams))
    with slab_size(slab):
        assert list(traffic.merge_slabs(slabbed)) == expected
        assert list(merge(streams)) == expected


def test_merge_tie_at_slab_boundary():
    # stream 0 has three packets at t=10 split over two slabs; stream 1's
    # packet at t=10 must come after all of them, stream 2's t=5 first.
    a = [(0, 100, "a", 0, 0), (10, 100, "a", 0, 1), (10, 100, "a", 0, 2),
         (10, 100, "a", 0, 3)]
    b = [(10, 100, "b", 0, 0)]
    c = [(5, 100, "c", 0, 0), (10, 100, "c", 0, 1)]
    slabs = [[_slab_of(a[:2]), _slab_of(a[2:])], [_slab_of(b)], [_slab_of(c)]]
    got = [(t, f) for t, _, f, _, _ in traffic.merge_slabs(slabs)]
    assert got == [(0, "a"), (5, "c"), (10, "a"), (10, "a"), (10, "a"),
                   (10, "b"), (10, "c")]


# -- exact int64 arithmetic ----------------------------------------------------

def test_testbed_bulk_source_over_full_run():
    # 700 Mb/s of 1250 B frames for 8.5 s: 2*i*step_num reaches 1.19e19,
    # beyond int64, so the column must come from the divmod split.
    rate, size, duration = 700_000_000, 1250, 8_500_000_000
    got = _times(cbr_slabs(rate, size, 0, duration))
    want = [p[0] for p in ref.gen_cbr(Fraction(rate), size, 0, duration)]
    assert 2 * (len(want) - 1) * size * 8 * 10**9 > 2**63
    assert got == want


def test_fractional_rate_over_full_run():
    rate, size, duration = Fraction(10**9, 3), 1250, 8_500_000_000
    got = _times(cbr_slabs(rate, size, 0, duration, 7143))
    want = [p[0] for p in ref.gen_cbr(rate, size, 0, duration, 7143)]
    step_num = size * 8 * 10**9 * rate.denominator
    assert 2 * (len(want) - 1) * step_num > 2**63
    assert got == want


def test_rate_beyond_int64_falls_back_to_python_ints():
    rate = Fraction(10**20 + 1, 10**11)  # numerator does not fit in int64
    got = list(gen_cbr(rate, 1250, 0, 1_000_000))
    assert got and got == list(ref.gen_cbr(rate, 1250, 0, 1_000_000))


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
    got = [p[0] for p in build_stream(scenario, point) if p[2] == "n0"]

    def ref_times(rate):
        return [p[0] for p in ref.gen_cbr(Fraction(rate), 125, 0, 10_000_000)]

    assert got == ref_times(523438)
    assert got != ref_times(523437)


def test_build_stream_synthesizes_nothing_until_next(monkeypatch):
    def refuse(*args):
        raise AssertionError("synthesized")

    monkeypatch.setattr(traffic, "_const_slab", refuse)
    scenario = scenarios.qos_sweep_scenario()
    stream = build_stream(scenario, scenario.sweep_points()[0])
    with pytest.raises(AssertionError, match="synthesized"):
        next(stream)


def test_build_stream_calls_module_merge_once(monkeypatch):
    calls = []
    monkeypatch.setattr(scenarios, "merge", lambda sources: calls.append(sources))
    scenario = scenarios.qos_sweep_scenario()
    build_stream(scenario, scenario.sweep_points()[0])
    assert len(calls) == 1 and isinstance(calls[0], list)
    assert len(calls[0]) == len(scenario.sources) + 1


def test_run_reads_packets_and_plain_tuples_alike():
    scenario = _two_source_scenario()
    scenario.normal_rates_bps = [200_000_000]
    config = build_sim_config(scenario, Algorithm.TWO_QUEUES.value)
    config.record_departures = True
    point = scenario.sweep_points()[0]
    packets = list(map(traffic.Packet._make, build_stream(scenario, point)))
    a = run(config, packets)
    b = run(config, map(tuple, packets))
    assert a.to_json() == b.to_json()
    assert a.departures == b.departures and a.drop_seqs == b.drop_seqs


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
    assert all(col.dtype == dtype for s in slabs
               for col, dtype in zip(s, (np.int64, np.int64, object, np.int64)))
    return [np.concatenate(cols).tolist() for cols in zip(*slabs)]


def _row_parse(path):
    """The row parser over the whole file: at most one slab."""
    with open(path, newline="", errors="surrogateescape") as fh:
        lines = fh.readlines()[1:]
        slab = traffic._parse_rows(traffic._chunk_rows(lines, fh, 1, -1), 1, -1)
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
