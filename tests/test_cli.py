"""Command-line harness: trace tooling, scenario runs, exit codes."""

import hashlib
import json
import shutil

import pytest

from eeesim import cli, read_trace
from eeesim.cli import main, parse_rate, parse_time
from eeesim.errors import ConfigError
from eeesim.scenarios import Scenario, load_scenario, run_point


@pytest.fixture(autouse=True)
def serial_pool(monkeypatch):
    monkeypatch.setenv("EEESIM_THREADS", "1")


def test_parse_rate_units():
    assert parse_rate("100M") == 100_000_000
    assert parse_rate("6.5G") == 6_500_000_000
    assert parse_rate("512") == 512
    assert parse_rate("20kbps") == 20_000
    with pytest.raises(ConfigError):
        parse_rate("fast")
    with pytest.raises(ConfigError):
        parse_rate("-3M")


def test_parse_time_units():
    assert parse_time("1s") == 1_000_000_000
    assert parse_time("500ms") == 500_000_000
    assert parse_time("250us") == 250_000
    assert parse_time("40ns") == 40
    assert parse_time("12345") == 12345
    with pytest.raises(ConfigError):
        parse_time("soon")


def test_parse_keeps_todays_integers():
    assert parse_rate("100M") == 100_000_000
    assert parse_rate("2.5G") == 2_500_000_000
    assert parse_rate("2.5") == 2  # half to even, as before
    assert parse_time("500ms") == 500_000_000
    assert parse_time("250us") == 250_000
    assert parse_time("40") == 40


def test_parse_rate_is_exact():
    for text in ("nan", "inf", "-inf", "1/0"):
        with pytest.raises(ConfigError, match=repr(text)):
            parse_rate(text)
    assert parse_rate("1e400") == 10**400
    with pytest.raises(ConfigError, match="'0.0000000001'"):
        parse_rate("0.0000000001")  # rounds to 0 b/s
    assert parse_rate("0.5000000001") == 1


def test_parse_time_is_exact():
    with pytest.raises(ConfigError, match="'infs'"):
        parse_time("infs")
    assert parse_time("1e30s") == 10**39
    assert parse_time("0.1s") == 100_000_000
    with pytest.raises(ConfigError, match="'-5ms'"):
        parse_time("-5ms")
    with pytest.raises(ConfigError, match="'-5'"):
        parse_time("-5")


def test_gen_writes_expected_row_count(tmp_path):
    out = tmp_path / "cbr.csv"
    rc = main(["gen", "--rate", "100M", "--size", "125", "--dscp", "46",
               "--duration", "1s", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_ns,flow,bytes,dscp"
    assert len(lines) == 100_001  # header + one packet every 10 us
    assert lines[1] == "0,cbr,125,46"
    assert lines[2] == "10000,cbr,125,46"


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["gen", "--rate", "3M", "--size", "125", "--duration", "10ms",
              "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_scale_halves_timestamps(tmp_path):
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    main(["gen", "--rate", "1M", "--size", "125", "--duration", "10ms",
          "--out", str(src)])
    rc = main(["scale", str(src), "--factor", "2", "--out", str(dst)])
    assert rc == 0
    orig = list(read_trace(src))
    scaled = list(read_trace(dst))
    assert [p[0] for p in scaled] == [p[0] // 2 for p in orig]


def test_scale_factor_is_exact(tmp_path):
    # 10**15 ns / float(0.1) lands 0.55 ns short of 10**16 and rounds down
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("t_ns,flow,bytes,dscp\n1000000000000000,a,64,0\n")
    assert main(["scale", str(src), "--factor", "0.1", "--out", str(dst)]) == 0
    assert [p[0] for p in read_trace(dst)] == [10**16]


def test_merge_produces_ordered_union(tmp_path):
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "m.csv"
    main(["gen", "--rate", "1M", "--size", "125", "--duration", "5ms",
          "--flow", "fa", "--out", str(a)])
    main(["gen", "--rate", "1M", "--size", "125", "--duration", "5ms",
          "--offset", "100us", "--flow", "fb", "--out", str(b)])
    rc = main(["merge", str(a), str(b), "--out", str(out)])
    assert rc == 0
    merged = list(read_trace(out))
    assert len(merged) == len(list(read_trace(a))) + len(list(read_trace(b)))
    times = [p[0] for p in merged]
    assert times == sorted(times)
    assert [p[4] for p in merged] == list(range(len(merged)))


#: flow keys that need csv quoting or are not ASCII, and same-time rows
_PIN_A = ('t_ns,flow,bytes,dscp\n0,"a,b",100,0\n0,"q""x",64,46\n5,é,1500,0\n'
          '5,plain,200,63\n12,"line\nbreak",9216,1\n3000000001,ü,125,46\n')
_PIN_B = ('t_ns,flow,bytes,dscp\n0,b0,100,0\n5,"x,y",64,0\n7,ß,1500,46\n'
          '12,"z""",200,0\n')


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_trace_tools_write_pinned_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_bytes(_PIN_A.encode())
    b.write_bytes(_PIN_B.encode())
    runs = {
        "gen": ["gen", "--rate", "997331", "--size", "125", "--dscp", "46",
                "--duration", "20ms", "--offset", "7ns", "--flow", "g,ü"],
        "scale2": ["scale", str(a), "--factor", "2"],
        "scale3/7": ["scale", str(a), "--factor", "3/7"],
        "merge": ["merge", str(a), str(b), str(a)],
    }
    digests = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name.replace('/', '_')}.out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        digests[name] = _sha256(out)
    assert digests == {
        "gen": "ab7db554ec3bb35a3bf869a1442b33d41a48854cfffd1c6a3f311bc73c60deed",
        "scale2": "801d64ddc329fca79dcf1074d1924f7bda12c1629a7b7ccc89688b4fe4d2908f",
        "scale3/7": "238615b6fe625f9a9ba97d9cece1dceca3a4608093490dd514b62f0881220219",
        "merge": "58a8efb476213704debf8f1c27b47a56204d529fe6ba3d81490cfc327f05f999",
    }


def _tiny_scenario(tmp_path, **extra):
    doc = {
        "name": "tiny",
        "sim": {
            "n_ports": 2,
            "capacity_bps": 1_000_000_000,
            "sampling_period_ns": 5_000_000,
            "warmup_ns": 5_000_000,
            "duration_ns": 20_000_000,
        },
        "sources": [
            {"kind": "cbr", "flow": "bulk", "size": 1500, "dscp": 0,
             "rate_bps": 50_000_000},
        ],
        "ll_source": {"kind": "frames", "flow": "rt", "size": 125, "dscp": 46,
                      "line_rate_bps": 1_000_000_000},
        "algorithms": ["conservative", "two_queues"],
        "ll_rates_bps": [1_000_000],
    }
    doc.update(extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_scenario_writes_reports_and_csv(tmp_path, capsys):
    path = _tiny_scenario(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--output-dir", str(out_dir)])
    assert rc == 0
    csv_path = out_dir / "combined.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("algorithm,ll_rate_bps,normal_rate_bps,"
                        "mean_delay_normal_us,mean_delay_ll_us,"
                        "normalized_energy,drops_normal,drops_ll,"
                        "mean_active_ports")
    assert len(lines) == 3  # 2 algorithms x 1 sweep point
    report_files = sorted(p.name for p in out_dir.glob("*.json"))
    assert report_files == [
        "conservative-ll1000000-n50000000.json",
        "two_queues-ll1000000-n50000000.json",
    ]
    payload = json.loads((out_dir / report_files[0]).read_text())
    assert payload["algorithm"] == "conservative"


def test_run_rerun_overwrites_identical_bytes(tmp_path):
    path = _tiny_scenario(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", str(path), "--output-dir", str(out_dir)])
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    main(["run", str(path), "--output-dir", str(out_dir)])
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second


def test_run_set_override_changes_duration(tmp_path, capsys):
    path = _tiny_scenario(tmp_path)
    rc = main(["run", str(path), "--set", "sim.duration_ns=30000000",
               "--dump-scenario"])
    assert rc == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["sim"]["duration_ns"] == 30_000_000


def test_run_set_float_warmup_reports_integers(tmp_path, capsys):
    path = _tiny_scenario(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--set", "sim.warmup_ns=1e7",
               "--set", 'algorithms=["conservative"]', "--output-dir", str(out_dir)])
    assert rc == 0
    payload = json.loads((out_dir / "conservative-ll1000000-n50000000.json").read_text())
    assert type(payload["warmup_ns"]) is int and payload["warmup_ns"] == 10_000_000
    assert all(type(ns) is int for ns in payload["energy_by_state_ns"].values())


def test_run_set_non_integral_time_exits_2(tmp_path, capsys):
    path = _tiny_scenario(tmp_path)
    assert main(["run", str(path), "--set", "sim.t_wake_ns=4480.7"]) == 2
    assert "sim.t_wake_ns must be an integer" in capsys.readouterr().err


def test_run_without_sources_exits_2(tmp_path, capsys):
    path = _tiny_scenario(tmp_path, sources=[], ll_source=None, ll_rates_bps=[])
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_run_unknown_scenario_exits_2(capsys):
    assert main(["run", "no-such-scenario.json"]) == 2


def test_run_epoch_csv_flag(tmp_path):
    path = _tiny_scenario(tmp_path, algorithms=["conservative"])
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--output-dir", str(out_dir), "--epoch-csv"])
    assert rc == 0
    epochs = list(out_dir.glob("*.epochs.csv"))
    assert len(epochs) == 1
    assert epochs[0].read_text().startswith("epoch_ns,active_ports")


def test_report_renders_run_output(tmp_path, capsys):
    path = _tiny_scenario(tmp_path, algorithms=["conservative"])
    out_dir = tmp_path / "out"
    main(["run", str(path), "--output-dir", str(out_dir)])
    capsys.readouterr()
    report = next(out_dir.glob("*.json"))
    rc = main(["report", str(report)])
    assert rc == 0
    rendered = capsys.readouterr().out
    assert "normalized energy" in rendered
    assert "delay low_latency" in rendered


def test_report_renders_like_to_text(tmp_path, capsys):
    path = _tiny_scenario(tmp_path, algorithms=["conservative"])
    scenario = load_scenario(str(path))
    scenario.sim["track_flows"] = ["rt", "ghost"]  # ghost sends nothing
    report = run_point(scenario, "conservative",
                       scenario.sweep_points()[0])
    report_path = tmp_path / "report.json"
    report_path.write_text(report.to_json() + "\n")
    assert main(["report", str(report_path)]) == 0
    rendered = capsys.readouterr().out
    assert rendered == f"== {report_path}\n" + report.to_text()
    assert "measured window" in rendered
    assert "flow ghost" in rendered and "no packets" in rendered


def test_report_on_missing_file_exits_2(capsys):
    assert main(["report", "missing.json"]) == 2


def test_report_on_foreign_json_exits_2(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text('{"algorithm": "conservative"}')
    assert main(["report", str(path)]) == 2
    assert "not an eeesim report" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_progress_goes_to_stderr_only(tmp_path, capsys, threads):
    path = _tiny_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--threads", threads,
                 "--output-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    written = [out_dir / name for name in (
        "conservative-ll1000000-n50000000.json",
        "two_queues-ll1000000-n50000000.json", "combined.csv")]
    assert captured.out == "".join(f"{p}\n" for p in written)
    scenario = load_scenario(str(path))
    point = scenario.sweep_points()[0]
    for alg, report_path in zip(("conservative", "two_queues"), written):
        direct = run_point(scenario, alg, point)
        assert report_path.read_text() == direct.to_json() + "\n"
    lines = captured.err.splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "tiny: 1/2 points done", "tiny: 2/2 points done"]
    assert all(line.endswith(" s") for line in lines)


def test_simulation_fault_exits_3(tmp_path, monkeypatch, capsys):
    from eeesim.errors import SimulationFault
    import eeesim.cli as cli_mod

    def boom(*args, **kwargs):
        raise SimulationFault("invariant violated")

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    path = _tiny_scenario(tmp_path)
    assert main(["run", str(path)]) == 3
    assert "simulation fault" in capsys.readouterr().err


def test_mininet_scenario_command_smoke(tmp_path, capsys):
    # Shortened run: exercises the subcommand end to end (three algorithms,
    # probe table, report files); probe statistics need the full duration
    # and are covered by the acceptance suite.
    out_dir = tmp_path / "out"
    rc = main(["mininet-scenario", "--duration", "1.6s",
               "--output-dir", str(out_dir)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "probe delay normal" in printed
    lines = (out_dir / "combined.csv").read_text().splitlines()
    assert len(lines) == 4  # header + conservative, spare_port, two_queues


def test_mininet_scenario_shorter_than_its_warmup_exits_2_before_any_output(
        tmp_path, capsys):
    # 1 s ends before the testbed's 1.5 s warm-up
    out_dir = tmp_path / "out"
    rc = main(["mininet-scenario", "--duration", "1s", "--output-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sim.warmup_ns" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_trace_substitution(tmp_path, capsys):
    trace = tmp_path / "replay.csv"
    main(["gen", "--rate", "40M", "--size", "1500", "--duration", "20ms",
          "--flow", "cap0", "--out", str(trace)])
    path = _tiny_scenario(tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["run", str(path), "--trace", str(trace),
               "--output-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "combined.csv").exists()


def test_run_profile_writes_loadable_dump(tmp_path, capsys):
    import pstats

    path = _tiny_scenario(tmp_path)
    plain_dir, prof_dir = tmp_path / "plain", tmp_path / "prof"
    assert main(["run", str(path), "--threads", "1",
                 "--output-dir", str(plain_dir)]) == 0
    plain_out = capsys.readouterr().out
    dump = tmp_path / "run.prof"
    assert main(["run", str(path), "--threads", "1", "--profile", str(dump),
                 "--output-dir", str(prof_dir)]) == 0
    prof_out = capsys.readouterr().out
    # nothing extra on stdout and the same report bytes
    assert prof_out == plain_out.replace(str(plain_dir), str(prof_dir))
    assert {p.name: p.read_bytes() for p in prof_dir.iterdir()} == {
        p.name: p.read_bytes() for p in plain_dir.iterdir()
    }
    stats = pstats.Stats(str(dump))
    assert any(func[2] == "run" and func[0].endswith("engine.py")
               for func in stats.stats)


def test_trace_scale_is_exact_fraction(tmp_path, capsys):
    trace = tmp_path / "replay.csv"
    main(["gen", "--rate", "40M", "--size", "1500", "--duration", "20ms",
          "--flow", "cap0", "--out", str(trace)])
    path = _tiny_scenario(tmp_path)
    capsys.readouterr()
    rc = main(["run", str(path), "--trace", str(trace), "--trace-scale", "0.1",
               "--dump-scenario"])
    assert rc == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["sources"][0]["scale"] == "1/10"


def test_trace_scale_without_trace_exits_2(tmp_path, capsys):
    path = _tiny_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--trace-scale", "7", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--trace-scale" in err and "--trace:" in err
    assert not out.exists()


def _exit_code(argv):
    """main()'s return code, or argparse's exit code for a bad option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _bad_trace(tmp_path, case):
    """Path and trace-scale of a trace input that must exit 2, and the message."""
    if case == "missing":
        path = tmp_path / "missing.csv"
        return path, "1", f"cannot read trace {path}: No such file or directory"
    path = tmp_path / "trace.csv"
    if case == "not-a-number":  # refused by argparse, before the trace is read
        return path, "x", "not a number: 'x'"
    if case == "bad-byte":
        path.write_bytes(b"t_ns,flow,bytes,dscp\n0,a,1500,0\n5,a\xff,1500,0\n")
        return path, "1", "line 3: undecodable byte 0xff"
    main(["gen", "--rate", "40M", "--size", "1500", "--duration", "20ms",
          "--out", str(path)])
    return path, "1/0", "zero denominator: '1/0'"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", ["missing", "bad-byte", "zero-denominator", "not-a-number"])
def test_run_bad_trace_exits_2(tmp_path, capsys, threads, case):
    trace, scale, message = _bad_trace(tmp_path, case)
    path = _tiny_scenario(tmp_path)
    capsys.readouterr()
    assert _exit_code(["run", str(path), "--trace", str(trace), "--trace-scale", scale,
                       "--threads", threads, "--output-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", ["missing", "bad-byte", "zero-denominator", "not-a-number"])
def test_scale_bad_trace_exits_2(tmp_path, capsys, case):
    trace, factor, message = _bad_trace(tmp_path, case)
    capsys.readouterr()
    assert _exit_code(["scale", str(trace), "--factor", factor,
                       "--out", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, case", [
    ("scale", "missing"), ("scale", "bad-byte"), ("scale", "zero-denominator"),
    ("merge", "missing"), ("merge", "bad-byte"),
])
def test_failing_input_leaves_out_unchanged(tmp_path, capsys, command, case):
    trace, factor, _ = _bad_trace(tmp_path, case)
    out = tmp_path / "out.csv"
    out.write_bytes(b"t_ns,flow,bytes,dscp\n1,keep,64,0\n")
    before = sorted(tmp_path.iterdir())
    argv = (["scale", str(trace), "--factor", factor] if command == "scale"
            else ["merge", str(out), str(trace)])
    assert _exit_code(argv + ["--out", str(out)]) == 2
    assert out.read_bytes() == b"t_ns,flow,bytes,dscp\n1,keep,64,0\n"
    assert sorted(tmp_path.iterdir()) == before  # no temporary file left


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.csv"
    assert main(["gen", "--rate", "1M", "--duration", "1ms", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write trace {out}: No such file or directory" in err
    assert "Traceback" not in err


def test_scale_in_place_matches_scale_to_another_file(tmp_path, capsys):
    trace, other = tmp_path / "x.csv", tmp_path / "y.csv"
    main(["gen", "--rate", "997331", "--size", "125", "--duration", "20ms",
          "--out", str(trace)])
    assert main(["scale", str(trace), "--factor", "2", "--out", str(other)]) == 0
    assert main(["scale", str(trace), "--factor", "2", "--out", str(trace)]) == 0
    assert trace.read_bytes() == other.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "y.csv"]


_CBR = {"kind": "cbr", "flow": "bulk", "dscp": 0, "rate_bps": 50_000_000}
_TRACE = {"kind": "trace", "path": "t.csv"}
_FRAMES = {**_CBR, "kind": "frames", "size": 125}
_BURSTY = {**_CBR, "kind": "bursty", "size": 1500}


@pytest.mark.parametrize("doc, argv, message", [
    ({"sources": [_CBR]}, [], "sources[0] (cbr) needs field 'size'"),
    ({"sources": [{**_CBR, "size": "big"}]}, [], "sources[0].size must be an integer"),
    ({"sources": [{"kind": "trace"}]}, [], "sources[0] (trace) needs field 'path'"),
    ({}, ["--set", "sim.ll_dscps=46"], "sim.ll_dscps must be a list"),
    ({}, ["--set", "sources=5"], "sources must be a list"),
    ({}, ["--set", 'sim.bound_fraction="x"'], "sim.bound_fraction must be a number"),
    ({}, ["--set", 'algorithms="two_queues"'], "algorithms must be a list"),
    ({}, ["--set", 'algorithms=["nope"]'], "unknown algorithm 'nope'"),
    ({}, ["--set", 'sim.track_flows="probe-ll"'], "sim.track_flows must be a list"),
    ({"sources": [{**_TRACE, "path": 999_999}]}, [], "sources[0].path must be a string"),
    ({"sources": [{**_TRACE, "path": ["t.csv"]}]}, [], "sources[0].path must be a string"),
    ({"sources": [{**_TRACE, "scale": "x"}]}, [], "sources[0].scale must be a positive"),
    ({"sources": [{**_TRACE, "scale": "1/0"}]}, [], "sources[0].scale must be a positive"),
    ({"sources": [{**_TRACE, "scale": [2]}]}, [], "sources[0].scale must be a positive"),
    ({"sources": [{**_TRACE, "scale": True}]}, [], "sources[0].scale must be a positive"),
    ({"sources": [{**_FRAMES, "pkts_per_frame": 0}]}, [],
     "sources[0].pkts_per_frame must be >= 1"),
    ({"sources": [{**_FRAMES, "pkts_per_frame": -1}]}, [],
     "sources[0].pkts_per_frame must be >= 1"),
    ({"sources": [{**_BURSTY, "burst_pkts": 0}]}, [], "sources[0].burst_pkts must be >= 1"),
    ({"sources": [{**_BURSTY, "burst_pkts": -5}]}, [], "sources[0].burst_pkts must be >= 1"),
    ({"sources": [{**_CBR, "size": 1500, "dscp": True}]}, [],
     "sources[0].dscp must be an integer"),
    ({}, ["--set", "sim.n_ports=true"], "sim.n_ports must be an integer"),
    ({}, ["--set", "sim.warmup_ns=true"], "sim.warmup_ns must be an integer"),
    ({}, ["--set", "sim.ll_dscps=[99]"], "sim.ll_dscps: dscp 99 outside [0, 63]"),
    ({}, ["--set", "sim.track_flows=[[1]]"], "sim.track_flows entries must be strings"),
    ({}, ["--set", "sim.p_lpi=true"], "sim.p_lpi must be a number"),
    ({}, ["--set", "sim.p_active=true"], "sim.p_active must be a number"),
    ({}, ["--set", "sim.bound_fraction=false"], "sim.bound_fraction must be a number"),
    ({"ll_rates_bps": [], "ll_source": None}, ["--set", 'normal_rates_bps=["x"]'],
     "normal_rates_bps must be an integer"),
    ({}, ["--set", 'll_rates_bps=[1000000, 2.5]'], "ll_rates_bps must be an integer"),
    ({}, ["--set", "sim.bound_fraction=2"], "sim.bound_fraction must be in (0, 1]"),
    ({}, ["--set", "sim.p_lpi=3"], "0 <= sim.p_lpi <= sim.p_active"),
    ({}, ["--set", "sim.n_ports=0", "--threads", "2"], "sim.n_ports must be >= 1"),
    ({}, ["--set", "sim.buffer_limit=0"], "sim.buffer_limit must be >= 1"),
    ({}, ["--set", "sim.sampling_period_ns=0"], "sim.sampling_period_ns must be positive"),
    ({}, ["--set", "sim.capacity_bps=0"], "sim.capacity_bps must be positive, got 0"),
    ({}, ["--set", "sim.duration_ns=0"], "sim.duration_ns must be positive"),
    # a source's values are checked by its constructor before anything is written
    ({"sources": [{**_CBR, "size": 10}]}, [],
     "sources[0]: frame size 10 outside [64, 9216] bytes"),
    ({"sources": [{**_CBR, "size": 1500, "rate_bps": 0}]}, [],
     "sources[0]: rate must be positive, got 0"),
    ({"sources": [{**_FRAMES, "line_rate_bps": 1_000_000}]}, [],
     "sources[0]: line rate below mean rate"),
    ({"sources": [{**_CBR, "size": 1500, "offset_ns": -1}]}, [],
     "sources[0]: start offset must be non-negative, got -1"),
    ({"sources": [{**_CBR, "size": 1500}, {**_BURSTY, "dscp": 99}]}, [],
     "sources[1]: dscp 99 outside [0, 63]"),
    ({"sources": [{**_BURSTY, "rate_bps": 1000}]}, [],
     "sources[0]: rate too low for one packet per window"),
    ({"sources": [{**_BURSTY, "size": 0}]}, [],
     "sources[0]: frame size 0 outside [64, 9216] bytes"),
    ({"sources": [{**_BURSTY, "line_rate_bps": 0}]}, [],
     "sources[0]: line rate must be positive, got 0"),
    ({"ll_rates_bps": [1_000_000, 2_000_000_000]}, [],
     "ll_source: line rate below mean rate"),
    ({"sources": [_TRACE], "ll_source": None, "ll_rates_bps": [],
      "normal_rates_bps": [1_000_000]}, [],
     "normal-rate sweep needs sources with rate_bps"),
    ({}, ["--set", "sim=5"], "sim must be an object, got 5"),
    ({}, ["--set", "algorithms=[]"], "scenario 'tiny' lists no algorithms"),
    ({"ll_source": None}, [], "ll_rates_bps sweep needs an ll_source template"),
    ({"normal_rates_bps": [1_000_000]}, [], "only one sweep axis is supported"),
    ({}, ["--set", "sim.n_ports"], "--set expects key=value, got 'sim.n_ports'"),
    ({}, ["--set", "sim.n_ports.x=1"], "--set: 'sim.n_ports.x' does not address a scenario"),
    ({}, ["--set", "nope=1"], "unknown scenario fields: ['nope']"),
    ({}, ["--set", "sim.bound_fraction=half"],
     "sim.bound_fraction must be a number, got 'half'"),  # not JSON: kept as text
], ids=["no-size", "size-big", "trace-no-path", "ll-dscps-int", "sources-int",
        "bound-fraction-str", "algorithms-str", "algorithm-unknown", "track-flows-str",
        "trace-path-int", "trace-path-list", "scale-str", "scale-zero-denominator",
        "scale-list", "scale-bool", "pkts-per-frame-0", "pkts-per-frame-negative",
        "burst-pkts-0", "burst-pkts-negative", "dscp-bool", "n-ports-bool",
        "warmup-bool", "ll-dscp-99", "track-flows-nested", "p-lpi-bool", "p-active-bool",
        "bound-fraction-bool", "normal-rates-str", "ll-rates-float", "bound-fraction-2",
        "p-lpi-3", "n-ports-0-on-a-pool", "buffer-limit-0", "sampling-period-0",
        "capacity-0", "duration-0",
        "size-10", "rate-0", "line-rate-below-rate", "offset-negative", "dscp-99",
        "bursty-rate-too-low", "bursty-size-0", "bursty-line-rate-0",
        "ll-source-bad-at-one-rate", "normal-sweep-no-rates",
        "sim-int", "algorithms-empty", "ll-rates-no-ll-source", "two-sweep-axes",
        "set-no-equals", "set-not-a-field", "set-unknown-field", "set-raw-text"])
def test_run_bad_scenario_field_exits_2(tmp_path, capsys, doc, argv, message):
    path = _tiny_scenario(tmp_path, **doc)
    out = tmp_path / "out"
    assert _exit_code(["run", str(path), *argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where, threads", [
    ("under-a-file", "1"), ("under-a-file", "2"), ("combined-is-a-dir", "1")])
def test_run_unwritable_output_exits_2(tmp_path, capsys, where, threads):
    path = _tiny_scenario(tmp_path)
    if where == "under-a-file":
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "out"
        bad, reason = out, "Not a directory"
    else:
        out = tmp_path / "out"
        bad, reason = out / "combined.csv", "Is a directory"
        bad.mkdir(parents=True)
    assert main(["run", str(path), "--threads", threads, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: cannot write {bad}: {reason}"]
    assert "Traceback" not in captured.err


def _tiny_trace(tmp_path):
    trace = tmp_path / "t.csv"
    main(["gen", "--rate", "40M", "--size", "1500", "--duration", "20ms",
          "--flow", "cap0", "--out", str(trace)])
    return trace


def _count_checks(monkeypatch):
    """The names of the scenarios ``Scenario.validate`` checks, as it checks them."""
    validate = Scenario.validate
    checks = []

    def counted(self):
        checks.append(self.name)
        validate(self)

    monkeypatch.setattr(Scenario, "validate", counted)
    return checks


def test_run_trace_dump_checks_once(tmp_path, capsys, monkeypatch):
    trace = _tiny_trace(tmp_path)
    checks = _count_checks(monkeypatch)
    assert main(["run", "testbed", "--trace", str(trace), "--dump-scenario"]) == 0
    assert checks == ["testbed"]


def test_run_set_and_trace_dump_the_edited_scenario(tmp_path, capsys):
    trace = _tiny_trace(tmp_path)
    capsys.readouterr()
    assert main(["run", "testbed", "--set", "sim.duration_ns=2000000000",
                 "--set", 'algorithms=["two_queues"]', "--trace", str(trace),
                 "--trace-scale", "3/2", "--dump-scenario"]) == 0
    want = load_scenario("testbed").to_json_dict()
    want["sim"]["duration_ns"] = 2_000_000_000
    want["algorithms"] = ["two_queues"]
    want["sources"] = [{"kind": "trace", "path": str(trace), "scale": "3/2"}]
    assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("duration_ns", [0, 20_000_000], ids=["repaired-by-set", "valid"])
def test_run_set_edits_a_file_before_it_is_checked(tmp_path, capsys, monkeypatch, duration_ns):
    path = _tiny_scenario(tmp_path)
    doc = json.loads(path.read_text())
    doc["sim"]["duration_ns"] = duration_ns
    path.write_text(json.dumps(doc))
    checks = _count_checks(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(path), "--set", "sim.duration_ns=30000000",
                 "--set", 'algorithms=["conservative"]', "--output-dir", str(out)]) == 0
    assert json.loads((out / "conservative-ll1000000-n50000000.json").read_text())[
        "duration_ns"] == 30_000_000
    assert checks == ["tiny"] * 3  # from_dict, run_scenario, run_sweep


@pytest.mark.parametrize("when", ["before-the-run", "after-the-run"])
def test_run_unwritable_profile_exits_2(tmp_path, capsys, monkeypatch, when):
    path = _tiny_scenario(tmp_path, algorithms=["conservative"])
    out, prof_dir = tmp_path / "out", tmp_path / "prof"
    if when == "after-the-run":
        prof_dir.mkdir()
        run_scenario = cli.run_scenario

        def then_remove_the_directory(*args, **kwargs):
            result = run_scenario(*args, **kwargs)
            shutil.rmtree(prof_dir)
            return result

        monkeypatch.setattr(cli, "run_scenario", then_remove_the_directory)
    dump = prof_dir / "run.prof"
    assert main(["run", str(path), "--profile", str(dump), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"error: cannot write {dump}: No such file or directory"
    assert out.exists() is (when == "after-the-run")
