"""Command-line harness: trace tooling, scenario runs, exit codes."""

import json

import pytest

from eeesim import read_trace
from eeesim.cli import main, parse_rate, parse_time
from eeesim.errors import ConfigError
from eeesim.scenarios import load_scenario, run_point


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
    assert [p.arrival_time for p in scaled] == [
        p.arrival_time // 2 for p in orig
    ]


def test_scale_factor_is_exact(tmp_path):
    # 10**15 ns / float(0.1) lands 0.55 ns short of 10**16 and rounds down
    src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("t_ns,flow,bytes,dscp\n1000000000000000,a,64,0\n")
    assert main(["scale", str(src), "--factor", "0.1", "--out", str(dst)]) == 0
    assert [p.arrival_time for p in read_trace(dst)] == [10**16]


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
    times = [p.arrival_time for p in merged]
    assert times == sorted(times)
    assert [p.seq for p in merged] == list(range(len(merged)))


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
    report = run_point(scenario.to_json_dict(), "conservative",
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
        direct = run_point(scenario.to_json_dict(), alg, point)
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
    if case == "bad-byte":
        path.write_bytes(b"t_ns,flow,bytes,dscp\n0,a,1500,0\n5,a\xff,1500,0\n")
        return path, "1", "line 3: undecodable byte 0xff"
    main(["gen", "--rate", "40M", "--size", "1500", "--duration", "20ms",
          "--out", str(path)])
    return path, "1/0", "zero denominator: '1/0'"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", ["missing", "bad-byte", "zero-denominator"])
def test_run_bad_trace_exits_2(tmp_path, capsys, threads, case):
    trace, scale, message = _bad_trace(tmp_path, case)
    path = _tiny_scenario(tmp_path)
    capsys.readouterr()
    assert _exit_code(["run", str(path), "--trace", str(trace), "--trace-scale", scale,
                       "--threads", threads, "--output-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("case", ["missing", "bad-byte", "zero-denominator"])
def test_scale_bad_trace_exits_2(tmp_path, capsys, case):
    trace, factor, message = _bad_trace(tmp_path, case)
    capsys.readouterr()
    assert _exit_code(["scale", str(trace), "--factor", factor,
                       "--out", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err
