"""Synthetic traffic builders, scenario schema and the built-in catalogue."""

import concurrent.futures
import json
import os

import pytest

from eeesim import scenarios
from eeesim.errors import ConfigError
from eeesim.scenarios import (
    Scenario,
    builtin_scenarios,
    build_sim_config,
    build_stream,
    combined_csv,
    default_threads,
    load_scenario,
    mininet_scenario,
    qos_sweep_scenario,
    run_sweep,
)
from eeesim.traffic import bursty_slabs, frames_slabs, merge_slabs, packets


def frames_pkts(*args, **kwargs):
    """Packet tuples of one frames source."""
    return list(packets(merge_slabs([frames_slabs(*args, **kwargs)])))


def bursty_pkts(*args, **kwargs):
    """Packet tuples of one bursty source."""
    return list(packets(merge_slabs([bursty_slabs(*args, **kwargs)])))


def test_frames_low_rate_is_plain_cbr():
    pkts = frames_pkts(1_000_000, 125, 46, 10_000_000, 10_000_000_000)
    gaps = {b[0] - a[0] for a, b in zip(pkts, pkts[1:])}
    assert gaps == {1_000_000}  # one packet per millisecond


def test_frames_high_rate_bundles_line_rate_trains():
    pkts = frames_pkts(1_000_000_000, 125, 46, 100_000, 10_000_000_000)
    # 1 Gb/s of 125 B packets: trains of ten, 100 ns apart, every 10 us
    assert [p[0] for p in pkts[:12]] == [
        0, 100, 200, 300, 400, 500, 600, 700, 800, 900, 10_000, 10_100
    ]
    total_bits = sum(p[1] * 8 for p in pkts)
    assert total_bits == 1_000_000_000 * 100_000 // 10**9  # exact mean rate


def test_frames_rejects_line_rate_below_mean():
    with pytest.raises(ConfigError):
        frames_pkts(2_000_000_000, 125, 46, 1000, 1_000_000_000)


@pytest.mark.parametrize("pkts_per_frame", [0, -1])
def test_frames_rejects_frames_without_packets(pkts_per_frame):
    with pytest.raises(ConfigError, match="pkts_per_frame must be >= 1"):
        frames_slabs(1_000_000, 125, 46, 1000, 10**9, pkts_per_frame=pkts_per_frame)


def test_bursty_exact_budget_per_window():
    window = 1_000_000
    pkts = bursty_pkts(100, 1500, 0, window, 7, 10_000_000_000, 4 * window)
    counts = {}
    for p in pkts:
        counts[p[0] // window] = counts.get(p[0] // window, 0) + 1
    assert counts == {0: 100, 1: 100, 2: 100, 3: 100}
    times = [p[0] for p in pkts]
    assert times == sorted(times)


def test_bursty_jitter_is_deterministic():
    args = (50, 1500, 0, 1_000_000, 5, 10_000_000_000, 2_000_000)
    assert bursty_pkts(*args) == bursty_pkts(*args)
    shifted = bursty_pkts(*args, flow="other")
    assert [p[0] for p in shifted] != [p[0] for p in bursty_pkts(*args)]


def test_bursty_rejects_overfull_slot():
    with pytest.raises(ConfigError):
        bursty_pkts(10_000, 1500, 0, 1_000_000, 1, 10_000_000_000, 1_000_000)


def test_builtin_catalogue_and_aliases():
    catalogue = builtin_scenarios()
    for name in ("baseline-delay", "qos-sweep", "ordering", "testbed",
                 "fig2", "fig3", "fig4", "fig5", "mininet"):
        assert name in catalogue
        catalogue[name].validate()
    assert catalogue["fig3"].sources == catalogue["qos-sweep"].sources
    assert catalogue["mininet"].sources == catalogue["testbed"].sources


def test_qos_sweep_shape():
    scenario = qos_sweep_scenario()
    points = scenario.sweep_points()
    assert len(scenario.algorithms) * len(points) == 12
    assert [p["ll_rate_bps"] for p in points] == [
        1_000_000, 10_000_000, 100_000_000, 1_000_000_000
    ]


def test_scenario_json_round_trip():
    scenario = mininet_scenario()
    doc = json.loads(json.dumps(scenario.to_json_dict()))
    again = Scenario.from_dict(doc)
    assert again.to_json_dict() == scenario.to_json_dict()


def test_scenario_rejects_unknown_fields():
    doc = mininet_scenario().to_json_dict()
    doc["surprise"] = 1
    with pytest.raises(ConfigError):
        Scenario.from_dict(doc)
    doc = mininet_scenario().to_json_dict()
    doc["sim"]["surprise"] = 1
    with pytest.raises(ConfigError):
        Scenario.from_dict(doc)


def test_scenario_rejects_unknown_source_kind():
    doc = mininet_scenario().to_json_dict()
    doc["sources"][0]["kind"] = "magic"
    with pytest.raises(ConfigError):
        Scenario.from_dict(doc)


def test_load_scenario_rejects_missing_ref(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "nope.json"))


def test_load_scenario_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": ')
    with pytest.raises(ConfigError) as error:
        load_scenario(str(path))
    assert str(error.value).startswith(f"{path}: invalid JSON: ")


@pytest.mark.parametrize("content, message", [
    (None, "cannot read: "),
    (b"\xff\xfe{}", "cannot read: "),
    (b"[5]", "a scenario is a JSON object, got list"),
], ids=["directory", "not-utf-8", "not-an-object"])
def test_load_scenario_rejects_an_unreadable_file(tmp_path, content, message):
    path = tmp_path / "scenario.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as error:
        load_scenario(str(path))
    assert str(error.value).startswith(f"{path}: {message}")


def test_scenario_without_a_name_names_the_field():
    doc = mininet_scenario().to_json_dict()
    del doc["name"]
    with pytest.raises(ConfigError, match="^scenario is missing field 'name'$"):
        Scenario.from_dict(doc)


def test_threads_from_the_environment(monkeypatch):
    monkeypatch.setenv("EEESIM_THREADS", " 3 ")
    assert default_threads() == 3
    monkeypatch.setenv("EEESIM_THREADS", "two")
    with pytest.raises(ConfigError, match="^EEESIM_THREADS must be an integer, got 'two'$"):
        default_threads()


def test_empty_ll_dscp_set_is_respected():
    scenario = qos_sweep_scenario()
    scenario.sim["ll_dscps"] = []
    config = build_sim_config(scenario, "two_queues")
    assert config.ll_dscps == frozenset()


def test_integer_sim_fields_stay_integers():
    doc = mininet_scenario().to_json_dict()
    doc["sim"].update(warmup_ns=1e8, duration_ns="3e8", t_wake_ns=4480.0,
                      ll_dscps=[46.0])
    config = build_sim_config(Scenario.from_dict(doc), "conservative")
    assert type(config.warmup_ns) is int and config.warmup_ns == 100_000_000
    assert type(config.duration_ns) is int and config.duration_ns == 300_000_000
    assert type(config.port.t_wake_ns) is int and config.port.t_wake_ns == 4480
    assert [type(d) for d in config.ll_dscps] == [int] and config.ll_dscps == {46}
    # warmup None is one sampling period, 5e8, which must end before the run does
    doc["sim"].update(warmup_ns=None, duration_ns=1e9)
    assert build_sim_config(Scenario.from_dict(doc), "conservative").warmup_ns is None


@pytest.mark.parametrize("field, value", [
    ("t_wake_ns", 4480.7), ("warmup_ns", 1.5e8 + 0.5), ("n_ports", "5x"),
    ("duration_ns", float("inf")), ("buffer_limit", None), ("capacity_bps", [1]),
    ("ll_dscps", [46.5]),
])
def test_non_integral_sim_field_names_the_field(field, value):
    doc = mininet_scenario().to_json_dict()
    doc["sim"][field] = value
    with pytest.raises(ConfigError, match=f"sim.{field} must be an integer"):
        Scenario.from_dict(doc)


@pytest.mark.parametrize("dscps", [[-1], [46, 64], [99]])
def test_ll_dscp_outside_its_range_names_the_sim_field(dscps):
    doc = mininet_scenario().to_json_dict()
    doc["sim"]["ll_dscps"] = dscps
    with pytest.raises(ConfigError, match=r"^sim\.ll_dscps: dscp -?\d+ outside \[0, 63\]"):
        Scenario.from_dict(doc)


def test_run_sweep_row_order_is_sweep_order(monkeypatch):
    monkeypatch.setenv("EEESIM_THREADS", "1")
    scenario = Scenario(
        name="mini",
        sim={"n_ports": 2, "capacity_bps": 1_000_000_000,
             "sampling_period_ns": 2_000_000, "warmup_ns": 2_000_000,
             "duration_ns": 8_000_000},
        sources=[{"kind": "cbr", "flow": "bulk", "size": 1500, "dscp": 0,
                  "rate_bps": 40_000_000}],
        ll_source={"kind": "frames", "flow": "rt", "size": 125, "dscp": 46,
                   "line_rate_bps": 1_000_000_000},
        algorithms=["conservative", "spare_port"],
        ll_rates_bps=[1_000_000, 2_000_000],
    )
    jobs, reports = run_sweep(scenario)
    assert [(alg, p["ll_rate_bps"]) for alg, p in jobs] == [
        ("conservative", 1_000_000), ("conservative", 2_000_000),
        ("spare_port", 1_000_000), ("spare_port", 2_000_000),
    ]
    csv_text = combined_csv(jobs, reports)
    assert len(csv_text.splitlines()) == 5
    cfg = build_sim_config(scenario, "conservative")
    assert cfg.bundle.n_ports == 2
    stream = list(packets(build_stream(scenario, jobs[0][1])))
    # build_stream yields batches of plain (arrival_time, size, flow, dscp, seq) tuples
    assert stream and all(a[0] <= b[0] for a, b in zip(stream, stream[1:]))


def _two_by_two(**extra):
    """A 2-algorithm x 2-point scenario whose points run two sources each."""
    doc = dict(
        name="two-by-two",
        sim={"n_ports": 2, "capacity_bps": 1_000_000_000,
             "sampling_period_ns": 2_000_000, "warmup_ns": 2_000_000,
             "duration_ns": 6_000_000},
        sources=[{"kind": "cbr", "flow": "bulk", "size": 1500, "dscp": 0,
                  "rate_bps": 40_000_000}],
        ll_source={"kind": "frames", "flow": "rt", "size": 125, "dscp": 46,
                   "line_rate_bps": 1_000_000_000},
        algorithms=["conservative", "two_queues"],
        ll_rates_bps=[1_000_000, 2_000_000],
    )
    return Scenario(**{**doc, **extra})


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call in this process is counted."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_in_process_sweep_checks_the_scenario_once(monkeypatch):
    checks = _counting(monkeypatch, Scenario, "validate")
    jobs, reports = run_sweep(_two_by_two(), threads=1)
    assert len(jobs) == len(reports) == 4
    assert len(checks) == 1


def test_pool_jobs_check_nothing(monkeypatch):
    # forked pool workers inherit the patch; a job that checked would raise
    caller = os.getpid()
    validate = Scenario.validate

    def caller_only(self):
        if os.getpid() != caller:
            raise RuntimeError("a job checked the scenario")
        validate(self)

    monkeypatch.setattr(Scenario, "validate", caller_only)
    _, pooled = run_sweep(_two_by_two(), threads=2)
    monkeypatch.setattr(Scenario, "validate", validate)
    _, serial = run_sweep(_two_by_two(), threads=1)
    assert [r.to_json() for r in pooled] == [r.to_json() for r in serial]


def test_each_job_builds_only_its_own_sources(monkeypatch):
    scenario = _two_by_two()
    points = scenario.sweep_points()
    per_point = [len(scenarios._point_sources(scenario, p)) for p in points]
    assert per_point == [2, 2]
    built = _counting(monkeypatch, scenarios, "_materialize")
    jobs, _ = run_sweep(scenario, threads=1)
    # the check builds every source of every point; each job, its point's
    assert len(built) == sum(per_point) + len(jobs) * 2


def test_sweep_refuses_a_bad_source_before_any_job(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a job ran or a pool was made")

    monkeypatch.setattr(scenarios, "run_point", never)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
    bad = {"kind": "cbr", "flow": "tiny", "size": 10, "dscp": 0, "rate_bps": 1_000_000}
    scenario = _two_by_two(sources=[_two_by_two().sources[0], bad])
    for threads in (1, 2):
        with pytest.raises(ConfigError, match=r"^sources\[1\]: "):
            run_sweep(scenario, threads=threads)
