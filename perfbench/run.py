"""eeesim benchmark: run one workload as a user would and report its cost.

    python3 perfbench/run.py --workload qos-point --seed 1 --seconds 40 --trace 0

Each repetition runs the workload's ``eeesim run ...`` command in a fresh
process (one at a time, closed loop) until ``--seconds`` is spent, checks
its outputs, and reports one value per metric. A fixed speed probe
(``speed.py``) runs before every launch; host times in the JSON line are
scaled by the run's mean probe time to a reference host speed, so that the
shared host's drift in speed between runs cancels. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics plus the tracing overhead. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.

``--record-digests`` stores the output digests of the default seed as the
reference that later runs are checked against; use it only when a change
sets out to alter the model's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
#: a run must end within 180 s; no repetition is started that cannot end by this.
RUN_LIMIT_S = 165.0
#: set-up-only launches per untraced run, on top of one sample per repetition.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    workers: int          # pool workers the sweep starts; 0 runs jobs in-process
    seeded: bool = False  # inputs depend on --seed


WORKLOADS = {w.name: w for w in (
    # ROADMAP's fixed point: two_queues at 100 Mb/s low-latency load, 842,496 arrivals.
    Workload("qos-point", (
        "run", "qos-sweep", "--set", 'algorithms=["two_queues"]',
        "--set", "ll_rates_bps=[100000000]", "--threads", "1"), 0),
    # The testbed sweep, 3 algorithms x 1 point on a pool of 2, cut to 2 s simulated.
    Workload("testbed-sweep", (
        "run", "testbed", "--set", "sim.duration_ns=2000000000",
        "--threads", "2"), 2),
    # A seeded 10k-flow trace replayed for the three paper strategies.
    Workload("trace-replay", (
        "run", "perfbench/trace-replay.json", "--threads", "1"), 0, seeded=True),
)}

END_TO_END_UNITS = {"wall_s": "s", "pkts_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ratio(num, den) -> float:
    return num / den if den else 0.0


# -- inputs -----------------------------------------------------------------

def prepare_trace(seed: int, recorded: dict, checks: dict) -> None:
    """Write the seeded trace CSV and check it is reproducible and valid."""
    import tracegen
    from eeesim.errors import TraceError
    from eeesim.traffic import read_trace

    data = tracegen.generate(seed)
    checks["trace_csv_same_seed_same_bytes"] = data == tracegen.generate(seed)
    path = WORK / "trace-replay" / "trace.csv"
    path.write_bytes(data)
    try:
        rows = sum(1 for _ in read_trace(path))
        checks["trace_csv_passes_read_trace"] = rows == data.count(b"\n") - 1
    except TraceError as exc:
        print(f"trace csv invalid: {exc}", file=sys.stderr)
        checks["trace_csv_passes_read_trace"] = False
    if seed == DEFAULT_SEED and "trace_csv" in recorded:
        checks["trace_csv_matches_recorded"] = sha256(path) == recorded["trace_csv"]


# -- one repetition ---------------------------------------------------------

def run_rep(wl: Workload, rep_dir: Path, traced: bool, timeout: float,
            probe: bool = False) -> dict:
    """One launch of the workload's command; ``probe`` stops it at set-up's end."""
    rep_dir.mkdir(parents=True)
    out = rep_dir / "out"
    cmd = [sys.executable, str(HERE / "launch.py"), "--src", str(ROOT / "src"),
           "--result", str(rep_dir / "result.json"),
           "--stamps", str(rep_dir / "stamps.txt")]
    if traced:
        (rep_dir / "trace").mkdir()
        cmd += ["--trace-dir", str(rep_dir / "trace")]
    if probe:
        cmd.append("--probe-setup")
    cmd += ["--", *wl.argv, "--output-dir", str(out)]
    env = dict(os.environ)
    env.pop("EEESIM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = None
        wall = time.perf_counter() - start
    rep = {"traced": traced, "rc": rc, "wall_s": wall, "out": out, "dir": rep_dir}
    if probe:
        stamps = rep_dir / "stamps.txt"
        if rc == -signal.SIGKILL and stamps.is_file():
            rep["setup_s"] = min(map(float, stamps.read_text().split())) - start
        return rep
    try:
        result = json.loads((rep_dir / "result.json").read_text())
        stamps = [float(x) for x in (rep_dir / "stamps.txt").read_text().split()]
    except (OSError, ValueError):
        rep["rc"] = rc if rc else -1
        return rep
    rep["setup_s"] = min(stamps) - start
    rep["peak_rss_mb"] = (result["maxrss_self_kb"]
                          + wl.workers * result["maxrss_children_kb"]) / 1024
    rep["wrappers_removed"] = result["wrappers_removed"]
    return rep


def check_outputs(rep: dict, expected: dict) -> None:
    """Count the rep's (algorithm x point) runs and the ones that fail.

    A run fails if the process failed, if its report or ``combined.csv``
    differs from the recorded digest (when one applies), or if its totals
    break conservation: arrived == delivered + dropped + queued_end.
    """
    names = [n for n in expected if n != "combined.csv"]
    rep["runs"] = len(names)
    rep["arrived"] = 0
    rep["digests"] = {}
    if rep["rc"] != 0:
        rep["failed"] = len(names)
        return
    out = rep["out"]
    csv_ok = (out / "combined.csv").is_file()
    if csv_ok:
        rep["digests"]["combined.csv"] = digest = sha256(out / "combined.csv")
        csv_ok = expected["combined.csv"] in (None, digest)
    failed = 0
    for name in names:
        path = out / name
        try:
            totals = json.loads(path.read_text())["totals"]
        except (OSError, ValueError, KeyError):
            failed += 1
            continue
        rep["digests"][name] = digest = sha256(path)
        rep["arrived"] += totals["arrived"]
        conserved = totals["arrived"] == (totals["delivered"] + totals["dropped"]
                                          + totals["queued_end"])
        if not (csv_ok and conserved and expected[name] in (None, digest)):
            failed += 1
    rep["failed"] = failed


# -- per-layer metrics from one traced repetition ---------------------------

def layer_metrics(trace_dir: Path, workers: int) -> tuple[dict, list]:
    procs = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    spans = [s for p in procs for s in p["spans"]]
    cells = defaultdict(lambda: [0, 0.0])
    for p in procs:
        for name, (calls, secs) in p["cells"].items():
            cells[name][0] += calls
            cells[name][1] += secs
    by = defaultdict(list)
    for span in spans:
        by[span[1]].append(span)

    def total(name):
        return sum(end - start for _, _, start, end, _, _ in by[name])

    m = {}
    sweep_s = total("scenarios.run_sweep")
    sweep_start = min((s[2] for s in by["scenarios.run_sweep"]), default=0.0)
    jobs = by["scenarios.run_point"]
    job_s = [end - start for _, _, start, end, _, _ in jobs]
    builds = by["scenarios.build_stream"]
    m["scenarios.sweep_s"] = sweep_s
    m["scenarios.job_s.sum"] = sum(job_s)
    m["scenarios.job_s.max"] = max(job_s, default=0.0)
    m["scenarios.job_wait_s.max"] = max((s[2] - sweep_start for s in jobs), default=0.0)
    m["scenarios.pool_util"] = ratio(sum(job_s), sweep_s * max(1, workers))
    m["scenarios.stream_builds"] = len(builds)
    m["scenarios.stream_reuse"] = ratio(len({s[5]["point"] for s in builds}), len(builds))
    m["scenarios.write_s"] = total("scenarios.run_scenario") - sweep_s

    synth_s, merge_s = total("traffic.synth"), total("traffic.merge")
    pkts = sum(s[5]["pkts"] for s in by["traffic.merge"])
    m["traffic.synth_s"] = synth_s
    m["traffic.merge_s"] = merge_s
    m["traffic.pkts"] = pkts
    m["traffic.pkts_per_s"] = ratio(pkts, synth_s + merge_s)

    port = {n: cells[n] for n in ("enqueue", "tx_complete", "sleep_complete",
                                  "wake_complete")}
    run_s = total("engine.run")
    epoch_s = total("engine.control_epoch")
    epochs = len(by["engine.control_epoch"])
    events = sum(c[0] for c in port.values()) + epochs
    m["engine.run_s"] = run_s
    m["engine.dispatch.calls"] = cells["dispatch"][0]
    m["engine.dispatch_s"] = cells["dispatch"][1]
    m["engine.reduce_s"] = cells["reduce"][1]
    m["engine.loop_self_s"] = (run_s - cells["dispatch"][1] - epoch_s
                               - sum(c[1] for c in port.values()) - cells["reduce"][1])
    m["engine.events"] = events
    m["engine.ns_per_event"] = ratio(run_s * 1e9, events)

    flows = sum(s[5]["flows"] for s in by["allocation.estimate_rates"])
    estimate_s, allocate_s = total("allocation.estimate_rates"), total("allocation.allocate")
    m["allocation.epochs"] = epochs
    m["allocation.flows_per_epoch"] = ratio(flows, epochs)
    m["allocation.estimate_s"] = estimate_s
    m["allocation.allocate_s"] = allocate_s
    m["allocation.us_per_flow_epoch"] = ratio((estimate_s + allocate_s) * 1e6, flows)

    for name, (calls, secs) in port.items():
        m[f"eee_port.{name}.calls"] = calls
        m[f"eee_port.{name}_s"] = secs
    drops = cells["drops"][0]
    m["eee_port.drops"] = drops
    m["eee_port.accept_ratio"] = ratio(port["enqueue"][0] - drops, port["enqueue"][0])
    m["eee_port.wakes_per_frame"] = ratio(port["wake_complete"][0],
                                          port["tx_complete"][0])
    return m, spans


PER_LAYER_UNITS = {
    "traffic.synth_s": "s", "traffic.merge_s": "s", "traffic.pkts": "count",
    "traffic.pkts_per_s": "1/s",
    "scenarios.sweep_s": "s", "scenarios.job_s.sum": "s", "scenarios.job_s.max": "s",
    "scenarios.job_wait_s.max": "s", "scenarios.pool_util": "ratio",
    "scenarios.stream_builds": "count", "scenarios.stream_reuse": "ratio",
    "scenarios.write_s": "s",
    "engine.run_s": "s", "engine.dispatch.calls": "count", "engine.dispatch_s": "s",
    "engine.loop_self_s": "s", "engine.reduce_s": "s", "engine.events": "count",
    "engine.ns_per_event": "ns",
    "allocation.epochs": "count", "allocation.flows_per_epoch": "count",
    "allocation.estimate_s": "s", "allocation.allocate_s": "s",
    "allocation.us_per_flow_epoch": "us",
    **{f"eee_port.{n}{suffix}": unit
       for n in ("enqueue", "tx_complete", "sleep_complete", "wake_complete")
       for suffix, unit in ((".calls", "count"), ("_s", "s"))},
    "eee_port.drops": "count", "eee_port.accept_ratio": "ratio",
    "eee_port.wakes_per_frame": "ratio",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
}


# -- reporting --------------------------------------------------------------

def context() -> str:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return (f"context: src_lines={src_lines} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={metadata.version('numpy')} "
            f"commit={commit or 'unknown'}")


def end_to_end(plain: list, samples: dict, slowdown: float) -> dict:
    """The end-to-end metrics of a run's untraced repetitions.

    Host times are divided by the run's ``slowdown`` (see ``speed.py``).
    ``wall_s`` and ``pkts_per_s`` average over the whole run: the host's
    speed changes within a repetition, so every measured second counts
    alike. ``setup_s`` and the peak RSS are medians.
    """
    sim_s = sum(r["wall_s"] - r["setup_s"] for r in plain) / slowdown
    values = {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain) / slowdown,
        "pkts_per_s": sum(r["arrived"] for r in plain) / sim_s,
        "setup_s": statistics.median(samples["setup_s"]) / slowdown,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def report(samples: dict, units: dict) -> dict:
    """Print each metric's median, sample count and range; return the medians."""
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<34} {metrics[name]['value']:>16.6f} {unit:<6} median of "
              f"{len(values)} (min {min(values):.6g}, max {max(values):.6g})")
    return metrics


def measure_run(wl: Workload, args, expected: dict, begin: float,
                probe: speed.ProbeProcess) -> tuple:
    """Launch the workload until ``--seconds`` is spent, gauging host speed around."""
    loop_start = time.perf_counter()
    # The host's speed is gauged before every launch and once after the last.
    speeds: list = []
    probes = []
    for i in range(0 if args.trace else SETUP_PROBES):
        speeds.append(probe.measure())
        probes.append(run_rep(wl, WORK / wl.name / f"probe{i}", False,
                              RUN_LIMIT_S - (time.perf_counter() - begin), probe=True))
    reps: list = []
    modes = itertools.cycle((False, True)) if args.trace else itertools.repeat(False)
    for i, traced in enumerate(modes):
        speeds.append(probe.measure())
        left = RUN_LIMIT_S - (time.perf_counter() - begin)
        rep = run_rep(wl, WORK / wl.name / f"rep{i}", traced, left)
        if args.record_digests and not expected:
            expected = {p.name: None for p in sorted(rep["out"].glob("*"))}
        check_outputs(rep, expected)
        reps.append(rep)
        if rep["rc"] != 0:
            err = (rep["dir"] / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"repetition {i} exited with {rep['rc']}:\n{err}", file=sys.stderr)
            break
        walls = [r["wall_s"] for r in reps]
        spent = time.perf_counter() - loop_start
        both = not args.trace or len(reps) >= 2
        # Start another repetition if half of it fits: runs measure --seconds on average.
        if both and spent + statistics.median(walls) / 2 > args.seconds:
            break
        if time.perf_counter() - begin + 1.5 * max(walls) > RUN_LIMIT_S:
            break
    speeds.append(probe.measure())
    return probes, reps, speeds, expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    begin = time.perf_counter()

    if not (ROOT / "src" / "eeesim" / "__init__.py").is_file():
        print(f"error: no eeesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation:
        print("error: perf_counter is not system-wide here", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    recorded_all = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = recorded_all.get(wl.name, {})
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error("--record-digests needs the default seed")
    if not recorded.get("files") and not args.record_digests:
        print(f"error: no recorded digests for {wl.name} in {DIGESTS}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK / wl.name, ignore_errors=True)
    (WORK / wl.name).mkdir(parents=True)

    checks: dict = {}
    if wl.seeded:
        prepare_trace(args.seed, {} if args.record_digests else recorded, checks)
    # Digests apply wherever the inputs are the recorded ones.
    exact = not wl.seeded or args.seed == DEFAULT_SEED
    expected = {} if args.record_digests else {
        n: (d if exact else None) for n, d in recorded["files"].items()}

    with speed.ProbeProcess() as probe:
        probes, reps, speeds, expected = measure_run(wl, args, expected, begin, probe)
    checks["setup_probes_reached_engine_run"] = all("setup_s" in p for p in probes)
    slowdown = statistics.fmean(speeds) / speed.REF_S

    ok_reps = [r for r in reps if r["rc"] == 0]
    if args.record_digests and ok_reps:
        first = ok_reps[0]["digests"]
        entry = {"seed": DEFAULT_SEED, "files": first}
        if wl.seeded:
            entry["trace_csv"] = sha256(WORK / wl.name / "trace.csv")
        recorded_all[wl.name] = entry
        DIGESTS.write_text(json.dumps(recorded_all, indent=2, sort_keys=True) + "\n")

    # Every repetition must give the same bytes, traced or not.
    reference = ok_reps[0]["digests"] if ok_reps else {}
    for rep in ok_reps:
        if rep["digests"] != reference:
            rep["failed"] = rep["runs"]
    checks["repetitions_byte_identical"] = all(r["digests"] == reference for r in ok_reps)
    checks["all_repetitions_exited_0"] = len(ok_reps) == len(reps)

    plain = [r for r in ok_reps if not r["traced"]]
    for r in plain:
        r["pkts_per_s"] = ratio(r["arrived"], r["wall_s"] - r["setup_s"])
    traced = [r for r in ok_reps if r["traced"]]
    spans = []
    for r in traced:
        r["layers"], spans = layer_metrics(r["dir"] / "trace", wl.workers)
        checks.setdefault("tracer_saw_every_job", True)
        checks["tracer_saw_every_job"] &= (
            r["layers"]["scenarios.stream_builds"] == r["runs"])
        checks.setdefault("wrappers_removed", True)
        checks["wrappers_removed"] &= r["wrappers_removed"]
    (WORK / wl.name / "samples.json").write_text(json.dumps(
        {"speed_probe_s": speeds, "setup_probe_s": [p.get("setup_s") for p in probes],
         "reps": [{k: r.get(k) for k in ("traced", "rc", "wall_s", "setup_s", "arrived")}
                  for r in reps]}))
    if spans:
        (WORK / wl.name / "spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "attrs"],
             "spans": spans}))

    attempted = sum(r["runs"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and all(checks.values()) and bool(plain) and (
        not args.trace or bool(traced))

    print(f"eeesim benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(context())
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced; "
          f"wall {time.perf_counter() - begin:.1f} s in all")
    print(f"  {'error_rate':<34} {ratio(failed, attempted):>16.6f} {'ratio':<6} "
          f"{failed} of {attempted} (algorithm x point) runs failed")
    for name, passed in checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")

    metrics = {}
    if plain and checks["setup_probes_reached_engine_run"]:
        samples = {name: [r[name] for r in plain] for name in END_TO_END_UNITS}
        samples["setup_s"] += [p["setup_s"] for p in probes]
        print(f"host speed: speed probe mean {statistics.fmean(speeds):.6f} s over "
              f"{len(speeds)} (min {min(speeds):.6g}, max {max(speeds):.6g}); reference "
              f"{speed.REF_S} s, so host times are divided by {slowdown:.6f}")
        print("end to end (untraced):")
        e2e = end_to_end(plain, samples, slowdown)
        for name, unit in END_TO_END_UNITS.items():
            values = samples[name]
            print(f"  {name:<34} {e2e[name]['value']:>16.6f} {unit:<6} from {len(values)} "
                  f"samples (min {min(values):.6g}, max {max(values):.6g}, as measured)")
        if not args.trace:
            metrics = e2e
    if args.trace and traced and plain:
        rows = [r["layers"] for r in traced]
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        for row in rows:
            row["trace.overhead_s"] = traced_wall - untraced_wall
            row["trace.overhead_pct"] = 100 * ratio(traced_wall - untraced_wall,
                                                    untraced_wall)
        print(f"per layer (traced; wall {traced_wall:.3f} s traced vs "
              f"{untraced_wall:.3f} s untraced):")
        metrics = report({name: [row[name] for row in rows] for name in PER_LAYER_UNITS},
                         PER_LAYER_UNITS)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
