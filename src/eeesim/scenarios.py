"""Experiment scenarios: synthetic traffic builders, sweeps, report files.

A scenario is a JSON-friendly description of one experiment: the bundle and
port parameters, a list of traffic sources, the algorithms to compare and an
optional sweep axis (low-latency rates or normal-traffic rates). Running a
scenario produces one simulation per (algorithm x sweep point), a JSON
report per run and a combined CSV.

Synthetic traffic comes in three flavors, all built from the same exact
integer arithmetic as the CBR generator (see :mod:`eeesim.traffic`):

* ``cbr``    - equal packets at a constant pace.
* ``frames`` - short line-rate packet trains at a constant frame pace, the
  shape of real-time multimedia; degenerates to plain CBR at low rates.
* ``bursty`` - an exact per-sampling-window packet budget laid out as
  line-rate bursts with deterministic jitter, standing in for the burstiness
  of captured backbone traffic.

:func:`build_stream` turns a sweep point into one lazy iterator of merged
packet batches (columns of ``(arrival_time, size, flow, dscp, seq)``): each
source becomes a lazy iterable of int64 column slabs and the module-level
``merge`` orders them. It returns before any packet is synthesized; a run
pulls the slabs as it consumes the stream. Rates are scaled for a sweep
point with exact fractions, never floats.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .allocation import Algorithm, BundleConfig
from .eee_port import EeePortConfig
from .engine import MetricsReport, SimConfig, run
from .errors import ConfigError, TraceError
from .traffic import (
    _check_size, _round_div, bursty_slabs, cbr_slabs, frames_slabs, open_trace_memo,
    trace_memo, trace_slabs,
)
# build_stream looks ``merge`` up at call time, so a profiler can wrap it.
from .traffic import merge_slabs as merge

_SIM_DEFAULTS = {
    "n_ports": 5,
    "capacity_bps": 10_000_000_000,
    "t_sleep_ns": 2280,
    "t_wake_ns": 4480,
    "buffer_limit": 10000,
    "p_active": 1.0,
    "p_lpi": 0.1,
    "bound_fraction": 0.9,
    "sampling_period_ns": 500_000_000,
    "warmup_ns": None,
    "duration_ns": 1_000_000_000,
    "ll_dscps": [46],
    "track_flows": [],
}
_LISTS = ("sources", "algorithms", "ll_rates_bps", "normal_rates_bps")
#: the fields each source kind needs, and the integer fields a source may have
_SOURCE_NEEDS = {"trace": ("path",), **dict.fromkeys(
    ("cbr", "frames", "bursty"), ("flow", "size", "dscp", "rate_bps"))}
_SOURCE_INTS = ("size", "dscp", "rate_bps", "offset_ns", "line_rate_bps",
                "burst_pkts", "pkts_per_frame")
#: the source fields that count packets, so must be at least one
_SOURCE_COUNTS = ("burst_pkts", "pkts_per_frame")


def _exact_int(name, value) -> int:
    """``value`` as an exact int (``1e8`` is one); a ConfigError naming ``name``
    if it is not integral (``4480.7`` would otherwise be truncated) or is a
    bool."""
    try:
        exact = Fraction(value)
        if exact.denominator == 1 and not isinstance(value, bool):
            return int(exact)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _src_int(src: dict, key, default=None) -> int:
    return _exact_int(key, src.get(key, default))


def _check_trace(name: str, src: dict) -> None:
    """A ConfigError naming the field unless ``path`` is a string and
    ``scale``, if given, a positive number."""
    if not isinstance(src["path"], str):
        raise ConfigError(f"{name}.path must be a string, got {src['path']!r}")
    scale = src.get("scale", 1)
    try:
        if not isinstance(scale, bool) and Fraction(scale) > 0:
            return
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ConfigError(f"{name}.scale must be a positive number, got {scale!r}")


@dataclass
class Scenario:
    """One experiment: traffic, bundle parameters and sweep axes."""

    name: str
    sim: dict = field(default_factory=dict)
    sources: list = field(default_factory=list)
    algorithms: list = field(default_factory=list)
    ll_source: dict | None = None
    ll_rates_bps: list = field(default_factory=list)
    normal_rates_bps: list = field(default_factory=list)
    output_dir: str | None = None

    def validate(self) -> None:
        """A ConfigError naming the first bad field. Each source's values are
        checked by the constructor that builds it, at every sweep point;
        nothing is synthesized and no trace is opened."""
        if not isinstance(self.sim, dict):
            raise ConfigError(f"sim must be an object, got {self.sim!r}")
        lists = {key: getattr(self, key) for key in _LISTS}
        for key in ("ll_dscps", "track_flows"):
            lists[f"sim.{key}"] = self.sim_value(key)
        for key, value in lists.items():
            if not isinstance(value, list):
                raise ConfigError(f"{key} must be a list, got {value!r}")
        if not self.sources and self.ll_source is None:
            raise ConfigError(f"scenario {self.name!r} has no traffic sources")
        if not self.algorithms:
            raise ConfigError(f"scenario {self.name!r} lists no algorithms")
        for alg in self.algorithms:
            if alg not in [a.value for a in Algorithm]:
                raise ConfigError(f"algorithms: unknown algorithm {alg!r}")
        if self.ll_rates_bps and self.ll_source is None:
            raise ConfigError("ll_rates_bps sweep needs an ll_source template")
        if self.ll_rates_bps and self.normal_rates_bps:
            raise ConfigError("only one sweep axis is supported per scenario")
        sources = [(f"sources[{i}]", src) for i, src in enumerate(self.sources)]
        sources += [("ll_source", self.ll_source)] * (self.ll_source is not None)
        for name, src in sources:
            kind = src.get("kind") if isinstance(src, dict) else None
            if type(kind) is not str or kind not in _SOURCE_NEEDS:
                raise ConfigError(f"{name}: unknown source kind {kind!r}")
            swept = name == "ll_source" and self.ll_rates_bps  # rate from the sweep
            for key in _SOURCE_NEEDS[kind]:
                if key not in src and not (swept and key == "rate_bps"):
                    raise ConfigError(f"{name} ({kind}) needs field {key!r}")
            for key in _SOURCE_INTS:
                if src.get(key) is not None:
                    value = _exact_int(f"{name}.{key}", src[key])
                    if key in _SOURCE_COUNTS and value < 1:
                        raise ConfigError(f"{name}.{key} must be >= 1, got {value}")
            if kind == "trace":
                _check_trace(name, src)
        unknown = set(self.sim) - set(_SIM_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown sim fields: {sorted(unknown)}")
        for flow in self.sim_value("track_flows"):
            if not isinstance(flow, str):
                raise ConfigError(f"sim.track_flows entries must be strings, got {flow!r}")
        for key in ("bound_fraction", "p_active", "p_lpi"):
            value = self.sim_value(key)
            try:
                if isinstance(value, bool):  # float(True) would read as 1.0
                    raise TypeError
                float(value)
            except (TypeError, ValueError):
                raise ConfigError(f"sim.{key} must be a number, got {value!r}") from None
        build_sim_config(self, self.algorithms[0]).validate("sim.")
        for point in self.sweep_points():
            for name, src, factor in _point_sources(self, point):
                try:
                    _materialize(src, self, factor)
                except (ConfigError, TraceError) as exc:
                    raise ConfigError(f"{name}: {exc}") from None

    def sim_value(self, key):
        return self.sim.get(key, _SIM_DEFAULTS[key])

    def sim_int(self, key):
        """Integer sim field exactly; ``warmup_ns`` may be None."""
        value = self.sim_value(key)
        if value is None and key == "warmup_ns":
            return None
        return _exact_int(f"sim.{key}", value)

    def base_normal_rate_bps(self) -> int:
        return sum(_src_int(src, "rate_bps", 0) for src in self.sources)

    def sweep_points(self) -> list:
        base = self.base_normal_rate_bps()
        if self.ll_rates_bps:
            return [
                {"ll_rate_bps": _exact_int("ll_rates_bps", r), "normal_rate_bps": base}
                for r in self.ll_rates_bps
            ]
        if self.normal_rates_bps:
            return [
                {"ll_rate_bps": 0, "normal_rate_bps": _exact_int("normal_rates_bps", r)}
                for r in self.normal_rates_bps
            ]
        ll = _src_int(self.ll_source, "rate_bps") if self.ll_source else 0
        return [{"ll_rate_bps": ll, "normal_rate_bps": base}]

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        if "name" not in data:
            raise ConfigError("scenario is missing field 'name'")
        scenario = cls(**data)
        scenario.validate()
        return scenario


def build_sim_config(scenario: Scenario, algorithm) -> SimConfig:
    sv, si = scenario.sim_value, scenario.sim_int
    return SimConfig(
        bundle=BundleConfig(
            n_ports=si("n_ports"),
            capacity_bps=si("capacity_bps"),
            algorithm=Algorithm(algorithm),
            bound_fraction=float(sv("bound_fraction")),
        ),
        port=EeePortConfig(
            capacity_bps=si("capacity_bps"),
            t_sleep_ns=si("t_sleep_ns"),
            t_wake_ns=si("t_wake_ns"),
            buffer_limit=si("buffer_limit"),
            p_active=float(sv("p_active")),
            p_lpi=float(sv("p_lpi")),
        ),
        duration_ns=si("duration_ns"),
        sampling_period_ns=si("sampling_period_ns"),
        ll_dscps=frozenset(_exact_int("sim.ll_dscps", d) for d in sv("ll_dscps")),
        warmup_ns=si("warmup_ns"),
        track_flows=frozenset(sv("track_flows")),
    )


def _materialize(src: dict, scenario: Scenario, scale_factor=Fraction(1)):
    """Lazy slab source for one source entry, its rate scaled exactly."""
    duration = scenario.sim_int("duration_ns")
    kind = src["kind"]
    if kind == "trace":
        scale = src.get("scale", 1)  # a float 0.4 means 2/5, not its binary value
        scale = Fraction(str(scale) if isinstance(scale, float) else scale)
        return trace_slabs(src["path"], scale * scale_factor)
    size, dscp = _src_int(src, "size"), _src_int(src, "dscp")
    flow = str(src["flow"])
    rate = round(_src_int(src, "rate_bps") * scale_factor)
    offset = _src_int(src, "offset_ns", 0)
    line_rate = _src_int(src, "line_rate_bps", scenario.sim_int("capacity_bps"))
    if kind == "cbr":
        return cbr_slabs(rate, size, dscp, duration, offset, flow)
    if kind == "frames":
        m = src.get("pkts_per_frame")
        return frames_slabs(rate, size, dscp, duration, line_rate, offset, flow,
                            None if m is None else _exact_int("pkts_per_frame", m))
    window = scenario.sim_int("sampling_period_ns")  # bursty
    _check_size(size)  # before it divides
    ppw = _round_div(rate * window, size * 8 * 10**9)
    if ppw < 1:
        raise ConfigError("rate too low for one packet per window")
    bursts = max(1, round(Fraction(ppw, _src_int(src, "burst_pkts", 500))))
    return bursty_slabs(ppw, size, dscp, window, bursts, line_rate, duration, flow)


def _point_sources(scenario: Scenario, point: dict) -> list:
    """``(name, source, rate factor)`` of each source the sweep ``point`` runs."""
    factor = Fraction(1)
    if scenario.normal_rates_bps:
        base = scenario.base_normal_rate_bps()
        if base <= 0:
            raise ConfigError("normal-rate sweep needs sources with rate_bps")
        factor = Fraction(point["normal_rate_bps"], base)
    named = [(f"sources[{i}]", src, factor) for i, src in enumerate(scenario.sources)]
    if scenario.ll_source is not None and point.get("ll_rate_bps", 0) > 0:
        src = {**scenario.ll_source, "rate_bps": point["ll_rate_bps"]}
        named.append(("ll_source", src, Fraction(1)))
    return named


def build_stream(scenario: Scenario, point: dict):
    """Merged batch stream for one sweep point; nothing is built yet."""
    return merge([_materialize(src, scenario, factor)
                  for _, src, factor in _point_sources(scenario, point)])


def run_point(scenario: Scenario, algorithm: str, point: dict) -> MetricsReport:
    """One (algorithm, sweep point) simulation of a checked scenario, which it
    does not check again: it builds only ``point``'s sources. Picklable worker."""
    return run(build_sim_config(scenario, algorithm), build_stream(scenario, point))


def default_threads() -> int:
    value = os.environ.get("EEESIM_THREADS", "").strip()
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            raise ConfigError(f"EEESIM_THREADS must be an integer, got {value!r}")
    return os.cpu_count() or 1


CSV_COLUMNS = (
    "algorithm", "ll_rate_bps", "normal_rate_bps", "mean_delay_normal_us",
    "mean_delay_ll_us", "normalized_energy", "drops_normal", "drops_ll",
    "mean_active_ports",
)


def _csv_row(algorithm: str, point: dict, report: MetricsReport) -> dict:
    def mean_of(cls):
        stats = report.delay[cls]
        return f"{stats['mean_us']:.6f}" if stats else "nan"

    return {
        "algorithm": algorithm,
        "ll_rate_bps": point["ll_rate_bps"],
        "normal_rate_bps": point["normal_rate_bps"],
        "mean_delay_normal_us": mean_of("normal"),
        "mean_delay_ll_us": mean_of("low_latency"),
        "normalized_energy": f"{report.normalized_energy:.9f}",
        "drops_normal": report.drops["normal"],
        "drops_ll": report.drops["low_latency"],
        "mean_active_ports": f"{report.mean_active_ports:.6f}",
    }


def run_sweep(scenario: Scenario, threads: int | None = None):
    """All (algorithm x sweep point) runs of ``scenario``, checked once here.

    Returns ``(jobs, reports)`` where ``jobs[i]`` is ``(algorithm, point)``
    and ``reports[i]`` the matching report. Worker-pool size comes from
    ``threads``, the EEESIM_THREADS environment variable, or the CPU count;
    result order is fixed by the sweep definition, not completion order.
    Progress (points done out of total, elapsed seconds) goes to stderr as
    each report arrives, in that order.

    A process that may run more than one job (in-process, or each pool
    worker where jobs outnumber workers) keeps its trace reads in a
    :func:`~eeesim.traffic.trace_memo` for the sweep, so it parses a trace
    once and replays it; see there for what is kept.
    """
    scenario.validate()
    points = scenario.sweep_points()
    jobs = [(alg, point) for alg in scenario.algorithms for point in points]
    n_threads = default_threads() if threads is None else max(1, threads)
    args = ([scenario] * len(jobs), *zip(*jobs))  # run_point's arguments, by column
    start = time.perf_counter()

    def collect(results):
        reports = []
        for report in results:
            reports.append(report)
            print(f"{scenario.name}: {len(reports)}/{len(jobs)} points done, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
        return reports

    if n_threads <= 1 or len(jobs) <= 1:
        with trace_memo() if len(jobs) > 1 else nullcontext():
            reports = collect(map(run_point, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor  # an in-process sweep skips its import
        workers = min(n_threads, len(jobs))
        keep = open_trace_memo if len(jobs) > workers else None
        with ProcessPoolExecutor(max_workers=workers, initializer=keep) as pool:
            reports = collect(pool.map(run_point, *args))
    return jobs, reports


def combined_csv(jobs, reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for (alg, point), report in zip(jobs, reports):
        writer.writerow(_csv_row(alg, point, report))
    return buf.getvalue()


def run_scenario(scenario: Scenario, output_dir=None, threads=None,
                 epoch_csv: bool = False):
    """Run a scenario and write its report files.

    Writes ``combined.csv`` plus one ``<algorithm>-ll<ra>-n<rb>.json`` per
    run (and optionally the per-epoch port-load CSV). Outputs are a pure
    function of the scenario, so re-running overwrites identical bytes.
    """
    out = Path(output_dir or scenario.output_dir or f"out/{scenario.name}")
    scenario.validate()  # a bad scenario leaves no output dir behind
    try:  # before the sweep, so an unwritable directory costs no run
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from None
    jobs, reports = run_sweep(scenario, threads)
    files = []  # (path, text) of each report file, in the order written
    for (alg, point), report in zip(jobs, reports):
        stem = f"{alg}-ll{point['ll_rate_bps']}-n{point['normal_rate_bps']}"
        files.append((out / f"{stem}.json", report.to_json() + "\n"))
        if epoch_csv:
            files.append((out / f"{stem}.epochs.csv", report.epoch_loads_csv()))
    files.append((out / "combined.csv", combined_csv(jobs, reports)))
    for path, text in files:
        try:
            path.write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    return jobs, reports, [path for path, _ in files]


# ---------------------------------------------------------------------------
# Built-in scenarios. Packet sizes stay at common wire values (1500 B bulk,
# 125 B real-time); durations are kept short because the port counts, delay
# bands and energy ratios settle within a few sampling periods.
# ---------------------------------------------------------------------------

def _normal_mix(total_bps, shares, size=1500, line_rate=10_000_000_000):
    """Bursty flows named n0..n{k-1} whose nominal rates follow ``shares``."""
    scale = total_bps / sum(shares)
    return [
        {
            "kind": "bursty",
            "flow": f"n{i}",
            "size": size,
            "dscp": 0,
            "rate_bps": int(round(share * scale)),
            "line_rate_bps": line_rate,
            "burst_pkts": 500,
        }
        for i, share in enumerate(shares)
    ]


def qos_sweep_scenario(name="fig3") -> Scenario:
    """Low-latency delay/energy comparison near 65% bundle load.

    Eight bursty bulk flows sum to ~32.5 Gb/s on 5x10G (four active ports
    under the conservative family); a real-time flow sweeps 1 Mb/s to
    1 Gb/s. The same runs serve the delay views (normal and low-latency)
    and the energy view.
    """
    return Scenario(
        name=name,
        sim={
            "n_ports": 5,
            "capacity_bps": 10_000_000_000,
            "sampling_period_ns": 50_000_000,
            "warmup_ns": 200_000_000,
            "duration_ns": 300_000_000,
        },
        sources=_normal_mix(32_500_000_000, [1] * 8),
        ll_source={
            "kind": "frames",
            "flow": "ll0",
            "size": 125,
            "dscp": 46,
            "line_rate_bps": 10_000_000_000,
        },
        algorithms=["conservative", "spare_port", "two_queues"],
        ll_rates_bps=[1_000_000, 10_000_000, 100_000_000, 1_000_000_000],
    )


def baseline_sweep_scenario(name="fig2") -> Scenario:
    """Delay of the energy-unaware baselines over five aggregate rates.

    A nine-flow bursty mix is scaled to 6.5 .. 32.5 Gb/s and pushed through
    the equitable, conservative, bounded-greedy and greedy allocators. The
    40 Gb/s instantaneous burst rate mirrors how compressing a line-rate
    capture multiplies its peak rates.
    """
    shares = [5.6, 4.3, 4.2, 3.9, 2.9, 2.3, 1.5, 0.8, 0.5]
    return Scenario(
        name=name,
        sim={
            "n_ports": 5,
            "capacity_bps": 10_000_000_000,
            "sampling_period_ns": 50_000_000,
            "warmup_ns": 200_000_000,
            "duration_ns": 300_000_000,
        },
        sources=_normal_mix(26_000_000_000, shares, line_rate=40_000_000_000),
        algorithms=["equitable", "conservative", "bounded_greedy", "greedy"],
        normal_rates_bps=[
            6_500_000_000, 13_000_000_000, 19_500_000_000,
            26_000_000_000, 32_500_000_000,
        ],
    )


def ordering_scenario(name="ordering") -> Scenario:
    """One bursty trace on which the four baselines separate cleanly.

    24 equal 0.95 Gb/s flows make the per-port loads a pure function of the
    algorithm (LPT balances at 7.6 Gb/s, bounded-greedy packs nine flows per
    port, greedy ten), so the qualitative delay ordering does not hinge on
    which particular flows share a port.
    """
    return Scenario(
        name=name,
        sim={
            "n_ports": 5,
            "capacity_bps": 10_000_000_000,
            "sampling_period_ns": 50_000_000,
            "warmup_ns": 200_000_000,
            "duration_ns": 300_000_000,
        },
        sources=_normal_mix(22_800_000_000, [1] * 24, line_rate=40_000_000_000),
        algorithms=["equitable", "conservative", "bounded_greedy", "greedy"],
    )


def mininet_scenario(name="testbed") -> Scenario:
    """Emulated-testbed analogue: 4x1G bundle, three bulk flows, two probes.

    Two 700 Mb/s paced flows and one ~600 Mb/s bursty flow (traffic
    generators pace in bursts, so the nominal 600 Mb/s lands a hair above
    the two-port boundary, as measured traffic always does) occupy three
    ports; two one-packet-per-second 64 B probes measure per-class delay,
    one marked low latency (DSCP 46) and one normal.
    """
    return Scenario(
        name=name,
        sim={
            "n_ports": 4,
            "capacity_bps": 1_000_000_000,
            "sampling_period_ns": 500_000_000,
            "warmup_ns": 1_500_000_000,
            "duration_ns": 8_500_000_000,
            "track_flows": ["probe-ll", "probe-norm"],
        },
        sources=[
            {"kind": "cbr", "flow": "bulk-a", "size": 1250, "dscp": 0,
             "rate_bps": 700_000_000, "offset_ns": 0},
            {"kind": "cbr", "flow": "bulk-b", "size": 1250, "dscp": 0,
             "rate_bps": 700_000_000, "offset_ns": 7143},
            {"kind": "bursty", "flow": "bulk-c", "size": 1500, "dscp": 0,
             "rate_bps": 600_024_000, "line_rate_bps": 10_000_000_000,
             "burst_pkts": 625},
            {"kind": "cbr", "flow": "probe-norm", "size": 64, "dscp": 0,
             "rate_bps": 512, "offset_ns": 250_000_000},
            {"kind": "cbr", "flow": "probe-ll", "size": 64, "dscp": 46,
             "rate_bps": 512, "offset_ns": 750_000_000},
        ],
        algorithms=["conservative", "spare_port", "two_queues"],
    )


_BUILTIN_BUILDERS = {
    "baseline-delay": baseline_sweep_scenario,
    "qos-sweep": qos_sweep_scenario,
    "ordering": ordering_scenario,
    "testbed": mininet_scenario,
    # short aliases; the delay, normal-delay and energy views all read from
    # the same QoS sweep, just different columns of its combined CSV
    "fig2": baseline_sweep_scenario,
    "fig3": qos_sweep_scenario,
    "fig4": qos_sweep_scenario,
    "fig5": qos_sweep_scenario,
    "mininet": mininet_scenario,
}


def builtin_scenarios() -> dict:
    return {name: builder(name) for name, builder in _BUILTIN_BUILDERS.items()}


def read_scenario(ref: str) -> dict:
    """The unchecked dict of a builtin name or a JSON file path."""
    if ref in _BUILTIN_BUILDERS:
        return _BUILTIN_BUILDERS[ref](ref).to_json_dict()
    try:
        data = json.loads(Path(ref).read_text())
    except FileNotFoundError:
        raise ConfigError(
            f"{ref!r} is neither a builtin scenario ({', '.join(sorted(_BUILTIN_BUILDERS))}) "
            f"nor a scenario file"
        ) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{ref}: invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{ref}: cannot read: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{ref}: a scenario is a JSON object, got {type(data).__name__}")
    return data


def load_scenario(ref: str) -> Scenario:
    """Scenario by builtin name or JSON file path."""
    if ref in _BUILTIN_BUILDERS:
        return _BUILTIN_BUILDERS[ref](ref)
    return Scenario.from_dict(read_scenario(ref))
