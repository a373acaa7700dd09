"""Command-line experiment harness.

Subcommands: run, gen, scale, merge, mininet-scenario, report.
Exit codes: 0 success, 2 configuration error, 3 simulation fault.
EEESIM_THREADS overrides the sweep worker-pool size.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .engine import render_report
from .errors import ConfigError, SimulationFault, TraceError
from .scenarios import (
    Scenario,
    builtin_scenarios,
    load_scenario,
    read_scenario,
    run_scenario,
)
from .traffic import cbr_slabs, merge_slabs, packets, trace_slabs, write_trace

_RATE_SUFFIX = {"k": 10**3, "m": 10**6, "g": 10**9}
_TIME_SUFFIX = {"ns": 1, "us": 10**3, "ms": 10**6, "s": 10**9}


def _exact_int(text: str, number: str, mult: int, what: str) -> int:
    """round(number * mult), half to even, in exact rational arithmetic."""
    try:
        return round(Fraction(number) * mult)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse {what} {text!r} as a finite number") from None


def parse_rate(text: str) -> int:
    """'100M' -> 100_000_000 bits per second."""
    raw = text.strip().lower().removesuffix("bps").removesuffix("b/s")
    mult = 1
    if raw and raw[-1] in _RATE_SUFFIX:
        mult = _RATE_SUFFIX[raw[-1]]
        raw = raw[:-1]
    rate = _exact_int(text, raw, mult, "rate")
    if rate <= 0:
        raise ConfigError(f"rate must be at least 1 b/s, got {text!r}")
    return rate


def parse_time(text: str) -> int:
    """'1s' / '500ms' / '250us' / '40ns' -> nanoseconds; bare numbers are ns."""
    raw = text.strip().lower()
    mult = 1
    for suffix in ("ns", "us", "ms", "s"):
        if raw.endswith(suffix):
            raw, mult = raw[: -len(suffix)], _TIME_SUFFIX[suffix]
            break
    ns = _exact_int(text, raw, mult, "duration")
    if ns < 0:
        raise ConfigError(f"duration must not be negative, got {text!r}")
    return ns


def _fraction(text: str) -> Fraction:
    """argparse type for an exact factor such as 2, 0.5 or 3/2."""
    try:
        return Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None


def _apply_overrides(data: dict, overrides) -> None:
    """Apply --set dotted-path overrides to scalar fields of scenario ``data``."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.get(part)
            if not isinstance(node, dict):
                raise ConfigError(f"--set: {key!r} does not address a scenario field")
        node[parts[-1]] = value


def _dump_profile(profiler, path) -> None:
    try:
        profiler.dump_stats(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_run(args) -> int:
    if args.trace_scale is not None and not args.trace:
        raise ConfigError("--trace-scale needs --trace: it scales the trace --trace names")
    if args.set or args.trace:  # edit the scenario's dict, then parse and check it once
        data = read_scenario(args.scenario)
        _apply_overrides(data, args.set)
        if args.trace:  # substitute the synthetic bulk traffic with a recorded trace
            scale = 1 if args.trace_scale is None else args.trace_scale
            data["sources"] = [{"kind": "trace", "path": args.trace, "scale": str(scale)}]
        scenario = Scenario.from_dict(data)
    else:
        scenario = load_scenario(args.scenario)
    if args.dump_scenario:
        print(json.dumps(scenario.to_json_dict(), indent=2, sort_keys=True))
        return 0
    sweep = dict(output_dir=args.output_dir, threads=args.threads,
                 epoch_csv=args.epoch_csv)
    if args.profile:
        import cProfile  # only here: it costs every other run its import time

        profiler = cProfile.Profile()
        _dump_profile(profiler, args.profile)  # before the sweep, so a bad path costs no run
        try:
            jobs, reports, written = profiler.runcall(run_scenario, scenario, **sweep)
        finally:
            _dump_profile(profiler, args.profile)
    else:
        jobs, reports, written = run_scenario(scenario, **sweep)
    for path in written:
        print(path)
    return 0


def _write_merged(out, sources) -> int:
    """Write the merge of slab ``sources`` to the trace file ``out``."""
    print(f"{out}: {write_trace(out, packets(merge_slabs(sources)))} packets")
    return 0


def _cmd_gen(args) -> int:
    return _write_merged(args.out, [cbr_slabs(
        parse_rate(args.rate), args.size, args.dscp, parse_time(args.duration),
        start_offset_ns=parse_time(args.offset), flow=args.flow)])


def _cmd_scale(args) -> int:
    return _write_merged(args.out, [trace_slabs(args.input, args.factor)])


def _cmd_merge(args) -> int:
    return _write_merged(args.out, [trace_slabs(p) for p in args.inputs])


def _cmd_mininet(args) -> int:
    scenario = load_scenario("mininet")
    if args.duration:
        scenario.sim["duration_ns"] = parse_time(args.duration)
    jobs, reports, written = run_scenario(
        scenario, output_dir=args.output_dir, threads=args.threads
    )
    rows = [("algorithm", "probe delay normal (us)", "probe delay low-latency (us)")]
    for (alg, _), report in zip(jobs, reports):
        def fmt(flow):
            stats = report.flow_delays.get(flow)
            return f"{stats['mean_us']:.3f}" if stats else "n/a"
        rows.append((alg, fmt("probe-norm"), fmt("probe-ll")))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for path in written:
        print(path)
    return 0


def _cmd_report(args) -> int:
    for path in args.reports:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
        try:
            text = render_report(data)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: not an eeesim report ({exc!r})") from None
        print(f"== {path}")
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eeesim",
        description="Energy-Efficient Ethernet link-aggregate simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario sweep")
    p_run.add_argument("scenario",
                       help=f"builtin name ({', '.join(sorted(builtin_scenarios()))}) "
                            "or scenario JSON path")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker pool size (default: EEESIM_THREADS or CPU count)")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scalar scenario field, e.g. sim.duration_ns=1e8")
    p_run.add_argument("--trace", default=None,
                       help="replace synthetic bulk traffic with a trace-csv file")
    p_run.add_argument("--trace-scale", type=_fraction, default=None,
                       help="with --trace, divide trace timestamps by this exact "
                            "factor, e.g. 2, 0.5 or 3/2 (default 1)")
    p_run.add_argument("--epoch-csv", action="store_true",
                       help="also write per-epoch port-load CSVs")
    p_run.add_argument("--dump-scenario", action="store_true",
                       help="print the effective scenario JSON and exit")
    p_run.add_argument("--profile", metavar="PATH", default=None,
                       help="write a cProfile dump of the run to PATH (sweep "
                            "pool workers are not profiled; use --threads 1)")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a constant-bit-rate trace")
    p_gen.add_argument("--rate", required=True, help="e.g. 100M")
    p_gen.add_argument("--size", type=int, default=125, help="packet size in bytes")
    p_gen.add_argument("--dscp", type=int, default=0)
    p_gen.add_argument("--duration", required=True, help="e.g. 1s")
    p_gen.add_argument("--offset", default="0ns")
    p_gen.add_argument("--flow", default="cbr")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_scale = sub.add_parser("scale", help="rescale a trace's arrival times")
    p_scale.add_argument("input")
    p_scale.add_argument("--factor", type=_fraction, required=True,
                         help="divide timestamps by this exact factor, e.g. 2 "
                              "(doubles the rate), 0.1 or 3/2")
    p_scale.add_argument("--out", required=True)
    p_scale.set_defaults(func=_cmd_scale)

    p_merge = sub.add_parser("merge", help="merge traces into one ordered trace")
    p_merge.add_argument("inputs", nargs="+")
    p_merge.add_argument("--out", required=True)
    p_merge.set_defaults(func=_cmd_merge)

    p_mini = sub.add_parser("mininet-scenario",
                            help="run the built-in emulated-testbed analogue")
    p_mini.add_argument("--output-dir", default=None)
    p_mini.add_argument("--threads", type=int, default=None)
    p_mini.add_argument("--duration", default=None)
    p_mini.set_defaults(func=_cmd_mininet)

    p_rep = sub.add_parser("report", help="render report JSON files as text")
    p_rep.add_argument("reports", nargs="+")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
