"""Run one ``eeesim`` command in this process, as the ``eeesim`` script would.

    python3 perfbench/launch.py --src SRC --result R.json --stamps S.txt \
        [--trace-dir D | --probe-setup] -- run qos-sweep --threads 1 ...

Before handing the arguments to ``eeesim.cli.main`` it wraps
``engine.run`` so that every call appends its ``perf_counter`` entry time to
the stamps file (the benchmark's set-up time ends at the first one; forked
pool workers inherit the wrapper). With ``--probe-setup`` the first call
kills the whole process group instead of simulating, so set-up time can be
sampled cheaply; the launcher must run in a session of its own. With
``--trace-dir`` it installs the layer tracer and removes it afterwards. On
exit it writes the peak resident set of this process and of
its largest reaped child, and whether every wrapper was removed, to the
result file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's peak resident set, from ``VmHWM`` where Linux gives it.

    ``ru_maxrss`` would start from the parent's peak at exec, which is the
    benchmark's own and can exceed the command's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--stamps", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--probe-setup", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import eeesim
    from eeesim import cli, engine, scenarios

    src = Path(args.src).resolve()
    if not Path(eeesim.__file__).resolve().is_relative_to(src):
        print(f"eeesim imported from {eeesim.__file__}, not {src}", file=sys.stderr)
        return 90

    original_run = engine.run

    @functools.wraps(original_run)
    def stamped_run(*a, **kw):
        with open(args.stamps, "a") as fh:
            fh.write(f"{time.perf_counter()!r}\n")
        if args.probe_setup:
            os.killpg(0, signal.SIGKILL)
        return original_run(*a, **kw)

    engine.run = scenarios.run = stamped_run
    tracer = None
    if args.trace_dir:
        from tracer import Tracer
        tracer = Tracer(args.trace_dir)
        tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        restored = tracer.uninstall() if tracer else True
        engine.run = scenarios.run = original_run
        restored = restored and engine.run is original_run is scenarios.run
        if tracer:
            tracer.dump()
    result = {
        "maxrss_self_kb": peak_rss_kb(),
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "wrappers_removed": restored,
    }
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
