"""Outside-in tracing of one ``eeesim`` process and its pool workers.

The tracer replaces the public entry points of each layer with timing
wrappers, from outside the package, and puts the originals back on
``uninstall``. Coarse calls (a sweep, a job, a stream build, an engine run,
a control epoch) become spans ``[id, name, start, end, parent, attrs]``;
calls made once per packet only bump a ``[calls, seconds]`` cell. Times come
from ``time.perf_counter``, which is system-wide on Linux, so spans written
by forked pool workers line up with the parent's.

Each process writes its own ``<pid>.json`` into the trace directory: a
worker after every job it runs, the main process when it finishes.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter

from eeesim import cli, engine, scenarios
from eeesim.eee_port import EeePort
from eeesim.engine import FlowTable

#: per-packet cells; ``reduce`` sums the time from an engine run's last port
#: callback to its return.
CELLS = ("dispatch", "enqueue", "drops", "tx_complete", "sleep_complete",
         "wake_complete", "reduce")


class Tracer:
    """Wrappers, spans and cells of one process tree; ``dump`` writes them."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.spans: list = []
        self.stack: list = []
        self.cells = {name: [0, 0.0] for name in CELLS}
        self.last_port_cb = [0.0]
        self.next_id = 0
        self.patches: list = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ----------------------------------------------------------

    def _after_fork(self):
        # A worker keeps the open-span stack (so its jobs link to the sweep
        # that forked it) but starts with empty buffers.
        self.spans.clear()
        for cell in self.cells.values():
            cell[0], cell[1] = 0, 0.0

    def _span(self, name, fn, attrs=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = f"{os.getpid()}:{tracer.next_id}"
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
            extra = attrs(args, result) if attrs else {}
            tracer.spans.append([sid, name, start, end, parent, extra])
            if after:
                after(start, end)
            return result

        return wrapper

    def _count(self, name, fn, port_cb=False):
        cell = self.cells[name]
        last = self.last_port_cb

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
            cell[0] += 1
            cell[1] += t1 - t0
            if port_cb:
                last[0] = t1
            return result

        return wrapper

    def _enqueue(self, fn):
        counted = self._count("enqueue", fn, port_cb=True)
        drops = self.cells["drops"]

        @functools.wraps(fn)
        def wrapper(*args):
            result = counted(*args)
            if not result[0]:
                drops[0] += 1
            return result

        return wrapper

    def _materialized_merge(self, merge):
        # Drain every source before merging so synthesis and merge are timed
        # apart; the merged packets are identical, only held in memory.
        def synth(streams):
            return [list(s) for s in streams]

        synth = self._span("traffic.synth", synth,
                           attrs=lambda a, r: {"pkts": sum(map(len, r))})
        drain = self._span("traffic.merge", lambda lists: list(merge(lists)),
                           attrs=lambda a, r: {"pkts": len(r)})

        @functools.wraps(merge)
        def wrapper(streams):
            return iter(drain(synth(streams)))

        return wrapper

    def _run_done(self, start, end):
        if self.last_port_cb[0] > start:
            cell = self.cells["reduce"]
            cell[0] += 1
            cell[1] += end - self.last_port_cb[0]

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        job = self._span("scenarios.run_point", scenarios.run_point,
                         attrs=lambda a, r: {"algorithm": a[1]},
                         after=lambda s, e: self.dump())
        run = self._span("engine.run", engine.run, after=self._run_done)
        scenario = self._span("scenarios.run_scenario", scenarios.run_scenario)
        self._patch(cli, "run_scenario", scenario)
        self._patch(scenarios, "run_scenario", scenario)
        self._patch(scenarios, "run_sweep",
                    self._span("scenarios.run_sweep", scenarios.run_sweep))
        self._patch(scenarios, "run_point", job)
        self._patch(scenarios, "build_stream",
                    self._span("scenarios.build_stream", scenarios.build_stream,
                               attrs=lambda a, r: {
                                   "point": json.dumps(a[1], sort_keys=True)}))
        self._patch(scenarios, "merge", self._materialized_merge(scenarios.merge))
        self._patch(engine, "run", run)
        self._patch(scenarios, "run", run)
        self._patch(FlowTable, "dispatch", self._count("dispatch", FlowTable.dispatch))
        self._patch(FlowTable, "control_epoch",
                    self._span("engine.control_epoch", FlowTable.control_epoch))
        self._patch(engine, "estimate_rates",
                    self._span("allocation.estimate_rates", engine.estimate_rates,
                               attrs=lambda a, r: {"flows": len(r)}))
        self._patch(engine, "allocate",
                    self._span("allocation.allocate", engine.allocate))
        self._patch(EeePort, "enqueue", self._enqueue(EeePort.enqueue))
        for name in ("tx_complete", "sleep_complete", "wake_complete"):
            attr = f"on_{name}"
            self._patch(EeePort, attr,
                        self._count(name, getattr(EeePort, attr), port_cb=True))

    def uninstall(self) -> bool:
        """Restore every original; True if each attribute is the original again."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        restored = all(getattr(o, a) is orig for o, a, orig in self.patches)
        self.patches.clear()
        return restored

    def dump(self):
        data = {"pid": os.getpid(), "spans": self.spans, "cells": self.cells}
        path = self.out_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        tmp.replace(path)
