"""One IEEE 802.3az port: sleep/wake state machine, dual priority queues.

The port is a single-owner state machine: only its owner's calls mutate
it, so there is no locking. State changes happen at integer-nanosecond
instants and every transition is accounted so that state residence times
over any window sum to the window length.

State machine rules:

* ``ACTIVE``  - a frame is on the wire. Transmission is non-preemptive and
  lasts exactly ``size*8/capacity`` (rounded to integer ns).
* ``LPI``     - low power idle. A new arrival starts a wake transition.
* ``SLEEP_TRANS`` - entered immediately when a transmission ends with both
  queues empty. The transition cannot be aborted: an arrival during it marks
  a pending wake that starts only when the sleep transition completes.
* ``WAKE_TRANS``  - after it completes the port starts transmitting.

Strict priority: when a transmission ends the next frame comes from the low
queue only if the high queue is empty. Both queues share one buffer of
``buffer_limit`` packets with tail drop.

Every state except ``LPI`` ends at a time the port already knows,
``next_at``; nothing outside the port can change it. The port therefore
runs lazily: :meth:`EeePort.serve` takes a time-ordered run of arrivals
and :meth:`EeePort.drain` fires what is due before the end of the run.
Each queue keeps its frames as int64 columns (:class:`_Fifo`); flows
travel as the int codes the engine gave them, which the port never reads.
``serve`` takes each run on one of two paths, which leave the port in the
same state and give the same completions and drops, in another order:

* the busy-period kernel, :meth:`EeePort._kernel`, on those columns and the
  run's. With ``c`` the end of the previous frame, a frame arriving at
  ``a <= c`` starts at ``c``, otherwise at ``max(a, c + t_sleep) +
  t_wake``. With ``P`` the prefix sums of wire times, a busy period can end
  only where ``a_i - P_{i-1}`` sets a strict running-max record. A Python
  loop over the records' values finds the periods' first frames, and one
  max-plus scan their starts. A period holding both queues is re-ordered by
  strict priority with one running max over its high frames. Where the run
  can fill the buffer, :meth:`EeePort._dropped` first finds the arrivals
  that meet it full, and the accepted ones are served as above: where every
  frame is in one queue, frames start in FIFO order and one block of array
  operations decides the arrivals until the frames queued at its first
  start have started; with both queues, one step per frame start. Low
  frames queued behind more wire time than the run spans cannot start
  before it ends: they stay in their queue untouched and count only towards
  the buffer;
* the handlers: per arrival, each transition due before it fires with one
  ``on_*`` call, then :meth:`EeePort.enqueue` takes it.

The kernel takes every run, dropping ones included, and declines only a
run where a time could leave the int64 range. The handlers take that run,
:meth:`EeePort.drain` and every run when ``_PATH`` is ``"handlers"``.

Residence and the wake and sleep counts are accounted in one place,
:meth:`EeePort._enter`: a run of states at once for the kernel, one state
at a time for the handlers (:meth:`EeePort._set_state`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from itertools import count

import numpy as np

from .errors import ConfigError, SimulationFault
from .traffic import Packet


class PortState(IntEnum):
    """Port states; the value indexes :attr:`EeePort.residence_ns`."""

    ACTIVE = 0
    LPI = 1
    SLEEP_TRANS = 2
    WAKE_TRANS = 3

    @property
    def key(self) -> str:
        """Name used in reports: ``active``, ``lpi``, ``sleep_trans``, ``wake_trans``."""
        return self.name.lower()


class Queue(IntEnum):
    HIGH = 0
    LOW = 1


ACTIVE, LPI, SLEEP_TRANS, WAKE_TRANS = PortState
HIGH = Queue.HIGH
_QUEUE_OF = (Queue.LOW, HIGH)  # by the high-queue flag
_INF = float("inf")
_I64_MAX = 2**63 - 1
#: the states a busy period passes through, in order, from the sleep after
#: the previous frame to its first frame's start
_PERIOD_STATES = np.array([SLEEP_TRANS, LPI, WAKE_TRANS, ACTIVE])
#: "handlers" serves every run on the handlers; a run that could leave
#: int64 goes to them anyway
_PATH = "kernel"
_NO_DROPS = np.empty(0, dtype=np.int64)


@dataclass(slots=True)
class EeePortConfig:
    """Physical parameters of one EEE port.

    Powers are normalized: the transition states draw the same power as
    ACTIVE, which is the common modelling assumption when the measured
    energy profile of the PHY is not available.
    """

    capacity_bps: int
    t_sleep_ns: int = 2280   # 10GBASE-T sleep transition
    t_wake_ns: int = 4480    # 10GBASE-T wake transition
    buffer_limit: int = 10000
    p_active: float = 1.0
    p_lpi: float = 0.1

    def validate(self) -> None:
        if self.capacity_bps <= 0:
            raise ConfigError(f"capacity must be positive, got {self.capacity_bps}")
        if self.t_sleep_ns < 0 or self.t_wake_ns < 0:
            raise ConfigError("transition times must be non-negative")
        if self.buffer_limit < 1:
            raise ConfigError(f"buffer limit must be >= 1, got {self.buffer_limit}")
        if not 0 <= self.p_lpi <= self.p_active:
            raise ConfigError("power levels must satisfy 0 <= p_lpi <= p_active")

    def tx_time_ns(self, size_bytes: int) -> int:
        """Wire time of a frame, rounded to the nearest nanosecond."""
        num = size_bytes * 8 * 10**9
        return (2 * num + self.capacity_bps) // (2 * self.capacity_bps)


class _WireTimes(dict):
    """Memo of wire time by frame size for one port configuration."""

    __slots__ = ("cfg",)

    def __init__(self, cfg: EeePortConfig):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, size: int) -> int:
        self[size] = ns = self.cfg.tx_time_ns(size)
        return ns


class _Fifo:
    """One queue: the int64 columns ``t, size, flow, dscp, seq, ci, w`` of
    its frames (``w`` is the wire time), of which rows ``head:tail`` wait, in
    order."""

    __slots__ = ("cols", "head", "tail")

    def __init__(self, cols):
        self.cols = cols
        self.head, self.tail = 0, len(cols[0])

    def __len__(self) -> int:
        return self.tail - self.head

    def waiting(self, k=None) -> list:
        """The columns of the frames waiting, or of the first ``k``."""
        end = self.tail if k is None else self.head + k
        return [col[self.head:end] for col in self.cols]

    def _room(self, k: int) -> None:
        if self.tail + k > len(self.cols[0]):  # keep the waiting rows, double
            self.cols = [np.concatenate((col, np.empty(len(self) + k + 8, col.dtype)))
                         for col in self.waiting()]
            self.head, self.tail = 0, len(self)

    def append(self, row) -> None:
        self._room(1)
        for col, value in zip(self.cols, row):
            col[self.tail] = value
        self.tail += 1

    def extend(self, rows) -> None:
        """Queue the frames of the columns ``rows`` behind the others."""
        k = len(rows[0])
        self._room(k)
        for col, new in zip(self.cols, rows):
            col[self.tail:self.tail + k] = new
        self.tail += k

    def popleft(self):
        """The frame at the head, as ``(Packet, class)``, taken off the queue."""
        *pkt, ci, _ = (int(col[self.head]) for col in self.cols)
        self.head += 1
        return Packet(*pkt), ci


def _reach(w, room) -> int:
    """How many of the frames with wire times ``w``, sent back to back, start
    within ``room`` ns; at least the first."""
    return min(len(w), int(np.searchsorted(np.cumsum(w), room)) + 1)


_EMPTY = (np.empty(0, dtype=np.int64),) * 7


class EeePort:
    """State machine, queues and state-residence accounting for one port.

    The transition due at ``next_at`` is fired by the handler for the
    current state: :meth:`on_tx_complete` (``ACTIVE``),
    :meth:`on_sleep_complete` (``SLEEP_TRANS``) or :meth:`on_wake_complete`
    (``WAKE_TRANS``). ``window`` is the ``(start, end)`` interval over which
    residence times are accounted; ``wakes`` and ``sleeps`` count the wake
    and sleep transitions entered over the whole run.
    """

    __slots__ = (
        "index", "cfg", "state", "state_since", "next_at",
        "high", "low", "tx_packet", "tx_class", "tx_start",
        "clock", "residence_ns", "win_start", "win_end", "wakes", "sleeps",
        "_limit", "_wire_ns",
    )

    def __init__(self, index: int, cfg: EeePortConfig, window=(0, None)):
        cfg.validate()
        self.index = index
        self.cfg = cfg
        self.state = LPI                    # ports start cold, in LPI
        self.state_since = 0
        self.next_at = _INF                 # LPI ends only on an arrival
        self.high = _Fifo(_EMPTY)
        self.low = _Fifo(_EMPTY)
        self.tx_packet = None
        self.tx_class = None
        self.tx_start = 0
        self.clock = 0
        self.residence_ns = [0] * len(PortState)
        self.win_start, end = window
        self.win_end = _I64_MAX if end is None else end
        self.wakes = self.sleeps = 0
        self._limit = cfg.buffer_limit
        self._wire_ns = _WireTimes(cfg)

    @property
    def occupancy(self) -> int:
        return len(self.high) + len(self.low)

    @property
    def held(self) -> int:  # frames queued or on the wire
        return len(self.high) + len(self.low) + (self.tx_packet is not None)

    def _set_state(self, new: PortState, now: int) -> None:
        """Enter ``new`` at ``now``: the handlers' one state change."""
        self._enter(np.array([now]), np.array([new]))

    def enqueue(self, pkt, queue: Queue, cls: int, now: int):
        """Accept or tail-drop an arriving frame.

        Returns ``(accepted, next_at)``. A frame arriving to an LPI port
        starts the wake transition; during SLEEP_TRANS the wake is deferred
        until the sleep transition completes (non-empty queues mark the
        pending wake). The caller fires the port's transitions due strictly
        before ``now`` first.
        """
        if now < self.clock:
            raise SimulationFault(
                f"port {self.index}: time went backwards ({now} < {self.clock})"
            )
        self.clock = now
        if len(self.high) + len(self.low) >= self._limit:
            return False, self.next_at
        (self.high if queue is HIGH else self.low).append((*pkt, cls, self._wire_ns[pkt[1]]))
        if self.state is LPI:
            self._set_state(WAKE_TRANS, now)
            self.next_at = now + self.cfg.t_wake_ns
        return True, self.next_at

    def on_tx_complete(self, now: int):
        """Finish the frame in flight and start the next one or the sleep.

        Returns ``(packet, class, delay, tx_start)`` of the finished frame.
        """
        pkt = self.tx_packet
        if pkt is None or self.next_at != now:
            raise SimulationFault(
                f"port {self.index}: tx completion at {now} without matching transmission"
            )
        record = (pkt, self.tx_class, now - pkt[0], self.tx_start)
        self.clock = now
        queue = self.high or self.low
        if queue:
            pkt, self.tx_class = queue.popleft()
            self.tx_packet = pkt
            self.tx_start = now
            self.next_at = now + self._wire_ns[pkt[1]]
        else:
            self.tx_packet = self.tx_class = None
            self._set_state(SLEEP_TRANS, now)
            self.next_at = now + self.cfg.t_sleep_ns
        return record

    def on_sleep_complete(self, now: int) -> None:
        if self.state is not SLEEP_TRANS or self.next_at != now:
            raise SimulationFault(
                f"port {self.index}: sleep completion at {now} in state {self.state.key}"
            )
        self.clock = now
        if self.occupancy:
            # One wake serves however many arrivals queued up meanwhile.
            self._set_state(WAKE_TRANS, now)
            self.next_at = now + self.cfg.t_wake_ns
        else:
            self._set_state(LPI, now)
            self.next_at = _INF

    def on_wake_complete(self, now: int) -> None:
        if self.state is not WAKE_TRANS or self.next_at != now:
            raise SimulationFault(
                f"port {self.index}: wake completion at {now} in state {self.state.key}"
            )
        self.clock = now
        queue = self.high or self.low
        if not queue:
            raise SimulationFault(
                f"port {self.index}: woke at {now} with both queues empty"
            )
        self._set_state(ACTIVE, now)
        pkt, self.tx_class = queue.popleft()
        self.tx_packet = pkt
        self.tx_start = now
        self.next_at = now + self._wire_ns[pkt[1]]

    def serve(self, t, size, flow, dscp, seq, ci, high):
        """Take a time-ordered run of arrivals: the port's one entry point.

        The arguments are the arrivals' columns: int64 ``t``, ``size``,
        ``flow`` (codes), ``dscp``, ``seq`` and class index ``ci``, and bool
        ``high`` for the high queue. With ``H = t[-1]``, the port ends as
        if each arrival had been handed to :meth:`enqueue` after the
        transitions due before it: every timed transition before ``H`` and
        every arrival-triggered wake at or before ``H`` is fired.

        Returns ``(frames, start, end, done, dropped)``: ``frames`` holds
        the columns ``(t, size, flow, dscp, seq, ci)`` of frames the run
        touched, ``start`` and ``end`` their wire times, ``done`` indexes
        the frames that completed before ``H`` and ``dropped`` the arrivals
        that were tail-dropped.
        """
        if _PATH == "kernel":
            served = self._kernel(t, size, flow, dscp, seq, ci, high)
            if served is not None:
                return served
        finished, dropped = [], []
        arrivals = zip(*(col.tolist() for col in (t, size, flow, dscp, seq)))
        queues = map(_QUEUE_OF.__getitem__, high.tolist())
        for i, pkt, queue, c in zip(count(), arrivals, queues, ci.tolist()):
            now = pkt[0]
            if self.next_at < now:  # same-instant arrivals precede completions
                self._fire(now, finished)
            if not self.enqueue(pkt, queue, c, now)[0]:
                dropped.append(i)
        return (*_completions(finished), np.array(dropped, dtype=np.int64))

    def drain(self, horizon):
        """Fire the transitions due before ``horizon``; returns the frames
        finished as :meth:`serve` does, without ``dropped``."""
        finished = []
        self._fire(horizon, finished)
        return _completions(finished)

    def _fire(self, horizon, finished: list) -> None:
        """:meth:`drain` that extends ``finished`` by the fields of each frame
        finished: ``t, size, flow, dscp, seq, class, delay, tx_start``."""
        while self.next_at < horizon:
            now = self.next_at
            state = self.state
            if state is ACTIVE:
                pkt, cls, delay, started = self.on_tx_complete(now)
                finished += pkt
                finished += cls, delay, started
            elif state is SLEEP_TRANS:
                self.on_sleep_complete(now)
            else:
                self.on_wake_complete(now)

    def _kernel(self, t, size, flow, dscp, seq, ci, high):
        """:meth:`serve` on whole busy periods; None, changing nothing, where a
        time could leave int64. ``frames`` lead with the frames held before
        that could start by ``H``."""
        last = int(t[-1])
        if int(t[0]) < self.clock or (t[1:] < t[:-1]).any():
            raise SimulationFault(f"port {self.index}: arrivals not time-ordered")
        if int(size.max()) > (_I64_MAX - 2 * self.cfg.capacity_bps) // 16_000_000_000:
            return None
        w = self.cfg.tx_time_ns(size)  # exact in int64 below that size
        state = self.state
        idle = state is SLEEP_TRANS or state is LPI
        in_flight = state is ACTIVE
        t_sleep, t_wake = self.cfg.t_sleep_ns, self.cfg.t_wake_ns
        highs, lows = self.high.waiting(), self.low.waiting()
        held = [highs, lows]
        flags = [np.ones(len(self.high), dtype=bool), np.zeros(len(self.low), dtype=bool)]
        if in_flight:  # the frame in flight leads; it is never re-ordered
            pkt = self.tx_packet
            held.insert(0, [np.array([x]) for x in
                            (*pkt, self.tx_class, self._wire_ns[pkt[1]])])
            flags.insert(0, np.zeros(1, dtype=bool))
        # every start and end is at most this; intermediates stay below it too
        base = last if self.next_at == _INF else max(last, self.next_at)
        w_max = max(int(x.max()) for x in (w, *(part[6] for part in held)) if len(x))
        if base + t_sleep + t_wake + w_max * (sum(map(len, flags)) + len(t)) > _I64_MAX:
            return None
        if len(self.low):  # frames are queued: the wire frees at ``free``
            free = self.next_at + (t_wake if state is SLEEP_TRANS else 0)
            shallow = _reach(lows[6], last - free - int(highs[6].sum()))
            held[-1] = self.low.waiting(shallow)
            flags[-1] = flags[-1][:shallow]
        nc = sum(map(len, flags))
        cols = [np.concatenate(parts) for parts in zip(*held, (t, size, flow, dscp, seq, ci, w))]
        w, high = cols[6], np.concatenate((*flags, high))
        if idle:  # the earliest a wake can start
            lead = (self.next_at if state is SLEEP_TRANS else self.state_since, True, False)
        else:  # the time the leading frame starts, or started
            lead = (self.tx_start if in_flight else self.next_at, False, in_flight)
        start, periods = self._schedule(cols[0], w, high, *lead)
        dropped = _NO_DROPS
        if len(self.high) + len(self.low) + len(t) > self._limit:  # the buffer could fill
            deep = len(self.high) + len(self.low) + in_flight - nc  # hold their slots
            dropped = self._dropped(cols[0], w, high, start, nc, self._limit - deep)
            if len(dropped):
                keep = np.ones(len(high), dtype=bool)
                keep[dropped] = False
                cols = [col[keep] for col in cols]
                w, high = cols[6], high[keep]
                start, periods = self._schedule(cols[0], w, high, *lead)
                dropped = dropped - nc
        t = cols[0]
        heads, wakes, thetas, before = periods
        end = start + w
        if (start < t).any():
            raise SimulationFault(f"port {self.index}: a frame starts before it arrives")
        flying = np.flatnonzero((start < last) & (end >= last))
        if len(flying) > 1:
            raise SimulationFault(
                f"port {self.index}: {len(flying)} frames in flight at {last}")

        # Every period but the last ends before ``last``, so all its
        # transitions fire; the last one may still be asleep or waking.
        times, states = [], []
        if state is WAKE_TRANS and self.next_at < last:
            times.append(np.array([self.next_at]))
            states.append(np.array([ACTIVE]))
        if len(wakes):
            # the frame before each period ends, the port sleeps, then wakes
            prev_end = thetas[:-1] + before[heads[1:]]
            if idle:
                prev_end = np.concatenate(([self.state_since], prev_end))
            ready = prev_end + t_sleep
            if state is LPI:  # a cold port, in LPI since it started
                ready[0] = self.state_since
            at = np.stack((prev_end, ready, wakes, wakes + t_wake), axis=1)
            fires = np.ones(at.shape, dtype=bool)
            fires[:, 1] = wakes > ready  # idle in LPI until an arrival woke it
            if idle:  # already asleep or in LPI
                fires[0, 0] = False
                fires[0, 1] &= state is SLEEP_TRANS
            woke = (fires[-1, 1] or ready[-1] < last
                    or len(wakes) == 1 and state is LPI)
            fires[-1, 2] = woke
            fires[-1, 3] = woke and at[-1, 3] < last
            times.append(at[fires])
            states.append(np.broadcast_to(_PERIOD_STATES, at.shape)[fires])
        if times:
            self._enter(np.concatenate(times), np.concatenate(states))

        self.clock = last
        state = self.state
        if state is ACTIVE:
            if len(flying) != 1:
                raise SimulationFault(
                    f"port {self.index}: active at {last} with no frame in flight")
            f = int(flying[0])
            self.tx_packet = tuple(int(col[f]) for col in cols[:5])
            self.tx_class = int(cols[5][f])
            self.tx_start = int(start[f])
            self.next_at = int(end[f])
        else:
            if len(flying) or state is LPI:
                raise SimulationFault(
                    f"port {self.index}: {state.key} at {last} with frames to serve")
            self.tx_packet = self.tx_class = None
            self.next_at = self.state_since + (
                t_sleep if state is SLEEP_TRANS else t_wake)
        done = np.flatnonzero(end < last)
        if len(done) and state is not ACTIVE:  # as on_tx_complete leaves it
            self.tx_start = int(start[done].max())
        # each queue loses the frames it started, a prefix, and gains the
        # run's arrivals still waiting, a suffix of the run's in that queue
        waiting = start >= last
        mixed = high[nc:].any() and not high[nc:].all()
        for queue, mine in ((self.high, high), (self.low, ~high)):
            queue.head += int(np.count_nonzero(mine[in_flight:nc] > waiting[in_flight:nc]))
            new = mine[nc:] & waiting[nc:]
            k = int(np.count_nonzero(new))
            if k:
                queue.extend([col[nc:][new] for col in cols] if mixed
                             else [col[len(col) - k:] for col in cols])
        return tuple(cols[:6]), start, end, done, dropped

    def _schedule(self, t, w, high, theta, idle, in_flight):
        """No-drop starts of the frames ``t`` (wire times ``w``, high queue
        ``high``), queued in this order, from ``theta``: the time the leading
        frame starts, or started if it is ``in_flight``, or, ``idle``, the
        earliest time a wake can start. Returns ``(start, periods)``; the
        busy periods are the int64 arrays ``(heads, wakes, thetas, before)``:
        their first frames, the starts of their wakes (none for one that is
        already awake) and the FIFO starts of their first frames less the
        wire time ahead of them, and the wire time ahead of each frame."""
        t_sleep, t_wake = self.cfg.t_sleep_ns, self.cfg.t_wake_ns
        before = np.cumsum(w) - w  # wire time of the frames ahead, FIFO order
        slack = t - before

        # A busy period whose first frame j starts at s_j holds frame i > j
        # while slack_i <= s_j - before_j, so it can end only at a strict
        # running-max record of slack. The frame at a record opens a period
        # if it arrives after the wire frees: if its slack exceeds ``theta``,
        # the open period's first start less the wire time ahead of it.
        prior = np.empty_like(slack)
        np.maximum.accumulate(slack[:-1], out=prior[1:])
        if idle:  # the first frame opens a busy period
            theta = max(int(t[0]), theta) + t_wake  # no wake before the sleep ends
            prior[0] = slack[0]
        else:
            prior[0] = theta
            np.maximum(prior, theta, out=prior)
        records = np.flatnonzero(slack > prior)
        opens = [0]
        first, add = theta, opens.append
        for k, x in zip(records.tolist(), slack[records].tolist()):
            if x > theta:  # a wake starts at x or, if later, when the sleep ends
                ready = theta + t_sleep
                theta = (x if x > ready else ready) + t_wake
                add(k)
        # at the m-th head theta_m = max(x_m + t_wake, theta_{m-1} + c), with
        # c = t_sleep + t_wake: theta_m - m c is a running max from ``first``
        heads = np.array(opens)
        step = np.arange(len(heads)) * (t_sleep + t_wake)
        thetas = slack[heads] + t_wake
        thetas[0] = first
        thetas = np.maximum.accumulate(thetas - step) + step
        wakes = thetas[1 - idle:] - t_wake + before[heads[1 - idle:]]
        start = np.repeat(thetas, np.concatenate((heads[1:], [len(t)])) - heads) + before
        if high.any() and not high.all():
            self._by_priority(t, w, high, start, heads, in_flight)
        return start, (heads, wakes, thetas, before)

    def _dropped(self, t, w, high, start, nc, limit):
        """The arrivals, ``nc`` on, that meet a full buffer of ``limit``
        frames, given ``start`` of :meth:`_schedule`.

        An arrival meets a full buffer when the frames held before it, less
        the frames started strictly before it, reach ``limit``. A no-drop
        schedule is exact up to the first such arrival. From there
        :meth:`_blocks` decides the arrivals if every frame is in one queue,
        :meth:`_steps` if not, until no more can drop or the queue empties;
        then a no-drop schedule from that instant takes over again.
        """
        n = len(t)
        stretch = self._steps if high.any() and not high.all() else self._blocks
        p = k = nc  # the first arrival not decided; ``start`` covers ``p - k:``
        out = []
        while True:
            excess = (np.arange(k + 1 - limit, k + 1 - limit + n - p)
                      - np.searchsorted(np.sort(start), t[p:]))
            full = np.flatnonzero(excess > 0)
            if not len(full):
                return np.array(out, dtype=np.int64)
            j = p + int(full[0])
            waiting = np.arange(p - k, j)[start[:k + j - p] >= t[j]]
            e = int(start[start >= t[j]].min())  # the next start
            slept = stretch(t, w, high, waiting, e, j, limit, out)
            if slept is None:
                return np.array(out, dtype=np.int64)
            e, p = slept
            k = 0
            start = self._schedule(t[p:], w[p:], high[p:], e + self.cfg.t_sleep_ns,
                                   True, False)[0]

    def _steps(self, t, w, high, queued, e, p, limit, out):
        """Decide the arrivals from ``p`` on, with the frames ``queued``
        waiting for the start at ``e``: one step per frame start. The arrivals by the
        start take the free slots, the rest are dropped, and the start frees
        one. Extends ``out`` by the arrivals dropped. Returns None once the
        free slots outnumber the arrivals left, else, when the queue empties,
        the instant ``e`` it does and the first arrival after it."""
        n, lo = len(t), p
        times, wires, ups = t[lo:].tolist(), w.tolist(), high.tolist()
        hq, lq = deque(), deque()
        for i in queued.tolist():
            (hq if ups[i] else lq).append(i)
        free = limit - len(queued)
        while True:
            q = lo + bisect_right(times, e, p - lo)  # the arrivals by the start
            if q > p:
                take = min(q - p, free)
                for i in range(p, p + take):
                    (hq if ups[i] else lq).append(i)
                out += range(p + take, q)
                free -= take
                p = q
            if free >= n - p:
                return None
            if hq:
                e += wires[hq.popleft()]
            elif lq:
                e += wires[lq.popleft()]
            else:
                return e, p
            free += 1

    def _blocks(self, t, w, high, queued, e, p, limit, out):
        """:meth:`_steps` for frames of one queue, which start in FIFO order:
        one block decides every arrival until the frames ``queued`` have all
        started and the wire frees, and those it accepts are the next block's
        queue."""
        n = len(t)
        while True:
            free = limit - len(queued)
            if free >= n - p:
                return None
            if not len(queued):
                return e, p
            ends = e + np.cumsum(w[queued])  # sent back to back from ``e``
            starts = np.concatenate(([e], ends[:-1]))
            e = int(ends[-1])
            q = int(np.searchsorted(t, e, "right"))  # the arrivals by then
            # the arrivals accepted through arrival i, A_i = min(A_{i-1} + 1,
            # free + the starts strictly before it): a running minimum
            i = np.arange(q - p)
            took = i + np.minimum(1, np.minimum.accumulate(
                free + np.searchsorted(starts, t[p:q]) - i))
            taken = np.diff(took, prepend=0) > 0
            out += (np.flatnonzero(~taken) + p).tolist()
            queued = np.flatnonzero(taken) + p
            p = q

    def _enter(self, times, states) -> None:
        """Enter ``states`` at ``times``, in order: account the residence of
        each state left, count the wakes and sleeps entered. Re-entering the
        state the port is in (as :meth:`finalize` does) is no transition."""
        if not len(times):
            return
        since = np.concatenate(([self.state_since], times[:-1]))
        was = np.concatenate(([self.state], states[:-1]))
        spent = np.minimum(times, self.win_end) - np.maximum(since, self.win_start)
        residence = np.zeros(len(PortState), dtype=np.int64)
        np.add.at(residence, was, np.maximum(spent, 0))
        for state, ns in enumerate(residence.tolist()):
            self.residence_ns[state] += ns
        entered = states[states != was]
        self.wakes += int(np.count_nonzero(entered == WAKE_TRANS))
        self.sleeps += int(np.count_nonzero(entered == SLEEP_TRANS))
        self.state = PortState(int(states[-1]))
        self.state_since = int(times[-1])

    def _by_priority(self, t, w, high, start, heads, in_flight):
        """Re-order ``start`` by strict priority in each busy period.

        ``heads`` are the first frames of the busy periods; a leading frame
        in flight keeps its place. A period's frames are sent back to back
        from its first start ``tau``, so a frame starts at ``tau`` plus the
        wire time of the low frames ``Wl`` and the high frames ``Wh`` sent
        before it. High frame ``i`` goes at the first such instant at or
        after its arrival that follows high frame ``i - 1``: after
        ``m_i = max(m_{i-1}, c_i)`` low frames, ``c_i`` the fewest with
        ``tau + Wl + Wh >= a_i``. A low frame follows the high frames with
        ``m_i`` at most its rank.
        """
        first = heads[0] + in_flight
        sizes = np.concatenate((heads[1:], [len(t)])) - heads
        period = np.repeat(np.arange(len(heads)), sizes)[first:]
        up = high[first:]
        tau = start[heads]
        tau[0] = start[first]
        h_idx, l_idx = np.flatnonzero(up) + first, np.flatnonzero(~up) + first
        wl = np.concatenate(([0], np.cumsum(w[l_idx])))
        wh = np.concatenate(([0], np.cumsum(w[h_idx])))
        # the low and high frames sent before each period
        l_first = np.concatenate(([0], np.cumsum(np.bincount(period[~up], minlength=len(heads)))))
        h_first = np.concatenate(([0], np.cumsum(np.bincount(period[up], minlength=len(heads)))))
        p = period[up]
        lo = l_first[p]
        ahead = wh[:-1] - wh[h_first[p]]  # high wire time ahead, in the period
        c = np.searchsorted(wl, t[h_idx] - tau[p] - ahead + wl[lo])
        m = np.maximum.accumulate(np.maximum(c, lo))
        start[h_idx] = tau[p] + wl[m] - wl[lo] + ahead
        p = period[~up]
        highs = np.searchsorted(m, np.arange(len(l_idx)), "right")
        start[l_idx] = tau[p] + wl[:-1] - wl[l_first[p]] + wh[highs] - wh[h_first[p]]

    def finalize(self, end: int) -> None:
        """Close the accounting at the end of the measured run."""
        self._enter(np.array([end]), np.array([self.state]))


def _completions(finished):
    """The fields of finished frames, as :meth:`EeePort._fire` lists them, as
    ``(frames, start, end, done)`` of the kernel."""
    # flat, with no object per frame: records kept alive kept the GC busy
    n = len(finished) // 8
    t, size, flow, dscp, seq, ci, delay, start = (np.fromiter(finished[k::8], np.int64, n)
                                                  for k in range(8))
    return (t, size, flow, dscp, seq, ci), start, t + delay, np.arange(len(t))
