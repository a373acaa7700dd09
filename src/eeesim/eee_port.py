"""One IEEE 802.3az port: sleep/wake state machine, dual priority queues.

The port is a single-owner state machine: only the engine's loop mutates
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
runs lazily: its owner fires the transitions due before an arrival, one
``on_*`` handler call each, before it hands the port that arrival.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum

from .errors import ConfigError, SimulationFault


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
_INF = float("inf")


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


class EeePort:
    """State machine, queues and state-residence accounting for one port.

    The transition due at ``next_at`` is fired by the handler for the
    current state: :meth:`on_tx_complete` (``ACTIVE``),
    :meth:`on_sleep_complete` (``SLEEP_TRANS``) or :meth:`on_wake_complete`
    (``WAKE_TRANS``). ``window`` is the ``(start, end)`` interval over which
    residence times are accounted.
    """

    __slots__ = (
        "index", "cfg", "state", "state_since", "next_at",
        "high", "low", "tx_packet", "tx_class", "tx_start",
        "clock", "residence_ns", "win_start", "win_end",
        "_limit", "_wire_ns",
    )

    def __init__(self, index: int, cfg: EeePortConfig, window=(0, None)):
        cfg.validate()
        self.index = index
        self.cfg = cfg
        self.state = LPI                    # ports start cold, in LPI
        self.state_since = 0
        self.next_at = _INF                 # LPI ends only on an arrival
        self.high: deque = deque()
        self.low: deque = deque()
        self.tx_packet = None
        self.tx_class = None
        self.tx_start = 0
        self.clock = 0
        self.residence_ns = [0] * len(PortState)
        self.win_start, end = window
        self.win_end = _INF if end is None else end
        self._limit = cfg.buffer_limit
        self._wire_ns = _WireTimes(cfg)

    @property
    def occupancy(self) -> int:
        return len(self.high) + len(self.low)

    def _accrue(self, now: int) -> None:
        lo = self.state_since if self.state_since > self.win_start else self.win_start
        hi = now if now < self.win_end else self.win_end
        if hi > lo:
            self.residence_ns[self.state] += hi - lo

    def _set_state(self, new: PortState, now: int) -> None:
        self._accrue(now)
        self.state = new
        self.state_since = now

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
        (self.high if queue is HIGH else self.low).append((pkt, cls))
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

    def finalize(self, end: int) -> None:
        """Close the accounting at the end of the measured run."""
        self._accrue(end)
        self.state_since = end
