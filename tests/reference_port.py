"""Per-event reference for ``EeePort.serve`` and ``EeePort.drain``.

The port serves whole runs of arrivals with its busy-period kernel and
drains in closed form. The functions here drive the same port one event at
a time through its handlers instead: each transition due strictly before an
arrival fires with one ``on_*`` call, then ``enqueue`` takes the arrival.
They take and return what ``serve`` and ``drain`` do, so a test can set them
on ``EeePort`` in their place and run the engine on the handlers; comparing
the two is a check in the way ``oracle_simulate`` is one for the engine.
"""

import numpy as np

from eeesim.eee_port import PortState, Queue


def fire(port, horizon, finished, log=None):
    """Fire the transitions due strictly before ``horizon``: extend
    ``finished`` by ``(packet, delay, tx_start)`` for each frame
    finished and ``log``, if given, by ``(now, old, new)`` for each state
    change."""
    while port.next_at < horizon:
        now, old = port.next_at, port.state
        if old is PortState.ACTIVE:
            finished.append(port.on_tx_complete(now))
        elif old is PortState.SLEEP_TRANS:
            port.on_sleep_complete(now)
        else:
            port.on_wake_complete(now)
        if log is not None and port.state is not old:
            log.append((now, old, port.state))


def _completions(finished):
    """``(frames, start, end, done)`` of the frames ``finished``, in the
    columns ``EeePort.serve`` returns."""
    rows = [(*pkt, delay, started) for pkt, delay, started in finished]
    t, size, flow, seq, delay, start = (
        np.array(col, dtype=np.int64) for col in (zip(*rows) if rows else [()] * 6))
    return (t, size, flow, seq), start, t + delay, np.arange(len(t))


def serve(port, t, size, flow, seq, high, log=None):
    """``EeePort.serve`` on the handlers, one arrival at a time."""
    finished, dropped = [], []
    arrivals = zip(*(col.tolist() for col in (t, size, flow, seq)))
    for i, (pkt, up) in enumerate(zip(arrivals, high.tolist())):
        now = pkt[0]
        fire(port, now, finished, log)  # same-instant arrivals precede completions
        old = port.state
        if not port.enqueue(pkt, Queue.HIGH if up else Queue.LOW, now)[0]:
            dropped.append(i)
        if log is not None and port.state is not old:
            log.append((now, old, port.state))
    return (*_completions(finished), np.array(dropped, dtype=np.int64))


def drain(port, horizon, log=None):
    """``EeePort.drain`` on the handlers."""
    finished = []
    fire(port, horizon, finished, log)
    return _completions(finished)


def drive(port, arrivals, log=None):
    """Feed ``(t, size, queue)`` arrivals to one port on the handlers, then
    run it until idle; frame ``i`` has flow and seq ``i``.

    Returns ``(departures, dropped)``: ``[(seq, departure, tx_start)]`` in
    service order and the seqs of tail-dropped frames. ``log`` gets
    ``(now, old_state, new_state)`` for each state change.
    """
    t, size, queue = zip(*arrivals)
    seq = np.arange(len(t))
    cols = [np.array(t), np.array(size), seq, seq, np.array(queue) == Queue.HIGH]
    *_, dropped = served = serve(port, *cols, log=log)
    departures = []
    for frames, start, end, _ in (served[:4], drain(port, float("inf"), log)):
        departures += zip(frames[3].tolist(), end.tolist(), start.tolist())
    return departures, dropped.tolist()
