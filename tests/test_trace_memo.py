"""Once-per-sweep trace reads: ``traffic.trace_memo`` and ``run_sweep``.

Inside a memo, the first complete, error-free read of a regular trace file
is kept and later reads of the same file replay it; a sweep opens one memo
around its jobs. These tests hold the replay to the parse, check what is
kept and what is not, and check that a changed file is read afresh.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import eeesim
from eeesim import scenarios, traffic
from eeesim.cli import main
from eeesim.errors import TraceError
from eeesim.scenarios import Scenario, run_scenario, run_sweep
from eeesim.traffic import trace_memo, trace_slabs
from test_columnar import slab_size

ALGORITHMS = ["conservative", "spare_port", "two_queues"]
SLAB = 64


def _rows(n, shift=0):
    """``n`` trace rows 3 us apart over seven flows and one with a quoted
    name (its chunk goes to the row parser), some of them low latency;
    ``shift`` moves flows and sizes but keeps the length of every row."""
    rows = []
    for i in range(n):
        flow = '"q,7"' if i % 97 == 5 else f"f{(i * 5 + shift) % 7}"
        size = (125, 250, 999)[(i + shift) % 3]
        rows.append(f"{i * 3000},{flow},{size},{46 if i % 11 == 0 else 10}\n")
    return rows


def _write(path, rows):
    path.write_text("t_ns,flow,bytes,dscp\n" + "".join(rows))
    return path


def _scenario(path, algorithms=ALGORITHMS, **source):
    return Scenario.from_dict({
        "name": "memo",
        "sim": {"n_ports": 3, "capacity_bps": 1_000_000_000,
                "sampling_period_ns": 100_000, "duration_ns": 1_000_000},
        "sources": [{"kind": "trace", "path": str(path), **source}],
        "algorithms": algorithms,
    })


@pytest.fixture
def parses(monkeypatch):
    """The number of ``_parse_lines`` calls so far, one per chunk read."""
    calls = []
    parse = traffic._parse_lines

    def counting(lines, last_t):
        calls.append(len(lines))
        return parse(lines, last_t)

    monkeypatch.setattr(traffic, "_parse_lines", counting)
    return calls


def _assert_same_slabs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a[:4], b[:4]):
            assert x.dtype == y.dtype
            assert x.tolist() == y.tolist()
        assert a.t.dtype == np.int64 and a.flow.dtype == np.int32
        assert list(a.names) == list(b.names)


def _names(slabs) -> list:
    """The flow name of each row of one read's ``slabs``."""
    return [s.names[code] for s in slabs for code in s.flow.tolist()]


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_sweep_parses_each_chunk_once(tmp_path, parses):
    path = _write(tmp_path / "t.csv", _rows(300))
    with slab_size(SLAB):
        run_sweep(_scenario(path), threads=1)
        chunks = len(parses)
        assert chunks == 5  # ceil(300 / 64)
        for alg in ALGORITHMS:
            run_sweep(_scenario(path, [alg]), threads=1)
    assert len(parses) == 4 * chunks


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_reports_match_one_algorithm_sweeps(tmp_path, threads):
    path = _write(tmp_path / "t.csv", _rows(300))
    with slab_size(SLAB):
        run_scenario(_scenario(path), tmp_path / "all", threads, epoch_csv=True)
        for alg in ALGORITHMS:
            run_scenario(_scenario(path, [alg]), tmp_path / alg, threads,
                         epoch_csv=True)
    together = _files(tmp_path / "all")
    alone = {}
    for alg in ALGORITHMS:
        files = _files(tmp_path / alg)
        rows = files.pop("combined.csv").decode().splitlines()
        alone.setdefault("combined.csv", rows[:1]).extend(rows[1:])
        alone.update(files)
    assert together.pop("combined.csv").decode().splitlines() == alone.pop("combined.csv")
    assert together == alone
    assert len(together) == 2 * len(ALGORITHMS)


@pytest.mark.parametrize("factor", [1, 2, Fraction(3, 7)])
def test_replay_equals_the_parse(tmp_path, factor):
    path = _write(tmp_path / "t.csv", _rows(300))
    with slab_size(SLAB):
        fresh = list(trace_slabs(path, factor))
        with trace_memo():
            first = list(trace_slabs(path))  # kept unscaled
            replay = list(trace_slabs(path, factor))
            again = list(trace_slabs(path, factor))
        _assert_same_slabs(first, list(trace_slabs(path)))
    _assert_same_slabs(replay, fresh)
    _assert_same_slabs(again, fresh)
    # both passes number the 8 names into one table, in order of first sighting
    for slabs in (first, replay):
        assert all(s.names is slabs[0].names for s in slabs)
        assert list(slabs[0].names) == list(dict.fromkeys(_names(slabs)))
        assert len(slabs[0].names) == 8


def test_memo_closes_with_its_block(tmp_path, parses):
    path = _write(tmp_path / "t.csv", _rows(100))
    with trace_memo():
        list(trace_slabs(path))
        with trace_memo():  # an inner memo starts empty
            list(trace_slabs(path))
        list(trace_slabs(path))
    list(trace_slabs(path))
    assert len(parses) == 3
    assert traffic._memo is None


def test_trace_rewritten_in_one_memo_is_read_afresh(tmp_path, parses):
    path = _write(tmp_path / "t.csv", _rows(100))
    with trace_memo():
        list(trace_slabs(path))
        with open(path, "a") as fh:  # the same file, longer
            fh.writelines(_rows(101)[100:])
        assert len(list(trace_slabs(path))[0].t) == 101
        # the same size, another time
        _write(path, _rows(101, shift=1))
        os.utime(path, ns=(0, 10**9))
        assert _names(trace_slabs(path))[0] == "f1"
    assert len(parses) == 3


def test_trace_rewritten_between_sweeps_is_read_afresh(tmp_path):
    path = _write(tmp_path / "t.csv", _rows(300))
    _, before = run_sweep(_scenario(path), threads=1)
    stat = os.stat(path)
    # the same inode, size and time, other flows
    _write(path, _rows(300, shift=3))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    _, after = run_sweep(_scenario(path), threads=1)
    _, fresh = run_sweep(_scenario(path, ["conservative"]), threads=1)
    assert after[0].to_json() == fresh[0].to_json()
    assert after[0].to_json() != before[0].to_json()


@pytest.mark.parametrize("algorithms, memo", [(ALGORITHMS, True), (["two_queues"], False)])
def test_in_process_sweep_keeps_traces_only_for_more_than_one_job(
        tmp_path, monkeypatch, algorithms, memo):
    path = _write(tmp_path / "t.csv", _rows(100))
    seen = []
    run_point = scenarios.run_point

    def probe(*args):
        seen.append(traffic._memo is not None)
        return run_point(*args)

    monkeypatch.setattr(scenarios, "run_point", probe)
    run_sweep(_scenario(path, algorithms), threads=1)
    assert seen == [memo] * len(algorithms)
    assert traffic._memo is None


@pytest.mark.parametrize("algorithms, initializer", [
    (ALGORITHMS, traffic.open_trace_memo), (ALGORITHMS[:2], None)])
def test_pool_workers_keep_traces_only_where_jobs_outnumber_them(
        tmp_path, monkeypatch, algorithms, initializer):
    path = _write(tmp_path / "t.csv", _rows(100))
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, **kwargs):
            pools.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    run_sweep(_scenario(path, algorithms), threads=2)
    assert pools == [{"max_workers": 2, "initializer": initializer}]


def test_only_a_pool_sweep_imports_the_pool(tmp_path):
    # concurrent.futures.process costs every launch ~6 ms of import
    path = _write(tmp_path / "t.csv", _rows(100))
    code = """
import json, sys
from eeesim.scenarios import Scenario, run_sweep
scenario = Scenario.from_dict(json.loads(sys.argv[1]))
_, reports = run_sweep(scenario, threads=1)
assert "concurrent.futures.process" not in sys.modules
_, pooled = run_sweep(scenario, threads=2)
assert "concurrent.futures.process" in sys.modules
assert [r.to_json() for r in pooled] == [r.to_json() for r in reports]
"""
    src = Path(eeesim.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", code, json.dumps(_scenario(path).to_json_dict())],
                   check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_open_trace_memo_keeps_an_open_one(monkeypatch):
    monkeypatch.setattr(traffic, "_memo", None)
    traffic.open_trace_memo()
    memo = traffic._memo
    assert memo == {}
    traffic.open_trace_memo()
    assert traffic._memo is memo


def test_partial_read_is_not_kept(tmp_path, parses):
    path = _write(tmp_path / "t.csv", _rows(300))
    with slab_size(SLAB):
        want = list(trace_slabs(path))
        with trace_memo():
            slabs = trace_slabs(path)
            next(slabs)
            slabs.close()
            assert traffic._memo == {}
            _assert_same_slabs(list(trace_slabs(path)), want)
            assert len(traffic._memo) == 1
    assert len(parses) == 5 + 1 + 5


def test_failed_read_is_not_kept(tmp_path):
    path = _write(tmp_path / "t.csv", _rows(300) + ["5,late,100,0\n"])
    with slab_size(SLAB), trace_memo():
        for _ in range(2):
            with pytest.raises(TraceError, match="line 302"):
                list(trace_slabs(path))
        assert traffic._memo == {}


@pytest.mark.parametrize("rows, kept", [(64, 1), (65, 0)])
def test_trace_over_the_cap_is_not_kept(tmp_path, monkeypatch, rows, kept):
    monkeypatch.setattr(traffic, "_MEMO_ROWS", 64)
    path = _write(tmp_path / "t.csv", _rows(rows))
    with slab_size(4), trace_memo():
        slabs = list(trace_slabs(path))
        assert len(slabs) == -(-rows // 4)
        assert len(traffic._memo) == kept
        _assert_same_slabs(list(trace_slabs(path)), slabs)


def test_read_past_the_cap_numbers_every_name_once(tmp_path, monkeypatch):
    monkeypatch.setattr(traffic, "_MEMO_ROWS", 64)
    path = _write(tmp_path / "t.csv", _rows(128))
    with slab_size(4), trace_memo():
        slabs = list(trace_slabs(path))
        assert traffic._memo == {}
    # the slabs past the cap are not kept, but still numbered into one table
    assert all(s.names is slabs[0].names for s in slabs)
    assert len(slabs[0].names) == 8
    assert _names(slabs) == [row.split(",")[1] if '"' not in row else "q,7"
                             for row in _rows(128)]


def test_cap_holds_over_all_kept_traces(tmp_path, monkeypatch, parses):
    monkeypatch.setattr(traffic, "_MEMO_ROWS", 64)
    a = _write(tmp_path / "a.csv", _rows(40))
    b = _write(tmp_path / "b.csv", _rows(40, shift=1))
    with slab_size(4), trace_memo():
        list(trace_slabs(a))
        list(trace_slabs(b))  # 80 rows in all: b is not kept
        assert [k[0] for k in traffic._memo] == [str(a)]
    with slab_size(4), trace_memo():
        # read side by side, both fit until one is kept
        merged = list(traffic.merge_slabs([trace_slabs(a), trace_slabs(b)]))
        assert len(traffic._memo) == 1
        again = list(traffic.merge_slabs([trace_slabs(a), trace_slabs(b)]))
        assert len(traffic._memo) == 1
    # the same batches, though the replay may number the names in another order
    assert [len(x.t) for x in again] == [len(y.t) for y in merged]
    assert list(traffic.packets(again)) == list(traffic.packets(merged))
    assert len(parses) == 4 * 10 + 10


def test_many_names_are_numbered_in_first_appearance_order(tmp_path):
    rows = [f"{i},n{i // 3 if i % 2 else i},100,0\n" for i in range(3000)]
    path = _write(tmp_path / "t.csv", rows)
    with slab_size(SLAB):
        fresh = list(trace_slabs(path))
        with trace_memo():
            first = list(trace_slabs(path))
            replay = list(trace_slabs(path))
            (names, _), = traffic._memo.values()
    _assert_same_slabs(first, fresh)
    _assert_same_slabs(replay, fresh)
    assert list(names) == list(dict.fromkeys(_names(fresh)))


def test_fifo_is_not_kept(tmp_path):
    path = tmp_path / "t.fifo"
    os.mkfifo(path)
    data = "t_ns,flow,bytes,dscp\n" + "".join(_rows(50))

    def feed():
        with open(path, "w") as fh:
            fh.write(data)

    with trace_memo():
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        slabs = list(trace_slabs(path))
        writer.join()
        assert traffic._memo == {}
    assert len(slabs[0].t) == 50


def test_float_scale_is_exact(tmp_path, capsys):
    # t = 1 at 2/5: 2.5 ns, ties up to 3; the float 0.4 is a hair above 2/5
    path = _write(tmp_path / "t.csv", ["0,a,100,0\n", "1,a,100,0\n", "5,a,100,0\n"])
    assert main(["run", "testbed", "--trace", str(path), "--trace-scale", "0.4",
                 "--dump-scenario"]) == 0
    by_cli = Scenario.from_dict(json.loads(capsys.readouterr().out))

    def times(scenario):
        point = scenario.sweep_points()[0]
        return np.concatenate([b.t for b in scenarios.build_stream(scenario, point)])

    want = [0, 3, 13]
    assert times(by_cli).tolist() == want
    assert times(_scenario(path, scale=0.4)).tolist() == want
    assert times(_scenario(path, scale="0.4")).tolist() == want
