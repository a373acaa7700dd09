"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

The heavyweight sweeps are shared through session fixtures, so the whole
suite performs: the QoS sweep (3 algorithms x 4 low-latency rates), the
baseline port-count sweep (conservative x 5 aggregate rates), the delay
ordering run (4 algorithms), the testbed analogue (3 algorithms), one
paired run for the spare-port guarantee, 200 randomized oracle traces and
the brute-force scheduling bound.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print.
"""

import random
from fractions import Fraction

import pytest

from eeesim import (
    Algorithm,
    BundleConfig,
    EeePortConfig,
    Packet,
    SimConfig,
    oracle_simulate,
    run,
)
from eeesim.allocation import FlowEstimate, conservative_allocate
from eeesim.traffic import TrafficClass
from eeesim.scenarios import (
    baseline_sweep_scenario,
    build_sim_config,
    build_stream,
    mininet_scenario,
    ordering_scenario,
    qos_sweep_scenario,
    run_sweep,
)

RSEED = 802311
LL_RATES = (1_000_000, 10_000_000, 100_000_000, 1_000_000_000)


def _criterion(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def qos_results():
    jobs, reports = run_sweep(qos_sweep_scenario())
    return {(alg, point["ll_rate_bps"]): rep
            for (alg, point), rep in zip(jobs, reports)}


@pytest.fixture(scope="session")
def mininet_results():
    jobs, reports = run_sweep(mininet_scenario())
    return {alg: rep for (alg, _), rep in zip(jobs, reports)}


@pytest.fixture(scope="session")
def port_count_results():
    scenario = baseline_sweep_scenario()
    scenario.algorithms = ["conservative"]
    jobs, reports = run_sweep(scenario)
    return {point["normal_rate_bps"]: rep
            for (_, point), rep in zip(jobs, reports)}


@pytest.fixture(scope="session")
def ordering_results():
    jobs, reports = run_sweep(ordering_scenario())
    return {alg: rep for (alg, _), rep in zip(jobs, reports)}


def test_criterion_1_wake_delay_exact():
    config = SimConfig(
        bundle=BundleConfig(n_ports=1, capacity_bps=10_000_000_000),
        port=EeePortConfig(capacity_bps=10_000_000_000),
        duration_ns=1_000_000_000,
        warmup_ns=0,
        record_departures=True,
    )
    report = run(config, [Packet(0, 1500, "probe", 0, 0)])
    departure = report.departures[0]
    _criterion(
        1,
        departure == 5680 and report.delay["overall"]["mean_us"] == 5.68,
        f"1500 B frame to an idle port departs at {departure} ns (want 5680 exactly)",
    )


def test_criterion_2_port_counts(port_count_results):
    expected = {
        6_500_000_000: 1.0,
        13_000_000_000: 2.0,
        19_500_000_000: 2.0,
        26_000_000_000: 3.0,
        32_500_000_000: 4.0,
    }
    got = {rate: port_count_results[rate].mean_active_ports for rate in expected}
    _criterion(
        2,
        got == expected,
        "conservative mean active ports at 6.5/13/19.5/26/32.5 Gb/s = "
        + "/".join(f"{got[r]:g}" for r in sorted(got)),
    )


def test_criterion_3_two_queues_energy_bit_exact(qos_results, mininet_results):
    pairs = [
        (f"ll={ll}", qos_results[("conservative", ll)], qos_results[("two_queues", ll)])
        for ll in LL_RATES
    ]
    pairs.append(("testbed", mininet_results["conservative"],
                  mininet_results["two_queues"]))
    bad = [
        name
        for name, cons, tq in pairs
        if not (
            cons.energy_by_state_ns == tq.energy_by_state_ns
            and cons.port_state_ns == tq.port_state_ns
            and cons.normalized_energy == tq.normalized_energy
            and cons.drops == tq.drops
        )
    ]
    _criterion(
        3,
        not bad,
        "two-queues energy bit-equals conservative on "
        f"{len(pairs)} scenarios" + (f" (mismatch: {bad})" if bad else ""),
    )


def test_criterion_4_spare_port_non_penalization():
    scenario = qos_sweep_scenario()
    ll_point = {"ll_rate_bps": 100_000_000,
                "normal_rate_bps": scenario.base_normal_rate_bps()}
    bulk_point = {"ll_rate_bps": 0,
                  "normal_rate_bps": scenario.base_normal_rate_bps()}

    config_sp = build_sim_config(scenario, "spare_port")
    config_sp.record_delay_log = True
    rep_sp = run(config_sp, build_stream(scenario, ll_point))

    config_c = build_sim_config(scenario, "conservative")
    config_c.record_delay_log = True
    rep_c = run(config_c, build_stream(scenario, bulk_point))

    def bulk_delays(report):
        return sorted(
            (flow, arrival, delay)
            for flow, arrival, delay, _, _ in report.delay_log
            if flow.startswith("n")
        )

    sp, cons = bulk_delays(rep_sp), bulk_delays(rep_c)
    ll_count = rep_sp.delivered["low_latency"]
    _criterion(
        4,
        bool(sp) and sp == cons and ll_count > 0,
        f"{len(sp)} bulk-frame delays bit-identical with and without "
        f"{ll_count} low-latency frames on the spare port",
    )


def test_criterion_5_ll_delay_bands(qos_results):
    problems = []
    for ll in LL_RATES:
        tq = qos_results[("two_queues", ll)].delay["low_latency"]["mean_us"]
        sp = qos_results[("spare_port", ll)].delay["low_latency"]["mean_us"]
        cons = qos_results[("conservative", ll)].delay["low_latency"]["mean_us"]
        if not tq < 2.0:
            problems.append(f"two-queues {tq:.3f}us at ll={ll}")
        if not 4.5 <= sp <= 7.0:
            problems.append(f"spare-port {sp:.3f}us at ll={ll}")
        if not cons >= 10 * tq:
            problems.append(f"conservative {cons:.3f}us < 10x two-queues at ll={ll}")
        if not tq <= sp <= cons:
            problems.append(f"band ordering broken at ll={ll}")
    _criterion(
        5,
        not problems,
        "two-queues < 2 us, spare-port in [4.5, 7] us, conservative >= 10x "
        "two-queues at every swept rate"
        + (f" (violations: {problems})" if problems else ""),
    )


def test_criterion_6_energy_ordering(qos_results):
    problems = []
    for ll in LL_RATES:
        sp = qos_results[("spare_port", ll)].normalized_energy
        tq = qos_results[("two_queues", ll)].normalized_energy
        if ll >= 100_000_000 and not sp > tq:
            problems.append(f"spare-port not above two-queues at ll={ll}")
        if ll <= 1_000_000 and not abs(sp - tq) / tq <= 0.01:
            problems.append(f"spare-port {sp:.6f} vs two-queues {tq:.6f} "
                            f"differ by more than 1% at ll={ll}")
    _criterion(
        6,
        not problems,
        "spare-port energy strictly above two-queues at >= 100 Mb/s, "
        "within 1% at <= 1 Mb/s"
        + (f" (violations: {problems})" if problems else ""),
    )


def test_criterion_7_testbed_probe_ratio(mininet_results):
    cons = mininet_results["conservative"].flow_delays["probe-ll"]["mean_us"]
    sp = mininet_results["spare_port"].flow_delays["probe-ll"]["mean_us"]
    tq = mininet_results["two_queues"].flow_delays["probe-ll"]["mean_us"]
    norm_same = (
        mininet_results["spare_port"].flow_delays["probe-norm"]
        == mininet_results["conservative"].flow_delays["probe-norm"]
    )
    _criterion(
        7,
        cons >= 100 * sp and cons >= 100 * tq and norm_same,
        f"low-latency probe: conservative {cons:.1f} us vs spare-port "
        f"{sp:.3f} us ({cons / sp:.0f}x) and two-queues {tq:.3f} us "
        f"({cons / tq:.0f}x); normal probe bit-identical across algorithms",
    )


def test_criterion_8_oracle_equivalence():
    # 200 randomized traces; the algorithm is part of the randomized space
    # and cycles so each of the six gets 33 or 34 traces.
    rng = random.Random(RSEED)
    algorithms = list(Algorithm)
    mismatches = 0
    for trial in range(200):
        n_ports = rng.randint(1, 5)
        cap = rng.choice([1_000_000_000, 10_000_000_000])
        flows = [f"f{i}" for i in range(rng.randint(1, 8))]
        t = 0
        pkts = []
        for seq in range(rng.randint(1, 1000)):
            t += rng.randrange(0, 25_000)
            pkts.append(
                Packet(t, rng.randrange(64, 1518), rng.choice(flows),
                       rng.choice([0, 0, 46]), seq)
            )
        config = SimConfig(
            bundle=BundleConfig(n_ports=n_ports, capacity_bps=cap,
                                algorithm=algorithms[trial % len(algorithms)]),
            port=EeePortConfig(capacity_bps=cap,
                               buffer_limit=rng.choice([5, 50, 10000])),
            duration_ns=t + 50_000_000,
            sampling_period_ns=rng.choice([500_000, 1_000_000, 5_000_000]),
            warmup_ns=0,
            record_departures=True,
        )
        report = run(config, iter(pkts))
        departures, dropped = oracle_simulate(config, pkts)
        if report.departures != departures or report.drop_seqs != dropped:
            mismatches += 1
        assert len(report.departures) + len(report.drop_seqs) == len(pkts)
    _criterion(
        8,
        mismatches == 0,
        f"event-loop departures equal the chronological-scan oracle on "
        f"200 randomized traces across all six algorithms "
        f"({mismatches} mismatches)",
    )


def _brute_min_makespan(rates, k):
    # exhaustive assignment search with sound pruning (equal-load symmetry,
    # branches already at or above the best makespan)
    rates = sorted(rates, reverse=True)
    best = [sum(rates)]
    loads = [0] * k

    def place(i):
        if i == len(rates):
            best[0] = min(best[0], max(loads))
            return
        seen = set()
        for p in range(k):
            if loads[p] in seen or loads[p] + rates[i] >= best[0]:
                continue
            seen.add(loads[p])
            loads[p] += rates[i]
            place(i + 1)
            loads[p] -= rates[i]

    place(0)
    return best[0]


def test_criterion_9_lpt_within_four_thirds_of_optimum():
    rng = random.Random(RSEED + 9)
    worst = Fraction(0)
    checked = 0
    cases = [[7, 7, 6, 6, 5, 5, 4, 4], [5, 5, 4, 4, 3, 3, 3], [1] * 8, [9]]
    while checked < 200:
        if cases:
            rates = cases.pop()
        else:
            rates = [rng.randint(1, 100) for _ in range(rng.randint(1, 8))]
        for k in range(1, 4):
            flows = [
                FlowEstimate(f"f{i:02d}", Fraction(r), TrafficClass.NORMAL)
                for i, r in enumerate(rates)
            ]
            lpt = max(conservative_allocate(flows, k, k).port_loads)
            optimum = _brute_min_makespan(rates, k)
            ratio = Fraction(lpt) / optimum
            worst = max(worst, ratio)
            assert lpt <= Fraction(sum(rates), k) + max(rates)
        checked += 1
    _criterion(
        9,
        worst <= Fraction(4, 3),
        f"LPT makespan within 4/3 of the exhaustive optimum over 200 "
        f"instances (worst ratio {float(worst):.4f})",
    )


def test_criterion_10_delay_ordering(ordering_results):
    means = {alg: rep.delay["overall"]["mean_us"]
             for alg, rep in ordering_results.items()}
    ok = (means["equitable"] <= means["conservative"]
          <= means["bounded_greedy"] <= means["greedy"])
    _criterion(
        10,
        ok,
        "mean delay ordering equitable <= conservative <= bounded-greedy "
        "<= greedy: " + " <= ".join(
            f"{means[a]:.1f}"
            for a in ("equitable", "conservative", "bounded_greedy", "greedy")
        ) + " us",
    )
