"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
readout. The statistical criteria run the full 100-run experiments, so this
module takes a few minutes of CPU.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from random import Random

import pytest

from rawasim.metrics import aggregate
from rawasim.netsim import LinkSpec, Simulator
from rawasim.rawa import RaWaConfig, build_forward_graph
from rawasim.runner import (ExperimentConfig, build_run, run_experiment,
                            run_shared, write_results)
from rawasim.topology import build_honest_topology

from conftest import Scenario, leg_ms, make_block

WORKERS = min(os.cpu_count() or 1, 4)
GRID = [(p, eta) for p in (0.2, 0.5) for eta in (1, 2, None)]

_cache: dict = {}


def checks(title: str):
    failures: list[str] = []

    def check(ok: bool, detail: str) -> None:
        print(f"  [{'PASS' if ok else 'FAIL'}] {title}: {detail}")
        if not ok:
            failures.append(detail)

    return check, failures


def eta_name(eta) -> str:
    return "max" if eta is None else str(eta)


def mean_ci(stats: dict) -> str:
    """The mean with 1.96 standard errors (SE = std / sqrt(n)): its normal
    95 % interval over the runs."""
    se = stats["std"] / math.sqrt(stats["n"])
    return f"{stats['mean']:.4f} +/- {1.96 * se:.4f}"


def experiment(key, **kwargs) -> dict:
    if key not in _cache:
        config = ExperimentConfig(**kwargs)
        results = run_experiment(config, workers=WORKERS)
        _cache[key] = aggregate([r.metrics for r in results])
    return _cache[key]


def fse_grid(p, eta, runs=100) -> dict:
    return experiment(("fse", p, eta, runs), protocol="rawa", adversary="fse",
                      n_peers=50, runs=runs, base_seed=20_000,
                      rawa=RaWaConfig(p=p, eta=eta))


def exploiter_grid(kind, p, eta, runs=100, aggregate_dht=False) -> dict:
    """wfe and sawfe differ only in their classifier, so both are scored
    from one set of runs."""
    if (kind, p, eta, runs, aggregate_dht) not in _cache:
        twins = [ExperimentConfig(protocol="rawa", adversary=twin, n_peers=50,
                                  runs=runs, base_seed=30_000,
                                  rawa=RaWaConfig(p=p, eta=eta,
                                                  proxy_aggregate_dht=aggregate_dht))
                 for twin in ("wfe", "sawfe")]
        for config, results in zip(twins, run_shared(twins, workers=WORKERS)):
            _cache[(config.adversary, p, eta, runs, aggregate_dht)] = aggregate(
                [r.metrics for r in results])
    return _cache[(kind, p, eta, runs, aggregate_dht)]


def ttfb_experiment(protocol, block_size) -> dict:
    return experiment(("ttfb", protocol, block_size), protocol=protocol,
                      adversary="none", n_peers=50, runs=100, base_seed=40_000,
                      block_size=block_size, rawa=RaWaConfig(p=0.5, eta=None))


def test_criterion_1_vanilla_baseline_spy():
    check, failures = checks("criterion 1")
    agg = experiment(("vanilla_fse",), protocol="vanilla", adversary="fse",
                     n_peers=50, runs=100, base_seed=10_000)
    precision = agg["precision"]["mean"]
    recall = agg["recall"]["mean"]
    check(precision >= 0.95, f"vanilla+fse mean precision {precision:.4f} >= 0.95")
    check(recall >= 0.95, f"vanilla+fse mean recall {recall:.4f} >= 0.95")
    assert not failures


def test_criterion_2_walk_discovery_degrades_spy():
    check, failures = checks("criterion 2")
    vanilla = experiment(("vanilla_fse",), protocol="vanilla", adversary="fse",
                         n_peers=50, runs=100, base_seed=10_000)
    baseline = vanilla["precision"]["mean"]
    for p, eta in GRID:
        agg = fse_grid(p, eta)
        for metric in ("precision", "recall"):
            value = agg[metric]["mean"]
            label = (f"rawa+fse p={p} eta={eta_name(eta)} mean {metric} "
                     f"{mean_ci(agg[metric])}")
            check(0.30 <= value <= 0.65, f"{label} in [0.30, 0.65]")
            check(baseline - value >= 0.30,
                  f"{label} below vanilla {mean_ci(vanilla['precision'])} "
                  "by >= 0.30")
    assert not failures


def test_criterion_3_active_exploiters():
    check, failures = checks("criterion 3")
    for kind in ("wfe", "sawfe"):
        for p, eta in GRID:
            agg = exploiter_grid(kind, p, eta)
            fse = fse_grid(p, eta)
            for metric in ("precision", "recall"):
                value = agg[metric]["mean"]
                label = (f"rawa+{kind} p={p} eta={eta_name(eta)} mean {metric} "
                         f"{mean_ci(agg[metric])}")
                check(0.50 <= value <= 0.90, f"{label} in [0.50, 0.90]")
                check(value > fse[metric]["mean"],
                      f"{label} above fse {mean_ci(fse[metric])}")
    # diagnostic: the provider-list-merging proxy variant (not asserted)
    for kind in ("wfe", "sawfe"):
        agg = exploiter_grid(kind, 0.2, None, runs=50, aggregate_dht=True)
        print(f"  [diag] criterion 3: rawa+{kind} p=0.2 eta=max with "
              f"merged provider lists: precision {mean_ci(agg['precision'])}")
    assert not failures


def test_criterion_4_time_to_first_block():
    check, failures = checks("criterion 4")
    v_small = ttfb_experiment("vanilla", 1025)["ttfb_ms"]["mean"]
    r_small = ttfb_experiment("rawa", 1025)["ttfb_ms"]["mean"]
    check(1800.0 <= v_small <= 2600.0,
          f"vanilla 1025B mean {v_small:.1f} ms in [1800, 2600]")
    check(1900.0 <= r_small <= 3000.0,
          f"rawa 1025B mean {r_small:.1f} ms in [1900, 3000]")
    check(r_small - v_small <= 600.0,
          f"rawa-vanilla gap {r_small - v_small:.1f} ms <= 600")
    v_large = ttfb_experiment("vanilla", 150 * 1024)["ttfb_ms"]["mean"]
    r_large = ttfb_experiment("rawa", 150 * 1024)["ttfb_ms"]["mean"]
    check(v_large - v_small >= 145.0,
          f"vanilla 150KiB adds {v_large - v_small:.1f} ms >= 145")
    check(r_large - r_small >= 145.0,
          f"rawa 150KiB adds {r_large - r_small:.1f} ms >= 145")
    assert not failures


def test_criterion_5_walk_length_law():
    check, failures = checks("criterion 5")
    for p, bound, target in ((0.2, 11, 0.914), (0.3, 9, 0.960)):
        hops = []
        for i in range(50):
            config = ExperimentConfig(protocol="rawa", adversary="none",
                                      n_peers=200, runs=1, base_seed=50_000,
                                      rawa=RaWaConfig(p=p, eta=None),
                                      unique_interests=True)
            handles = build_run(config, i)
            handles.sim.run()
            first = {}
            for walk, retx, h, node, _ in handles.sim.observer.terminations:
                first.setdefault(walk, h)
            hops.extend(first.values())
        frac = sum(1 for h in hops if h <= bound) / len(hops)
        mean = sum(hops) / len(hops)
        check(len(hops) >= 10_000, f"p={p}: {len(hops)} walks >= 10000")
        check(abs(frac - target) <= 0.02,
              f"p={p}: P(hops <= {bound}) = {frac:.4f} within {target} +/- 0.02")
        check(abs(mean - 1 / p) <= 0.05 / p,
              f"p={p}: mean hops {mean:.3f} within 1/p +/- 5%")
    assert not failures


def test_walk_lengths_fit_geometric():
    """Chi-square goodness of fit of first-termination walk lengths against
    Geometric(p) on {1, 2, ...}, next to criterion 5: one bin per length
    while its expected count is at least 5, then one tail bin. The seeds are
    fixed, so the test is deterministic; it rejects at the 1 % level."""
    from scipy import stats

    for p in (0.2, 0.3):
        hops = []
        for i in range(25):
            config = ExperimentConfig(protocol="rawa", adversary="none",
                                      n_peers=200, runs=1, base_seed=60_000,
                                      rawa=RaWaConfig(p=p, eta=None),
                                      unique_interests=True)
            handles = build_run(config, i)
            handles.sim.run()
            first = {}
            for walk, retx, h, node, _ in handles.sim.observer.terminations:
                first.setdefault(walk, h)
            hops.extend(first.values())
        n = len(hops)
        tail = 1  # lengths >= tail share the last bin
        while n * p * (1 - p) ** tail >= 5 and n * (1 - p) ** (tail + 1) >= 5:
            tail += 1
        observed = [sum(1 for h in hops if h == k) for k in range(1, tail)]
        observed.append(sum(1 for h in hops if h >= tail))
        expected = [n * p * (1 - p) ** (k - 1) for k in range(1, tail)]
        expected.append(n * (1 - p) ** (tail - 1))
        result = stats.chisquare(observed, expected)
        print(f"  [diag] walk lengths, p={p}: {n} walks, {tail} bins, "
              f"chi2 {result.statistic:.1f}, p-value {result.pvalue:.3f}")
        assert n >= 4000
        assert result.pvalue >= 0.01, (p, result)


def test_criterion_6_deterministic_micro_scenarios():
    check, failures = checks("criterion 6")
    # independent oracle: per-message one-way delays from the delay formula
    vanilla_golden = 3 * leg_ms(44) + leg_ms(44 + 1025)
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    got = scn.observer.completions[0][3]
    check(abs(got - vanilla_golden) <= 0.1,
          f"vanilla neighbor-provider ttfb {got:.4f} ms == {vanilla_golden:.4f} +/- 0.1")

    rawa_golden = 4 * leg_ms(44) + leg_ms(82) + 200.0 + leg_ms(44 + 1025)
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    got = scn.observer.completions[0][3]
    check(abs(got - rawa_golden) <= 0.1,
          f"rawa proxy-adjacent ttfb {got:.4f} ms == {rawa_golden:.4f} +/- 0.1")
    assert not failures


def test_criterion_7_protocol_invariants():
    check, failures = checks("criterion 7")

    # subgraph cardinality/subset over 1000 random topologies
    rng = Random(7_000_000)
    violations = 0
    for _ in range(1000):
        n = rng.randint(6, 40)
        sim = Simulator(LinkSpec(), Random(0))
        honest = build_honest_topology(sim, n, rng.randint(2, min(4, n - 2)), rng)
        eta = rng.choice([1, 2, 3, None])
        for node in honest:
            neighbors = sim.neighbors(node)
            succ = build_forward_graph(neighbors, eta, rng)
            want = len(neighbors) if eta is None else min(eta, len(neighbors))
            if not (set(succ) <= set(neighbors) and len(succ) == want
                    and len(set(succ)) == len(succ)):
                violations += 1
    check(violations == 0, f"subgraph invariants: {violations} violations in 1000 topologies")

    # return-path reversal fidelity without churn
    mismatches = 0
    for seed in (71, 72, 73):
        config = ExperimentConfig(protocol="rawa", adversary="none", n_peers=30,
                                  runs=1, base_seed=seed, keep_trace=True,
                                  rawa=RaWaConfig(p=0.3))
        handles = build_run(config, 0)
        handles.sim.run()
        obs = handles.sim.observer
        wf, fh = {}, {}
        for walk, retx, hop, frm, to, _ in obs.wf_sends:
            if retx == 0:
                wf.setdefault(walk, []).append((hop, frm, to))
        for walk, frm, to, t in obs.fh_sends:
            fh.setdefault(walk, []).append((t, frm, to))
        for requester, walk in obs.consumed:
            path = [(frm, to) for _, frm, to in sorted(wf[walk])]
            reverse = [(b, a) for a, b in reversed(path)]
            got = list(dict.fromkeys((frm, to) for _, frm, to in sorted(fh[walk])))
            if got != reverse:
                mismatches += 1
    check(mismatches == 0, f"return-path reversal: {mismatches} mismatches")

    # re-transmission stability: identical node sequence without churn
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=0.001),
                   give_up_ms=4000.0)
    cid = make_cid()
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    by_retx = {}
    for walk, retx, hop, frm, to, _ in scn.observer.wf_sends:
        by_retx.setdefault(retx, []).append((hop, frm, to))
    paths = {retx: [e[1:] for e in sorted(edges)] for retx, edges in by_retx.items()}
    stable = len(paths) >= 3 and all(p == paths[0] for p in paths.values())
    check(stable, f"re-transmission same-path over {len(paths)} transmissions")

    # churn: re-transmitted walk is a strict prefix ending in a proxy
    prefix_ok = churn_prefix_scenario()
    check(prefix_ok, "departed relay: re-transmitted walk is a strict prefix")

    # requester emission discipline and cancel exactness
    config = ExperimentConfig(protocol="rawa", adversary="none", n_peers=30,
                              runs=1, base_seed=81, keep_trace=True,
                              rawa=RaWaConfig(p=0.2))
    handles = build_run(config, 0)
    handles.sim.run()
    proxy_holders = {}
    for node, engine in handles.engines.items():
        for c in engine.proxies:
            proxy_holders.setdefault(c.short(), set()).add(node)
    bad_want_have = sum(
        1 for rec in handles.sim.observer.trace
        if rec[2] == "send" and rec[5] == "WANT-HAVE"
        and rec[3] not in proxy_holders.get(rec[6], set()))
    check(bad_want_have == 0,
          "requesters never emit WANT-HAVE (verification disabled)")

    vconfig = ExperimentConfig(protocol="vanilla", adversary="none", n_peers=30,
                               runs=1, base_seed=82, keep_trace=True)
    vhandles = build_run(vconfig, 0)
    vhandles.sim.run()
    cancel_ok = True
    sends = [rec for rec in vhandles.sim.observer.trace if rec[2] == "send"]
    for node in vhandles.honest:
        for c, session in vhandles.engines[node].sessions.items():
            if session.state != "done":
                continue
            cancels = [rec[4] for rec in sends
                       if rec[3] == node and rec[5] == "CANCEL" and rec[6] == c.short()]
            if sorted(cancels) != sorted(session.queried):
                cancel_ok = False
    check(cancel_ok, "every queried peer receives exactly one CANCEL")

    # per-directed-link FIFO under jitter
    fifo_ok = True
    deliveries = {}
    for rec in vhandles.sim.observer.trace:
        if rec[2] == "deliver":
            deliveries[rec[1]] = rec[0]
    last = {}
    for rec in sends:
        seq, frm, to = rec[1], rec[3], rec[4]
        if seq in deliveries:
            if deliveries[seq] < last.get((frm, to), 0.0):
                fifo_ok = False
            last[(frm, to)] = deliveries[seq]
    check(fifo_ok, "per-directed-link FIFO delivery order")

    # byte-count conservation
    obs = vhandles.sim.observer
    check(sum(rec[7] for rec in sends) == obs.bytes_total
          and sum(obs.bytes_by_variant.values()) == obs.bytes_total,
          f"byte conservation: {obs.bytes_total} bytes")
    assert not failures


def make_cid():
    from rawasim.core import derive_cid
    return derive_cid(make_block(1025, tag=3))


def churn_prefix_scenario() -> bool:
    edges = [(0, 1), (1, 2), (2, 4), (1, 3)]
    for seed in range(60):
        scn = Scenario(5, edges, rawa=RaWaConfig(p=0.5), seed=seed)
        cid = scn.place_block(3, make_block(1025))
        scn.build_graphs()
        scn.request(0, cid)
        scn.sim.run(until=450.0)
        terms = list(scn.observer.terminations)
        if len(terms) == 1 and terms[0][2] == 2 and terms[0][3] == 2:
            break
    else:
        return False
    scn.sim.schedule_departure(2, at=500.0)
    scn.sim.run()
    walk = (0, cid, 0)
    shortened = [t for t in scn.observer.terminations if t[1] > 0]
    original = [(frm, to) for w, retx, hop, frm, to, _ in
                sorted(scn.observer.wf_sends) if w == walk and retx == 0]
    repeat = [(frm, to) for w, retx, hop, frm, to, _ in
              sorted(scn.observer.wf_sends) if w == walk and retx == 1]
    return (bool(shortened) and shortened[0][2] == 1 and shortened[0][3] == 1
            and repeat == original[:len(repeat)] and len(repeat) < len(original)
            and 0 in scn.observer.completions)


def test_criterion_8_reproducibility(tmp_path):
    check, failures = checks("criterion 8")
    config = ExperimentConfig(protocol="rawa", adversary="wfe", n_peers=50,
                              runs=3, base_seed=60_000,
                              rawa=RaWaConfig(p=0.2, eta=2))
    outputs = []
    for i in range(3):
        results = run_experiment(config, workers=WORKERS)
        csv_path, _ = write_results(config, results, tmp_path / str(i))
        outputs.append(csv_path.read_bytes())
    check(outputs[0] == outputs[1] == outputs[2],
          "byte-identical per-run CSV across 3 executions")
    assert not failures


def test_criterion_9_churn_resilience():
    check, failures = checks("criterion 9")
    check(churn_prefix_scenario(),
          "mid-path relay departure completes via the shortened path")

    # requester-side fallback completes when the whole walk is gone
    scn = Scenario(3, [(0, 1)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.sim.schedule_departure(1, at=400.0)
    scn.request(0, cid)
    scn.sim.run()
    check(0 in scn.observer.completions,
          "fallback lookup completes after the first hop departs")

    unresolved = ttfb_experiment("rawa", 1025)["resolved_fraction"]
    check(unresolved["mean"] == 1.0,
          "zero unresolved requests without churn across 100 default runs")
    assert not failures
