"""Experiment orchestration: config, seeded runs, sweeps, result files.

A run is fully determined by ``(config, base_seed + run_index)``: topology,
block payloads, interest assignment, link jitter, protocol choices and the
classifier's tie-breaking all draw from streams derived from that seed.
Runs are isolated, so an experiment can fan out over a process pool without
changing any result; rows are ordered by run index regardless of completion
order.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from random import Random

from .adversary import (ExploiterNode, ObservationLog, SpyTap, fse_classify,
                        sawfe_classify, wfe_classify)
from .core import Block, Cid, PeerId
from .dht import DummyDht
from .engine import GIVE_UP_MS
from .metrics import GroundTruth, RunMetrics, aggregate, precision_recall
from .netsim import LinkSpec, Observer, Simulator
from .rawa import RaWaConfig, RawaEngine
from .topology import (ADVERSARY_FSE, ADVERSARY_NONE, ADVERSARY_SAWFE,
                       ADVERSARY_WFE, build_honest_topology, wire_adversary)
from .vanilla import VanillaEngine

PROTOCOL_VANILLA = "vanilla"
PROTOCOL_RAWA = "rawa"

CSV_HEADER = ("run,seed,protocol,adversary,p,eta,block_size,precision,recall,"
              "resolved_fraction,ttfb_mean_ms,ttfb_median_ms,ttfb_p95_ms,"
              "mean_walk_hops,msgs_total,bytes_total")


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = PROTOCOL_VANILLA
    adversary: str = ADVERSARY_NONE
    n_peers: int = 50
    out_links: int = 4
    link: LinkSpec = field(default_factory=LinkSpec)
    dht_base_delay_ms: float = 622.0
    dht_delay_spread: float = 0.10
    block_size: int = 1025
    rawa: RaWaConfig = field(default_factory=RaWaConfig)
    runs: int = 100
    base_seed: int = 1
    churn: tuple[tuple[int, float], ...] = ()  # (honest node index, depart ms)
    stagger_ms: float = 0.0
    fixed_topology: bool = False
    dial_rtt_multiplier: float = 1.0
    give_up_ms: float = GIVE_UP_MS
    wfe_fake_have: bool = True
    # True assigns interests as a uniform cyclic permutation, so no two
    # requesters want the same block (isolates walk statistics from the
    # shared-cid mixing rule); False matches the evaluation workload where
    # repeats are allowed.
    unique_interests: bool = False
    run_bound_ms: float | None = None
    keep_trace: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in (PROTOCOL_VANILLA, PROTOCOL_RAWA):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.adversary not in (ADVERSARY_NONE, ADVERSARY_FSE,
                                  ADVERSARY_WFE, ADVERSARY_SAWFE):
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.n_honest <= self.out_links:
            raise ValueError("need more honest peers than out_links")
        if self.adversary in (ADVERSARY_WFE, ADVERSARY_SAWFE) and \
                self.n_honest % 4 != 0:
            raise ValueError("wfe wiring needs honest count divisible by 4")
        # anything that would schedule an event in the past fails here, not
        # mid-run
        if self.dht_base_delay_ms < 0:
            raise ValueError("dht_base_delay_ms must be >= 0")
        if not (0 <= self.dht_delay_spread < 1):
            raise ValueError("dht_delay_spread must be in [0, 1)")
        if self.stagger_ms < 0:
            raise ValueError("stagger_ms must be >= 0")
        if not self.give_up_ms > 0:
            raise ValueError("give_up_ms must be > 0")
        for entry in self.churn:
            if len(entry) != 2:
                raise ValueError(f"churn entry {list(entry)} is not "
                                 "[honest index, departure ms]")
            index, depart_ms = entry
            if not (isinstance(index, int) and 0 <= index < self.n_honest):
                raise ValueError(f"churn index {index!r} is not one of the "
                                 f"{self.n_honest} honest nodes")
            if not depart_ms >= 0:
                raise ValueError(f"churn departure time {depart_ms!r} must be >= 0")

    @property
    def n_honest(self) -> int:
        if self.adversary == ADVERSARY_FSE:
            return self.n_peers - 1
        if self.adversary in (ADVERSARY_WFE, ADVERSARY_SAWFE):
            # one adversary node per four honest nodes
            honest = self.n_peers * 4 // 5
            if honest + honest // 4 != self.n_peers:
                raise ValueError("n_peers must split 4:1 into honest:adversary")
            return honest
        return self.n_peers

    def to_dict(self) -> dict:
        data = asdict(self)
        data["churn"] = [list(c) for c in self.churn]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "link" in data and isinstance(data["link"], dict):
            data["link"] = LinkSpec(**data["link"])
        if "rawa" in data and isinstance(data["rawa"], dict):
            rawa = dict(data["rawa"])
            if rawa.get("eta") == "max":
                rawa["eta"] = None
            data["rawa"] = RaWaConfig(**rawa)
        if "churn" in data:
            data["churn"] = tuple(tuple(c) for c in data["churn"])
        return cls(**data)

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def label(self) -> str:
        parts = [self.protocol, self.adversary]
        if self.protocol == PROTOCOL_RAWA:
            eta = "max" if self.rawa.eta is None else self.rawa.eta
            parts.append(f"p{self.rawa.p:g}_eta{eta}")
        parts.append(f"b{self.block_size}")
        return "_".join(parts)


@dataclass
class RunResult:
    run: int
    seed: int
    fingerprint: str
    metrics: RunMetrics


@dataclass
class RunHandles:
    """Everything a single simulated run is made of; tests drive this
    directly to script scenarios and inspect engine state."""

    config: ExperimentConfig
    seed: int
    sim: Simulator
    dht: DummyDht
    engines: dict[PeerId, object]
    honest: list[PeerId]
    adversaries: list[PeerId]
    truth: GroundTruth
    log: ObservationLog
    subgraph_oracle: dict[PeerId, tuple]


def build_run(config: ExperimentConfig, run_index: int) -> RunHandles:
    seed = config.base_seed + run_index
    rng = Random(seed)
    topo_rng = Random(config.base_seed) if config.fixed_topology else rng
    topo = build_honest_topology(config.n_honest, config.out_links, topo_rng)
    topo = wire_adversary(topo, config.adversary, topo_rng)

    observer = Observer(keep_trace=config.keep_trace)
    sim = Simulator(config.link, rng, observer,
                    dial_rtt_multiplier=config.dial_rtt_multiplier)
    for node in topo.all_nodes:
        sim.add_node(node)
    for a, b in sorted(topo.edges):
        sim.add_edge(a, b)
    dht = DummyDht(sim, config.dht_base_delay_ms, config.dht_delay_spread)

    log = ObservationLog()
    engines: dict[PeerId, object] = {}

    def honest_engine(node: PeerId):
        if config.protocol == PROTOCOL_RAWA:
            return RawaEngine(node, sim, dht, config.rawa,
                              give_up_ms=config.give_up_ms)
        return VanillaEngine(node, sim, dht, t1_ms=1000.0,
                             give_up_ms=config.give_up_ms)

    for node in topo.honest:
        engines[node] = honest_engine(node)
    for node in topo.adversaries:
        if config.adversary == ADVERSARY_FSE:
            engines[node] = SpyTap(node, honest_engine(node), log)
        else:
            engines[node] = ExploiterNode(node, sim, log,
                                          fake_have=config.wfe_fake_have)
    for node, engine in engines.items():
        sim.attach(node, engine)

    # One unique random block per honest node, registered before requests.
    # Payloads come from per-node sub-seeds so the main stream's consumption
    # is independent of block_size: runs with different sizes share the same
    # topology, interests and early event randomness, which keeps
    # size-sweep comparisons paired.
    owners: dict[PeerId, Cid] = {}
    for node in topo.honest:
        payload_rng = Random(rng.getrandbits(64))
        owners[node] = engines[node].store_block(
            Block(payload_rng.randbytes(config.block_size)))

    # privacy subgraphs (the passive spy participates like an honest node)
    subgraph_oracle: dict[PeerId, tuple] = {}
    if config.protocol == PROTOCOL_RAWA:
        for node in topo.honest:
            engines[node].build_graph()
            subgraph_oracle[node] = engines[node].graph.successors
        for node in topo.adversaries:
            engine = engines[node]
            if isinstance(engine, SpyTap):
                engine.inner.build_graph()
                subgraph_oracle[node] = engine.inner.graph.successors

    # each honest node wants another honest node's block
    interests: dict[PeerId, Cid] = {}
    if config.unique_interests:
        # Sattolo shuffle: uniform cyclic permutation, never a fixed point
        ring = list(topo.honest)
        for i in range(len(ring) - 1, 0, -1):
            j = rng.randrange(i)
            ring[i], ring[j] = ring[j], ring[i]
        for node, owner in zip(topo.honest, ring):
            interests[node] = owners[owner]
    else:
        for node in topo.honest:
            others = [n for n in topo.honest if n != node]
            interests[node] = owners[others[rng.randrange(len(others))]]
    truth = GroundTruth(interests=interests)

    for depart_index, depart_ms in config.churn:
        sim.schedule_departure(topo.honest[depart_index], depart_ms)

    for i, node in enumerate(topo.honest):
        engine = engines[node]
        cid = interests[node]
        sim.schedule(config.stagger_ms * i, f"request:{cid.short()}",
                     (lambda e=engine, c=cid: e.request_block(c)), node=node)

    return RunHandles(config=config, seed=seed, sim=sim, dht=dht,
                      engines=engines, honest=topo.honest,
                      adversaries=topo.adversaries, truth=truth, log=log,
                      subgraph_oracle=subgraph_oracle)


def collect_metrics(handles: RunHandles) -> RunMetrics:
    config = handles.config
    observer = handles.sim.observer
    metrics = RunMetrics(n_requesters=len(handles.honest))

    for node in handles.honest:
        if node in observer.completions:
            metrics.ttfb_ms[node] = observer.completions[node][3]
        else:
            metrics.unresolved.add(node)

    first_termination: dict[tuple, int] = {}
    for walk_id, retx, hops, node, time in observer.terminations:
        first_termination.setdefault(walk_id, hops)
    metrics.walk_lengths = list(first_termination.values())

    metrics.msg_counts = dict(observer.msg_counts)
    metrics.bytes_by_variant = dict(observer.bytes_by_variant)
    metrics.bytes_total = observer.bytes_total

    if config.adversary != ADVERSARY_NONE:
        analysis_rng = Random(f"{handles.seed}:analysis")
        population = list(handles.honest)
        if config.adversary == ADVERSARY_FSE:
            prediction = fse_classify(handles.log, population, analysis_rng)
        elif config.adversary == ADVERSARY_WFE:
            prediction = wfe_classify(handles.log, population, analysis_rng)
        else:
            prediction = sawfe_classify(handles.log, handles.subgraph_oracle,
                                        population, analysis_rng)
        metrics.precision, metrics.recall = precision_recall(prediction,
                                                             handles.truth)
    return metrics


def run_single(config: ExperimentConfig, run_index: int) -> RunResult:
    handles = build_run(config, run_index)
    handles.sim.run(until=config.run_bound_ms)
    return RunResult(run=run_index, seed=handles.seed,
                     fingerprint=config.fingerprint(),
                     metrics=collect_metrics(handles))


def _worker(args) -> RunResult:
    config_dict, run_index = args
    return run_single(ExperimentConfig.from_dict(config_dict), run_index)


def run_experiment(config: ExperimentConfig,
                   workers: int | None = None) -> list[RunResult]:
    if workers is None:
        workers = 1
    if workers <= 1 or config.runs == 1:
        return [run_single(config, i) for i in range(config.runs)]
    jobs = [(config.to_dict(), i) for i in range(config.runs)]
    with multiprocessing.Pool(processes=workers) as pool:
        results = pool.map(_worker, jobs)
    return sorted(results, key=lambda r: r.run)


# -- result files -------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def result_rows(config: ExperimentConfig, results: list[RunResult]):
    is_rawa = config.protocol == PROTOCOL_RAWA
    p = config.rawa.p if is_rawa else None
    eta = ("max" if config.rawa.eta is None else config.rawa.eta) if is_rawa else ""
    for res in results:
        m = res.metrics
        mean, median, p95 = m.ttfb_stats()
        yield ",".join([
            str(res.run), str(res.seed), config.protocol, config.adversary,
            _fmt(p), str(eta), str(config.block_size),
            _fmt(m.precision), _fmt(m.recall), _fmt(m.resolved_fraction),
            _fmt(mean), _fmt(median), _fmt(p95),
            _fmt(m.mean_walk_hops), str(m.msgs_total), str(m.bytes_total),
        ])


def write_results(config: ExperimentConfig, results: list[RunResult],
                  out_dir: str | Path, force: bool = False) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.label()}.csv"
    json_path = out / f"{config.label()}_summary.json"
    for path in (csv_path, json_path):
        if path.exists() and not force:
            raise FileExistsError(f"{path} exists; pass force to overwrite")
    lines = [CSV_HEADER, *result_rows(config, results)]
    csv_path.write_text("\n".join(lines) + "\n")
    summary = {
        "config": config.to_dict(),
        "fingerprint": config.fingerprint(),
        "aggregate": aggregate([r.metrics for r in results]),
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def sweep(base: ExperimentConfig, grid: dict, out_dir: str | Path,
          force: bool = False, workers: int | None = None) -> dict:
    """Run the cross product of the grid axes over the base config.

    Recognized axes: p, eta, adversary, block_size, protocol. Failures are
    isolated per combination; the sweep continues and reports them. The
    walk-only axes (p, eta) do not change a vanilla run, so a vanilla
    combination that differs from an earlier one only there is listed under
    ``skipped`` with the label it shares instead of being run again.
    """
    axes = sorted(grid)
    allowed = {"p", "eta", "adversary", "block_size", "protocol"}
    unknown = set(axes) - allowed
    if unknown:
        raise ValueError(f"unknown sweep axes: {sorted(unknown)}")

    combos: list[dict] = [{}]
    for axis in axes:
        values = grid[axis]
        if not values:
            raise ValueError(f"empty grid axis {axis!r}")
        combos = [dict(c, **{axis: v}) for c in combos for v in values]

    report: dict = {"combinations": [], "errors": [], "skipped": []}
    ran: list[ExperimentConfig] = []
    for combo in combos:
        try:
            overrides = dict(combo)
            rawa_over = {}
            if "p" in overrides:
                rawa_over["p"] = overrides.pop("p")
            if "eta" in overrides:
                eta = overrides.pop("eta")
                rawa_over["eta"] = None if eta in (None, "max") else int(eta)
            config = replace(base, **overrides)
            if rawa_over:
                config = replace(config, rawa=replace(config.rawa, **rawa_over))
            same_run = (replace(config, rawa=base.rawa)
                        if config.protocol == PROTOCOL_VANILLA else config)
            if same_run in ran:
                report["skipped"].append({"combo": combo, "label": config.label()})
                continue
            results = run_experiment(config, workers=workers)
            csv_path, json_path = write_results(config, results, out_dir, force)
            ran.append(same_run)
            report["combinations"].append({
                "combo": combo, "label": config.label(),
                "csv": str(csv_path), "summary": str(json_path),
                "aggregate": aggregate([r.metrics for r in results]),
            })
        except Exception as exc:  # isolate per combination
            report["errors"].append({"combo": combo, "error": str(exc)})
    combined = Path(out_dir) / "sweep_summary.json"
    if combined.exists() and not force:
        raise FileExistsError(f"{combined} exists; pass force to overwrite")
    combined.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
