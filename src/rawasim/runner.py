"""Experiment orchestration: config, seeded runs, sweeps, result files.

A run is fully determined by ``(config, base_seed + run_index)``: topology,
block keys, interest assignment, link jitter, protocol choices and the
classifier's tie-breaking all draw from streams derived from that seed.
Runs are isolated, so an experiment can fan out over a process pool without
changing any result; rows are ordered by run index regardless of completion
order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from random import Random
from typing import NamedTuple

from .adversary import (ExploiterNode, ObservationLog, SpyTap, fse_classify,
                        sawfe_classify, wfe_classify)
from .core import (CID_ENTRY_BYTES, ENVELOPE_BYTES, PROVIDER_RECORD_BYTES, Cid,
                   PeerId, check_fields, decode, is_kind, make_blocks, rule)
from .dht import DummyDht
from .engine import GIVE_UP_MS
from .metrics import GroundTruth, RunMetrics, aggregate, precision_recall
from .netsim import HORIZON_MS, LinkSpec, Observer, Simulator
from .rawa import RaWaConfig, RawaEngine
from .topology import (ADVERSARY_FSE, ADVERSARY_NONE, ADVERSARY_WFE, WIRING,
                       build_honest_topology, wire_adversary)
from .vanilla import VanillaEngine

PROTOCOL_VANILLA = "vanilla"
PROTOCOL_RAWA = "rawa"

CSV_HEADER = ("run,seed,protocol,adversary,p,eta,block_size,precision,recall,"
              "resolved_fraction,ttfb_mean_ms,ttfb_median_ms,ttfb_p95_ms,"
              "mean_walk_hops,msgs_total,bytes_total")


# a block of no bytes fails the block build, fewer than one link fails the
# topology draw, and a float or bool count fails inside the run
_COUNT = (lambda n: n >= 1, "be an integer >= 1")
# anything that would schedule an event in the past fails at load, not mid-run
_DELAY = (lambda x: 0 <= x < math.inf, "be a finite number >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = rule(PROTOCOL_VANILLA, (PROTOCOL_VANILLA, PROTOCOL_RAWA).__contains__,
                         f"be {PROTOCOL_VANILLA} or {PROTOCOL_RAWA}")
    adversary: str = rule(ADVERSARY_NONE, WIRING.__contains__,
                          f"be one of {', '.join(WIRING)}")
    n_peers: int = rule(50, *_COUNT)
    out_links: int = rule(4, *_COUNT)
    link: LinkSpec = field(default_factory=LinkSpec)
    dht_base_delay_ms: float = rule(622.0, *_DELAY)
    dht_delay_spread: float = rule(0.10, lambda s: 0 <= s < 1,
                                   "be a number in [0, 1)")
    block_size: int = rule(1025, *_COUNT)
    rawa: RaWaConfig = field(default_factory=RaWaConfig)
    runs: int = rule(100, *_COUNT)
    base_seed: int = 1
    churn: tuple[tuple[int, float], ...] = rule(
        (), lambda churn: all(isinstance(e, tuple) and len(e) == 2 for e in churn),
        "be a list of [honest index, departure ms] entries")
    stagger_ms: float = rule(0.0, *_DELAY)
    fixed_topology: bool = False
    dial_rtt_multiplier: float = rule(1.0, *_DELAY)
    # an unresolvable request re-arms its ticks until it gives up
    give_up_ms: float = rule(GIVE_UP_MS, lambda ms: 0 < ms <= HORIZON_MS,
                             "be a number of ms in (0, 2**43]")
    wfe_fake_have: bool = True
    # True assigns interests as a uniform cyclic permutation, so no two
    # requesters want the same block (isolates walk statistics from the
    # shared-cid mixing rule); False matches the evaluation workload where
    # repeats are allowed.
    unique_interests: bool = False
    run_bound_ms: float | None = rule(None, lambda ms: ms > 0,
                                      "be a number of ms > 0, or null for no bound")
    keep_trace: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_honest <= self.out_links:
            raise ValueError("need more honest peers than out_links")
        for index, depart_ms in self.churn:
            if not (is_kind(index, int) and 0 <= index < self.n_honest):
                raise ValueError(f"churn index {index!r} is not one of the "
                                 f"{self.n_honest} honest nodes")
            # an infinite departure time means the node never departs
            if not (is_kind(depart_ms, float) and (
                    0 <= depart_ms <= HORIZON_MS or depart_ms == math.inf)):
                raise ValueError(f"churn departure time {depart_ms!r} must lie "
                                 "in [0, 2**43] ms (or be infinite)")
        self._refuse_delays_past_the_horizon()
        self._refuse_ticks_past_the_livelock_guard()

    def _refuse_ticks_past_the_livelock_guard(self) -> None:
        """Refuse a config whose requesters' own periodic timers would pass
        `Simulator.livelock_cap` in a run where no request resolves. Request
        i is open from its start, `stagger_ms * i`, for `give_up_ms`, or
        until `run_bound_ms` if that comes sooner. Over that window a rawa
        request re-arms `t0` every `t0_ms` whatever its state, and a vanilla
        request with no provider fires a `t1` tick and an index lookup at
        least once per `t1` plus the longest lookup."""
        n, start, give_up = self.n_honest, self.stagger_ms, self.give_up_ms
        bound = self.run_bound_ms
        if bound is None or bound >= start * (n - 1) + give_up:
            open_ms = n * give_up
        elif start == 0:
            open_ms = n * bound
        else:
            # requests before `full` stay open for all of give_up_ms, those
            # before `started` until the bound, and the rest never start
            full = min(n, max(0, math.floor((bound - give_up) / start) + 1))
            started = min(n, math.ceil(bound / start))
            open_ms = full * give_up + (started - full) * (
                bound - start * (full + started - 1) / 2)
        if self.protocol == PROTOCOL_RAWA:
            ticks = open_ms / self.rawa.t0_ms
        else:
            ticks = 2 * open_ms / (VanillaEngine.t1_ms + self.dht_base_delay_ms
                                   * (1 + self.dht_delay_spread))
        if ticks > Simulator.livelock_cap:
            raise ValueError(
                f"give_up_ms: the requests' periodic timers alone could fire "
                f"{ticks:.3g} times, past the simulator's livelock guard of "
                f"{Simulator.livelock_cap} events; lower give_up_ms or set "
                "run_bound_ms")

    def _refuse_delays_past_the_horizon(self) -> None:
        """Refuse a config one of whose delays, from the start of a run,
        could carry the clock past `HORIZON_MS`: a message (the largest is
        a block or a FORWARD-HAVE naming every peer, and the refusal names
        `block_size` or `n_peers` after it), a dial, an index lookup or the
        last staggered request start. `give_up_ms` is bounded by its rule,
        the churn times by `__post_init__`, and `LinkSpec` and `RaWaConfig`
        bound their own delays. Sizes are compared as integers, so a huge
        `block_size` or `n_peers` cannot overflow a float here."""
        link = self.link
        leg_ms = link.latency_ms + link.jitter_ms
        records = PROVIDER_RECORD_BYTES * self.n_peers
        key, payload = (("n_peers", records) if records > self.block_size
                        else ("block_size", self.block_size))
        largest = ENVELOPE_BYTES + CID_ENTRY_BYTES + payload
        if largest * 1000 > (HORIZON_MS - leg_ms) * link.bandwidth_bytes_per_s:
            raise ValueError(f"{key}: at {link.bandwidth_bytes_per_s} B/s "
                             "a message's delay would pass the clock's horizon "
                             "of 2**43 ms")
        for name, delay in (
                ("dial_rtt_multiplier", self.dial_rtt_multiplier * 2 * leg_ms),
                ("dht_base_delay_ms",
                 self.dht_base_delay_ms * (1 + self.dht_delay_spread)),
                ("stagger_ms", self.stagger_ms * (self.n_honest - 1))):
            if not delay <= HORIZON_MS:
                raise ValueError(f"{name}: a delay would pass the clock's "
                                 "horizon of 2**43 ms")

    @property
    def n_honest(self) -> int:
        if WIRING[self.adversary] == ADVERSARY_FSE:
            return self.n_peers - 1
        if WIRING[self.adversary] == ADVERSARY_WFE:
            # one adversary node per four honest nodes
            honest = self.n_peers * 4 // 5
            if honest + honest // 4 != self.n_peers:
                raise ValueError("n_peers must split 4:1 into honest:adversary")
            return honest
        return self.n_peers

    to_dict = asdict  # the JSON object `from_dict` reads
    from_dict = classmethod(decode)

    def fingerprint(self) -> str:
        """The first 16 hex digits of SHA-256 over the sorted-key config
        JSON. Computed on the first call and kept on the instance, as
        `Block.cid` is; it is no field, so `to_dict`, equality, hashing,
        repr and `replace` do not see it."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True)
            cached = hashlib.sha256(canonical.encode()).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def run_key(self) -> "ExperimentConfig":
        """This config with its adversary's wiring and, if vanilla, unread
        walk parameters reset: configs with one key share every run."""
        rawa = self.rawa if self.protocol == PROTOCOL_RAWA else RaWaConfig()
        return replace(self, adversary=WIRING[self.adversary], rawa=rawa)

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
    observer = Observer(keep_trace=config.keep_trace)
    sim = Simulator(config.link, rng, observer,
                    dial_rtt_multiplier=config.dial_rtt_multiplier)
    honest = build_honest_topology(sim, config.n_honest, config.out_links, topo_rng)
    adversaries = wire_adversary(sim, honest, config.adversary, topo_rng)
    dht = DummyDht(sim, config.dht_base_delay_ms, config.dht_delay_spread)

    log = ObservationLog(keep_trace=config.keep_trace)

    def honest_engine(node: PeerId):
        if config.protocol == PROTOCOL_RAWA:
            return RawaEngine(node, sim, dht, config.rawa,
                              give_up_ms=config.give_up_ms)
        return VanillaEngine(node, sim, dht, give_up_ms=config.give_up_ms)

    # the protocol engines: one per honest node, and the passive spy's
    protocol = {node: honest_engine(node) for node in honest}
    engines: dict[PeerId, object] = dict(protocol)
    for node in adversaries:
        if WIRING[config.adversary] == ADVERSARY_FSE:
            protocol[node] = honest_engine(node)
            engines[node] = SpyTap(node, protocol[node], log)
        else:
            engines[node] = ExploiterNode(node, sim, log,
                                          fake_have=config.wfe_fake_have)
    for node, engine in engines.items():
        sim.attach(node, engine)

    # One unique block per honest node, registered before requests. Each is
    # keyed by a per-node sub-seed, one draw whatever the block_size, so
    # runs with different sizes share the same topology, interests and
    # early event randomness, which keeps size-sweep comparisons paired.
    blocks = make_blocks([rng.getrandbits(64) for _ in honest], config.block_size)

    # privacy subgraphs (the passive spy participates like an honest node)
    subgraph_oracle: dict[PeerId, tuple] = {}
    if config.protocol == PROTOCOL_RAWA:
        for node, engine in protocol.items():
            engine.build_graph()
            subgraph_oracle[node] = engine.graph

    # each honest node wants another honest node's block, drawn as its
    # owner and resolved to its CID once the blocks are stored
    if config.unique_interests:
        # Sattolo shuffle: uniform cyclic permutation, never a fixed point
        ring = list(honest)
        for i in range(len(ring) - 1, 0, -1):
            j = rng.randrange(i)
            ring[i], ring[j] = ring[j], ring[i]
        wanted = dict(zip(honest, ring))
    else:
        # honest ids are 0 .. n - 1, so the j-th of the others is j or j + 1
        last = len(honest) - 1
        wanted = {}
        for node in honest:
            j = rng.randrange(last)
            wanted[node] = j if j < node else j + 1

    owners: dict[PeerId, Cid] = {node: engines[node].store_block(block)
                                 for node, block in zip(honest, blocks)}
    interests = {node: owners[owner] for node, owner in wanted.items()}
    truth = GroundTruth(interests=interests)

    for depart_index, depart_ms in config.churn:
        sim.schedule_departure(honest[depart_index], depart_ms)

    for i, node in enumerate(honest):
        engine = engines[node]
        cid = interests[node]
        sim.call_at(sim.now + config.stagger_ms * i, node,
                    (lambda e=engine, c=cid: e.request_block(c)), ("request", cid))

    return RunHandles(config=config, seed=seed, sim=sim, dht=dht,
                      engines=engines, honest=honest, adversaries=adversaries,
                      truth=truth, log=log, subgraph_oracle=subgraph_oracle)


def collect_metrics(handles: RunHandles) -> RunMetrics:
    config = handles.config
    observer = handles.sim.observer
    metrics = RunMetrics(n_requesters=len(handles.honest))

    for node in handles.honest:
        if node in observer.completions:
            metrics.ttfb_ms[node] = observer.completions[node][3]

    first_termination: dict[tuple, int] = {}
    for walk_id, retx, hops, node, time in observer.terminations:
        first_termination.setdefault(walk_id, hops)
    metrics.walk_lengths = list(first_termination.values())

    metrics.msg_counts = dict(observer.msg_counts)
    metrics.bytes_by_variant = dict(observer.bytes_by_variant)

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


def _run_once(configs: list[ExperimentConfig], run_index: int) -> list[RunResult]:
    """Build and run run `run_index` once; score every config from it."""
    handles = build_run(configs[0], run_index)
    handles.sim.run(until=configs[0].run_bound_ms)
    return [RunResult(run=run_index, seed=handles.seed,
                      fingerprint=config.fingerprint(),
                      metrics=collect_metrics(replace(handles, config=config)))
            for config in configs]


def run_shared(configs: list[ExperimentConfig],
               workers: int | None = None) -> list[list[RunResult]]:
    """Each config's results in run order, each run built once and scored for
    every config (all of one `run_key`); one failed scoring fails them all."""
    if any(config.run_key() != configs[0].run_key() for config in configs):
        raise ValueError("the configs do not share their runs")
    jobs = [(configs, i) for i in range(configs[0].runs)]
    if (workers or 1) <= 1 or len(jobs) == 1:
        per_run = [_run_once(*job) for job in jobs]
    else:
        # imported only to start a pool, so a run in-process never pays it
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
            per_run = pool.starmap(_run_once, jobs)
    return [list(results) for results in zip(*per_run)]


def run_experiment(config: ExperimentConfig,
                   workers: int | None = None) -> list[RunResult]:
    return run_shared([config], workers)[0]


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


def result_paths(config: ExperimentConfig, out_dir: str | Path) -> tuple[Path, Path]:
    """The CSV and the summary JSON that `write_results` writes for `config`."""
    out = Path(out_dir)
    return out / f"{config.label()}.csv", out / f"{config.label()}_summary.json"


def refuse_existing(paths) -> None:
    for path in paths:
        if path.exists():
            raise FileExistsError(f"{path} exists; pass force to overwrite")


def write_results(config: ExperimentConfig, results: list[RunResult],
                  out_dir: str | Path, force: bool = False) -> tuple[Path, Path]:
    csv_path, json_path = result_paths(config, out_dir)
    if not force:
        refuse_existing((csv_path, json_path))
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER, *result_rows(config, results)]
    csv_path.write_text("\n".join(lines) + "\n")
    summary = {
        "config": config.to_dict(),
        "fingerprint": config.fingerprint(),
        "aggregate": aggregate([r.metrics for r in results]),
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


class SweepCell(NamedTuple):
    combo: dict
    config: ExperimentConfig
    repeat: bool


def overlay(data: dict, overrides: dict) -> ExperimentConfig:
    """The config of `data` with `overrides` on top: `rawa` and `link` objects
    merge key by key, `p` and `eta` go into `rawa`, and `from_dict` decodes
    and checks every value (a `rawa` or `link` that is no object included)."""
    walk = {key: overrides[key] for key in ("p", "eta") if key in overrides}
    merged = {**data, **overrides}
    for key, extra in (("rawa", walk), ("link", {})):
        sides = (data.get(key, {}), overrides.get(key, {}))
        odd = [side for side in sides if not isinstance(side, dict)]
        merged[key] = odd[0] if odd else {**sides[0], **sides[1], **extra}
    return ExperimentConfig.from_dict({k: v for k, v in merged.items() if k not in walk})


def sweep_cells(base: ExperimentConfig, grid: dict) -> list[SweepCell]:
    """Every combination of the grid's axes over `base`, in sorted-axis
    order, each built as a config; a bad axis or value raises ValueError.
    A cell with an earlier cell's `run_key` and label is a repeat: the
    walk-only axes (p, eta) do not change a vanilla run."""
    unknown = set(grid) - {"p", "eta", "adversary", "block_size", "protocol"}
    if unknown:
        raise ValueError(f"unknown sweep axes: {sorted(unknown)}")
    combos: list[dict] = [{}]
    for axis in sorted(grid):
        if not isinstance(grid[axis], list):
            raise ValueError(f"grid axis {axis!r} must be a list of values, "
                             f"not {type(grid[axis]).__name__}")
        if not grid[axis]:
            raise ValueError(f"empty grid axis {axis!r}")
        combos = [dict(c, **{axis: v}) for c in combos for v in grid[axis]]
    data = base.to_dict()
    cells, runs = [], set()
    for combo in combos:
        try:
            config = overlay(data, combo)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"grid cell {combo}: {exc}") from exc
        run = (config.run_key(), config.label())
        cells.append(SweepCell(combo, config, run in runs))
        runs.add(run)
    return cells


def sweep(base: ExperimentConfig, grid: dict, out_dir: str | Path,
          force: bool = False, workers: int | None = None) -> dict:
    """Run each cell of `sweep_cells(base, grid)`; repeats go under ``skipped``.
    Cells that share result files and, unless `force`, existing outputs
    raise before the first run; a run-time failure is reported per cell."""
    cells = sweep_cells(base, grid)
    combined = Path(out_dir) / "sweep_summary.json"
    paths = [path for cell in cells if not cell.repeat
             for path in result_paths(cell.config, out_dir)]
    if len(set(paths)) < len(paths):
        raise ValueError("two grid cells would write the same result files")
    if not force:
        refuse_existing([combined, *paths])
    report: dict = {"combinations": [], "errors": [], "skipped": []}
    for combo, config, repeat in cells:
        if repeat:
            report["skipped"].append({"combo": combo, "label": config.label()})
            continue
        try:
            results = run_experiment(config, workers=workers)
            csv_path, json_path = write_results(config, results, out_dir, force)
            report["combinations"].append({
                "combo": combo, "label": config.label(),
                "csv": str(csv_path), "summary": str(json_path),
                "aggregate": json.loads(json_path.read_text())["aggregate"],
            })
        except Exception as exc:  # isolate per combination
            report["errors"].append({"combo": combo, "error": str(exc)})
    combined.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
