"""Workloads of the benchmark, their seeded inputs, the correctness gate and
the speed gauge that scales host times.

Every workload draws its inputs from a bank of base seeds whose outputs were
recorded once, at the commit that introduced the benchmark, in
`reference.json`. The workload seed given on the command line fixes the
order in which the bank is walked, so the same seed always gives the same
inputs and different seeds give different ones, while every input still has
a recorded reference. A phase whose result files or simulated counts differ
from the reference counts all of its runs as failed.

The simulator is driven only through its public entry points:
`runner.sweep` (which runs each combination through
`runner.run_experiment`), `runner.build_run`, `Simulator.run`,
`runner.collect_metrics` and `runner.write_results`.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import json
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random

from rawasim import runner
from rawasim.rawa import RaWaConfig
from rawasim.runner import ExperimentConfig

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

ADVERSARIES = ["none", "fse", "wfe", "sawfe"]
# The paper's evaluation grid, one sweep per protocol: crossing `protocol`
# with `p` or `eta` in one sweep gives the vanilla combinations identical
# labels (see NOTES.md).
VANILLA_GRID = {"adversary": ADVERSARIES}
RAWA_GRID = {"adversary": ADVERSARIES, "p": [0.2, 0.5], "eta": [1, 2, "max"]}


def _grid_bases(seed: int):
    return [(ExperimentConfig(protocol="vanilla", n_peers=50, runs=1,
                              base_seed=seed), VANILLA_GRID),
            (ExperimentConfig(protocol="rawa", n_peers=50, runs=1,
                              base_seed=seed), RAWA_GRID)]


def _sweep_cells(base: ExperimentConfig, grid: dict) -> list[ExperimentConfig]:
    """The configs `runner.sweep` derives from one base and grid."""
    combos: list[dict] = [{}]
    for axis in sorted(grid):
        combos = [dict(c, **{axis: v}) for c in combos for v in grid[axis]]
    cells = []
    for combo in combos:
        rawa_over = {}
        if "p" in combo:
            rawa_over["p"] = combo.pop("p")
        if "eta" in combo:
            eta = combo.pop("eta")
            rawa_over["eta"] = None if eta in (None, "max") else int(eta)
        config = replace(base, **combo)
        if rawa_over:
            config = replace(config, rawa=replace(config.rawa, **rawa_over))
        cells.append(config)
    return cells


@dataclass(frozen=True)
class Workload:
    name: str
    bank: tuple[int, ...]

    def cells(self, seed: int) -> list[ExperimentConfig]:
        """Every config one iteration runs, in-process and in order."""
        if self.name == "grid_n50":
            return [c for base, grid in _grid_bases(seed)
                    for c in _sweep_cells(base, grid)]
        if self.name == "fse_n400":
            return [ExperimentConfig(protocol="rawa", adversary="fse",
                                     n_peers=400, runs=1, base_seed=seed,
                                     rawa=RaWaConfig(p=0.2, eta=None))]
        if self.name == "blocks_150k":
            # the time-to-first-block configuration of criterion 4
            return [ExperimentConfig(protocol=protocol, adversary="none",
                                     n_peers=50, runs=1, base_seed=seed,
                                     block_size=153_600,
                                     rawa=RaWaConfig(p=0.5, eta=None))
                    for protocol in ("vanilla", "rawa")]
        raise ValueError(f"unknown workload {self.name!r}")


WORKLOADS = {w.name: w for w in (
    Workload("grid_n50", tuple(range(1000, 1024))),
    Workload("fse_n400", tuple(range(2000, 2040))),
    Workload("blocks_150k", tuple(range(3000, 3160))),
)}


# Inputs of similar size (recorded event count) form a stratum of this many.
STRATUM = 4


def plan(name: str, seed: int) -> list[int]:
    """The base seeds a run of `name` walks through, in order. The walk goes
    in passes, each taking one input from every stratum in a seeded order,
    so every stretch of a run sees small and large inputs alike."""
    entries = load_reference()[name]
    bank = sorted(WORKLOADS[name].bank, key=lambda s: (entries[str(s)]["events"], s))
    rng = Random(f"{name}/{seed}")
    strata = [bank[i:i + STRATUM] for i in range(0, len(bank), STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for k in range(STRATUM):
        walk = [stratum[k] for stratum in strata if k < len(stratum)]
        rng.shuffle(walk)
        order += walk
    return order


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


# -- machine speed ------------------------------------------------------------
#
# The shared machine the benchmark was defined on switches between speed
# states (a fixed pure-Python loop takes 1.6 times as long in the slow one)
# for seconds to minutes at a time, which moves every host time of the
# simulator by the same factor. A fixed piece of pure-Python work, the
# gauge, therefore runs between consecutive timed phases, and a phase's host
# times are scaled by the gauge's reference time over the median of the four
# gauges nearest it: the figures read as host time on that machine in its
# fast state.

# Host seconds of one `gauge()` on the machine above in its fast state.
GAUGE_REFERENCE_S = 0.013


class _Peer:
    __slots__ = ("key", "links", "seen")

    def __init__(self, key: int):
        self.key = key
        self.links: list[_Peer] = []
        self.seen: dict[int, int] = {}


def _gauge_work(rounds: int) -> int:
    """Event-queue work like the simulator's: heap pops and pushes, dict
    updates and attribute access on small objects."""
    peers = [_Peer(i) for i in range(64)]
    for i, peer in enumerate(peers):
        peer.links = [peers[(i * 7 + j) % 64] for j in range(1, 5)]
    heap = [(0.0, 0, 0)]
    seq = 1
    total = 0
    for _ in range(rounds):
        t, _, key = heapq.heappop(heap)
        for link in peers[key].links:
            slot = seq & 255
            link.seen[slot] = link.seen.get(slot, 0) + 1
            heapq.heappush(heap, (t + 1.5 + seq % 7, seq, link.key))
            seq += 1
        if len(heap) > 512:
            heap = heap[:256]
            heapq.heapify(heap)
        total += len(peers[key].seen)
    return total


def gauge() -> float:
    """Host seconds of a fixed piece of pure-Python work."""
    t0 = time.perf_counter()
    _gauge_work(6000)
    return time.perf_counter() - t0


def speeds(gauges: list[float]) -> list[float]:
    """Per interval between consecutive gauges, the factor that turns host
    time measured in it into host time at the reference speed: the
    reference over the median of the two gauges on each side of it."""
    return [GAUGE_REFERENCE_S / statistics.median(gauges[max(k - 1, 0):k + 3])
            for k in range(len(gauges) - 1)]


# -- phases -------------------------------------------------------------------


@dataclass
class Phase:
    """One timed pass over an iteration's inputs."""

    label: str
    runs: int
    wall_s: float = 0.0
    run_ms: list[float] = field(default_factory=list)
    # what this pass can observe of its outputs; compared with the reference
    observed: dict = field(default_factory=dict)


def digest_dir(out: Path) -> str:
    """SHA-256 over the names and SHA-256s of every result CSV and
    per-combination summary. `sweep_summary.json` is left out: it records
    the output directory's path."""
    lines = []
    for path in sorted(out.rglob("*"), key=lambda p: p.name):
        if path.is_file() and path.name != "sweep_summary.json":
            lines.append(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _counts(tally: dict[str, Counter]) -> dict:
    return {key: {str(k): tally[key][k] for k in sorted(tally[key])}
            for key in tally}


def in_process(configs: list[ExperimentConfig], out: Path) -> Phase:
    """Run every config's runs through build_run -> Simulator.run ->
    collect_metrics, timing each, then write the result files."""
    phase = Phase("in-process", runs=sum(c.runs for c in configs))
    tally = {key: Counter() for key in ("msgs", "bytes", "drops", "walks")}
    events = 0
    for config in configs:
        fingerprint = config.fingerprint()
        results = []
        for i in range(config.runs):
            t0 = time.perf_counter()
            handles = runner.build_run(config, i)
            executed = handles.sim.run(until=config.run_bound_ms)
            metrics = runner.collect_metrics(handles)
            dt = time.perf_counter() - t0
            phase.wall_s += dt
            phase.run_ms.append(dt * 1e3)
            results.append(runner.RunResult(run=i, seed=handles.seed,
                                            fingerprint=fingerprint,
                                            metrics=metrics))
            observer = handles.sim.observer
            events += executed
            tally["msgs"].update(observer.msg_counts)
            tally["bytes"].update(observer.bytes_by_variant)
            tally["drops"].update(drop[5] for drop in observer.drops)
            tally["walks"].update(metrics.walk_lengths)
        t0 = time.perf_counter()
        runner.write_results(config, results, out)
        phase.wall_s += time.perf_counter() - t0
    phase.observed = {"digest": digest_dir(out), "events": events,
                      **_counts(tally)}
    return phase


def sweeps(seed: int, out: Path) -> Phase:
    """The grid as a user runs it: one `runner.sweep` per protocol."""
    bases = _grid_bases(seed)
    phase = Phase("sweep", runs=sum(len(_sweep_cells(b, g)) * b.runs
                                    for b, g in bases))
    errors = []
    for base, grid in bases:
        t0 = time.perf_counter()
        report = runner.sweep(base, grid, out / base.protocol)
        phase.wall_s += time.perf_counter() - t0
        errors += report["errors"]
    if errors:
        raise RuntimeError(f"sweep combinations failed: {errors}")
    phase.observed = {"digest": digest_dir(out)}
    return phase


def mismatches(observed: dict, entry: dict | None) -> list[str]:
    """Names of observed quantities that differ from the reference entry."""
    if entry is None:
        return ["no reference"]
    return [key for key in sorted(observed) if observed[key] != entry.get(key)]


# -- measurement --------------------------------------------------------------


@dataclass
class Measurement:
    """Totals over the iterations of one pass. `wall_s` and `run_ms` are
    host times as measured; `scaled_ms()` and `rates()` are at the gauge's
    reference speed."""

    seeds: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    events: int = 0
    wall_s: float = 0.0
    run_ms: list[float] = field(default_factory=list)
    phases: list[Phase] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    # one before the first phase and one after every phase
    gauges: list[float] = field(default_factory=list)
    # (index of the interval between gauges, phase, its events) per
    # phase that matched its reference
    matched: list[tuple[int, Phase, int]] = field(default_factory=list)

    def add(self, phase: Phase, entry: dict | None) -> None:
        self.phases.append(phase)
        self.attempted += phase.runs
        bad = mismatches(phase.observed, entry)
        if bad:
            self.failed += phase.runs
            self.problems.append(f"{phase.label}: differs from reference in {bad}")
            return
        self.events += entry["events"]
        self.wall_s += phase.wall_s
        self.run_ms += phase.run_ms
        self.matched.append((len(self.gauges) - 1, phase, entry["events"]))

    def fail(self, label: str, runs: int, error: str) -> None:
        self.attempted += runs
        self.failed += runs
        self.problems.append(f"{label}: {error}")

    def speeds(self) -> list[float]:
        """The gauge's speed factor of every matched phase."""
        factors = speeds(self.gauges)
        return [factors[k] for k, _, _ in self.matched]

    def scaled_ms(self) -> list[float]:
        return [ms * f for f, (_, phase, _) in zip(self.speeds(), self.matched)
                for ms in phase.run_ms]

    def scaled_wall_s(self) -> float:
        return sum(phase.wall_s * f
                   for f, (_, phase, _) in zip(self.speeds(), self.matched))

    def rates(self) -> list[float]:
        """Events per second of every matched phase."""
        return [events / (phase.wall_s * f)
                for f, (_, phase, events) in zip(self.speeds(), self.matched)]


def phase_makers(name: str, seed: int):
    """(label, runs, function of an output directory) per phase of one
    iteration of the workload `name` on base seed `seed`."""
    configs = WORKLOADS[name].cells(seed)
    runs = sum(c.runs for c in configs)
    if name == "grid_n50":
        return [("sweep", runs, lambda out: sweeps(seed, out)),
                ("in-process", runs, lambda out: in_process(configs, out))]
    return [("in-process", runs, lambda out: in_process(configs, out))]


def iterate(measurement: Measurement, makers, seed: int, reference: dict) -> None:
    """Run the phases of one iteration and check each against its entry,
    with a gauge after each."""
    OUT.mkdir(exist_ok=True)
    measurement.seeds.append(seed)
    for label, runs, make in makers:
        # start every phase from the same heap: garbage cycles left by the
        # previous phase would otherwise be collected inside this one
        gc.collect()
        out = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=OUT))
        if not measurement.gauges:
            measurement.gauges.append(gauge())
        try:
            phase = make(out)
        except Exception:  # a failed run is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            measurement.fail(label, runs, "raised, see stderr")
        else:
            measurement.add(phase, reference.get(str(seed)))
        finally:
            shutil.rmtree(out, ignore_errors=True)
            measurement.gauges.append(gauge())


def measure(name: str, order: list[int], seconds: float,
            reference: dict) -> Measurement:
    """Whole iterations over `order` (cycling) until `seconds` have passed;
    at least one."""
    measurement = Measurement()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        seed = order[i % len(order)]
        iterate(measurement, phase_makers(name, seed), seed, reference)
        i += 1
    return measurement


def replay(name: str, seeds: list[int], reference: dict,
           makers=phase_makers) -> Measurement:
    """The same iterations again, in the same order."""
    measurement = Measurement()
    for seed in seeds:
        iterate(measurement, makers(name, seed), seed, reference)
    return measurement


def warm_up(name: str, seed: int) -> None:
    """One untimed, unchecked run, so lazy imports and caches are settled
    before timing starts."""
    config = WORKLOADS[name].cells(seed)[0]
    handles = runner.build_run(config, 0)
    handles.sim.run(until=config.run_bound_ms)
    runner.collect_metrics(handles)


def reference_entry(name: str, seed: int) -> dict:
    """What `reference.json` records for one input: the in-process phase's
    result-file digest and simulated counts."""
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    try:
        return in_process(WORKLOADS[name].cells(seed), out).observed
    finally:
        shutil.rmtree(out, ignore_errors=True)
