"""Span tracing around the simulator's public calls, for the traced run only.

`install` replaces module functions and class methods of the simulator with
wrappers that record spans (name, start, end, parent, run id) and counters
into a `Tracer`; `uninstall` puts every original back. Nothing here
changes what the wrapped code computes: a wrapper calls the original with
the same arguments and returns its result.

Spans are kept in flat arrays while the run lasts and written once at the
end. A span's self time is its duration minus the durations of its direct
children; because spans nest strictly, the self times of a `netsim.run`
span's subtree add up to that span's duration, which `accounting_error`
checks.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from rawasim import adversary, core, dht, engine, netsim, rawa, runner, vanilla
from rawasim.core import MessageType

# Every attribute a wrapper may replace, with the object found there at
# import time; `pristine` compares against these.
PATCH_POINTS = (
    (runner, "build_run"), (runner, "build_honest_topology"),
    (runner, "wire_adversary"), (runner, "collect_metrics"),
    (runner, "fse_classify"), (runner, "wfe_classify"),
    (runner, "sawfe_classify"), (runner, "precision_recall"),
    (runner, "aggregate"), (runner, "write_results"), (runner, "sweep"),
    (runner, "run_experiment"),
    (core, "derive_cid"), (engine, "derive_cid"), (netsim, "wire_size"),
    (engine.HonestEngine, "accept_block"),
    (rawa.RawaEngine, "build_graph"), (rawa.RawaEngine, "handle_message"),
    (vanilla.VanillaEngine, "handle_message"),
    (adversary.SpyTap, "handle_message"),
    (adversary.ExploiterNode, "handle_message"),
    (netsim.Simulator, "run"), (netsim.Simulator, "send"),
    (netsim.Simulator, "schedule"), (netsim.Simulator, "reachable"),
    (netsim.Simulator, "neighbors"),
    (netsim.Observer, "record_send"), (netsim.Observer, "record_deliver"),
    (netsim.Observer, "record_timer"), (netsim.Observer, "record_drop"),
    (dht.DummyDht, "lookup"),
)
_ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr in PATCH_POINTS}

RAWA_VARIANTS = tuple(t.value for t in MessageType)
VANILLA_VARIANTS = tuple(t.value for t in MessageType
                         if t not in (MessageType.WANT_FORWARD,
                                      MessageType.FORWARD_HAVE))
DROP_REASONS = ("send-no-link", "in-flight-loss", "no-engine",
                "stray-forward-have", "unmatched-response", "unsolicited-block")


def pristine() -> bool:
    """True when no wrapper is installed anywhere."""
    return all(owner.__dict__[attr] is orig
               for (owner, attr), orig in _ORIGINALS.items())


class Tracer:
    """Spans and counters of one traced measurement."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = -1
        self.runs = 0
        self.counts: Counter = Counter()
        self._timers: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            run=np.frombuffer(self.run, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


# -- wrappers -------------------------------------------------------------------


def _span(tr: Tracer, name: str, fn):
    nid = tr.name_id(name)

    def wrapper(*args, **kwargs):
        i = tr.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(i)
    return wrapper


def _count(tr: Tracer, key: str, fn):
    counts = tr.counts

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _handle(tr: Tracer, prefix: str, fn):
    ids = {t: tr.name_id(f"{prefix}.{t.value}") for t in MessageType}

    def wrapper(self, frm, msg, meta):
        i = tr.open(ids[msg.variant])
        try:
            return fn(self, frm, msg, meta)
        finally:
            tr.close(i)
    return wrapper


def _engine_layer(sim, node) -> str:
    """Span name for work an engine does outside message handling."""
    try:
        eng = sim.engine(node)
    except KeyError:
        return "netsim.timer"
    if isinstance(eng, adversary.SpyTap):
        eng = eng.inner
    if isinstance(eng, rawa.RawaEngine):
        return "rawa.timer"
    if isinstance(eng, vanilla.VanillaEngine):
        return "vanilla.timer"
    return "netsim.timer"


def install(tr: Tracer) -> None:
    """Wrap every patch point; the caller must `uninstall` afterwards."""
    counts = tr.counts
    wrappers = {}

    def build_run(config, run_index):
        tr.runs += 1
        tr.run_id = tr.runs - 1
        tr._timers = []
        return orig_build_run(config, run_index)
    orig_build_run = _ORIGINALS[(runner, "build_run")]
    wrappers[(runner, "build_run")] = _span(tr, "runner.build_run", build_run)

    def collect_metrics(handles):
        metrics = orig_collect(handles)
        observer = handles.sim.observer
        counts["drops"] += len(observer.drops)
        for drop in observer.drops:
            counts["drop." + drop[5]] += 1
        if handles.config.protocol == "rawa":
            counts["fh_sent"] += observer.msg_counts.get("FORWARD-HAVE", 0)
            counts["fh_consumed"] += len(observer.consumed)
        counts["log_records"] += len(handles.log.records)
        tr.run_id = -1
        return metrics
    orig_collect = _ORIGINALS[(runner, "collect_metrics")]
    wrappers[(runner, "collect_metrics")] = _span(tr, "runner.collect_metrics",
                                                  collect_metrics)

    for attr in ("build_honest_topology", "wire_adversary"):
        wrappers[(runner, attr)] = _span(tr, "topology.build",
                                         _ORIGINALS[(runner, attr)])
    for attr in ("fse_classify", "wfe_classify", "sawfe_classify"):
        wrappers[(runner, attr)] = _span(tr, "adversary.classify",
                                         _ORIGINALS[(runner, attr)])
    for attr, name in (("precision_recall", "metrics.precision_recall"),
                       ("aggregate", "metrics.aggregate"),
                       ("write_results", "runner.write_results"),
                       ("sweep", "runner.sweep"),
                       ("run_experiment", "runner.run_experiment")):
        wrappers[(runner, attr)] = _span(tr, name, _ORIGINALS[(runner, attr)])

    def derive_cid(block):
        counts["sha256_bytes"] += len(block.payload)
        return orig_derive(block)
    orig_derive = _ORIGINALS[(core, "derive_cid")]
    hashed = _span(tr, "core.hash", derive_cid)
    wrappers[(core, "derive_cid")] = hashed
    wrappers[(engine, "derive_cid")] = hashed
    wrappers[(netsim, "wire_size")] = _count(tr, "wire_size",
                                             _ORIGINALS[(netsim, "wire_size")])

    wrappers[(engine.HonestEngine, "accept_block")] = _span(
        tr, "engine.accept_block", _ORIGINALS[(engine.HonestEngine, "accept_block")])
    wrappers[(rawa.RawaEngine, "build_graph")] = _span(
        tr, "rawa.build_graph", _ORIGINALS[(rawa.RawaEngine, "build_graph")])
    wrappers[(rawa.RawaEngine, "handle_message")] = _handle(
        tr, "rawa.handle", _ORIGINALS[(rawa.RawaEngine, "handle_message")])
    wrappers[(vanilla.VanillaEngine, "handle_message")] = _handle(
        tr, "vanilla.handle", _ORIGINALS[(vanilla.VanillaEngine, "handle_message")])
    for cls in (adversary.SpyTap, adversary.ExploiterNode):
        wrappers[(cls, "handle_message")] = _span(
            tr, "adversary.tap", _ORIGINALS[(cls, "handle_message")])

    def run(sim, until=None):
        executed = orig_run(sim, until)
        counts["events"] += executed
        for timer, fired in tr._timers:
            counts["timers_scheduled"] += 1
            if timer.cancelled and not fired[0]:
                counts["timers_cancelled"] += 1
        tr._timers = []
        return executed
    orig_run = _ORIGINALS[(netsim.Simulator, "run")]
    wrappers[(netsim.Simulator, "run")] = _span(tr, "netsim.run", run)
    wrappers[(netsim.Simulator, "send")] = _span(
        tr, "netsim.send", _ORIGINALS[(netsim.Simulator, "send")])

    def schedule(sim, delay_ms, label, fn, node=-1):
        layer = ("dht.lookup" if label.startswith("dht-lookup:")
                 else _engine_layer(sim, node))
        fired = [False]

        def fire():
            fired[0] = True
            fn()
        timer = orig_schedule(sim, delay_ms, label, _span(tr, layer, fire), node)
        tr._timers.append((timer, fired))
        return timer
    orig_schedule = _ORIGINALS[(netsim.Simulator, "schedule")]
    wrappers[(netsim.Simulator, "schedule")] = schedule

    wrappers[(netsim.Simulator, "reachable")] = _count(
        tr, "reachable", _ORIGINALS[(netsim.Simulator, "reachable")])

    def neighbors(sim, peer):
        items = orig_neighbors(sim, peer)
        counts["neighbors_items"] += len(items)
        return items
    orig_neighbors = _ORIGINALS[(netsim.Simulator, "neighbors")]
    wrappers[(netsim.Simulator, "neighbors")] = neighbors

    for attr in ("record_send", "record_deliver", "record_timer", "record_drop"):
        wrappers[(netsim.Observer, attr)] = _span(
            tr, "netsim.observer", _ORIGINALS[(netsim.Observer, attr)])

    def lookup(table, cid, node, callback):
        counts["dht_lookups"] += 1
        layer = _engine_layer(table.sim, node)
        return orig_lookup(table, cid, node, _span(tr, layer, callback))
    orig_lookup = _ORIGINALS[(dht.DummyDht, "lookup")]
    wrappers[(dht.DummyDht, "lookup")] = _span(tr, "dht.lookup", lookup)

    if set(wrappers) != set(_ORIGINALS):
        raise RuntimeError("a patch point has no wrapper")
    for (owner, attr), wrapper in wrappers.items():
        setattr(owner, attr, wrapper)


def uninstall() -> None:
    for (owner, attr), orig in _ORIGINALS.items():
        setattr(owner, attr, orig)


# -- analysis ---------------------------------------------------------------------


def self_times(tr: Tracer) -> np.ndarray:
    name, parent, start, end = tr.arrays()
    dur = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested],
                           minlength=len(dur))
    return dur - children


def accounting_error(tr: Tracer) -> tuple[float, int]:
    """Largest |sum of self times in a `netsim.run` subtree - its duration|
    in seconds, and the number of run spans checked.

    A subtree is the run span plus every span opened before it closed, so a
    span recorded under the wrong parent, one left open, or a child that
    outlives its parent all show up as a mismatch (reported as infinity).
    """
    if "netsim.run" not in tr.names:
        return 0.0, 0
    name, parent, start, end = tr.arrays()
    if np.isnan(end).any():
        return math.inf, 0
    own = self_times(tr)
    worst = 0.0
    roots = np.flatnonzero(name == tr.names.index("netsim.run"))
    for r in roots:
        hi = int(np.searchsorted(start, end[r], side="left"))
        inner = slice(r + 1, hi)
        if ((parent[inner] < r) | (parent[inner] >= hi)).any() or \
                (end[inner] > end[r]).any():
            return math.inf, len(roots)
        worst = max(worst, abs(float(own[r:hi].sum()) - (end[r] - start[r])))
    return worst, len(roots)


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced measurement as (value, unit), per
    seeded run unless the unit says otherwise. Layers that did not run
    read 0."""
    name, _, start, end = tr.arrays()
    own = self_times(tr)
    size = len(tr.names)
    self_ms = np.bincount(name, weights=own, minlength=size) * 1e3
    total_ms = np.bincount(name, weights=end - start, minlength=size) * 1e3
    spans = np.bincount(name, minlength=size)
    runs = max(tr.runs, 1)
    c = tr.counts

    def self_of(span):
        i = tr._ids.get(span)
        return (0.0 if i is None else float(self_ms[i]) / runs, "ms/run")

    def total_of(span):
        i = tr._ids.get(span)
        return (0.0 if i is None else float(total_ms[i]) / runs, "ms/run")

    def per_run(count, unit="count/run"):
        return (count / runs, unit)

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    i = tr._ids.get("netsim.send")
    sends = 0 if i is None else int(spans[i])
    out = {
        "runner.build_run.self_ms": self_of("runner.build_run"),
        "topology.build_ms": total_of("topology.build"),
        "rawa.build_graph_ms": total_of("rawa.build_graph"),
        "core.hash_ms": total_of("core.hash"),
        "core.sha256_bytes": per_run(c["sha256_bytes"], "B/run"),
        "engine.accept_block_ms": total_of("engine.accept_block"),
        "netsim.events": per_run(c["events"]),
        "netsim.sends": per_run(sends),
        "netsim.run.self_ms": self_of("netsim.run"),
        "netsim.send.self_ms": self_of("netsim.send"),
        "netsim.observer.self_ms": self_of("netsim.observer"),
        "netsim.reachable_per_send": ratio(c["reachable"], sends),
        "core.wire_size_per_send": ratio(c["wire_size"], sends),
        "netsim.neighbors_items": per_run(c["neighbors_items"]),
        "netsim.timers_scheduled": per_run(c["timers_scheduled"]),
        "netsim.timers_cancelled_ratio": ratio(c["timers_cancelled"],
                                               c["timers_scheduled"]),
    }
    for variant in RAWA_VARIANTS:
        out[f"rawa.handle.self_ms.{variant}"] = self_of(f"rawa.handle.{variant}")
    for variant in VANILLA_VARIANTS:
        out[f"vanilla.handle.self_ms.{variant}"] = self_of(f"vanilla.handle.{variant}")
    out["rawa.timer.self_ms"] = self_of("rawa.timer")
    out["vanilla.timer.self_ms"] = self_of("vanilla.timer")
    out["rawa.fh_useful_ratio"] = ratio(c["fh_consumed"], c["fh_sent"])
    for reason in DROP_REASONS:
        out[f"netsim.drops.{reason}"] = per_run(c["drop." + reason])
    out["dht.lookups"] = per_run(c["dht_lookups"])
    out["dht.lookup.self_ms"] = self_of("dht.lookup")
    out["adversary.tap.self_ms"] = self_of("adversary.tap")
    out["adversary.log_records"] = per_run(c["log_records"])
    out["adversary.classify_ms"] = total_of("adversary.classify")
    out["metrics.precision_recall_ms"] = total_of("metrics.precision_recall")
    out["metrics.aggregate_ms"] = total_of("metrics.aggregate")
    out["runner.write_results_ms"] = total_of("runner.write_results")
    return out
