"""Deterministic discrete-event network simulator.

One `Simulator` owns a run: virtual clock, event heap ordered by
``(time, seq)`` with a monotone scheduling sequence number as tie-break,
the overlay adjacency, node liveness, and message delivery with a
latency + jitter + serialization delay model.

Determinism contract: all randomness flows through the single
``random.Random`` stream handed to the run (Mersenne Twister, seeded with a
64-bit integer), and every neighbor iteration happens in sorted order, so an
identical ``(config, seed)`` pair replays an identical event trace.

Hot-path contract: every message passes through `Simulator.send` exactly
once, which makes the one reachability decision for it. `fan_out` sends one
shared message to many peers and silently skips those already unreachable.
`neighbors` hands out a cached sorted tuple that `add_edge` and departures
invalidate; edges disappear only when a node departs, which `departures`
counts so engines can key their own reachability caches on it.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import Message, PeerId, peer_name, wire_size

RngStream = random.Random

_DELIVER = 0
_TIMER = 1
_DEPART = 2
_DIAL = 3


@dataclass(frozen=True)
class LinkSpec:
    """Per-link delay model: one-way base latency, symmetric uniform jitter
    half-width, and serialization bandwidth."""

    latency_ms: float = 100.0
    jitter_ms: float = 10.0
    bandwidth_bytes_per_s: float = 1048576.0

    def __post_init__(self) -> None:
        if not (self.latency_ms > self.jitter_ms >= 0):
            raise ValueError("require latency > jitter >= 0")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")


def link_delay(link: LinkSpec, size: int, rng: RngStream) -> float:
    """One-way delay in ms for a message of `size` bytes; jitter is sampled
    fresh per message."""
    if size < 1:
        raise ValueError("size must be >= 1")
    jitter = rng.uniform(-link.jitter_ms, link.jitter_ms) if link.jitter_ms else 0.0
    return link.latency_ms + jitter + size / link.bandwidth_bytes_per_s * 1000.0


class Timer:
    __slots__ = ("label", "fn", "cancelled")

    def __init__(self, label: str, fn: Callable[[], None]):
        self.label = label
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class Observer:
    """Run-level bookkeeping fed by the simulator and the engines.

    Counters are always on; the full event trace is optional because it
    dominates memory on large sweeps. Walk records stay cheap (one entry per
    walk step) and power the path-fidelity and walk-length checks.
    """

    keep_trace: bool = False
    trace: list[tuple] = field(default_factory=list)
    msg_counts: Counter = field(default_factory=Counter)
    bytes_by_variant: Counter = field(default_factory=Counter)
    bytes_total: int = 0
    drops: list[tuple] = field(default_factory=list)
    # (walk_id, retx, hop, frm, to, time) for every WANT-FORWARD send
    wf_sends: list[tuple] = field(default_factory=list)
    # (walk_id, frm, to, time) for every FORWARD-HAVE send routed on a walk
    fh_sends: list[tuple] = field(default_factory=list)
    # (walk_id, retx, hops, node, time): a node entered the proxy phase
    terminations: list[tuple] = field(default_factory=list)
    # requester outcomes
    completions: dict[PeerId, tuple] = field(default_factory=dict)
    failures: set[PeerId] = field(default_factory=set)
    # (requester, walk_id, fh_path) of the FORWARD-HAVE a requester acted on
    consumed: list[tuple] = field(default_factory=list)

    def record_send(self, time: float, seq: int, frm: PeerId, to: PeerId,
                    msg: Message, meta: dict | None) -> None:
        size = wire_size(msg)
        variant = msg.variant.value
        self.msg_counts[variant] += 1
        self.bytes_by_variant[variant] += size
        self.bytes_total += size
        if self.keep_trace:
            self.trace.append((time, seq, "send", frm, to, variant, msg.cid.short(), size))
        if meta and "walk" in meta:
            if variant == "WANT-FORWARD":
                self.wf_sends.append(
                    (meta["walk"], meta.get("retx", 0), meta.get("hop", 1), frm, to, time))
            elif variant == "FORWARD-HAVE":
                self.fh_sends.append((meta["walk"], frm, to, time))

    def record_deliver(self, time: float, seq: int, frm: PeerId, to: PeerId,
                       msg: Message) -> None:
        if self.keep_trace:
            self.trace.append((time, seq, "deliver", frm, to, msg.variant.value,
                               msg.cid.short(), wire_size(msg)))

    def record_timer(self, time: float, seq: int, node: PeerId, label: str) -> None:
        if self.keep_trace:
            self.trace.append((time, seq, "timer", node, node, label, "", 0))

    def record_drop(self, time: float, frm: PeerId, to: PeerId, msg: Message,
                    reason: str) -> None:
        self.drops.append((time, frm, to, msg.variant.value, msg.cid.short(), reason))

    def walk_terminated(self, walk_id: tuple, retx: int, hops: int, node: PeerId,
                        time: float) -> None:
        self.terminations.append((walk_id, retx, hops, node, time))

    def request_done(self, node: PeerId, cid, started: float, done: float) -> None:
        self.completions[node] = (cid, started, done, done - started)

    def request_failed(self, node: PeerId, cid) -> None:
        self.failures.add(node)

    def fh_consumed(self, requester: PeerId, walk_id: tuple) -> None:
        self.consumed.append((requester, walk_id))

    def trace_lines(self):
        for t, seq, kind, frm, to, variant, cid8, size in self.trace:
            yield f"{t:.6f},{seq},{kind},{peer_name(frm)},{peer_name(to)},{variant},{cid8},{size}"


class Simulator:
    """Single-threaded deterministic event loop over a simulated overlay."""

    def __init__(self, link: LinkSpec, rng: RngStream, observer: Observer | None = None,
                 dial_rtt_multiplier: float = 1.0, livelock_cap: int = 10_000_000):
        self.link = link
        self.rng = rng
        self.observer = observer if observer is not None else Observer()
        self.dial_rtt_multiplier = dial_rtt_multiplier
        self.livelock_cap = livelock_cap
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = 0
        self._adjacency: dict[PeerId, set[PeerId]] = {}
        self._sorted_neighbors: dict[PeerId, tuple[PeerId, ...]] = {}
        self._alive: set[PeerId] = set()
        self._engines: dict[PeerId, object] = {}
        self._last_delivery: dict[tuple[PeerId, PeerId], float] = {}
        # departures processed so far: the only events that remove edges
        self.departures = 0

    # -- topology ---------------------------------------------------------

    def add_node(self, peer: PeerId) -> None:
        if peer in self._adjacency:
            raise ValueError(f"duplicate node {peer}")
        self._adjacency[peer] = set()
        self._alive.add(peer)

    def add_edge(self, a: PeerId, b: PeerId) -> None:
        if a == b:
            raise ValueError("self-loops not allowed")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._sorted_neighbors.pop(a, None)
        self._sorted_neighbors.pop(b, None)

    def attach(self, peer: PeerId, engine) -> None:
        self._engines[peer] = engine

    def engine(self, peer: PeerId):
        return self._engines[peer]

    def nodes(self) -> list[PeerId]:
        return sorted(self._adjacency)

    def neighbors(self, peer: PeerId) -> tuple[PeerId, ...]:
        view = self._sorted_neighbors.get(peer)
        if view is None:
            view = self._sorted_neighbors[peer] = tuple(sorted(self._adjacency[peer]))
        return view

    def connected(self, a: PeerId, b: PeerId) -> bool:
        return b in self._adjacency.get(a, ())

    def is_alive(self, peer: PeerId) -> bool:
        return peer in self._alive

    def reachable(self, frm: PeerId, to: PeerId) -> bool:
        return self.connected(frm, to) and self.is_alive(frm) and self.is_alive(to)

    # -- scheduling -------------------------------------------------------

    def _push(self, time: float, kind: int, payload) -> None:
        assert time >= self.now, f"event at {time} scheduled before now={self.now}"
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, kind, payload))

    def schedule(self, delay_ms: float, label: str, fn: Callable[[], None],
                 node: PeerId = -1) -> Timer:
        timer = Timer(label, fn)
        self._push(self.now + delay_ms, _TIMER, (node, timer))
        return timer

    def send(self, frm: PeerId, to: PeerId, msg: Message, meta: dict | None = None) -> bool:
        """Schedule delivery over the live edge; returns False (with a logged
        diagnostic) when the edge is already gone."""
        alive = self._alive
        if not (to in self._adjacency.get(frm, ()) and frm in alive and to in alive):
            self.observer.record_drop(self.now, frm, to, msg, "send-no-link")
            return False
        now = self.now
        at = now + link_delay(self.link, wire_size(msg), self.rng)
        # FIFO per directed link: never overtake an earlier message.
        key = (frm, to)
        last = self._last_delivery
        prev = last.get(key, 0.0)
        if at < prev:
            at = prev
        last[key] = at
        seq = self._seq = self._seq + 1
        self.observer.record_send(now, seq, frm, to, msg, meta)
        heapq.heappush(self._heap, (at, seq, _DELIVER, (frm, to, msg, meta)))
        return True

    def fan_out(self, frm: PeerId, peers: Iterable[PeerId], msg: Message,
                meta: dict | None = None) -> None:
        """Send the one (frozen) `msg` to each of `peers`, in order, that
        `frm` can still reach; unreachable peers are skipped without a drop
        record, as a caller checking `reachable` first would."""
        alive = self._alive
        if frm not in alive:
            return
        adjacent = self._adjacency[frm]
        send = self.send
        for to in peers:
            if to in adjacent and to in alive:
                send(frm, to, msg, meta)

    def dial(self, frm: PeerId, to: PeerId) -> None:
        """Connection establishment costing one round trip; repeated dials to
        an existing neighbor succeed immediately."""
        if self.connected(frm, to):
            self._push(self.now, _DIAL, (frm, to))
            return
        rtt = 0.0
        if self.dial_rtt_multiplier > 0:
            one_way = lambda: self.link.latency_ms + (
                self.rng.uniform(-self.link.jitter_ms, self.link.jitter_ms)
                if self.link.jitter_ms else 0.0)
            rtt = self.dial_rtt_multiplier * (one_way() + one_way())
        self._push(self.now + rtt, _DIAL, (frm, to))

    def schedule_departure(self, node: PeerId, at: float) -> None:
        if not self.is_alive(node):
            raise ValueError(f"{peer_name(node)} already departed")
        self._push(at, _DEPART, node)

    # -- event loop -------------------------------------------------------

    def run(self, until: float | None = None) -> int:
        heap = self._heap
        alive = self._alive
        adjacency = self._adjacency
        engines = self._engines
        observer = self.observer
        keep_trace = observer.keep_trace
        cap = self.livelock_cap
        pop = heapq.heappop
        executed = 0
        while heap:
            event = pop(heap)
            time, seq, kind, payload = event
            if until is not None and time > until:
                heapq.heappush(heap, event)
                break
            self.now = time
            executed += 1
            if executed > cap:
                raise RuntimeError(f"livelock: more than {cap} events")
            if kind == _DELIVER:
                frm, to, msg, meta = payload
                if to not in alive or frm not in alive or to not in adjacency[frm]:
                    observer.record_drop(time, frm, to, msg, "in-flight-loss")
                    continue
                engine = engines.get(to)
                if engine is None:
                    observer.record_drop(time, frm, to, msg, "no-engine")
                    continue
                if keep_trace:
                    observer.record_deliver(time, seq, frm, to, msg)
                engine.handle_message(frm, msg, meta)
            elif kind == _TIMER:
                node, timer = payload
                # timers of a departed node die with it (crash-stop)
                if not timer.cancelled and (node < 0 or node in alive):
                    if keep_trace:
                        observer.record_timer(time, seq, node, timer.label)
                    timer.fn()
            elif kind == _DIAL:
                self._dispatch_dial(payload)
            elif kind == _DEPART:
                self._dispatch_departure(payload)
        return executed

    def _dispatch_dial(self, payload) -> None:
        frm, to = payload
        engine = self._engines.get(frm)
        if not self.is_alive(frm):
            return
        ok = self.is_alive(to)
        if ok and not self.connected(frm, to):
            self.add_edge(frm, to)
        if engine is not None:
            engine.handle_dial(to, ok)

    def _dispatch_departure(self, node: PeerId) -> None:
        if node not in self._alive:
            return
        self._alive.discard(node)
        self.departures += 1
        for other in self._adjacency[node]:
            self._adjacency[other].discard(node)
            self._sorted_neighbors.pop(other, None)
        self._adjacency[node].clear()
        self._sorted_neighbors.pop(node, None)
