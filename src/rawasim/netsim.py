"""Deterministic discrete-event network simulator.

One `Simulator` owns a run: virtual clock, event heap ordered by
``(time, seq)`` with a monotone scheduling sequence number as tie-break,
the overlay adjacency, node liveness, and message delivery with a
latency + jitter + serialization delay model.

Determinism contract: all randomness flows through the single
``random.Random`` stream handed to the run (Mersenne Twister, seeded with a
64-bit integer), and every neighbor iteration happens in sorted order, so an
identical ``(config, seed)`` pair replays an identical event trace.

Hot-path contract: every message passes through `Simulator.send` or
`Simulator.fan_out` exactly once, and each makes the one reachability
decision for it. Payload-free messages come from `Simulator.message`, one
shared instance per ``(cid, variant)`` per run. `fan_out` sends one shared
message to many peers in one pass, silently skips those already
unreachable, and reports the whole fan-out to the `Observer` in one call.
`neighbors` hands out a cached sorted tuple that `add_edge` and departures
invalidate. A tuple handed out is never changed, only replaced by a new one
on the next call, so a holder keeps a snapshot of the neighbours it was
given: a search keeps the very tuple it broadcast to.

Reachability is the adjacency: an edge only ever joins two live nodes.
`add_edge` refuses a departed or unknown endpoint, and a departure removes
every edge of the departed node, so `send`, `fan_out`, `reachable` and the
delivery check in `run` test the edge alone. Edges disappear only when a
node departs, which `departures` counts so engines can key their own
reachability caches on it. For the same reason `run` checks a delivery's
edge only once `departures` is non-zero: before the first departure every
queued delivery was sent over an edge that is still there.

The `Observer`'s per-variant counters are `Tally` dicts, which read an
absent key as 0 without inserting it and keep the order of each variant's
first send, with the C-level item assignment that `collections.Counter`
gives up.

The event set is one binary heap (`heapq`) of flat tuples, told apart by
length: a message delivery ``(at, seq, frm, to, msg, tag)``, a timer of a
node (or of no node, -1) ``(at, seq, node, fn, label)`` from `call_at`, and
a cancellable `Timer` from `schedule`, ``(at, seq, node, timer)``. A
timer's label is a str or a ``(kind, cid)`` pair, and the pair's text
``<kind>:<cid8>`` is built only for a trace row. ``seq`` is unique, so
entries never compare beyond it and events run in exact ``(at, seq)``
order; an event at infinity runs after every finite one. A dial and a
departure are kernel timers of the node that dials or departs, so a dial
dies with its dialler, as engine timers do. The link model is read once,
at construction: `send`, `fan_out` and `dial` keep its numbers and draw
jitter with the same float operations as ``random.uniform``. The FIFO
clamp keeps one table per sender, ``_last_delivery[frm][to]``, so a
fan-out fetches its sender's table once.

Lifetime contract: a run holds no reference cycle. The simulator holds its
engines (`attach`) and, through the event set, its pending timers and
messages; engines, the provider index and the kernel's own dial and
departure timers hold the simulator through a weak reference. A timer of
the package is a bare heap entry with no handle: nothing keeps or cancels
one, and a session's timers read its state when they fire, so those of a
closed session fire as no-ops. A finished run is therefore freed by reference
counting as soon as its last handle goes, without the cycle collector, and
`run` switches the collector off while its loop runs (and restores its
previous state afterwards): a collection there could only walk the run's
live event set.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .core import (Cid, Message, MessageType, PeerId, check_field_types,
                   peer_name, wire_size)

RngStream = random.Random

# The clock's horizon. Below 2**43 ms (about 279 years) a float clock still
# resolves about 1 µs; a config whose delays could carry the clock past it
# is refused at load.
HORIZON_MS = 2.0 ** 43


@dataclass(frozen=True)
class LinkSpec:
    """Per-link delay model: one-way base latency, symmetric uniform jitter
    half-width, and serialization bandwidth."""

    latency_ms: float = 100.0
    jitter_ms: float = 10.0
    bandwidth_bytes_per_s: float = 1048576.0

    def __post_init__(self) -> None:
        check_field_types(self, ("latency_ms", "jitter_ms",
                                 "bandwidth_bytes_per_s"))
        if not (math.inf > self.latency_ms > self.jitter_ms >= 0):
            raise ValueError("require finite latency > jitter >= 0")
        if not self.latency_ms + self.jitter_ms <= HORIZON_MS:
            raise ValueError("latency_ms + jitter_ms must not pass the clock's "
                             "horizon of 2**43 ms")
        if not self.bandwidth_bytes_per_s > 0:
            raise ValueError("bandwidth must be positive")


def link_delay(link: LinkSpec, size: int, rng: RngStream) -> float:
    """One-way delay in ms for a message of `size` bytes; jitter is sampled
    fresh per message."""
    if size < 1:
        raise ValueError("size must be >= 1")
    jitter = rng.uniform(-link.jitter_ms, link.jitter_ms) if link.jitter_ms else 0.0
    return link.latency_ms + jitter + size / link.bandwidth_bytes_per_s * 1000.0


class WalkTag(NamedTuple):
    """Where a WANT-FORWARD or FORWARD-HAVE sits on its random walk: the
    walk id ``(requester, cid, serial)``, the hop that carries it and the
    requester's re-transmission count. Simulator bookkeeping, not a wire
    field: it adds no bytes, no protocol decision reads it, and only the
    `Observer` records it."""

    walk: tuple
    hop: int
    retx: int


class Timer:
    """The cancellable handle `Simulator.schedule` returns, for callers
    outside the package (the kernel tests and the benchmark tracer). The
    package's own timers are bare heap entries from `Simulator.call_at`,
    with no handle."""

    __slots__ = ("label", "fn", "cancelled")

    def __init__(self, label: str, fn: Callable[[], None]):
        self.label = label
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Tally(dict):
    """A counter: an absent key reads as 0 and is not inserted. Unlike
    `collections.Counter`, it defines no Python-level ``__delitem__``, so
    ``tally[key] += n`` stays in C."""

    __slots__ = ()

    def __missing__(self, key) -> int:
        return 0


@dataclass
class Observer:
    """Run-level bookkeeping fed by the simulator and the engines.

    Counters, drops, terminations, requester outcomes and consumed
    FORWARD-HAVEs are always on. The full event trace, which dominates
    memory on large sweeps, and the walk records (`wf_sends`, `fh_sends`),
    which only replays and the path-fidelity checks read, are kept only
    under `keep_trace`.
    """

    keep_trace: bool = False
    trace: list[tuple] = field(default_factory=list)
    # per variant value, in the order of each variant's first send
    msg_counts: Tally = field(default_factory=Tally)
    bytes_by_variant: Tally = field(default_factory=Tally)
    drops: list[tuple] = field(default_factory=list)
    # under keep_trace: (walk_id, retx, hop, frm, to, time) for every
    # WANT-FORWARD send
    wf_sends: list[tuple] = field(default_factory=list)
    # under keep_trace: (walk_id, frm, to, time) for every FORWARD-HAVE send
    # routed on a walk
    fh_sends: list[tuple] = field(default_factory=list)
    # (walk_id, retx, hops, node, time): a node entered the proxy phase
    terminations: list[tuple] = field(default_factory=list)
    # requester outcomes
    completions: dict[PeerId, tuple] = field(default_factory=dict)
    failures: set[PeerId] = field(default_factory=set)
    # (requester, walk_id) of the FORWARD-HAVE a requester acted on
    consumed: list[tuple] = field(default_factory=list)

    @property
    def bytes_total(self) -> int:
        return sum(self.bytes_by_variant.values())

    def record_send(self, time: float, seq: int, frm: PeerId, to: PeerId,
                    msg: Message, tag: WalkTag | None) -> None:
        size = wire_size(msg)
        variant = msg.variant._value_
        self.msg_counts[variant] += 1
        self.bytes_by_variant[variant] += size
        if self.keep_trace:
            self.trace.append((time, seq, "send", frm, to, variant, msg.cid.short(), size))
            if tag is not None:
                if variant == "WANT-FORWARD":
                    self.wf_sends.append((tag.walk, tag.retx, tag.hop, frm, to, time))
                elif variant == "FORWARD-HAVE":
                    self.fh_sends.append((tag.walk, frm, to, time))

    def record_fan_out(self, time: float, first_seq: int, frm: PeerId,
                       recipients: list[PeerId], msg: Message) -> None:
        """One `Simulator.fan_out`: `msg` sent to each of `recipients` in
        order, with the sequence numbers from `first_seq` up. Counts and
        trace rows are those of one `record_send` per recipient."""
        count = len(recipients)
        if not count:
            return
        size = msg.size
        variant = msg.variant._value_
        self.msg_counts[variant] += count
        self.bytes_by_variant[variant] += count * size
        if self.keep_trace:
            cid8 = msg.cid.short()
            self.trace.extend((time, seq, "send", frm, to, variant, cid8, size)
                              for seq, to in enumerate(recipients, first_seq))

    def record_deliver(self, time: float, seq: int, frm: PeerId, to: PeerId,
                       msg: Message) -> None:
        if self.keep_trace:
            self.trace.append((time, seq, "deliver", frm, to, msg.variant.value,
                               msg.cid.short(), wire_size(msg)))

    def record_timer(self, time: float, seq: int, node: PeerId, label) -> None:
        """`label` is a str or a ``(kind, cid)`` pair, written
        ``<kind>:<cid8>``: the one place the pair's text is built."""
        if self.keep_trace:
            if not isinstance(label, str):
                kind, cid = label
                label = f"{kind}:{cid.short()}"
            self.trace.append((time, seq, "timer", node, node, label, "", 0))

    def record_drop(self, time: float, frm: PeerId, to: PeerId, msg: Message,
                    reason: str) -> None:
        self.drops.append((time, frm, to, msg.variant.value, msg.cid.short(), reason))

    def walk_terminated(self, tag: WalkTag, node: PeerId, time: float) -> None:
        self.terminations.append((tag.walk, tag.retx, tag.hop, node, time))

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

    # `run` refuses to execute more events than this
    livelock_cap = 10_000_000

    def __init__(self, link: LinkSpec, rng: RngStream, observer: Observer | None = None,
                 dial_rtt_multiplier: float = 1.0):
        self.rng = rng
        # the link model, read once: random.uniform(a, b) is
        # a + (b - a) * random(), with a = -jitter here
        self._latency_ms = link.latency_ms
        self._bandwidth = link.bandwidth_bytes_per_s
        self._jitter_lo = -link.jitter_ms
        self._jitter_span = link.jitter_ms - self._jitter_lo
        self._random = rng.random
        self.observer = observer if observer is not None else Observer()
        self.dial_rtt_multiplier = dial_rtt_multiplier
        self.now = 0.0
        self._heap: list[tuple] = []
        self._seq = 0
        self._adjacency: dict[PeerId, set[PeerId]] = {}
        self._sorted_neighbors: dict[PeerId, tuple[PeerId, ...]] = {}
        self._alive: set[PeerId] = set()
        self._engines: dict[PeerId, object] = {}
        # FIFO clamp: sender -> receiver -> latest delivery time queued
        self._last_delivery: dict[PeerId, dict[PeerId, float]] = {}
        # the shared payload-free messages of this run: variant value -> cid
        self._messages: dict[str, dict[Cid, Message]] = {
            variant._value_: {} for variant in MessageType}
        # departures processed so far: the only events that remove edges
        self.departures = 0

    # -- topology ---------------------------------------------------------

    def add_node(self, peer: PeerId) -> None:
        if peer in self._adjacency:
            raise ValueError(f"duplicate node {peer}")
        self._adjacency[peer] = set()
        self._last_delivery[peer] = {}
        self._alive.add(peer)

    def add_edge(self, a: PeerId, b: PeerId) -> None:
        """Link the live nodes `a` and `b`. A departed or unknown endpoint
        raises before anything changes, so an edge only ever joins two
        live nodes."""
        if a == b:
            raise ValueError("self-loops not allowed")
        for peer in (a, b):
            if peer not in self._alive:
                raise ValueError(f"{peer_name(peer)} is not a live node")
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

    def is_alive(self, peer: PeerId) -> bool:
        return peer in self._alive

    def reachable(self, frm: PeerId, to: PeerId) -> bool:
        return to in self._adjacency.get(frm, ())

    def message(self, variant: MessageType, cid: Cid) -> Message:
        """The run's one payload-free `variant` message for `cid`. Messages
        are immutable, so every sender shares it; the table lives and dies
        with this simulator. It is keyed by the member's value, whose hash
        runs in C, where hashing the member itself would run in Python."""
        by_cid = self._messages[variant._value_]
        msg = by_cid.get(cid)
        if msg is None:
            msg = by_cid[cid] = Message(variant, cid)
        return msg

    # -- scheduling -------------------------------------------------------

    def call_at(self, at: float, node: PeerId, fn: Callable[[], None],
                label) -> None:
        """Run ``fn()`` at `at` as a timer of `node` (-1 for none), which
        dies with its node. It has no handle and cannot be cancelled.
        `label` is a str or a ``(kind, cid)`` pair; only a trace row reads
        it."""
        # a check, not an assert, so it holds under -O; NaN fails it too
        if not at >= self.now:
            raise ValueError(f"event at {at} scheduled before now={self.now}")
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (at, seq, node, fn, label))

    def peek(self) -> tuple[float, int] | None:
        """``(at, seq)`` of the head of the heap, the next pending event
        (a cancelled timer included), or None when nothing is pending.
        Changes nothing."""
        return self._heap[0][:2] if self._heap else None

    def _one_way_ms(self) -> float:
        """Base latency plus one jitter draw: one leg of a dial."""
        span = self._jitter_span
        return self._latency_ms + (
            self._jitter_lo + span * self._random() if span else 0.0)

    def schedule(self, delay_ms: float, label: str, fn: Callable[[], None],
                 node: PeerId = -1) -> Timer:
        """`call_at` ``now + delay_ms`` with a handle: a cancelled `Timer`
        still counts as an executed event but neither runs nor leaves a
        trace row."""
        time = self.now + delay_ms
        if not time >= self.now:
            raise ValueError(f"event at {time} scheduled before now={self.now}")
        timer = Timer(label, fn)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, node, timer))
        return timer

    def send(self, frm: PeerId, to: PeerId, msg: Message,
             tag: WalkTag | None = None) -> bool:
        """Schedule delivery over the live edge; returns False (with a logged
        diagnostic) when the edge is already gone."""
        if to not in self._adjacency.get(frm, ()):
            self.observer.record_drop(self.now, frm, to, msg, "send-no-link")
            return False
        now = self.now
        # link_delay inlined: the same draw and the same float arithmetic;
        # wire sizes are at least the envelope, so its size check cannot
        # fail here
        span = self._jitter_span
        jitter = self._jitter_lo + span * self._random() if span else 0.0
        at = now + (self._latency_ms + jitter
                    + wire_size(msg) / self._bandwidth * 1000.0)
        # FIFO per directed link: never overtake an earlier message.
        last = self._last_delivery[frm]
        prev = last.get(to, 0.0)
        if at < prev:
            at = prev
        last[to] = at
        seq = self._seq = self._seq + 1
        self.observer.record_send(now, seq, frm, to, msg, tag)
        heapq.heappush(self._heap, (at, seq, frm, to, msg, tag))
        return True

    def fan_out(self, frm: PeerId, peers: Iterable[PeerId], msg: Message) -> None:
        """Send the one (frozen) `msg` to each of `peers`, in order, that
        `frm` can still reach; unreachable peers are skipped without a drop
        record, as a caller checking `reachable` first would. Each send
        makes the draw, the delay and the FIFO clamp of `send`; the
        observer hears of the whole fan-out once."""
        adjacent = self._adjacency[frm]
        now = self.now
        latency = self._latency_ms
        lo = self._jitter_lo
        span = self._jitter_span
        rand = self._random
        tx_ms = msg.size / self._bandwidth * 1000.0
        last = self._last_delivery[frm]
        heap = self._heap
        push = heapq.heappush
        first = seq = self._seq + 1
        recipients = []
        for to in peers:
            if to not in adjacent:
                continue
            at = now + (latency + (lo + span * rand() if span else 0.0) + tx_ms)
            prev = last.get(to, 0.0)
            if at < prev:
                at = prev
            last[to] = at
            push(heap, (at, seq, frm, to, msg, None))
            recipients.append(to)
            seq += 1
        self._seq = seq - 1
        self.observer.record_fan_out(now, first, frm, recipients, msg)

    def dial(self, frm: PeerId, to: PeerId, done: Callable[[bool], None]) -> None:
        """Connection establishment costing one round trip: a timer of
        `frm` that adds the edge if `to` is still alive and then calls
        ``done(ok)``. A dial to an existing neighbor succeeds at once."""
        rtt = 0.0
        if not self.reachable(frm, to) and self.dial_rtt_multiplier > 0:
            rtt = self.dial_rtt_multiplier * (self._one_way_ms() + self._one_way_ms())
        ref = weakref.ref(self)

        def connect() -> None:
            sim = ref()
            ok = sim.is_alive(to)
            if ok and not sim.reachable(frm, to):
                sim.add_edge(frm, to)
            done(ok)
        self.call_at(self.now + rtt, frm, connect, f"dial:{peer_name(to)}")

    def schedule_departure(self, node: PeerId, at: float) -> None:
        """Crash-stop `node` at the absolute time `at`: a timer of `node`,
        so a second departure of it never fires."""
        if not self.is_alive(node):
            raise ValueError(f"{peer_name(node)} already departed")
        ref = weakref.ref(self)
        self.call_at(at, node, lambda: ref()._depart(node), "depart")

    # -- event loop -------------------------------------------------------

    def run(self, until: float | None = None) -> int:
        """Execute events in ``(time, seq)`` order until none is pending or
        the next one lies after `until`, which stays pending; returns the
        number executed. The cycle collector is off while the loop runs
        and gets its previous state back however the loop ends."""
        heap = self._heap
        alive = self._alive
        adjacency = self._adjacency
        engines = self._engines
        observer = self.observer
        keep_trace = observer.keep_trace
        cap = self.livelock_cap
        limit = float("inf") if until is None else until
        pop = heapq.heappop
        executed = 0
        enabled = gc.isenabled()
        gc.disable()
        try:
            while heap:
                time = heap[0][0]
                if time > limit:
                    break
                event = pop(heap)
                self.now = time
                executed += 1
                if executed > cap:
                    raise RuntimeError(f"livelock: more than {cap} events")
                if len(event) == 6:
                    _, seq, frm, to, msg, tag = event
                    # only a departure removes an edge, and every delivery
                    # was sent over one
                    if self.departures and to not in adjacency[frm]:
                        observer.record_drop(time, frm, to, msg, "in-flight-loss")
                        continue
                    engine = engines.get(to)
                    if engine is None:
                        observer.record_drop(time, frm, to, msg, "no-engine")
                        continue
                    if keep_trace:
                        observer.record_deliver(time, seq, frm, to, msg)
                    engine.handle_message(frm, msg, tag)
                elif len(event) == 5:
                    _, seq, node, fn, label = event
                    # timers of a departed node die with it (crash-stop)
                    if node < 0 or node in alive:
                        if keep_trace:
                            observer.record_timer(time, seq, node, label)
                        fn()
                else:
                    # a `schedule` handle, which may have been cancelled
                    _, seq, node, timer = event
                    if not timer.cancelled and (node < 0 or node in alive):
                        if keep_trace:
                            observer.record_timer(time, seq, node, timer.label)
                        timer.fn()
        finally:
            if enabled:
                gc.enable()
        return executed

    def _depart(self, node: PeerId) -> None:
        self._alive.discard(node)
        self.departures += 1
        for other in self._adjacency[node]:
            self._adjacency[other].discard(node)
            self._sorted_neighbors.pop(other, None)
        self._adjacency[node].clear()
        self._sorted_neighbors.pop(node, None)
