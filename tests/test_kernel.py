"""The event kernel's shortcuts against what they stand in for: cached
neighbor and successor views against a fresh computation, the relay table
(one predecessor per CID and successor, a sticky proxy role) against the
walks it was driven with, the adjacency against the liveness it stands
for (an edge only ever joins two live nodes), the one table of links
against the sends queued on it (symmetric, free of departed nodes, each
link's FIFO time its latest queued arrival, deliveries in send order), the
walk-step draw against indexing the filtered successors, the fan-out
against a `reachable`-guarded send loop, the per-run shared messages
against fresh ones, the inlined send delay against `link_delay`, and the
event set's order, staged runs, `peek` and cancelled timers against a
plain heap of ``(at, seq)`` on three windows, each refill of the event set
against its rules, with no timer label built by an untraced run."""

from __future__ import annotations

import heapq
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rawasim import netsim
from rawasim.core import Cid, Message, MessageType, derive_cid, wire_size
from rawasim.netsim import LinkSpec, Observer, Simulator, WalkTag, link_delay
from rawasim.rawa import RaWaConfig, draw_successor
from rawasim.runner import ExperimentConfig, build_run

from conftest import ZERO_JITTER, Scenario, make_block

CID = derive_cid(make_block(1025))
OTHER_CID = derive_cid(make_block(1025, tag=1))

# -- cached views -----------------------------------------------------------------

N_NODES = 7
node = st.integers(0, N_NODES - 1)
op = st.one_of(
    st.tuples(st.just("edge"), node, node),
    st.tuples(st.just("dial"), node, node),
    st.tuples(st.just("depart"), node),
    st.tuples(st.just("graph"), node),
)


def assert_views_fresh(scn: Scenario) -> None:
    sim = scn.sim
    for v in sim.nodes():
        assert sim.neighbors(v) == tuple(u for u in sim.nodes() if sim.reachable(v, u))
        engine = scn.engines[v]
        if engine.graph is None:
            continue
        live = tuple(s for s in engine.graph if sim.reachable(v, s))
        assert engine._live_successors() == live


@settings(max_examples=80, deadline=None, derandomize=True)
@given(edges=st.lists(st.tuples(node, node), max_size=12),
       ops=st.lists(op, max_size=25))
def test_cached_views_equal_recomputed_after_any_topology_change(edges, ops):
    scn = Scenario(N_NODES, [(a, b) for a, b in edges if a != b],
                   rawa=RaWaConfig(p=0.5, eta=2), keep_trace=False)
    scn.build_graphs()
    assert_views_fresh(scn)
    sim = scn.sim
    for kind, a, *rest in ops:
        if kind == "edge" and a != rest[0] and sim.is_alive(a) \
                and sim.is_alive(rest[0]):
            sim.add_edge(a, rest[0])
        elif kind == "dial" and a != rest[0]:
            sim.dial(a, rest[0], lambda ok: None)
            sim.run()
        elif kind == "depart" and sim.is_alive(a):
            sim.schedule_departure(a, sim.now)
            sim.run()
        elif kind == "graph" and sim.neighbors(a):
            scn.engines[a].build_graph()
        assert_views_fresh(scn)


def test_neighbors_view_is_shared_until_an_edge_changes():
    scn = Scenario(3, [(0, 1)], keep_trace=False)
    first = scn.sim.neighbors(0)
    assert scn.sim.neighbors(0) is first
    scn.sim.add_edge(0, 2)
    assert scn.sim.neighbors(0) == (1, 2)
    scn.sim.schedule_departure(1, 0.0)
    scn.sim.run()
    assert scn.sim.neighbors(0) == (2,)
    assert scn.sim.neighbors(1) == ()


# -- reachability is the adjacency ---------------------------------------------

# ids N_NODES and up are never added: an op may name an unknown node
any_node = st.integers(0, N_NODES + 1)
edge_op = st.one_of(
    st.tuples(st.just("edge"), any_node, any_node),
    # a dial races a departure scheduled before its round trip ends
    st.tuples(st.just("dial"), node, any_node),
    st.tuples(st.just("depart"), node, st.sampled_from((0.0, 150.0))),
    st.tuples(st.just("run"), st.none(), st.none()),
)


def three_part_reachable(sim: Simulator, frm, to) -> bool:
    """The test `reachable` made before the adjacency alone decided: the
    edge, and both endpoints alive."""
    return to in sim._adjacency.get(frm, ()) and sim.is_alive(frm) \
        and sim.is_alive(to)


def assert_edges_join_live_nodes(sim: Simulator) -> None:
    for a, peers in sim._adjacency.items():
        for b in peers:
            assert sim.is_alive(a) and sim.is_alive(b) and a in sim._adjacency[b]
    everyone = range(N_NODES + 2)
    for a in everyone:
        for b in everyone:
            assert sim.reachable(a, b) == three_part_reachable(sim, a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=st.lists(edge_op, max_size=30))
def test_an_edge_only_ever_joins_two_live_nodes(ops):
    """After any `add_edge`s, dials and departures, every adjacency entry
    joins two live nodes, both ways, so `reachable` (the edge alone) says
    what the edge-and-both-endpoints-alive test says. An `add_edge` with a
    departed or unknown endpoint raises."""
    sim = Simulator(ZERO_JITTER, Random(1), Observer())
    for v in range(N_NODES):
        sim.add_node(v)
    for kind, a, b in ops:
        if kind == "edge":
            if a != b and sim.is_alive(a) and sim.is_alive(b):
                sim.add_edge(a, b)
            else:
                with pytest.raises(ValueError):
                    sim.add_edge(a, b)
        elif kind == "dial" and a != b:
            sim.dial(a, b, lambda ok: None)
        elif kind == "depart" and sim.is_alive(a):
            sim.schedule_departure(a, sim.now + b)
        elif kind == "run":
            sim.run()
        assert_edges_join_live_nodes(sim)
    sim.run()
    assert_edges_join_live_nodes(sim)


def test_add_edge_refuses_a_departed_or_unknown_endpoint_and_changes_nothing():
    sim = Simulator(ZERO_JITTER, Random(1), Observer())
    for v in range(3):
        sim.add_node(v)
    sim.add_edge(0, 1)
    sim.add_edge(0, 2)
    sim.schedule_departure(2, 0.0)
    sim.run()
    sim.send(0, 1, Message(MessageType.CANCEL, CID))
    # the links with their FIFO times: a refusal changes neither
    before = {v: dict(links) for v, links in sim._adjacency.items()}
    assert before[0][1] > 0.0 and before[1][0] == 0.0
    for a, b in ((1, 2), (2, 1), (1, 7), (7, 1)):
        with pytest.raises(ValueError, match="not a live node"):
            sim.add_edge(a, b)
    assert sim._adjacency == before
    assert sim.neighbors(1) == (0,) and sim.neighbors(2) == ()
    assert not sim.reachable(1, 2) and not sim.reachable(2, 1)


# -- relay table -----------------------------------------------------------------

RELAY = 4
SUCCESSORS = (5, 6, 7, 8)
relay_op = st.one_of(
    # a WANT-FORWARD from one of few predecessors, so repeats are common
    st.tuples(st.just("forward"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("depart"), st.sampled_from(SUCCESSORS), st.none()),
)


class Sink:
    def handle_message(self, frm, msg, tag=None):
        pass


def drive_relay(seed, ops):
    """A relay with predecessors 0-3 and successors 5-8 (sinks), after
    `ops`: WANT-FORWARDs from a predecessor for one of two CIDs, and
    departures of successors. The proxy role is sticky: once the relay is
    the proxy for a CID, `entries` gains no key for it, and a WANT-FORWARD
    from a predecessor without an entry ends at the relay."""
    edges = [(pred, RELAY) for pred in range(4)] + [(RELAY, s) for s in SUCCESSORS]
    scn = Scenario(9, edges, rawa=RaWaConfig(p=0.3), seed=seed)
    sim = scn.sim
    for v in range(9):
        if v != RELAY:
            sim.attach(v, Sink())
    engine = scn.engines[RELAY]
    engine.graph = SUCCESSORS
    retx = Counter()
    for kind, a, other in ops:
        if kind == "forward":
            cid = OTHER_CID if other else CID
            tag = WalkTag((a, cid, 0), 1, retx[(a, cid)])
            retx[(a, cid)] += 1
            proxy, fresh = cid in engine.proxies, (cid, a) not in engine.entries
            keys = {key for key in engine.entries if key[0] == cid}
            forwarded = len(scn.observer.wf_sends)
            engine.handle_message(a, Message(MessageType.WANT_FORWARD, cid), tag)
            if proxy:
                assert {key for key in engine.entries if key[0] == cid} <= keys
                if fresh:
                    assert len(scn.observer.wf_sends) == forwarded
                    assert a in engine.proxies[cid].preds
        elif sim.is_alive(a):
            sim.schedule_departure(a, sim.now)
            sim.run(until=sim.now)
    return scn, engine


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), ops=st.lists(relay_op, max_size=30))
def test_no_two_relay_entries_for_one_cid_share_a_successor(seed, ops):
    """Loop reduction gives each new walk step for a CID a successor no
    earlier step for it got, so `sent` can name one predecessor per
    ``(cid, successor)``: the one whose entry was made with it, with the
    tag of its first WANT-FORWARD, the only one that can make an entry."""
    _, engine = drive_relay(seed, ops)
    seen = set()
    for (cid, pred), successor in engine.entries.items():
        assert (cid, successor) not in seen
        seen.add((cid, successor))
        assert engine.sent[cid][successor] == (pred, WalkTag((pred, cid, 0), 1, 0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), ops=st.lists(relay_op, max_size=30))
def test_forward_have_returns_to_the_predecessors_relayed_to_its_sender(seed, ops):
    """After any WANT-FORWARDs and departures, a FORWARD-HAVE from each
    successor goes back to exactly the predecessors whose entry still
    names it as successor; with none it is a stray."""
    scn, engine = drive_relay(seed, ops)
    observer = scn.observer
    for cid in (CID, OTHER_CID):
        for s in SUCCESSORS:
            expected = [((pred, cid, 0), RELAY, pred)
                        for (c, pred), successor in engine.entries.items()
                        if c == cid and successor == s]
            sent, drops = len(observer.fh_sends), len(observer.drops)
            engine.handle_message(s, Message(MessageType.FORWARD_HAVE, cid,
                                             providers=(s,)), None)
            assert [rec[:3] for rec in observer.fh_sends[sent:]] == expected
            assert [d[5] for d in observer.drops[drops:]] == \
                ([] if expected else ["stray-forward-have"])


def test_collapse_to_proxy_leaves_the_index():
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=0.001))
    scn.build_graphs()
    engine = scn.engines[1]
    tag = WalkTag((0, CID, 0), 1, 0)
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, CID), tag)
    assert engine.entries[(CID, 0)] == 2
    scn.sim.schedule_departure(2, 0.0)
    scn.sim.run()
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, CID),
                          tag._replace(retx=1))
    assert (CID, 0) not in engine.entries
    assert CID in engine.proxies
    fh = Message(MessageType.FORWARD_HAVE, CID, providers=(2,))
    engine.handle_message(2, fh, None)
    assert scn.observer.drops[-1][5] == "stray-forward-have"


# -- the walk-step draw ----------------------------------------------------------


def filtered_draw(live, excluded, rng):
    """The reference: index the filtered successors, or None with no draw."""
    candidates = tuple(s for s in live if s not in excluded)
    return candidates[rng.randrange(len(candidates))] if candidates else None


def filtered_next_hop(live, sent, frm, p, rng):
    """`RawaEngine._next_hop` of a node that is not the CID's proxy, by
    building the filtered successors."""
    if sent:
        candidates = tuple(s for s in live if s not in set(sent) | {frm})
    elif rng.random() < p:
        return None
    else:
        candidates = tuple(s for s in live if s != frm) or live
    return candidates[rng.randrange(len(candidates))] if candidates else None


WALKER = 9  # the relay drawing; its successors are among peers 0-8


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), live=st.sets(st.integers(0, 8), max_size=6),
       sent=st.lists(st.integers(0, 12), max_size=5), frm=st.integers(0, 8))
@example(seed=2, live={0}, sent=[], frm=5)          # peer 0 is the pick
@example(seed=2, live={0, 4}, sent=[11, 12], frm=4)  # excluded peers not live
@example(seed=3, live={0, 1, 2}, sent=[1, 2], frm=1)  # frm also in sent
@example(seed=4, live={1, 2}, sent=[1], frm=2)      # everything excluded
@example(seed=5, live={3}, sent=[], frm=3)          # fresh-step fallback
def test_walk_step_draw_equals_indexing_the_filtered_successors(seed, live, sent, frm):
    """`draw_successor` and both branches of `_next_hop` pick what indexing
    the filtered successors picks, with the same draws: the RNG state
    afterwards matches too."""
    live = tuple(sorted(live))
    rng, ref = Random(seed), Random(seed)
    assert draw_successor(live, (*sent, frm), rng) == \
        filtered_draw(live, set(sent) | {frm}, ref)
    assert rng.getstate() == ref.getstate()

    p = 0.3
    scn = Scenario(WALKER + 1, [(WALKER, s) for s in range(WALKER)],
                   rawa=RaWaConfig(p=p), seed=seed, keep_trace=False)
    engine = scn.engines[WALKER]
    engine.graph = live
    if sent:
        engine.sent[CID] = dict.fromkeys(sent)
    ref = Random(seed)
    assert engine._next_hop(CID, frm) == filtered_next_hop(live, sent, frm, p, ref)
    assert scn.rng.getstate() == ref.getstate()


# -- fan-out and scheduling ------------------------------------------------------


class Recorder:
    def __init__(self):
        self.got = []

    def handle_message(self, frm, msg, tag=None):
        self.got.append((frm, msg, tag))


def star(n: int) -> tuple[Simulator, dict]:
    sim = Simulator(ZERO_JITTER, Random(1), Observer(keep_trace=True))
    recorders = {}
    for v in range(n):
        sim.add_node(v)
        recorders[v] = Recorder()
        sim.attach(v, recorders[v])
    for v in range(1, n):
        sim.add_edge(0, v)
    return sim, recorders


def test_fan_out_sends_in_order_and_skips_unreachable_without_a_drop():
    sim, recorders = star(4)
    sim.schedule_departure(2, 0.0)
    sim.run()
    msg = Message(MessageType.CANCEL, CID)
    sim.fan_out(0, [3, 2, 1], msg)
    assert [rec[4] for rec in sim.observer.trace if rec[2] == "send"] == [3, 1]
    assert sim.observer.drops == []
    sim.run()
    assert recorders[3].got == [(0, msg, None)]
    assert recorders[1].got == [(0, msg, None)]
    # a plain send to the same peer does record the drop
    assert sim.send(0, 2, msg) is False
    assert [d[5] for d in sim.observer.drops] == ["send-no-link"]


def test_fan_out_from_a_departed_node_sends_nothing():
    sim, _ = star(3)
    sim.schedule_departure(0, 0.0)
    sim.run()
    sim.fan_out(0, [1, 2], Message(MessageType.CANCEL, CID))
    assert sim.observer.msg_counts == {} and sim.observer.drops == []


def test_scheduling_into_the_past_is_refused():
    sim, _ = star(2)
    sim.schedule(5.0, "tick", lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, "past", lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_departure(1, at=1.0)
    with pytest.raises(ValueError):
        sim.schedule(math.nan, "nan", lambda: None)
    assert sim.peek() is None


PAST_UNDER_O = """
from random import Random
from rawasim.netsim import LinkSpec, Observer, Simulator
sim = Simulator(LinkSpec(), Random(1), Observer())
try:
    sim.schedule(-1.0, "past", lambda: None)
except ValueError:
    print("refused")
"""


def test_scheduling_into_the_past_is_refused_under_python_O():
    src = str(Path(netsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-O", "-c", PAST_UNDER_O],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out == "refused\n"


# -- shared messages and the send delay ----------------------------------------------


def test_message_table_shares_one_instance_per_variant_and_cid():
    sim, _ = star(2)
    assert not any(sim._messages.values())
    have = sim.message(MessageType.HAVE, CID)
    assert have == Message(MessageType.HAVE, CID)
    assert sim.message(MessageType.HAVE, derive_cid(make_block(1025))) is have
    assert sim.message(MessageType.DONT_HAVE, CID) is not have
    assert sim.message(MessageType.HAVE, OTHER_CID) is not have
    fresh, _ = star(2)
    assert not any(fresh._messages.values())
    assert fresh.message(MessageType.HAVE, CID) is not have


@pytest.mark.parametrize("protocol", ["vanilla", "rawa"])
def test_every_payload_free_message_of_a_run_is_the_shared_one(protocol):
    handles = build_run(ExperimentConfig(protocol=protocol, adversary="fse",
                                         n_peers=20, runs=1, base_seed=3,
                                         keep_trace=True), 0)
    sim = handles.sim
    sim.run()
    seen = set()
    for rec in handles.log.records:
        msg = rec.message
        if msg.variant in (MessageType.BLOCK, MessageType.FORWARD_HAVE):
            assert msg is not sim._messages[msg.variant.value].get(msg.cid)
        else:
            assert msg is sim._messages[msg.variant.value][msg.cid]
            seen.add(msg.variant)
    assert {MessageType.WANT_HAVE, MessageType.CANCEL} <= seen


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), jitter=st.sampled_from([0.0, 0.5, 10.0, 33.3]),
       payload=st.integers(1, 200_000))
def test_send_delay_is_link_delay_with_the_same_draw(seed, jitter, payload):
    link = LinkSpec(100.0, jitter, 1234567.0)
    sim = Simulator(link, Random(seed), Observer())
    for v in (0, 1):
        sim.add_node(v)
    sim.add_edge(0, 1)
    block = make_block(payload)
    msg = Message(MessageType.BLOCK, derive_cid(block), payload=block)
    sim.now = 5.25
    sim.send(0, 1, msg)
    oracle = Random(seed)
    assert sim.peek() == (5.25 + link_delay(link, wire_size(msg), oracle), 1)
    assert sim.rng.getstate() == oracle.getstate()


# -- the event set against a plain heap of (at, seq) ----------------------------------

# 1.5 ms latency and 0.25 ms of jitter: a CANCEL (44 B) arrives about
# 1.94 ms after it leaves and a BLOCK (1,244 B) about 13.94 ms, so a small
# message behind a big one on a link is clamped to its time, and
# deliveries interleave with timers at whole and fractional milliseconds.
# Its window, the least delay of a message, is 1.25 ms.
EVENT_SET_LINK = LinkSpec(1.5, 0.25, 100_000.0)
# the three windows the event set is checked on: the one above, a tiny one
# (1 µs, so the eighth rule sets each refill and sends land in the ready
# run), and one wider than every timer delay `timer_delay` draws (each
# refill moves every pending timer, and timers pushed by events go in by
# insertion)
EVENT_SET_LINKS = [EVENT_SET_LINK, LinkSpec(1.0, 0.999, 100_000.0),
                   LinkSpec(2.5e6, 0.5e6, 100_000.0)]
BIG = Message(MessageType.BLOCK, CID, payload=make_block(1200))
SMALL = Message(MessageType.CANCEL, CID)
TRIO = (0, 1, 2)

WHERE = st.sampled_from(["now", "inside", "boundary", "below", "far",
                         "bound", "below-bound", "window", "below-window"])
push_op = st.one_of(
    st.tuples(WHERE, st.integers(1, 7)),
    # a handle-free timer of a node, from `Simulator.call_at`
    st.tuples(st.just("call_at"), WHERE, st.integers(1, 7),
              st.sampled_from((-1, *TRIO))),
    st.tuples(st.just("send"), st.permutations(TRIO), st.booleans()),
    st.tuples(st.just("fan_out"), st.sampled_from(TRIO), st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
)
stop = st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0))


def timer_delay(sim: Simulator, where: str, j: int) -> float:
    """A delay that lands at `now`, before the next whole millisecond, on a
    later whole millisecond, just below one, far in the future, at the time
    of the latest entry moved into the ready run (`_bound`) or just below
    it (at `now` if that is past), or one window (the link's least message
    delay) ahead or just below that."""
    now = sim.now
    if where == "now":
        return 0.0
    if where == "bound":
        return max(0.0, sim._bound - now)
    if where == "below-bound":
        return max(0.0, math.nextafter(sim._bound, -math.inf) - now)
    if where == "window":
        return sim._window
    if where == "below-window":
        return math.nextafter(now + sim._window, 0.0) - now
    if where == "inside":
        return (math.floor(now) + 1 - now) * j / 8
    if where == "boundary":
        return math.floor(now) + j - now
    if where == "below":
        return math.nextafter(math.floor(now) + j, 0.0) - now
    return 1e6 + j


def checked_refills(sim: Simulator) -> list[tuple[int, int]]:
    """Wrap `sim._refill` to check each refill as it happens: of the L later
    entries it moves at least max(1, ceil(L / 8)), sorted, into a new ready
    run read from its start; `_bound` is the time of the last one moved; and
    every ready entry comes before every later one. Returns the list of
    ``(L, moved)`` it fills."""
    refills = []
    refill = sim._refill

    def checked() -> None:
        pending = len(sim._later)
        refill()
        ready, later = sim._ready, sim._later
        moved = len(ready)
        assert moved >= max(1, math.ceil(pending / 8))
        assert moved + len(later) == pending and sim._next == 0
        assert sim._bound == ready[-1][0]
        assert ready == sorted(ready) and (not later or ready[-1] < min(later))
        refills.append((pending, moved))
    sim._refill = checked
    return refills


class EventSetCheck:
    """Drives a simulator with `script` and checks each event it runs, and
    `peek` as it runs, against a plain `heapq` of the ``(at, seq)`` of every
    push, which skips cancelled timers as the kernel does. `schedule` and
    `call_at` timers, sends and fan-outs share the one event set, and each
    refill is checked by `checked_refills`."""

    def __init__(self, seed: int, script, link: LinkSpec = EVENT_SET_LINK):
        self.sim = Simulator(link, Random(seed), Observer(keep_trace=True))
        checked_refills(self.sim)
        for v in TRIO:
            self.sim.add_node(v)
            self.sim.attach(v, self)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            self.sim.add_edge(a, b)
        self.script = iter(script)
        self.reference: list[tuple] = []
        self.timers: list = []
        self.popped = 0

    def push(self, ops) -> None:
        sim = self.sim
        for op in ops:
            kind = op[0]
            if kind == "send":
                (frm, to, _), big = op[1], op[2]
                sim.send(frm, to, BIG if big else SMALL)
                self._sent(len(sim.observer.trace) - 1)
            elif kind == "fan_out":
                rows = len(sim.observer.trace)
                sim.fan_out(op[1], TRIO, BIG if op[2] else SMALL)
                for row in range(rows, len(sim.observer.trace)):
                    self._sent(row)
            elif kind == "cancel":
                if self.timers:
                    self.timers[op[1] % len(self.timers)].cancel()
            elif kind == "call_at":
                at = sim.now + timer_delay(sim, op[1], op[2])
                sim.call_at(at, op[3], self.ran, ("call_at", CID))
                heapq.heappush(self.reference, (at, sim._seq, None))
            else:
                delay = timer_delay(sim, *op)
                timer = sim.schedule(delay, kind, self.ran)
                self.timers.append(timer)
                heapq.heappush(self.reference, (sim.now + delay, sim._seq, timer))

    def _sent(self, row: int) -> None:
        _, seq, _, frm, to, *_ = self.sim.observer.trace[row]
        at = self.sim._adjacency[frm][to]
        heapq.heappush(self.reference, (at, seq, None))

    def pop(self) -> tuple[float, int, object]:
        self.popped += 1
        return heapq.heappop(self.reference)

    def ran(self) -> None:
        """The event the kernel is running is the reference's next live one,
        and `peek` reads the reference's next head, before and after the
        event's pushes."""
        at, seq, timer = self.pop()
        while timer is not None and timer.cancelled:
            at, seq, timer = self.pop()
        row = self.sim.observer.trace[-1]
        assert (self.sim.now, row[1]) == (at, seq)
        self.assert_head()
        self.push(next(self.script, ()))
        self.assert_head()

    def handle_message(self, frm, msg, tag=None):
        self.ran()

    def run(self, until: float | None) -> None:
        before = self.popped
        executed = self.sim.run(until=until)
        limit = math.inf if until is None else until
        # whatever the reference still holds up to the stop was cancelled
        while self.reference and self.reference[0][0] <= limit:
            assert self.pop()[2].cancelled
        assert executed == self.popped - before
        self.assert_head()

    def assert_head(self) -> None:
        head = self.reference[0][:2] if self.reference else None
        assert self.sim.peek() == head


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), first=st.lists(push_op, min_size=1, max_size=6),
       script=st.lists(st.lists(push_op, max_size=4), max_size=60),
       stops=st.lists(st.tuples(stop, st.lists(push_op, max_size=3)), max_size=6))
def test_events_run_in_the_order_of_a_plain_heap(seed, first, script, stops):
    """Random interleavings of pushes at `now`, before the next whole
    millisecond, on and just below a later one, far ahead, at and just
    below the ready run's bound, one window ahead and just below it,
    FIFO-clamped equal times, handle-free timers and cancelled ones, run in
    stages by ``run(until=...)`` with pushes between the stages, pop in the
    order a plain heap gives, on each of three windows."""
    for link in EVENT_SET_LINKS:
        check = EventSetCheck(seed, script, link)
        check.push(first)
        check.assert_head()
        for until, between in sorted(stops, key=lambda s: s[0]):
            check.run(until)
            check.push(between)
            check.assert_head()
        check.run(None)
        assert check.sim.peek() is None


@pytest.mark.parametrize("link", [LinkSpec(), LinkSpec(10.0, 9.99),
                                  LinkSpec(1.0, 0.999)],
                         ids=["default", "window-10us", "window-1us"])
@pytest.mark.parametrize("protocol, adversary", [("rawa", "fse"), ("vanilla", "wfe")])
def test_each_refill_moves_an_eighth_and_keeps_the_ready_run_first(
        link, protocol, adversary):
    """Over whole runs, on the default link and on tiny windows where the
    eighth rule sets most cuts, every refill passes `checked_refills`."""
    config = ExperimentConfig(protocol=protocol, adversary=adversary,
                              n_peers=40, runs=1, base_seed=5, link=link)
    handles = build_run(config, 0)
    refills = checked_refills(handles.sim)
    executed = handles.sim.run()
    assert refills and sum(moved for _, moved in refills) <= executed


@pytest.mark.parametrize("protocol, adversary", [("rawa", "fse"), ("vanilla", "wfe")])
def test_an_untraced_run_builds_no_timer_label(monkeypatch, protocol, adversary):
    """Untraced, no timer label's text is built, neither ``<kind>:<cid8>``
    nor ``<kind>:P<n>``: a drop record is then the only caller of
    `Cid.short`, and the kernel never calls `peer_name`, though the run
    dials."""
    calls, names, dials = [], [], []
    short, name, dial = Cid.short, netsim.peer_name, Simulator.dial
    monkeypatch.setattr(Cid, "short", lambda cid: calls.append(cid) or short(cid))
    monkeypatch.setattr(netsim, "peer_name", lambda p: names.append(p) or name(p))
    monkeypatch.setattr(Simulator, "dial",
                        lambda sim, *args: dials.append(args) or dial(sim, *args))
    handles = build_run(ExperimentConfig(protocol=protocol, adversary=adversary,
                                         n_peers=20, runs=1, base_seed=3), 0)
    assert handles.sim.run() > 0
    assert len(calls) == len(handles.sim.observer.drops)
    assert dials and names == []


def test_peek_reads_the_next_event_without_running_it():
    sim, recorders = star(2)
    assert sim.peek() is None
    sim.schedule(7.5, "late", lambda: None)
    assert sim.peek() == (7.5, 1)
    earlier = sim.schedule(7.25, "earlier", lambda: None)
    assert sim.peek() == (7.25, 2)  # the least pending, not the first pushed
    sim.schedule(0.25, "soon", lambda: None)
    assert sim.peek() == (0.25, 3)
    earlier.cancel()
    assert sim.run(until=1.0) == 1
    assert sim.peek() == (7.25, 2)  # a cancelled timer is still pending
    assert sim.run() == 2 and sim.peek() is None


def test_an_event_at_infinity_runs_after_every_finite_one():
    """A timer at infinity (say a ``u_ms`` of infinity) waits behind every
    finite event, with no special case; once it runs, what it sends is at
    infinity too."""
    sim, recorders = star(3)
    order = []
    sim.schedule(math.inf, "never", lambda: (
        order.append(sim.now), sim.fan_out(0, [1, 2], SMALL),
        sim.send(0, 1, SMALL)))
    sim.schedule(2.5, "soon", lambda: order.append(sim.now))
    assert sim.peek() == (2.5, 2)
    assert sim.run(until=1e300) == 1 and sim.peek() == (math.inf, 1)
    assert sim.run() == 4
    assert order == [2.5, math.inf]
    assert [got for r in recorders.values() for got in r.got] == \
        [(0, SMALL, None), (0, SMALL, None), (0, SMALL, None)]


# -- fan-out against a send loop ------------------------------------------------------

FAN_NODES = 6
fan_node = st.integers(0, FAN_NODES - 1)
FAN_MESSAGES = (SMALL, BIG, Message(MessageType.WANT_HAVE, OTHER_CID))


def fan_sim(seed, jitter, edges, departed, before, until):
    """A simulator with `edges`, the `departed` nodes gone, the sends
    `before` made (some dropped) and run up to `until`."""
    sim = Simulator(LinkSpec(1.5, jitter, 100_000.0), Random(seed),
                    Observer(keep_trace=True))
    recorders = {}
    for v in range(FAN_NODES):
        sim.add_node(v)
        recorders[v] = Recorder()
        sim.attach(v, recorders[v])
    for a, b in edges:
        if a != b:
            sim.add_edge(a, b)
    for v in departed:
        sim.schedule_departure(v, 0.0)
    sim.run(until=0.0)
    for frm, to, m in before:
        sim.send(frm, to, FAN_MESSAGES[m])
    sim.run(until=until)
    return sim, recorders


def kernel_state(sim: Simulator) -> tuple:
    observer = sim.observer
    return (sim.now, sim._seq, sim.rng.getstate(), list(sim._adjacency.items()),
            list(observer.msg_counts.items()), list(observer.bytes_by_variant.items()),
            observer.bytes_total, list(observer.trace), list(observer.drops),
            sim.peek())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), jitter=st.sampled_from([0.0, 0.25]),
       edges=st.lists(st.tuples(fan_node, fan_node), max_size=12),
       departed=st.sets(fan_node, max_size=2),
       before=st.lists(st.tuples(fan_node, fan_node, st.integers(0, 2)), max_size=8),
       until=st.floats(0.0, 15.0), frm=fan_node,
       peers=st.lists(fan_node, max_size=8), m=st.integers(0, 2))
def test_fan_out_leaves_the_state_of_a_send_loop(seed, jitter, edges, departed,
                                                 before, until, frm, peers, m):
    """`fan_out` leaves what one `send` per still-reachable peer leaves: the
    sequence numbers, RNG state, FIFO clocks, observer counters (in key
    order) and trace rows, and the same events in the same order."""
    fanned, fanned_got = fan_sim(seed, jitter, edges, departed, before, until)
    looped, looped_got = fan_sim(seed, jitter, edges, departed, before, until)
    fanned.fan_out(frm, peers, FAN_MESSAGES[m])
    for to in peers:
        if looped.reachable(frm, to):
            looped.send(frm, to, FAN_MESSAGES[m])
    assert kernel_state(fanned) == kernel_state(looped)
    assert fanned.run() == looped.run()
    assert kernel_state(fanned) == kernel_state(looped)
    assert {v: r.got for v, r in fanned_got.items()} == \
        {v: r.got for v, r in looped_got.items()}


# -- one table per link: edges and FIFO times ------------------------------------------

link_op = st.one_of(
    st.tuples(st.just("send"), fan_node, fan_node, st.integers(0, 2)),
    st.tuples(st.just("fan_out"), fan_node, st.lists(fan_node, max_size=6),
              st.integers(0, 2)),
    # often on a live edge: adding it again must keep its time
    st.tuples(st.just("edge"), fan_node, fan_node, st.none()),
    st.tuples(st.just("dial"), fan_node, fan_node, st.none()),
    st.tuples(st.just("depart"), fan_node, st.sampled_from((0.0, 2.0)), st.none()),
    st.tuples(st.just("run"), st.floats(0.0, 4.0), st.none(), st.none()),
)


def assert_links_hold(sim: Simulator, queued: dict) -> None:
    """The table is symmetric, a departed node has no links and is in no
    one's, and each link holds the latest arrival queued on it, or 0.0."""
    table = sim._adjacency
    for a, links in table.items():
        assert sim.is_alive(a) or not links
        for b, at in links.items():
            assert a in table[b] and sim.is_alive(b)
            assert at == queued.get((a, b), 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32),
       edges=st.lists(st.tuples(fan_node, fan_node), max_size=10),
       ops=st.lists(link_op, max_size=30))
@example(seed=0, edges=[(0, 1)],
         ops=[("send", 0, 1, 1), ("edge", 0, 1, None), ("send", 0, 1, 0)])
def test_one_table_per_link_keeps_edges_and_fifo_times(seed, edges, ops):
    """Random sends, fan-outs, `add_edge`s (on live edges too), dials and
    departures, run in stages: after each step the one table of links is
    symmetric, a departed node is in no one's links, and each link's time
    is the latest arrival queued on it, or 0.0 if nothing was sent on it.
    On each directed link, deliveries come in send order at nondecreasing
    times."""
    sim = Simulator(EVENT_SET_LINK, Random(seed), Observer(keep_trace=True))
    for v in range(FAN_NODES):
        sim.add_node(v)
        sim.attach(v, Recorder())
    for a, b in edges:
        if a != b:
            sim.add_edge(a, b)
    queued: dict[tuple, float] = {}
    for kind, a, b, m in ops:
        seq = sim._seq
        if kind == "send":
            sim.send(a, b, FAN_MESSAGES[m])
        elif kind == "fan_out":
            sim.fan_out(a, b, FAN_MESSAGES[m])
        elif kind == "edge" and a != b and sim.is_alive(a) and sim.is_alive(b):
            sim.add_edge(a, b)
        elif kind == "dial" and a != b:
            sim.dial(a, b, lambda ok: None)
        elif kind == "depart" and sim.is_alive(a):
            sim.schedule_departure(a, sim.now + b)
        elif kind == "run":
            sim.run(until=sim.now + a)
        # the deliveries this step queued, in send order
        for event in sorted((e for e in sim._ready[sim._next:] + sim._later
                             if e[1] > seq and len(e) == 6),
                            key=lambda e: e[1]):
            queued[event[2], event[3]] = event[0]
        assert_links_hold(sim, queued)
    sim.run()
    assert_links_hold(sim, queued)
    last: dict[tuple, tuple] = {}
    for time, seq, kind, frm, to, *_ in sim.observer.trace:
        if kind == "deliver":
            before, before_seq = last.get((frm, to), (0.0, 0))
            assert before <= time and before_seq < seq
            last[frm, to] = (time, seq)
