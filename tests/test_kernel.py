"""The event kernel's shortcuts against what they stand in for: cached
neighbor and successor views against a fresh computation, the relay index
(one predecessor per CID and successor) against the relay entries it
stands for, the fan-out against a `reachable`-guarded send loop, the
per-run shared messages against fresh ones, and the inlined send delay
against `link_delay`."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawasim.core import Message, MessageType, derive_cid, wire_size
from rawasim.netsim import LinkSpec, Observer, Simulator, WalkTag, link_delay
from rawasim.rawa import RaWaConfig
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
        assert sim.neighbors(v) == tuple(u for u in sim.nodes() if sim.connected(v, u))
        engine = scn.engines[v]
        if engine.graph is None:
            continue
        live = tuple(s for s in engine.graph if sim.reachable(v, s))
        assert engine._live_successors() == live
        exclude = set(engine.graph[:1])
        assert engine._live_successors(exclude) == tuple(
            s for s in live if s not in exclude)


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
        if kind == "edge" and a != rest[0]:
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


# -- relay index -----------------------------------------------------------------

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
    departures of successors."""
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
            engine.handle_message(a, Message(MessageType.WANT_FORWARD, cid), tag)
        elif sim.is_alive(a):
            sim.schedule_departure(a, sim.now)
            sim.run(until=sim.now)
    return scn, engine


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), ops=st.lists(relay_op, max_size=30))
def test_no_two_relay_entries_for_one_cid_share_a_successor(seed, ops):
    """Loop reduction gives each new walk step for a CID a successor no
    earlier step for it got, so `relayed` can name one predecessor per
    ``(cid, successor)``: the one whose entry was made with it."""
    _, engine = drive_relay(seed, ops)
    seen = set()
    for (cid, pred), entry in engine.entries.items():
        if entry.successor is None:
            continue  # the proxy role, or collapsed into it
        assert (cid, entry.successor) not in seen
        seen.add((cid, entry.successor))
        assert engine.relayed[(cid, entry.successor)] == pred


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
            expected = [(entry.tag.walk, RELAY, pred)
                        for (c, pred), entry in engine.entries.items()
                        if c == cid and entry.successor == s]
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
    assert engine.entries[(CID, 0)].successor == 2
    scn.sim.schedule_departure(2, 0.0)
    scn.sim.run()
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, CID),
                          tag._replace(retx=1))
    assert engine.entries[(CID, 0)].successor is None
    assert CID in engine.proxies
    fh = Message(MessageType.FORWARD_HAVE, CID, providers=(2,))
    engine.handle_message(2, fh, None)
    assert scn.observer.drops[-1][5] == "stray-forward-have"


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
    with pytest.raises(AssertionError):
        sim.schedule(-1.0, "past", lambda: None)
    with pytest.raises(AssertionError):
        sim.schedule_departure(1, at=1.0)


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
                                         n_peers=20, runs=1, base_seed=3), 0)
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
    assert sim._heap[0][0] == 5.25 + link_delay(link, wire_size(msg), oracle)
    assert sim.rng.getstate() == oracle.getstate()
