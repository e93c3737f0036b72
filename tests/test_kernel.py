"""The event kernel's shortcuts against what they stand in for: cached
neighbor and successor views against a fresh computation, the relay index
against a scan of every relay entry, and the fan-out against a
`reachable`-guarded send loop."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rawasim.core import Message, MessageType, ProviderRecord, derive_cid
from rawasim.netsim import Observer, Simulator
from rawasim.rawa import RaWaConfig, RelayEntry, RelayTable

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
        live = tuple(s for s in engine.graph.successors if sim.reachable(v, s))
        assert engine._live_successors() == live
        exclude = set(engine.graph.successors[:1])
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
            sim.dial(a, rest[0])
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


def scan(table: dict, cid, successor) -> list:
    """The index's reference: every entry relaying `cid` to `successor`, in
    table order."""
    return [(pred, entry) for (c, pred), entry in table.items()
            if c == cid and entry.successor == successor]


# few predecessors and successors, so entries often share a successor
few_preds = st.integers(0, 3)
table_op = st.one_of(
    st.tuples(st.just("set"), st.booleans(), few_preds,
              st.one_of(st.none(), st.integers(0, 2))),
    st.tuples(st.just("del"), st.booleans(), few_preds, st.none()),
    st.tuples(st.just("collapse"), st.booleans(), few_preds, st.none()),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ops=st.lists(table_op, max_size=30))
# replacing an entry that shares its successor with a later one
@example(ops=[("set", False, 0, 1), ("set", False, 1, 1), ("set", False, 0, 1)])
def test_relay_index_matches_a_scan_of_every_entry(ops):
    table = RelayTable()
    for kind, other, pred, successor in ops:
        key = (OTHER_CID if other else CID, pred)
        if kind == "set":
            table[key] = RelayEntry(successor, 0.0, (pred, key[0], 0), 1)
        elif key in table and kind == "del":
            del table[key]
        elif key in table and kind == "collapse":
            table.collapse(key)
        for cid in (CID, OTHER_CID):
            for s in range(3):
                assert table.via(cid, s) == scan(table, cid, s)


def test_shared_successor_returns_to_predecessors_in_insertion_order():
    scn = Scenario(4, [(0, 2), (1, 2), (2, 3)], rawa=RaWaConfig(p=0.5))
    scn.build_graphs()
    engine = scn.engines[2]
    engine.entries[(CID, 1)] = RelayEntry(3, 0.0, (1, CID, 0), 1)
    engine.entries[(CID, 0)] = RelayEntry(3, 0.0, (0, CID, 0), 1)
    fh = Message(MessageType.FORWARD_HAVE, CID, providers=(ProviderRecord(3, "P3"),))
    engine.handle_message(3, fh, {"walk": (1, CID, 0)})
    assert [rec[4] for rec in scn.sends("FORWARD-HAVE")] == [1, 0]
    assert [rec[0] for rec in scn.observer.fh_sends] == [(1, CID, 0), (0, CID, 0)]
    assert scn.observer.drops == []


def test_expired_entry_reinserted_returns_last():
    scn = Scenario(4, [(0, 2), (1, 2), (2, 3)], rawa=RaWaConfig(p=0.5))
    scn.build_graphs()
    engine = scn.engines[2]
    engine.entries[(CID, 0)] = RelayEntry(3, 0.0, (0, CID, 0), 1)
    engine.entries[(CID, 1)] = RelayEntry(3, 0.0, (1, CID, 0), 1)
    scn.sim.schedule(61_000.0, "advance", lambda: None)
    scn.sim.run()
    assert engine._fresh_entry(CID, 0) is None
    engine.entries[(CID, 0)] = RelayEntry(3, scn.sim.now, (0, CID, 1), 1)
    assert [pred for pred, _ in engine.entries.via(CID, 3)] == [1, 0]


def test_collapse_to_proxy_leaves_the_index():
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=0.001))
    scn.build_graphs()
    engine = scn.engines[1]
    meta = {"walk": (0, CID, 0), "hop": 1, "retx": 0}
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, CID), meta)
    assert engine.entries[(CID, 0)].successor == 2
    scn.sim.schedule_departure(2, 0.0)
    scn.sim.run()
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, CID),
                          dict(meta, retx=1))
    assert engine.entries[(CID, 0)].successor is None
    assert CID in engine.proxies
    assert engine.entries.via(CID, 2) == []
    fh = Message(MessageType.FORWARD_HAVE, CID, providers=(ProviderRecord(2),))
    engine.handle_message(2, fh, None)
    assert scn.observer.drops[-1][5] == "stray-forward-have"


# -- fan-out and scheduling ------------------------------------------------------


class Recorder:
    def __init__(self):
        self.got = []

    def handle_message(self, frm, msg, meta):
        self.got.append((frm, msg, meta))

    def handle_dial(self, peer, ok):
        pass


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
    sim.fan_out(0, [3, 2, 1], msg, {"role": "x"})
    assert [rec[4] for rec in sim.observer.trace if rec[2] == "send"] == [3, 1]
    assert sim.observer.drops == []
    sim.run()
    assert recorders[3].got == [(0, msg, {"role": "x"})]
    assert recorders[1].got == [(0, msg, {"role": "x"})]
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
