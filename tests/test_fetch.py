"""The requester fetch state machine both engines share (`rawasim.engine`).

Discovery differs per protocol; the fetch does not, so each test here runs
under both.
"""

from collections import Counter

import pytest

from rawasim.core import Message, MessageType
from rawasim.engine import DONE, FAILED
from rawasim.rawa import RaWaConfig

from conftest import Scenario, leg_ms, make_block

PROTOCOLS = ("vanilla", "rawa")


def tamper_first_want_block(engines):
    """The first WANT-BLOCK any of `engines` receives is answered with a
    block that does not hash to its CID; returns the (node, time) record of
    that answer."""
    tampered = []
    for engine in engines:
        def handle(frm, msg, tag=None, engine=engine,
                   honest=engine.handle_message):
            if msg.variant is MessageType.WANT_BLOCK and not tampered:
                tampered.append((engine.node, engine.sim.now))
                bad = make_block(1025, tag=99)
                engine.sim.send(engine.node, frm,
                                Message(MessageType.BLOCK, msg.cid, payload=bad))
                return
            honest(frm, msg, tag)
        engine.handle_message = handle
    return tampered


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tampered_block_from_target_moves_to_next_provider(protocol):
    # requester 0 learns of providers 1 and 2 through node 3: the proxy
    # under rawa (collecting both HAVEs), the index fallback under vanilla
    scn = Scenario(4, [(0, 3), (3, 1), (3, 2)], protocol=protocol,
                   rawa=RaWaConfig(p=1.0, forward_have_aggregation_ms=300.0))
    block = make_block(1025)
    cid = scn.place_block(1, block)
    scn.place_block(2, block)
    tampered = tamper_first_want_block([scn.engines[1], scn.engines[2]])
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    [(bad, _)] = tampered
    good = 3 - bad
    bad_at = next(rec[0] for rec in scn.observer.trace
                  if rec[2] == "deliver" and rec[5] == "BLOCK" and rec[3] == bad)
    # the next provider is dialled when the tampered block arrives, not
    # after the attempt timeout
    oracle = bad_at + 200.0 + leg_ms(44) + leg_ms(44 + 1025)
    assert scn.observer.completions[0][3] == pytest.approx(oracle, abs=1e-6)
    assert [rec[4] for rec in scn.sends("WANT-BLOCK")] == [bad, good]
    assert scn.engines[0].store[cid] == block


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_closed_session_arms_nothing(protocol):
    # the only provider of one block departs early, so that request keeps
    # re-arming its discovery ticks until it gives up after 30 s; a second
    # request, for a block its neighbour stores, completes
    scn = Scenario(3, [(0, 1), (1, 2)], protocol=protocol,
                   rawa=RaWaConfig(p=1.0))
    lost = scn.place_block(2, make_block(1025))
    found = scn.place_block(1, make_block(1025, tag=2))
    scn.build_graphs()
    scn.sim.schedule_departure(2, at=350.0)
    scn.request(0, lost)
    scn.request(0, found)
    engine = scn.engines[0]
    trace = scn.observer.trace
    # the trace length when each session closed
    closed = {}

    def closing(method):
        def close(session):
            closed.setdefault(session.cid, len(trace))
            method(session)
        return close
    engine._close = closing(engine._close)
    engine._give_up = closing(engine._give_up)
    # a tick that re-arms after its session closed fails here, not at the
    # livelock cap
    scn.sim.run(until=40_000.0)
    assert engine.sessions[lost].state is FAILED
    assert engine.sessions[found].state is DONE
    assert set(closed) == {lost, found}
    for cid, at in closed.items():
        labels = Counter(rec[5] for rec in trace[at:]
                         if rec[2] == "timer" and rec[5].endswith(cid.short()))
        assert all(count == 1 for count in labels.values()), labels
    # the last ticks of both sessions fired as no-ops, and nothing is left
    assert scn.sim.peek() is None


def index_in_flight(role):
    """A search that closes while its index lookup is in flight, and the
    node that runs it. Node 2 stores the block. A requester (node 0) whose
    only neighbour departs at once finds it only through the index:
    vanilla's t1 lookup at 1000 ms, rawa's u lookup at 1100 ms, each
    answered 622 ms later, and gives up at 1300 ms. A rawa proxy (node 1)
    hears node 2's HAVE at 300 ms, looks the CID up once t1 has passed
    (1300 ms) and answers its walk when its 1200-ms FORWARD-HAVE window
    ends (1500 ms)."""
    if role == "rawa-proxy":
        scn = Scenario(3, [(0, 1), (1, 2)], protocol="rawa",
                       rawa=RaWaConfig(p=1.0, forward_have_aggregation_ms=1200.0))
        node = 1
    else:
        scn = Scenario(3, [(0, 1)], protocol=role,
                       rawa=RaWaConfig(p=1.0, u_ms=1100.0), give_up_ms=1300.0)
        scn.sim.schedule_departure(1, at=0.0)
        node = 0
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    return scn, node, cid


@pytest.mark.parametrize("role", ["vanilla", "rawa", "rawa-proxy"])
def test_a_closed_search_ignores_its_late_index_result(role):
    scn, node, cid = index_in_flight(role)
    sim, observer = scn.sim, scn.observer
    late = []

    def state():
        return (sim._seq, sim.rng.getstate(), len(observer.trace),
                sum(observer.msg_counts.values()))

    def lookup(cid, asker, callback):
        def result(providers):
            before = state()
            callback(providers)
            late.append((sim.now, providers, before, state()))
        index_lookup(cid, asker, callback if asker != node else result)
    index_lookup = scn.dht.lookup
    scn.dht.lookup = lookup
    sim.run()
    engine = scn.engines[node]
    search = engine.proxies[cid] if role == "rawa-proxy" else engine.sessions[cid]
    assert search.state is (DONE if role == "rawa-proxy" else FAILED)
    [(at, providers, before, after)] = late
    assert at > (1500.0 if role == "rawa-proxy" else 1300.0) and providers == [2]
    # no send, no timer and no draw
    assert after == before
    assert sim.peek() is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_two_requests_dialling_one_provider_both_complete(protocol):
    # node 0 wants two blocks that only node 2, not a neighbour, stores:
    # both requests learn of node 2 at the same moment and dial it, and
    # each must get its own dial back
    scn = Scenario(3, [(0, 1)], protocol=protocol, rawa=RaWaConfig(p=1.0))
    cids = [scn.place_block(2, make_block(1025, tag=tag)) for tag in (1, 2)]
    scn.build_graphs()
    for cid in cids:
        scn.request(0, cid)
    scn.sim.run()
    dials = [rec[0] for rec in scn.observer.trace
             if rec[2] == "timer" and rec[5] == "dial:P2"]
    want_blocks = scn.sends("WANT-BLOCK")
    assert sorted(rec[6] for rec in want_blocks) == sorted(c.short() for c in cids)
    assert len(dials) == 2
    assert [rec[0] for rec in want_blocks] == dials
    assert all(scn.engines[0].sessions[cid].state is DONE for cid in cids)
