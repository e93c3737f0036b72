from collections import Counter

import pytest

from rawasim.core import Message, MessageType, derive_cid
from rawasim.rawa import RaWaConfig
from rawasim.vanilla import DONE, FAILED, VanillaEngine

from conftest import Scenario, cid_of, leg_ms, make_block

GOLDEN_NEIGHBOR_TTFB = 3 * leg_ms(44) + leg_ms(44 + 1025)


def dht_lookups(scn):
    return [rec for rec in scn.observer.trace
            if rec[2] == "timer" and rec[5].startswith("dht-lookup")]


def test_local_block_completes_instantly():
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    block = make_block(1025)
    cid = scn.place_block(0, block)
    scn.request(0, cid)
    scn.sim.run()
    assert scn.observer.completions[0][3] == 0.0
    assert scn.observer.msg_counts == Counter()


def test_neighbor_provider_golden_ttfb():
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    ttfb = scn.observer.completions[0][3]
    # oracle: WANT-HAVE + HAVE + WANT-BLOCK at 44 B, BLOCK at 1069 B
    assert ttfb == pytest.approx(GOLDEN_NEIGHBOR_TTFB, abs=1e-6)
    assert ttfb == pytest.approx(401.145363, abs=0.1)
    assert dht_lookups(scn) == []


def test_full_message_sequence_single_neighbor_provider():
    # requester 0 with neighbors 1..4; only node 1 stores the block
    scn = Scenario(5, [(0, n) for n in (1, 2, 3, 4)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    counts = scn.observer.msg_counts
    assert counts == Counter({"WANT-HAVE": 4, "DONT-HAVE": 3, "HAVE": 1,
                              "WANT-BLOCK": 1, "BLOCK": 1, "CANCEL": 4})


def test_small_block_sent_immediately_on_want_have():
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1024))
    scn.request(0, cid)
    scn.sim.run()
    assert scn.observer.msg_counts["BLOCK"] == 1
    assert scn.observer.msg_counts["HAVE"] == 0
    assert scn.observer.msg_counts["WANT-BLOCK"] == 0
    assert scn.observer.completions[0][3] == pytest.approx(
        leg_ms(44) + leg_ms(44 + 1024), abs=1e-6)


def test_threshold_boundary_1025_takes_have_path():
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    assert scn.observer.msg_counts["HAVE"] == 1
    assert scn.observer.msg_counts["WANT-BLOCK"] == 1


def test_two_haves_single_want_block():
    scn = Scenario(3, [(0, 1), (0, 2)], protocol="vanilla")
    block = make_block(1025)
    cid = scn.place_block(1, block)
    scn.place_block(2, block)
    scn.request(0, cid)
    scn.sim.run()
    assert scn.observer.msg_counts["HAVE"] == 2
    assert scn.observer.msg_counts["WANT-BLOCK"] == 1


def test_dht_fallback_timing_and_dial():
    # neighbor 1 has nothing; provider 2 is only reachable via the index
    scn = Scenario(3, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(2, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    answers_done = 2 * leg_ms(44)          # WANT-HAVE out, DONT-HAVE back
    lookup_at = answers_done + 1000.0      # quiet period of t1
    oracle = lookup_at + 622.0 + 200.0 + leg_ms(44) + leg_ms(44 + 1025)
    assert scn.observer.completions[0][3] == pytest.approx(oracle, abs=1e-6)
    assert len(dht_lookups(scn)) == 1


def test_have_just_before_fallback_suppresses_lookup():
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    assert dht_lookups(scn) == []


DHT_MS = 622.0  # the scenario's provider-index delay, without spread


def index_lookup_starts(first: float, started: float, t1: float,
                        give_up: float, deadline: float | None) -> list[float]:
    """When a search whose provider index stays empty starts its lookups:
    `first`, then `t1` after each empty result, until a result lands
    `give_up` or later after the search began. A requester's give-up timer
    also cancels a retry due at or after `deadline`."""
    starts = [first]
    while True:
        result = starts[-1] + DHT_MS
        if result - started >= give_up:
            return starts
        retry = result + t1
        if deadline is not None and retry >= deadline:
            return starts
        starts.append(retry)


# (protocol, searcher, t1, first lookup): the vanilla requester has no
# neighbour, so its quiet period runs from the request; the proxy (node 1,
# p = 1) is reached after one leg and its neighbour's DONT-HAVE lands two
# legs later, which restarts the quiet period unless t1 has already run out
EMPTY_INDEX_CASES = {
    "vanilla": ("vanilla", 0, 1000.0, 1000.0),
    "rawa-proxy": ("rawa", 1, 1000.0, 3 * leg_ms(44) + 1000.0),
    "rawa-proxy-short-t1": ("rawa", 1, 50.0, leg_ms(44) + 50.0),
}


@pytest.mark.parametrize("case", sorted(EMPTY_INDEX_CASES))
def test_empty_index_retries_then_fails(case):
    protocol, searcher, t1, first = EMPTY_INDEX_CASES[case]
    give_up = 6000.0
    if protocol == "vanilla":
        scn = Scenario(1, [], protocol="vanilla", give_up_ms=give_up)
        started, deadline = 0.0, give_up
    else:
        scn = Scenario(2, [(0, 1)], rawa=RaWaConfig(p=1.0, t1_ms=t1),
                       give_up_ms=give_up)
        scn.build_graphs()
        # the proxy has no give-up timer of its own
        started, deadline = leg_ms(44), None
    starts = []
    lookup = scn.dht.lookup

    def recording_lookup(cid, node, callback):
        if node == searcher:
            starts.append(scn.sim.now)
        lookup(cid, node, callback)
    scn.dht.lookup = recording_lookup
    cid = derive_cid(make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    expected = index_lookup_starts(first, started, t1, give_up, deadline)
    assert len(expected) >= 3
    assert starts == pytest.approx(expected, abs=1e-6)
    assert scn.observer.msg_counts["FORWARD-HAVE"] == 0
    assert 0 in scn.observer.failures
    assert scn.engines[0].sessions[cid].state == FAILED
    assert scn.sim.now >= give_up


def test_corrupt_block_discarded_and_session_recovers():
    class CorruptingProvider(VanillaEngine):
        def handle_message(self, frm, msg, tag=None):
            if msg.variant is MessageType.WANT_BLOCK:
                bad = make_block(msg_block_size, tag=99)
                self.sim.send(self.node, frm,
                              Message(MessageType.BLOCK, msg.cid, payload=bad))
                return
            super().handle_message(frm, msg, tag)

    msg_block_size = 1025
    scn = Scenario(3, [(0, 1)], protocol="vanilla")
    block = make_block(msg_block_size)
    cid = cid_of(block)
    corrupt = CorruptingProvider(1, scn.sim, scn.dht)
    corrupt.store_block(block)
    scn.engines[1] = corrupt
    scn.sim.attach(1, corrupt)
    scn.place_block(2, block)  # honest copy reachable via the index
    scn.request(0, cid)
    scn.sim.run()
    done = scn.observer.completions[0]
    assert done[3] > 1000.0  # not satisfied by the corrupt early answer
    assert scn.engines[0].store[cid] == block


def test_provider_departure_recovers_via_index():
    scn = Scenario(3, [(0, 1)], protocol="vanilla")
    block = make_block(1025)
    cid = scn.place_block(1, block)
    scn.place_block(2, block)
    scn.sim.schedule_departure(1, at=250.0)  # after HAVE, before BLOCK
    scn.request(0, cid)
    scn.sim.run()
    assert 0 in scn.observer.completions
    assert scn.observer.completions[0][3] > 1000.0


def test_duplicate_request_is_idempotent():
    scn = Scenario(2, [(0, 1)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    engine = scn.engines[0]
    scn.sim.schedule(0.0, "req", lambda: (engine.request_block(cid),
                                          engine.request_block(cid)))
    scn.sim.run()
    assert scn.observer.msg_counts["WANT-HAVE"] == 1


def test_cancel_bookkeeping_exact():
    scn = Scenario(5, [(0, n) for n in (1, 2, 3, 4)], protocol="vanilla")
    cid = scn.place_block(1, make_block(1025))
    scn.request(0, cid)
    scn.sim.run()
    cancels = Counter(rec[4] for rec in scn.sends("CANCEL"))
    assert cancels == {1: 1, 2: 1, 3: 1, 4: 1}
    assert scn.engines[0].sessions[cid].state == DONE
