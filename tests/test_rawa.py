import math
from collections import Counter
from random import Random

import pytest

from rawasim.adversary import ExploiterNode, ObservationLog
from rawasim.core import Message, MessageType, derive_cid
from rawasim.netsim import LinkSpec, Simulator, WalkTag
from rawasim.rawa import (RaWaConfig, RawaEngine,
                          build_forward_graph, path_length_probability)
from rawasim.topology import build_honest_topology

from conftest import Scenario, leg_ms, make_block

# legs: WANT-FORWARD, WANT-HAVE, HAVE, WANT-BLOCK at 44 B each, the
# provider response at 82 B, one dial round trip, and the block itself
GOLDEN_PROXY_ADJACENT_TTFB = (4 * leg_ms(44) + leg_ms(4 + 40 + 38)
                              + 200.0 + leg_ms(44 + 1025))


# -- walk-termination law and subgraph construction -------------------------


def test_path_length_probability_reference_points():
    assert path_length_probability(0.2, 11) == pytest.approx(0.9141, abs=5e-5)
    assert path_length_probability(0.3, 9) == pytest.approx(0.9596, abs=5e-5)
    assert path_length_probability(1.0, 1) == 1.0


def test_path_length_probability_domain():
    with pytest.raises(ValueError):
        path_length_probability(0.0, 1)
    with pytest.raises(ValueError):
        path_length_probability(1.5, 1)
    with pytest.raises(ValueError):
        path_length_probability(0.2, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        RaWaConfig(p=0.0)
    with pytest.raises(ValueError):
        RaWaConfig(eta=0)
    with pytest.raises(ValueError):
        RaWaConfig(u_ms=500.0)  # must exceed t0 and t1
    # timers that would schedule into the past
    for overrides in ({"t0_ms": -1.0}, {"t0_ms": 0.0}, {"t1_ms": -5.0},
                      {"t1_ms": 0.0}, {"u_ms": 0.0, "t0_ms": -2.0, "t1_ms": -3.0},
                      {"forward_have_aggregation_ms": -1.0},
                      {"forward_have_aggregation_ms": math.inf}):
        with pytest.raises(ValueError):
            RaWaConfig(**overrides)


def test_forward_graph_invariants_over_random_topologies():
    rng = Random(424242)
    for _ in range(1000):
        n = rng.randint(6, 40)
        out_links = rng.randint(2, min(4, n - 2))
        sim = Simulator(LinkSpec(), Random(0))
        honest = build_honest_topology(sim, n, out_links, rng)
        eta = rng.choice([1, 2, 3, None])
        for node in honest:
            neighbors = sim.neighbors(node)
            succ = build_forward_graph(neighbors, eta, rng)
            assert set(succ) <= set(neighbors)
            assert len(set(succ)) == len(succ)
            want = len(neighbors) if eta is None else min(eta, len(neighbors))
            assert len(succ) == want


def test_forward_graph_eta_max_is_all_neighbors():
    assert build_forward_graph([3, 1, 2], None, Random(1)) == (1, 2, 3)


def test_forward_graph_capped_by_degree():
    assert build_forward_graph([9], 2, Random(1)) == (9,)


def test_forward_graph_same_rng_state_identical():
    a = build_forward_graph(range(10), 3, Random(5))
    b = build_forward_graph(range(10), 3, Random(5))
    assert a == b


def test_reconstruct_replaces_graph():
    scn = Scenario(4, [(0, 1), (0, 2), (0, 3)], rawa=RaWaConfig(p=0.5, eta=2))
    engine = scn.engines[0]
    engine.build_graph()
    first = engine.graph
    engine.build_graph()
    second = engine.graph
    for succ in (first, second):
        assert set(succ) <= {1, 2, 3} and len(succ) == 2


# -- micro-scenario goldens --------------------------------------------------


def test_local_block_completes_instantly():
    scn = Scenario(2, [(0, 1)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(0, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    assert scn.observer.completions[0][3] == 0.0
    assert scn.observer.msg_counts == Counter()


def test_proxy_adjacent_provider_golden_ttfb():
    # requester 0 - relay/proxy 1 - provider 2; p=1 makes node 1 the proxy
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    ttfb = scn.observer.completions[0][3]
    assert ttfb == pytest.approx(GOLDEN_PROXY_ADJACENT_TTFB, abs=1e-6)
    assert ttfb == pytest.approx(801.265526, abs=0.1)
    # proxy broadcast count equals its neighbor count
    assert scn.observer.msg_counts["WANT-HAVE"] == 2
    assert scn.observer.terminations == [((0, cid, 0), 0, 1, 1, pytest.approx(leg_ms(44)))]


def test_proxy_with_stored_block_answers_without_broadcast():
    scn = Scenario(2, [(0, 1)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(1, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    assert scn.observer.msg_counts["WANT-HAVE"] == 0
    assert scn.observer.msg_counts["FORWARD-HAVE"] == 1
    # walk one hop, then a direct exchange with the already-connected proxy
    oracle = 2 * leg_ms(44) + leg_ms(4 + 40 + 38) + leg_ms(44 + 1025)
    assert scn.observer.completions[0][3] == pytest.approx(oracle, abs=1e-6)


def test_eta_one_first_hop_is_the_single_successor():
    scn = Scenario(3, [(0, 1), (0, 2)], rawa=RaWaConfig(p=1.0, eta=1))
    cid = scn.place_block(1, make_block(1025))
    scn.place_block(2, make_block(1025, tag=9))
    scn.build_graphs()
    engine = scn.engines[0]
    engine.request_block(cid)
    assert engine.sessions[cid].first_hop == engine.graph[0]


# -- relay semantics ---------------------------------------------------------


def test_retransmissions_follow_identical_path():
    # 0-1-2 chain with p=0: the walk relays, loops back through the
    # reduction rule and ends with the requester as its own proxy; the
    # re-transmission must traverse the identical node sequence.
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=0.001),
                   give_up_ms=4000.0)
    cid = derive_cid(make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    by_retx = {}
    for walk, retx, hop, frm, to, _ in scn.observer.wf_sends:
        by_retx.setdefault(retx, []).append((hop, frm, to))
    assert len(by_retx) >= 3  # original plus at least two re-transmissions
    paths = {retx: [edge[1:] for edge in sorted(edges)]
             for retx, edges in by_retx.items()}
    assert all(path == paths[0] for path in paths.values())
    assert 0 in scn.observer.failures  # no provider exists anywhere


def test_relay_departed_successor_shortens_path_and_completes():
    # walk 0 -> 1 -> 2 (proxy); node 2 departs before answering, the
    # re-transmission ends at node 1 which proxies and finds provider 3
    edges = [(0, 1), (1, 2), (2, 4), (1, 3)]
    for seed in range(60):
        scn = Scenario(5, edges, rawa=RaWaConfig(p=0.5), seed=seed)
        cid = scn.place_block(3, make_block(1025))
        scn.build_graphs()
        scn.request(0, cid)
        scn.sim.run(until=450.0)
        terms = list(scn.observer.terminations)
        if terms == [((0, cid, 0), 0, 2, 2, terms[0][4] if terms else None)]:
            break
    else:
        pytest.fail("no seed produced the two-hop walk")
    scn.sim.schedule_departure(2, at=500.0)
    scn.sim.run()
    walk = (0, cid, 0)
    assert (walk, 0, 2, 2, terms[0][4]) in scn.observer.terminations
    shortened = [t for t in scn.observer.terminations if t[1] > 0]
    assert shortened and shortened[0][2] == 1 and shortened[0][3] == 1
    original = [(frm, to) for w, retx, hop, frm, to, _ in
                sorted(scn.observer.wf_sends) if w == walk and retx == 0]
    repeat = [(frm, to) for w, retx, hop, frm, to, _ in
              sorted(scn.observer.wf_sends) if w == walk and retx == 1]
    assert repeat == original[:len(repeat)] and len(repeat) < len(original)
    assert 0 in scn.observer.completions


def test_duplicate_from_same_predecessor_reuses_successor():
    scn = Scenario(4, [(0, 1), (1, 2), (1, 3)], rawa=RaWaConfig(p=0.001))
    cid = derive_cid(make_block(1025))
    scn.build_graphs()
    engine = scn.engines[1]
    tag = WalkTag((0, cid, 0), 1, 0)
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, cid), tag)
    successor = engine.entries[(cid, 0)]
    assert successor in (2, 3)
    engine.handle_message(0, Message(MessageType.WANT_FORWARD, cid),
                          tag._replace(retx=1))
    assert engine.entries[(cid, 0)] == successor
    forwards = [rec for rec in scn.observer.wf_sends if rec[3] == 1]
    assert [f[4] for f in forwards] == [successor, successor]


def test_loop_reduction_exhaustion_becomes_proxy():
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=RaWaConfig(p=0.001, eta=1))
    cid = derive_cid(make_block(1025))
    scn.build_graphs()
    engine = scn.engines[1]  # successors: exactly one of {0, 2}
    succ = engine.graph[0]
    other = 0 if succ == 2 else 2
    engine.handle_message(other, Message(MessageType.WANT_FORWARD, cid),
                          WalkTag((other, cid, 0), 1, 0))
    assert engine.entries[(cid, other)] == succ
    # a second walk for the same cid finds no unused successor
    engine.handle_message(succ, Message(MessageType.WANT_FORWARD, cid),
                          WalkTag((succ, cid, 0), 1, 0))
    assert (cid, succ) not in engine.entries
    assert cid in engine.proxies


def test_stray_forward_have_dropped_with_diagnostic():
    scn = Scenario(2, [(0, 1)], rawa=RaWaConfig(p=0.5))
    cid = derive_cid(make_block(1025))
    scn.build_graphs()
    fh = Message(MessageType.FORWARD_HAVE, cid, providers=(0,))
    scn.engines[1].handle_message(0, fh, None)
    assert any(reason == "stray-forward-have" for *_, reason in scn.observer.drops)


class Sink:
    """An engine that swallows everything delivered to it."""

    def handle_message(self, frm, msg, tag=None):
        pass


def test_repeat_a_minute_later_follows_the_recorded_successor():
    # relay 1 has successors 2 and 3; its entry for (cid, 0) lives for the
    # whole run, so a repeat 61 s later takes the first one's successor, one
    # hop further, instead of being loop-reduced onto the other successor
    scn = Scenario(4, [(0, 1), (1, 2), (1, 3)], rawa=RaWaConfig(p=0.001))
    cid = derive_cid(make_block(1025))
    scn.build_graphs()
    for peer in (2, 3):
        scn.sim.attach(peer, Sink())
    engine = scn.engines[1]
    forward = Message(MessageType.WANT_FORWARD, cid)
    tag = WalkTag((0, cid, 0), 1, 0)
    engine.handle_message(0, forward, tag)
    successor = engine.entries[(cid, 0)]
    assert successor in (2, 3)
    scn.sim.schedule(61_000.0, "repeat", lambda: engine.handle_message(
        0, forward, tag._replace(retx=1)))
    scn.sim.run()
    assert [rec[:5] for rec in scn.observer.wf_sends] == [
        ((0, cid, 0), 0, 2, 1, successor), ((0, cid, 0), 1, 2, 1, successor)]
    assert scn.observer.wf_sends[1][5] == 61_000.0


# -- requester fallbacks ------------------------------------------------------


def test_u_fallback_completes_when_walk_dies():
    # first hop proxies then departs silently; provider 2 only in the index
    scn = Scenario(3, [(0, 1)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.sim.schedule_departure(1, at=400.0)
    scn.request(0, cid)
    scn.sim.run()
    oracle = 2000.0 + 622.0 + 200.0 + leg_ms(44) + leg_ms(44 + 1025)
    assert scn.observer.completions[0][3] == pytest.approx(oracle, abs=1e-6)


def test_fresh_walk_after_first_hop_departure():
    scn = Scenario(4, [(0, 1), (0, 2)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(3, make_block(1025))
    scn.build_graphs()
    engine = scn.engines[0]
    engine.request_block(cid)
    first = engine.sessions[cid].first_hop
    other = 2 if first == 1 else 1
    scn.sim.schedule_departure(first, at=300.0)
    scn.sim.run()
    session = engine.sessions[cid]
    assert session.walk_serial >= 1
    fresh = [rec for rec in scn.observer.wf_sends if rec[0] == (0, cid, 1)]
    assert fresh and fresh[0][4] == other  # fresh walk uses the live successor
    assert 0 in scn.observer.completions


def test_forward_have_and_fallback_race_single_want_block():
    # proxy discovery and the requester fallback race; only one retrieval
    # request may ever be outstanding
    scn = Scenario(3, [(0, 1)], rawa=RaWaConfig(p=1.0))
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    want_blocks = scn.sends("WANT-BLOCK")
    assert len(want_blocks) == 1
    assert 0 in scn.observer.completions


def test_verify_provider_blocks_naive_exploit():
    cfg = RaWaConfig(p=1.0, verify_provider=True)
    scn = Scenario(3, [(0, 1)], rawa=cfg)
    cid = scn.place_block(2, make_block(1025))
    log = ObservationLog()
    fake = ExploiterNode(1, scn.sim, log, fake_have=False)
    scn.engines[1] = fake
    scn.sim.attach(1, fake)
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    # the fake provider answered the walk with itself but failed presence
    # verification, so it never receives a retrieval request
    assert all(rec[4] != 1 for rec in scn.sends("WANT-BLOCK"))
    assert 0 in scn.observer.completions


def test_aggregation_window_answers_once_with_all_collected():
    # proxy 7 asks six providers; with 40 ms jitter their HAVEs spread out
    # and a 30 ms window keeps only those that arrive before it closes
    window = 30.0
    link = LinkSpec(latency_ms=100.0, jitter_ms=40.0)
    partial = 0
    for seed in range(4):
        scn = Scenario(8, [(0, 7)] + [(7, n) for n in range(1, 7)], link=link,
                       rawa=RaWaConfig(p=1.0, forward_have_aggregation_ms=window),
                       seed=seed)
        block = make_block(1025)
        for node in range(1, 7):
            cid = scn.place_block(node, block)
        scn.build_graphs()
        scn.request(0, cid)
        scn.sim.run()
        haves = [(rec[0], rec[3]) for rec in scn.observer.trace
                 if rec[2] == "deliver" and rec[5] == "HAVE" and rec[4] == 7]
        closes = haves[0][0] + window
        [answer] = [rec for rec in scn.sends("FORWARD-HAVE") if rec[3] == 7]
        assert answer[0] == pytest.approx(closes, abs=1e-9)
        sent = list(scn.engines[7].proxies[cid].answer.providers)
        assert sent == [frm for at, frm in haves if at < closes]
        partial += 1 < len(sent) < 6
        assert 0 in scn.observer.completions
    assert partial  # some seed both aggregated and left a late HAVE out


def test_verify_provider_exchanges_after_honest_have():
    cfg = RaWaConfig(p=1.0, verify_provider=True)
    scn = Scenario(3, [(0, 1), (1, 2)], rawa=cfg)
    cid = scn.place_block(2, make_block(1025))
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    # one verification probe to the provider, then the retrieval
    probes = [rec for rec in scn.sends("WANT-HAVE") if rec[3] == 0]
    assert len(probes) == 1 and probes[0][4] == 2
    assert len(scn.sends("WANT-BLOCK")) == 1
    assert 0 in scn.observer.completions
    # completion sends the cancel for the verification probe
    cancels = [rec for rec in scn.sends("CANCEL") if rec[3] == 0]
    assert [rec[4] for rec in cancels] == [2]


# -- full-run properties ------------------------------------------------------


def full_run(seed: int, p: float = 0.2, eta=None, n: int = 30,
             unique_interests: bool = False):
    from rawasim.runner import ExperimentConfig, build_run
    cfg = ExperimentConfig(protocol="rawa", adversary="none", n_peers=n,
                           runs=1, base_seed=seed,
                           rawa=RaWaConfig(p=p, eta=eta), keep_trace=True,
                           unique_interests=unique_interests)
    handles = build_run(cfg, 0)
    handles.sim.run()
    return handles


def test_walk_length_one_when_p_is_one():
    # distinct interests: shared-cid walks would relay through requesters
    # via the loop-reduction rule instead of taking the proxy coin flip
    handles = full_run(5, p=1.0, unique_interests=True)
    hops = {}
    for walk, retx, h, node, _ in handles.sim.observer.terminations:
        hops.setdefault(walk, h)
    assert hops and all(h == 1 for h in hops.values())


def test_requester_emission_discipline():
    handles = full_run(6, p=0.2)
    observer = handles.sim.observer
    short_to_proxy_holders = {}
    for node, engine in handles.engines.items():
        for cid in engine.proxies:
            short_to_proxy_holders.setdefault(cid.short(), set()).add(node)
    for rec in observer.trace:
        if rec[2] == "send" and rec[5] == "WANT-HAVE":
            assert rec[3] in short_to_proxy_holders.get(rec[6], set())
    for node in handles.honest:
        for session in handles.engines[node].sessions.values():
            assert session.queried == ()
    # exactly one accepted block per completed request
    for node in observer.completions:
        cid = handles.truth.interests[node]
        assert cid in handles.engines[node].store


def test_return_path_reverses_walk():
    for seed in (1, 2, 3):
        handles = full_run(seed, p=0.3)
        observer = handles.sim.observer
        wf_by_walk = {}
        for walk, retx, hop, frm, to, _ in observer.wf_sends:
            if retx == 0:
                wf_by_walk.setdefault(walk, []).append((hop, frm, to))
        fh_by_walk = {}
        for walk, frm, to, t in observer.fh_sends:
            fh_by_walk.setdefault(walk, []).append((t, frm, to))
        for requester, walk in observer.consumed:
            path = [(frm, to) for _, frm, to in sorted(wf_by_walk[walk])]
            reverse = [(b, a) for a, b in reversed(path)]
            # re-transmissions re-trigger the same cascade; compare the
            # deduplicated edge sequence in first-delivery order
            got = list(dict.fromkeys(
                (frm, to) for _, frm, to in sorted(fh_by_walk[walk])))
            assert got == reverse


def test_no_unresolved_requests_without_churn():
    for seed in (10, 11, 12, 13):
        handles = full_run(seed, p=0.2)
        assert not handles.sim.observer.failures
        assert len(handles.sim.observer.completions) == len(handles.honest)
