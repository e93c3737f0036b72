from random import Random

import pytest

from rawasim.adversary import (ExploiterNode, ObservationLog, Prediction,
                               SpyTap, fse_classify, sawfe_classify,
                               wfe_classify)
from rawasim.core import Block, Message, MessageType, derive_cid
from rawasim.metrics import GroundTruth, precision_recall
from rawasim.rawa import RaWaConfig, RawaEngine
from rawasim.runner import ExperimentConfig, build_run

from conftest import Scenario, make_block


def cids(n):
    return [derive_cid(Block(bytes([i + 1]), 1)) for i in range(n)]


def obs_log(entries):
    log = ObservationLog()
    for t, (adv, sender, variant, cid) in enumerate(entries):
        msg = Message(variant, cid)
        log.append(adv, sender, msg, float(t))
    return log


# -- classifier units ---------------------------------------------------------


def test_observed_request_cids_filters_and_orders():
    c = cids(3)
    log = obs_log([
        (9, 1, MessageType.HAVE, c[0]),          # response, ignored
        (9, 1, MessageType.WANT_FORWARD, c[1]),
        (9, 2, MessageType.WANT_HAVE, c[2]),
        (9, 3, MessageType.WANT_BLOCK, c[1]),    # duplicate cid
    ])
    assert log.observed_request_cids() == [c[1], c[2]]


def test_fse_first_request_wins():
    c = cids(3)
    log = obs_log([
        (9, 1, MessageType.WANT_FORWARD, c[0]),
        (9, 1, MessageType.WANT_HAVE, c[1]),     # later request ignored
        (9, 2, MessageType.CANCEL, c[2]),        # not a counted request type
        (9, 2, MessageType.WANT_HAVE, c[2]),
    ])
    prediction = fse_classify(log, [1, 2], Random(0))
    assert prediction.links == {1: c[0], 2: c[2]}
    assert prediction.abstained == set()


def test_fse_random_fill_is_seed_deterministic():
    c = cids(2)
    log = obs_log([(9, 1, MessageType.WANT_FORWARD, c[0]),
                   (9, 1, MessageType.WANT_BLOCK, c[1])])
    population = [1, 2, 3, 4]
    a = fse_classify(log, population, Random(5))
    b = fse_classify(log, population, Random(5))
    assert a.links == b.links
    assert set(a.links[p] for p in (2, 3, 4)) <= set(c)


def test_fse_abstains_only_without_observed_cids():
    log = obs_log([])
    prediction = fse_classify(log, [1, 2], Random(0))
    assert prediction.links == {}
    assert prediction.abstained == {1, 2}


def test_wfe_links_only_want_blocks():
    c = cids(2)
    log = obs_log([
        (9, 1, MessageType.WANT_FORWARD, c[0]),  # ignored by stage 1
        (9, 1, MessageType.WANT_BLOCK, c[1]),
        (9, 1, MessageType.WANT_BLOCK, c[0]),    # only the first counts
    ])
    prediction = wfe_classify(log, [1], Random(0))
    assert prediction.links == {1: c[1]}


def test_sawfe_agrees_with_wfe_on_stage_one():
    c = cids(3)
    log = obs_log([
        (8, 1, MessageType.WANT_BLOCK, c[0]),
        (9, 2, MessageType.WANT_BLOCK, c[1]),
        (9, 3, MessageType.WANT_HAVE, c[2]),
    ])
    population = [1, 2, 3, 4]
    subgraph = {4: (3,), 1: (2,), 2: (3,), 3: (1,)}
    wfe = wfe_classify(log, population, Random(7))
    sawfe = sawfe_classify(log, subgraph, population, Random(7))
    for peer in (1, 2):
        assert sawfe.links[peer] == wfe.links[peer]


def test_sawfe_stage_two_length_one_walk_identified():
    c = cids(1)
    # node 3 broadcast the probe; its only subgraph predecessor is 4
    log = obs_log([(9, 3, MessageType.WANT_HAVE, c[0])])
    subgraph = {4: (3,), 3: (2,), 2: (4,)}
    prediction = sawfe_classify(log, subgraph, [2, 3, 4], Random(0))
    assert prediction.links[4] == c[0]


def test_sawfe_stage_two_longer_walk_blames_relay():
    c = cids(1)
    # true requester 5 -> relay 4 -> proxy 3; only 4 precedes the proxy
    log = obs_log([(9, 3, MessageType.WANT_HAVE, c[0])])
    subgraph = {5: (4,), 4: (3,), 3: (2,), 2: (5,)}
    truth = GroundTruth(interests={5: c[0], 4: cids(2)[1], 3: cids(3)[2], 2: cids(3)[2]})
    prediction = sawfe_classify(log, subgraph, [2, 3, 4, 5], Random(0))
    assert prediction.links[4] == c[0]  # stage 2 guessed the relay
    precision, recall = precision_recall(prediction, truth)
    assert recall < 1.0


def test_sawfe_random_fill_without_broadcasts():
    c = cids(1)
    log = obs_log([(9, 1, MessageType.WANT_FORWARD, c[0])])
    prediction = sawfe_classify(log, {}, [1, 2], Random(3))
    assert set(prediction.links) == {1, 2}
    assert prediction.links[2] == c[0]  # only observed cid


def test_observation_log_export_format():
    c = cids(1)
    log = obs_log([(9, 1, MessageType.WANT_BLOCK, c[0])])
    line = next(log.trace_lines())
    time_ms, adv, sender, variant, cid8 = line.split(",")
    assert adv == "P9" and sender == "P1" and variant == "WANT-BLOCK"
    assert float(time_ms) == 0.0 and len(cid8) == 8


def test_classification_replay_identical():
    c = cids(4)
    log = obs_log([(9, i % 3, MessageType.WANT_BLOCK, c[i]) for i in range(4)])
    runs = [wfe_classify(log, [0, 1, 2, 3], Random(11)) for _ in range(3)]
    assert all(r.links == runs[0].links for r in runs)


# -- node behaviors -----------------------------------------------------------


def test_exploiter_fakes_forward_have_and_presence():
    scn = Scenario(2, [(0, 1)], rawa=RaWaConfig(p=0.5))
    log = ObservationLog()
    wfe = ExploiterNode(1, scn.sim, log, fake_have=True)
    scn.sim.attach(1, wfe)
    scn.engines[1] = wfe
    cid = derive_cid(make_block(1025))
    wfe.handle_message(0, Message(MessageType.WANT_FORWARD, cid), None)
    wfe.handle_message(0, Message(MessageType.WANT_HAVE, cid), None)
    wfe.handle_message(0, Message(MessageType.WANT_BLOCK, cid), None)
    sent = [(rec[5], rec[4]) for rec in scn.observer.trace if rec[2] == "send"]
    assert ("FORWARD-HAVE", 0) in sent
    assert ("HAVE", 0) in sent
    assert ("DONT-HAVE", 0) in sent
    fh = next(rec for rec in scn.observer.trace if rec[5] == "FORWARD-HAVE")
    assert fh[3] == 1
    assert [r.message.variant for r in log.records] == [
        MessageType.WANT_FORWARD, MessageType.WANT_HAVE, MessageType.WANT_BLOCK]


def test_exploiter_honest_presence_when_flag_off():
    scn = Scenario(2, [(0, 1)], rawa=RaWaConfig(p=0.5))
    wfe = ExploiterNode(1, scn.sim, ObservationLog(), fake_have=False)
    cid = derive_cid(make_block(1025))
    wfe.handle_message(0, Message(MessageType.WANT_HAVE, cid), None)
    sent = [rec[5] for rec in scn.observer.trace if rec[2] == "send"]
    assert sent == ["DONT-HAVE"]


def test_walk_into_exploiter_reveals_requester_then_recovers():
    scn = Scenario(3, [(0, 1)], rawa=RaWaConfig(p=0.5))
    cid = scn.place_block(2, make_block(1025))  # honest copy via the index
    log = ObservationLog()
    wfe = ExploiterNode(1, scn.sim, log, fake_have=True)
    scn.engines[1] = wfe
    scn.sim.attach(1, wfe)
    scn.build_graphs()
    scn.request(0, cid)
    scn.sim.run()
    prediction = wfe_classify(log, [0], Random(1))
    assert prediction.links == {0: cid}
    assert 0 in scn.observer.completions  # recovered via the fallback lookup
    assert scn.observer.completions[0][3] > 2000.0


def test_spy_behaves_honestly_and_never_requests():
    cfg = ExperimentConfig(protocol="rawa", adversary="fse", n_peers=21,
                           runs=1, base_seed=3, rawa=RaWaConfig(p=0.2),
                           keep_trace=True)
    handles = build_run(cfg, 0)
    spy = handles.adversaries[0]
    graphs_before = {n: handles.engines[n].graph
                     for n in handles.honest}
    handles.sim.run()
    tap = handles.engines[spy]
    assert isinstance(tap, SpyTap)
    assert tap.inner.store == {}          # stores no blocks
    assert tap.inner.sessions == {}       # issues no requests
    assert all(rec[5] != "WANT-BLOCK" or rec[3] != spy
               for rec in handles.sim.observer.trace if rec[2] == "send")
    # adversary presence does not perturb honest privacy subgraphs
    assert graphs_before == {n: handles.engines[n].graph
                             for n in handles.honest}
    # every honest store holds exactly its own block plus its interest
    for node in handles.honest:
        store = handles.engines[node].store
        assert len(store) <= 2
        if node in handles.sim.observer.completions:
            assert handles.truth.interests[node] in store


def test_spy_on_vanilla_sees_every_requester_first():
    precisions = []
    for i in range(10):
        cfg = ExperimentConfig(protocol="vanilla", adversary="fse",
                               n_peers=50, runs=1, base_seed=1000)
        handles = build_run(cfg, i)
        handles.sim.run()
        analysis = Random(f"{handles.seed}:analysis")
        prediction = fse_classify(handles.log, handles.honest, analysis)
        precision, recall = precision_recall(prediction, handles.truth)
        precisions.append(precision)
        assert precision == recall
    assert sum(precisions) / len(precisions) >= 0.95


def test_spy_may_become_proxy_and_discovers_honestly():
    # find a run where some walk terminates at the spy node
    for i in range(12):
        cfg = ExperimentConfig(protocol="rawa", adversary="fse", n_peers=21,
                               runs=1, base_seed=50,
                               rawa=RaWaConfig(p=0.5), keep_trace=True)
        handles = build_run(cfg, i)
        handles.sim.run()
        spy = handles.adversaries[0]
        if any(t[3] == spy for t in handles.sim.observer.terminations):
            spy_broadcasts = [rec for rec in handles.sim.observer.trace
                              if rec[2] == "send" and rec[3] == spy
                              and rec[5] == "WANT-HAVE"]
            assert spy_broadcasts  # executed the discovery on behalf
            return
    pytest.fail("spy never became a proxy in any seed")
