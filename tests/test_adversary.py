from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawasim.adversary import (ExploiterNode, ObservationLog, Prediction,
                               SpyTap, _random_fill, fse_classify,
                               sawfe_classify, wfe_classify)
from rawasim.core import (REQUEST_TYPES, Block, Message, MessageType,
                          derive_cid)
from rawasim.metrics import GroundTruth, precision_recall
from rawasim.rawa import RaWaConfig, RawaEngine
from rawasim.runner import ExperimentConfig, build_run

from conftest import Scenario, make_block


def cids(n):
    return [derive_cid(Block(bytes([i + 1]), 1)) for i in range(n)]


def obs_log(entries):
    log = ObservationLog(keep_trace=True)
    for t, (adv, sender, variant, cid) in enumerate(entries):
        msg = Message(variant, cid)
        log.append(adv, sender, msg, float(t))
    return log


# -- the record-scanning oracle -------------------------------------------------
# Each classifier written as one scan over every `Observation` record of a
# log kept with `keep_trace`. The classifiers under test read only the state
# `ObservationLog.append` keeps online; they must give the same prediction,
# in the same link order, with the same analysis draws.


def oracle_request_cids(records) -> list:
    seen = {}
    for rec in records:
        if rec.message.variant in REQUEST_TYPES:
            seen.setdefault(rec.message.cid)
    return list(seen)


def oracle_fse(records, population, rng) -> Prediction:
    prediction = Prediction()
    pop = set(population)
    for rec in records:
        if rec.sender in pop and rec.sender not in prediction.links \
                and rec.message.variant in REQUEST_TYPES:
            prediction.links[rec.sender] = rec.message.cid
    _random_fill(prediction, population, oracle_request_cids(records), rng)
    return prediction


def oracle_first_want_blocks(records, population) -> dict:
    links = {}
    pop = set(population)
    for rec in records:
        if rec.sender in pop and rec.sender not in links \
                and rec.message.variant is MessageType.WANT_BLOCK:
            links[rec.sender] = rec.message.cid
    return links


def oracle_wfe(records, population, rng) -> Prediction:
    prediction = Prediction(links=oracle_first_want_blocks(records, population))
    _random_fill(prediction, population, oracle_request_cids(records), rng)
    return prediction


def oracle_sawfe(records, subgraph, population, rng) -> Prediction:
    prediction = Prediction(links=oracle_first_want_blocks(records, population))
    pop = set(population)
    predecessors = {}
    for holder in sorted(subgraph):
        for succ in subgraph[holder]:
            predecessors.setdefault(succ, []).append(holder)
    for rec in records:
        if rec.message.variant is not MessageType.WANT_HAVE:
            continue
        proxy = rec.sender
        if proxy not in pop:
            continue
        candidates = [q for q in predecessors.get(proxy, ())
                      if q in pop and q not in prediction.links]
        if candidates:
            pick = candidates[rng.randrange(len(candidates))]
            prediction.links[pick] = rec.message.cid
    _random_fill(prediction, population, oracle_request_cids(records), rng)
    return prediction


def assert_online_equals_oracle(log: ObservationLog, subgraph, population,
                                seed) -> None:
    """Every classifier on `log`'s online state against the oracle on its
    records: the same links in the same order, the same abstentions, and
    the analysis RNG left in the same state."""
    records = log.records
    assert log.observed_request_cids() == oracle_request_cids(records)
    pairs = (
        (lambda rng: fse_classify(log, population, rng),
         lambda rng: oracle_fse(records, population, rng)),
        (lambda rng: wfe_classify(log, population, rng),
         lambda rng: oracle_wfe(records, population, rng)),
        (lambda rng: sawfe_classify(log, subgraph, population, rng),
         lambda rng: oracle_sawfe(records, subgraph, population, rng)),
    )
    for online, oracle in pairs:
        rng, ref = Random(seed), Random(seed)
        got, want = online(rng), oracle(ref)
        assert list(got.links.items()) == list(want.links.items())
        assert got.abstained == want.abstained
        assert rng.getstate() == ref.getstate()


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


def test_sawfe_stage_two_draws_for_every_repeated_broadcast():
    c = cids(2)
    # proxy 3 broadcast the same probe twice: each copy blames one of its
    # two predecessors, so neither is left to the random fill over c
    log = obs_log([(9, 3, MessageType.WANT_HAVE, c[0]),
                   (9, 4, MessageType.WANT_FORWARD, c[1]),
                   (9, 3, MessageType.WANT_HAVE, c[0])])
    subgraph = {1: (3,), 2: (3,)}
    for seed in range(20):
        prediction = sawfe_classify(log, subgraph, [1, 2, 3], Random(seed))
        assert prediction.links[1] == prediction.links[2] == c[0]


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
    log = ObservationLog(keep_trace=True)
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


# -- online state against the oracle ------------------------------------------


def heard(variant: MessageType, cid) -> Message:
    if variant is MessageType.BLOCK:
        return Message(variant, cid, payload=make_block(3))
    if variant is MessageType.FORWARD_HAVE:
        return Message(variant, cid, providers=(9,))
    return Message(variant, cid)


# few peers and CIDs, so that a sender repeats a message and a proxy has
# several predecessors
peer = st.integers(0, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(heard_by=st.lists(st.tuples(st.sampled_from([8, 9]), peer,
                                   st.sampled_from(list(MessageType)),
                                   st.integers(0, 2)), max_size=40),
       population=st.sets(peer),
       subgraph=st.dictionaries(peer, st.lists(peer, max_size=3).map(tuple)),
       seed=st.integers(0, 2**32))
def test_online_classifiers_equal_the_oracle_on_any_log(heard_by, population,
                                                        subgraph, seed):
    """Any messages, from senders in the population and outside it."""
    c = cids(3)
    log = ObservationLog(keep_trace=True)
    for t, (adv, sender, variant, k) in enumerate(heard_by):
        log.append(adv, sender, heard(variant, c[k]), float(t))
    assert_online_equals_oracle(log, subgraph, sorted(population), seed)


@st.composite
def adversary_configs(draw):
    """A small one-run config: vanilla or rawa under fse, wfe or sawfe; a
    wfe or sawfe config has 5, 10 or 15 peers, so it splits 4:1 into
    honest and adversary nodes."""
    adversary = draw(st.sampled_from(["fse", "wfe", "sawfe"]))
    if adversary == "fse":
        n_peers = draw(st.integers(5, 14))
    else:
        n_peers = 5 * draw(st.integers(1, 3))
    n_honest = ExperimentConfig(adversary=adversary, n_peers=n_peers,
                                out_links=1).n_honest
    return ExperimentConfig(
        protocol=draw(st.sampled_from(["vanilla", "rawa"])),
        adversary=adversary, n_peers=n_peers,
        out_links=draw(st.integers(1, min(3, n_honest - 1))),
        runs=1, base_seed=draw(st.integers(0, 2**32 - 1)),
        stagger_ms=draw(st.sampled_from([0.0, 150.0])),
        churn=((0, draw(st.floats(0.0, 3000.0))),) if draw(st.booleans()) else (),
        wfe_fake_have=draw(st.booleans()),
        rawa=RaWaConfig(p=draw(st.sampled_from([0.2, 0.5, 1.0])),
                        eta=draw(st.sampled_from([1, 2, None]))))


def online_state(log: ObservationLog) -> tuple:
    return (list(log.request_cids), list(log.first_requests.items()),
            list(log.first_want_blocks.items()), log.want_haves)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(adversary_configs())
def test_online_classifiers_equal_the_oracle_on_small_runs(config):
    """A run's online state, in order, does not depend on `keep_trace`, and
    each of the three classifiers, whatever the run's wiring, predicts from
    it what the oracle predicts from the records, with the same analysis
    draws."""
    logs = []
    for keep_trace in (False, True):
        handles = build_run(replace(config, keep_trace=keep_trace), 0)
        handles.sim.run(until=config.run_bound_ms)
        logs.append(handles.log)
    plain, traced = logs
    assert plain.records == [] and traced.records
    assert online_state(plain) == online_state(traced)
    assert_online_equals_oracle(traced, handles.subgraph_oracle,
                                handles.honest, f"{handles.seed}:analysis")


def test_an_untraced_run_keeps_no_records():
    """Without `keep_trace` a finished rawa+fse run holds no observation or
    walk record; the always-on records and the online state are there, and
    the same run with the trace kept has every kind of record."""
    config = ExperimentConfig(protocol="rawa", adversary="fse", n_peers=30,
                              runs=1, base_seed=4, rawa=RaWaConfig(p=0.2))
    runs = []
    for keep_trace in (False, True):
        handles = build_run(replace(config, keep_trace=keep_trace), 0)
        handles.sim.run()
        runs.append(handles)
    plain, traced = runs
    observer = plain.sim.observer
    assert plain.log.records == []
    assert observer.wf_sends == [] and observer.fh_sends == []
    assert observer.trace == []
    assert observer.terminations and observer.consumed
    assert plain.log.first_requests and plain.log.request_cids
    assert traced.log.records
    assert traced.sim.observer.wf_sends and traced.sim.observer.fh_sends
