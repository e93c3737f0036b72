"""Protocol properties checked over random small runs with hypothesis."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawasim import core, rawa, runner
from rawasim.adversary import fse_classify
from rawasim.core import Block, Cid, MessageType, validate_block
from rawasim.engine import DONE, HonestEngine
from rawasim.metrics import aggregate
from rawasim.netsim import Observer, Simulator, WalkTag
from rawasim.rawa import RaWaConfig, RawaEngine
from rawasim.runner import (ExperimentConfig, build_run, collect_metrics,
                            result_rows, run_experiment, run_shared)


@st.composite
def small_configs(draw, adversaries=("none", "fse", "wfe")):
    """A one-run config; a wfe config has 5, 10 or 15 peers, so that it
    splits 4:1 into honest and adversary nodes, and draws `wfe_fake_have`."""
    adversary = draw(st.sampled_from(adversaries))
    if adversary == "wfe":
        n_peers = 5 * draw(st.integers(1, 3))
    else:
        n_peers = draw(st.integers(5, 14))
    n_honest = ExperimentConfig(adversary=adversary, n_peers=n_peers,
                                out_links=1).n_honest
    churn = draw(st.lists(
        st.tuples(st.integers(0, n_honest - 1),
                  st.floats(0.0, 3000.0, allow_nan=False)),
        max_size=3, unique_by=lambda c: c[0]))
    return ExperimentConfig(
        protocol=draw(st.sampled_from(["vanilla", "rawa"])),
        adversary=adversary, n_peers=n_peers,
        out_links=draw(st.integers(1, min(3, n_honest - 1))),
        runs=1, base_seed=draw(st.integers(0, 2**32 - 1)),
        churn=tuple(churn), stagger_ms=draw(st.sampled_from([0.0, 150.0])),
        give_up_ms=draw(st.sampled_from([2500.0, 6000.0])),
        keep_trace=True,
        wfe_fake_have=draw(st.booleans()) if adversary == "wfe" else True,
        rawa=RaWaConfig(p=draw(st.sampled_from([0.2, 0.5, 1.0])),
                        eta=draw(st.sampled_from([1, 2, None])),
                        verify_provider=draw(st.booleans())))


def recording(method, expected: Counter):
    """Wrap a search-completing method: when it completes a search, count
    one expected CANCEL per queried peer that is still reachable."""
    def wrapper(self, search, *args):
        if search.state is not DONE:
            for peer in search.queried:
                if self.sim.reachable(self.node, peer):
                    expected[(self.node, peer, search.cid.short())] += 1
        return method(self, search, *args)
    return wrapper


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_want_have_and_cancel_pair_up(config):
    """Per (sender, recipient, cid): no more CANCELs than WANT-HAVEs, and
    exactly one CANCEL from each completed search (a requester that got the
    block, a proxy that answered) to each of its queried peers still
    reachable then; failed requests and silent proxies send none."""
    expected: Counter = Counter()
    with patch.object(HonestEngine, "_complete",
                      recording(HonestEngine._complete, expected)), \
            patch.object(RawaEngine, "_answer",
                         recording(RawaEngine._answer, expected)):
        handles = build_run(config, 0)
        handles.sim.run()
    sent = {"WANT-HAVE": Counter(), "CANCEL": Counter()}
    for _, _, kind, frm, to, variant, cid8, _ in handles.sim.observer.trace:
        if kind == "send" and variant in sent:
            sent[variant][(frm, to, cid8)] += 1
    for key, cancels in sent["CANCEL"].items():
        assert cancels <= sent["WANT-HAVE"][key], key
    assert sent["CANCEL"] == expected


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_no_send_on_a_non_edge(config):
    """Every message put on the wire, alone or in a fan-out, joins two live
    neighbours at that moment. The edge set is kept apart from the simulator's: the built
    topology, plus each edge a dial adds, minus every edge of a node that
    departs. After the run, one fan-out from a random live node to every
    live node must reach only that node's neighbours: a run's own fan-outs
    go to neighbours or former neighbours, so they cannot tell a skipped
    adjacency test from a skipped liveness test."""
    handles = build_run(config, 0)
    sim = handles.sim
    edges = {frozenset((a, b)) for a in sim.nodes() for b in sim.neighbors(a)}
    alive = set(sim.nodes())
    bad = []
    add_edge = Simulator.add_edge
    depart = Simulator._depart
    record_send = Observer.record_send
    record_fan_out = Observer.record_fan_out

    def adding(self, a, b):
        edges.add(frozenset((a, b)))
        add_edge(self, a, b)

    def departing(self, node):
        if node in alive:
            alive.discard(node)
            edges.difference_update([e for e in edges if node in e])
        depart(self, node)

    def check(time, frm, to, msg):
        if frozenset((frm, to)) not in edges or not {frm, to} <= alive:
            bad.append((time, frm, to, msg.variant.value))

    def recording_send(self, time, seq, frm, to, msg, tag):
        check(time, frm, to, msg)
        record_send(self, time, seq, frm, to, msg, tag)

    def recording_fan_out(self, time, first_seq, frm, recipients, msg):
        for to in recipients:
            check(time, frm, to, msg)
        record_fan_out(self, time, first_seq, frm, recipients, msg)

    with patch.object(Simulator, "add_edge", adding), \
            patch.object(Simulator, "_depart", departing), \
            patch.object(Observer, "record_send", recording_send), \
            patch.object(Observer, "record_fan_out", recording_fan_out):
        sim.run()
        live = sorted(alive)
        sim.fan_out(live[sim.rng.randrange(len(live))], live,
                    sim.message(MessageType.WANT_HAVE, Block(b"probe", 5).cid))
    assert bad == []


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_forward_haves_retrace_their_walk(config):
    """Every FORWARD-HAVE hop ``x -> y`` of a walk reverses an earlier
    WANT-FORWARD hop ``y -> x`` of the same walk, through re-transmissions,
    departures and relays shared by walks for one CID."""
    handles = build_run(config, 0)
    handles.sim.run()
    observer = handles.sim.observer
    first_forward: dict = {}
    for walk, _, _, frm, to, time in observer.wf_sends:
        first_forward.setdefault((walk, frm, to), time)
    for walk, frm, to, time in observer.fh_sends:
        assert first_forward.get((walk, to, frm), float("inf")) <= time, \
            (walk, frm, to, time)


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_walk_tags_extend_hop_by_hop(config):
    """A walk's tag grows one hop per relay: a hop-1 WANT-FORWARD leaves the
    walk's requester, every WANT-FORWARD ``x -> y`` of walk w at hop h > 1
    with retx r follows a WANT-FORWARD of w into x at hop h - 1 with the
    same r, and every termination of w at a node follows a WANT-FORWARD of
    w into that node with the same hop and retx."""
    handles = build_run(config, 0)
    handles.sim.run()
    observer = handles.sim.observer
    first_into: dict = {}
    for walk, retx, hop, frm, to, time in observer.wf_sends:
        first_into.setdefault((walk, retx, hop, to), time)
        if hop == 1:
            assert frm == walk[0], (walk, retx, hop, frm, to, time)
        else:
            assert first_into.get((walk, retx, hop - 1, frm), time) < time, \
                (walk, retx, hop, frm, to, time)
    for walk, retx, hop, node, time in observer.terminations:
        assert first_into.get((walk, retx, hop, node), time) < time, \
            (walk, retx, hop, node, time)


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_every_completed_block_validates(config):
    """A request completes only with a block in the requester's store that
    hashes to the CID it asked for."""
    handles = build_run(config, 0)
    handles.sim.run()
    for node, (cid, *_) in handles.sim.observer.completions.items():
        block = handles.engines[node].store.get(cid)
        assert block is not None and validate_block(cid, block), (node, cid)


@settings(max_examples=60, deadline=None)
@given(small_configs(), st.sampled_from([None, 1500.0]))
def test_every_message_event_and_byte_is_accounted_for(config, bound):
    """Run to quiescence or to a bound, then:
    - messages: send rows = the per-variant counts = deliver rows +
      in-flight-loss and no-engine drops + deliveries still pending;
    - events: executed = deliver rows + timer rows + those two drop kinds +
      the timers that fired for a departed node, which leave no row; there
      are none without churn;
    - bytes: the total = the per-variant bytes = the sizes of the send rows."""
    handles = build_run(config, 0)
    sim = handles.sim
    executed = sim.run(until=bound)
    observer = sim.observer
    rows = Counter(row[2] for row in observer.trace)
    drops = Counter(drop[5] for drop in observer.drops)
    lost = drops["in-flight-loss"] + drops["no-engine"]
    pending = sum(len(event) == 6 for event in sim._ready[sim._next:] + sim._later)
    assert rows["send"] == sum(observer.msg_counts.values()) \
        == rows["deliver"] + lost + pending
    departed_timers = executed - rows["deliver"] - rows["timer"] - lost
    assert departed_timers >= 0 if config.churn else departed_timers == 0
    assert observer.bytes_total == sum(observer.bytes_by_variant.values()) \
        == sum(row[7] for row in observer.trace if row[2] == "send")


@settings(max_examples=40, deadline=None)
@given(small_configs(adversaries=("wfe",)), st.integers(1, 2), st.booleans())
def test_sawfe_scored_from_its_wfe_twin_equals_a_sawfe_run(config, runs,
                                                           sawfe_builds):
    """sawfe only classifies differently from wfe, so a sawfe config run on
    its own gives the CSV rows and the summary that scoring it from its wfe
    twin's runs gives, whichever of the two builds the runs."""
    wfe = replace(config, runs=runs)
    sawfe = replace(wfe, adversary="sawfe")
    twins = [sawfe, wfe] if sawfe_builds else [wfe, sawfe]
    shared = dict(zip(twins, run_shared(twins)))
    for alone in (sawfe, wfe):
        results = run_experiment(alone)
        assert list(result_rows(alone, shared[alone])) == \
            list(result_rows(alone, results))
        assert aggregate([r.metrics for r in shared[alone]]) == \
            aggregate([r.metrics for r in results])
        assert [r.fingerprint for r in shared[alone]] == \
            [alone.fingerprint()] * runs


def renamed(value, cids: dict, shorts: dict):
    """`value` as nested lists and dicts, with each CID in `cids` and each
    short CID in `shorts` (a trace field, or a timer label's tail) renamed."""
    if isinstance(value, Cid):
        return cids.get(value, value)
    if isinstance(value, (tuple, list)):
        return [renamed(item, cids, shorts) for item in value]
    if isinstance(value, dict):
        return {renamed(key, cids, shorts): renamed(item, cids, shorts)
                for key, item in value.items()}
    if isinstance(value, str):
        head, sep, tail = value.rpartition(":")
        return f"{head}{sep}{shorts.get(tail, tail)}"
    return value


def full_trace(handles) -> list:
    """What `tests/golden.py` digests of a finished run."""
    sim = handles.sim
    obs = sim.observer
    log = [(rec.time, rec.adversary_node, rec.sender, rec.message.variant,
            rec.message.cid, rec.message.providers, rec.message.size)
           for rec in handles.log.records]
    return [obs.trace, log, obs.drops, obs.wf_sends, obs.fh_sends,
            obs.terminations, obs.completions, sorted(obs.failures),
            obs.consumed, (sim.now, sim._seq, sim.rng.getstate())]


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_no_result_depends_on_a_cid_value(config):
    """Nothing orders or branches on a CID's value: with every block keyed
    another way (salted, so still one CID per block), a run gives the same
    CSV rows and aggregate, and the same full trace, clock, sequence number
    and RNG state once each CID is renamed to its counterpart."""
    outcomes = []
    for salt in (b"", b"salted:"):
        def make_blocks(seeds, size, salt=salt):
            return [Block(salt + block.payload, size)
                    for block in core.make_blocks(seeds, size)]
        with patch.object(runner, "make_blocks", make_blocks):
            results = run_experiment(config)
            handles = build_run(config, 0)
        cids = list(handles.dht.table)  # each node's block, in node order
        handles.sim.run(until=config.run_bound_ms)
        outcomes.append((list(result_rows(config, results)),
                         aggregate([r.metrics for r in results]),
                         cids, full_trace(handles)))
    (rows, summary, cids, trace), (salted_rows, salted_summary,
                                   salted_cids, salted_trace) = outcomes
    assert rows == salted_rows and summary == salted_summary
    names = dict(zip(cids, salted_cids))
    shorts = {cid.short(): names[cid].short() for cid in cids}
    assert len(set(shorts.values())) == len(cids)
    assert renamed(trace, names, shorts) == renamed(salted_trace, {}, {})


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_no_protocol_decision_reads_a_walk_tag(config):
    """A `WalkTag` is bookkeeping, not a wire field: with every tag the rawa
    engine builds replaced by one constant tag, a rawa run gives the same
    trace, adversary log, drops, completions and failures, the same clock,
    sequence number and RNG state, and the same precision and recall."""
    config = replace(config, protocol="rawa")
    constant = WalkTag((-1, None, 0), 1, 0)
    outcomes = []
    for tags in (WalkTag, lambda walk, hop, retx: constant):
        with patch.object(rawa, "WalkTag", tags):
            handles = build_run(config, 0)
            handles.sim.run()
        sim = handles.sim
        obs = sim.observer
        metrics = collect_metrics(handles)
        outcomes.append((obs.trace, list(handles.log.trace_lines()), obs.drops,
                         obs.completions, obs.failures,
                         (sim.now, sim._seq, sim.rng.getstate()),
                         metrics.precision, metrics.recall))
    assert outcomes[0] == outcomes[1]


# -- closed form ---------------------------------------------------------------

FIRST_HOP_SEEDS = 300  # per out_links; the first FULL_RUNS also run to the end
FULL_RUNS = 30


@pytest.mark.parametrize("out_links", [1, 2, 3, 4])
def test_spy_is_a_first_hop_as_often_as_one_over_degree(out_links):
    """With eta max a requester's successors are all its neighbours and its
    first hop is uniform over them, so the fse spy, linked to every honest
    node, gets walk 0's first WANT-FORWARD from requester v with
    probability 1/deg(v), the spy counted in the degree. Over fixed seeds
    the requesters it gets one from number within 3 sigma of the sum of
    those probabilities. That WANT-FORWARD is the first request the spy
    gets from v, so on a full run `fse_classify` links v correctly."""
    mean = var = 0.0
    hits = 0
    for seed in range(FIRST_HOP_SEEDS):
        config = ExperimentConfig(protocol="rawa", adversary="fse", n_peers=41,
                                  out_links=out_links, runs=1, base_seed=seed,
                                  rawa=RaWaConfig(eta=None), keep_trace=True)
        handles = build_run(config, 0)
        sim, spy = handles.sim, handles.adversaries[0]
        for v in handles.honest:
            p = 1 / len(sim.neighbors(v))
            mean += p
            var += p * (1 - p)
        sim.run(until=1.0)  # every request fires at 0, before any dial
        first_hop = {frm: to for walk, retx, hop, frm, to, _
                     in sim.observer.wf_sends
                     if walk[2] == 0 and retx == 0 and hop == 1}
        assert sorted(first_hop) == handles.honest
        linked = [v for v, to in first_hop.items() if to == spy]
        hits += len(linked)
        if seed < FULL_RUNS:
            sim.run()
            prediction = fse_classify(handles.log, handles.honest, Random(0))
            for v in linked:
                assert prediction.links[v] == handles.truth.interests[v], (seed, v)
    assert abs(hits - mean) <= 3 * math.sqrt(var), (hits, mean, var)
