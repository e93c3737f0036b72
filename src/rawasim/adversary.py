"""Adversary node behaviors and the deanonymization classifiers.

Three models share one observation pipeline: every message a controlled node
receives goes to one log, merged across the controlled nodes. As each
message arrives the log keeps only what the classifiers read; the full
time-ordered records are kept only under ``keep_trace``, for a replay. The
passive spy (fse) runs an unmodified honest engine underneath and stores no
blocks; the active exploiter (wfe) answers walk requests with a provider
list naming only itself so that deceived requesters reveal themselves with
a WANT-BLOCK; the subgraph-aware variant (sawfe) behaves identically on the
wire and only classifies differently, using the privacy subgraph as an
oracle input, so it runs wfe's wiring (`rawasim.topology.WIRING`) and one
run can score both.

Classifiers are pure functions of the log's state, the oracle inputs, and a
dedicated analysis RNG, so a replay with the same seed reproduces the same
prediction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (DONT_HAVE, FORWARD_HAVE, HAVE, REQUEST_TYPES, WANT_BLOCK,
                   WANT_FORWARD, WANT_HAVE, Cid, Message, PeerId, peer_name)
from .netsim import RngStream, WalkTag


class Observation(NamedTuple):
    adversary_node: PeerId
    sender: PeerId
    message: Message
    time: float


@dataclass
class ObservationLog:
    """What the controlled nodes heard, merged across them and appended in
    dispatch order, which is exactly (time, seq) order.

    `append` keeps, as each message arrives, the state the classifiers read:
    the request CIDs in first-seen order, per sender the CID of its first
    request-type message and of its first WANT-BLOCK (each dict in the order
    of the senders' first such message), and the ``(sender, cid)`` of every
    WANT-HAVE in order. An `Observation` record of every message is kept
    only under `keep_trace`, for `trace_lines`."""

    keep_trace: bool = False
    records: list[Observation] = field(default_factory=list)
    request_cids: dict[Cid, None] = field(default_factory=dict)
    first_requests: dict[PeerId, Cid] = field(default_factory=dict)
    first_want_blocks: dict[PeerId, Cid] = field(default_factory=dict)
    want_haves: list[tuple[PeerId, Cid]] = field(default_factory=list)

    def append(self, adversary_node: PeerId, sender: PeerId, message: Message,
               time: float) -> None:
        if self.keep_trace:
            self.records.append(Observation(adversary_node, sender, message, time))
        variant = message.variant
        if variant not in REQUEST_TYPES:
            return
        cid = message.cid
        if cid not in self.request_cids:
            self.request_cids[cid] = None
        if sender not in self.first_requests:
            self.first_requests[sender] = cid
        if variant is WANT_HAVE:
            self.want_haves.append((sender, cid))
        elif variant is WANT_BLOCK and sender not in self.first_want_blocks:
            self.first_want_blocks[sender] = cid

    def observed_request_cids(self) -> list[Cid]:
        return list(self.request_cids)

    def trace_lines(self):
        for rec in self.records:
            yield (f"{rec.time:.6f},{peer_name(rec.adversary_node)},"
                   f"{peer_name(rec.sender)},{rec.message.variant.value},"
                   f"{rec.message.cid.short()}")


@dataclass
class Prediction:
    links: dict[PeerId, Cid] = field(default_factory=dict)
    abstained: set[PeerId] = field(default_factory=set)


class SpyTap:
    """Protocol-compliant passive node: hands everything it receives to the
    log, then behaves exactly like the wrapped honest engine."""

    def __init__(self, node: PeerId, inner, log: ObservationLog):
        self.node = node
        self.inner = inner
        self.log = log
        # the inner engine's weak reference to the simulator
        self._sim = inner._sim

    def handle_message(self, frm: PeerId, msg: Message,
                       tag: WalkTag | None = None) -> None:
        self.log.append(self.node, frm, msg, self._sim().now)
        self.inner.handle_message(frm, msg, tag)


class ExploiterNode:
    """Active node: immediately claims to provide whatever walk request or
    presence probe it sees, and hands everything it receives to the log,
    which keeps the first WANT-BLOCK of each requester that falls for it. It
    holds the simulator weakly, as honest engines do."""

    def __init__(self, node: PeerId, sim, log: ObservationLog,
                 fake_have: bool = True):
        self.node = node
        self._sim = weakref.ref(sim)
        self.log = log
        self.fake_have = fake_have

    def handle_message(self, frm: PeerId, msg: Message,
                       tag: WalkTag | None = None) -> None:
        sim = self._sim()
        self.log.append(self.node, frm, msg, sim.now)
        variant = msg.variant
        if variant is WANT_FORWARD:
            sim.send(self.node, frm,
                     Message(FORWARD_HAVE, msg.cid, providers=(self.node,)))
        elif variant is WANT_HAVE:
            reply = HAVE if self.fake_have else DONT_HAVE
            sim.send(self.node, frm, sim.message(reply, msg.cid))
        elif variant is WANT_BLOCK:
            sim.send(self.node, frm, sim.message(DONT_HAVE, msg.cid))
        # responses addressed to us carry no obligation


# -- classifiers ------------------------------------------------------------


def _random_fill(prediction: Prediction, population, observed: list[Cid],
                 rng: RngStream) -> None:
    for peer in sorted(population):
        if peer in prediction.links:
            continue
        if observed:
            prediction.links[peer] = observed[rng.randrange(len(observed))]
        else:
            prediction.abstained.add(peer)


def _of_population(first: dict[PeerId, Cid], population) -> dict[PeerId, Cid]:
    pop = set(population)
    return {sender: cid for sender, cid in first.items() if sender in pop}


def fse_classify(log: ObservationLog, population, rng: RngStream) -> Prediction:
    """Link each peer to the CID of the first request-type message received
    from it; unobserved peers get a uniformly drawn observed CID."""
    prediction = Prediction(links=_of_population(log.first_requests, population))
    _random_fill(prediction, population, log.observed_request_cids(), rng)
    return prediction


def wfe_classify(log: ObservationLog, population, rng: RngStream) -> Prediction:
    """Link each peer to the CID of the first WANT-BLOCK received from it."""
    prediction = Prediction(links=_of_population(log.first_want_blocks,
                                                 population))
    _random_fill(prediction, population, log.observed_request_cids(), rng)
    return prediction


def sawfe_classify(log: ObservationLog, subgraph: dict[PeerId, tuple],
                   population, rng: RngStream) -> Prediction:
    """Stage 1 as wfe_classify; stage 2 walks the observed WANT-HAVE
    broadcasts and assigns each CID to one still-unclassified direct
    predecessor of the broadcasting proxy in the known privacy subgraph."""
    prediction = Prediction(links=_of_population(log.first_want_blocks,
                                                 population))
    pop = set(population)
    predecessors: dict[PeerId, list[PeerId]] = {}
    for holder in sorted(subgraph):
        for succ in subgraph[holder]:
            predecessors.setdefault(succ, []).append(holder)
    for proxy, cid in log.want_haves:
        if proxy not in pop:
            continue
        candidates = [q for q in predecessors.get(proxy, ())
                      if q in pop and q not in prediction.links]
        if candidates:
            pick = candidates[rng.randrange(len(candidates))]
            prediction.links[pick] = cid
    _random_fill(prediction, population, log.observed_request_cids(), rng)
    return prediction
