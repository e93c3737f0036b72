"""Adversary node behaviors and the offline deanonymization classifiers.

Three models share one observation pipeline: every message a controlled node
receives is appended to a merged, time-ordered log. The passive spy (fse)
runs an unmodified honest engine underneath and stores no blocks; the active
exploiter (wfe) answers walk requests with a provider list naming only
itself so that deceived requesters reveal themselves with a WANT-BLOCK; the
subgraph-aware variant (sawfe) behaves identically on the wire and only
classifies differently, using the privacy subgraph as an oracle input, so
it runs wfe's wiring (`rawasim.topology.WIRING`) and one run can score both.

Classifiers are pure functions of the log, the oracle inputs, and a
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
    """Merged across all controlled nodes; appended in dispatch order, which
    is exactly (time, seq) order."""

    records: list[Observation] = field(default_factory=list)

    def append(self, adversary_node: PeerId, sender: PeerId, message: Message,
               time: float) -> None:
        self.records.append(Observation(adversary_node, sender, message, time))

    def observed_request_cids(self) -> list[Cid]:
        seen: dict[Cid, None] = {}
        for rec in self.records:
            if rec.message.variant in REQUEST_TYPES:
                seen.setdefault(rec.message.cid)
        return list(seen)

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
    """Protocol-compliant passive node: logs everything it receives, then
    behaves exactly like the wrapped honest engine."""

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
    presence probe it sees, and logs the WANT-BLOCKs that fall for it. It
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


def fse_classify(log: ObservationLog, population, rng: RngStream) -> Prediction:
    """Link each peer to the CID of the first request-type message received
    from it; unobserved peers get a uniformly drawn observed CID."""
    prediction = Prediction()
    pop = set(population)
    for rec in log.records:
        if rec.sender in pop and rec.sender not in prediction.links \
                and rec.message.variant in REQUEST_TYPES:
            prediction.links[rec.sender] = rec.message.cid
    _random_fill(prediction, population, log.observed_request_cids(), rng)
    return prediction


def _first_want_blocks(log: ObservationLog, population) -> dict[PeerId, Cid]:
    links: dict[PeerId, Cid] = {}
    pop = set(population)
    for rec in log.records:
        if rec.sender in pop and rec.sender not in links \
                and rec.message.variant is WANT_BLOCK:
            links[rec.sender] = rec.message.cid
    return links


def wfe_classify(log: ObservationLog, population, rng: RngStream) -> Prediction:
    """Link each peer to the CID of the first WANT-BLOCK received from it."""
    prediction = Prediction(links=_first_want_blocks(log, population))
    _random_fill(prediction, population, log.observed_request_cids(), rng)
    return prediction


def sawfe_classify(log: ObservationLog, subgraph: dict[PeerId, tuple],
                   population, rng: RngStream) -> Prediction:
    """Stage 1 as wfe_classify; stage 2 walks the observed WANT-HAVE
    broadcasts and assigns each CID to one still-unclassified direct
    predecessor of the broadcasting proxy in the known privacy subgraph."""
    prediction = Prediction(links=_first_want_blocks(log, population))
    pop = set(population)
    predecessors: dict[PeerId, list[PeerId]] = {}
    for holder in sorted(subgraph):
        for succ in subgraph[holder]:
            predecessors.setdefault(succ, []).append(holder)
    for rec in log.records:
        if rec.message.variant is not WANT_HAVE:
            continue
        proxy = rec.sender
        if proxy not in pop:
            continue
        candidates = [q for q in predecessors.get(proxy, ())
                      if q in pop and q not in prediction.links]
        if candidates:
            pick = candidates[rng.randrange(len(candidates))]
            prediction.links[pick] = rec.message.cid
    _random_fill(prediction, population, log.observed_request_cids(), rng)
    return prediction
