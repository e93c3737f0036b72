"""Random-walk content discovery engine.

Instead of broadcasting interest, a requester hands a WANT-FORWARD to one
successor drawn from its privacy subgraph. Each receiver either relays the
request to one of its own successors (probability ``1 - p``) or becomes the
proxy (probability ``p``), runs the baseline neighbor discovery of
`rawasim.engine` on behalf of the unknown origin, and returns the provider
list along the reversed walk with FORWARD-HAVE. The requester then fetches
directly from one provider, which is the only peer that ever learns its
interest; the fetch is the shared one in `rawasim.engine`, optionally
preceded by a WANT-HAVE that verifies the provider.

A relay keeps one table per direction. Forward, ``entries`` maps
``(cid, predecessor)`` to the successor a new walk step drew; every later
WANT-FORWARD from that predecessor for that CID follows it until a collapse
deletes it. Back, ``sent`` maps each CID's successors to the predecessor
and tag of the step relayed to them (None for this node's own first hop);
loop reduction never hands one CID's walks the same successor twice, so a
returning FORWARD-HAVE finds its walk with one lookup. Loop reduction draws
uniformly over the live successors not yet used for the CID
(`draw_successor`), without building that filtered set: one ``randrange``
over its size, mapped onto the sorted successors by skipping the excluded
ones. The proxy role is ``cid in proxies`` and, once taken, ends every new
walk step for that CID.

Churn handling: the requester re-transmits on ``t0``; relays route repeat
requests to the recorded successor and collapse into the proxy role when
that successor is gone, so a re-transmitted walk is a prefix of the original.
A requester-side fallback lookup fires every ``u`` until a global give-up
bound.

Walk messages travel with a `rawasim.netsim.WalkTag` (walk id, hop,
re-transmission count). It is simulator bookkeeping for the `Observer`, not
a wire field, and no routing decision reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .core import (BLOCK, CANCEL, DONT_HAVE, FORWARD_HAVE, HAVE, WANT_BLOCK,
                   WANT_FORWARD, WANT_HAVE, Cid, Message, PeerId,
                   check_field_types)
from .engine import (DONE, FAILED, FETCHING, SEARCHING, FetchSession,
                     HonestEngine, Search)
from .netsim import HORIZON_MS, RngStream, WalkTag


def path_length_probability(p: float, e: int) -> float:
    """Probability that a walk has entered the proxy phase within `e` hops."""
    if not (0 < p <= 1):
        raise ValueError("p must be in (0, 1]")
    if e < 1:
        raise ValueError("e must be >= 1")
    return 1.0 - (1.0 - p) ** e


@dataclass(frozen=True)
class RaWaConfig:
    p: float = 0.2
    eta: int | None = None  # None means "all neighbors"
    t0_ms: float = 1000.0   # requester re-transmit interval
    # two roles: the proxy's quiet period before its index lookup, and the
    # requester's fetch-attempt timeout (both `HonestEngine.t1_ms`),
    # so a t1 sweep also changes how fast a requester abandons a silent
    # provider; vanilla fixes that timeout at 1 s
    t1_ms: float = 1000.0
    u_ms: float = 2000.0    # requester fallback-lookup timer
    rebuild_ms: float = 540_000.0
    verify_provider: bool = False
    # > 0: the proxy waits this long after the first HAVE and answers with
    # everything collected; 0 answers on the first HAVE alone.
    forward_have_aggregation_ms: float = 0.0
    # True: the proxy always completes a provider-index lookup and answers
    # with the merged list instead of trusting the first HAVE.
    proxy_aggregate_dht: bool = False

    def __post_init__(self) -> None:
        check_field_types(self, ("p", "t0_ms", "t1_ms", "u_ms", "rebuild_ms",
                                 "forward_have_aggregation_ms"),
                          ("verify_provider", "proxy_aggregate_dht"))
        if not (0 < self.p <= 1):
            raise ValueError("p must be in (0, 1]")
        eta = self.eta
        if eta is not None and (isinstance(eta, bool) or not isinstance(eta, int)
                                or eta < 1):
            raise ValueError("eta must be an integer >= 1 (or None for all "
                             f"neighbors), not {eta!r}")
        if not (self.u_ms > self.t1_ms and self.u_ms > self.t0_ms):
            raise ValueError("require u > t1 and u > t0")
        # t0 and t1 re-arm while a request is open: a period under 1 ms
        # floods the event set, and one below the clock's resolution never
        # moves it; u exceeds both
        if not (1 <= self.t0_ms <= HORIZON_MS and 1 <= self.t1_ms <= HORIZON_MS):
            raise ValueError("t0_ms and t1_ms must lie in [1, 2**43] ms")
        # an infinite u_ms means no fallback lookup
        if not (self.u_ms <= HORIZON_MS or self.u_ms == math.inf):
            raise ValueError("u_ms must be at most 2**43 ms (or infinite)")
        if not 0 <= self.forward_have_aggregation_ms <= HORIZON_MS:
            raise ValueError("forward_have_aggregation_ms must lie in [0, 2**43] ms")


def build_forward_graph(neighbors, eta: int | None,
                        rng: RngStream) -> tuple[PeerId, ...]:
    """The sorted successors: a uniform sample without replacement of
    min(eta, degree) neighbors."""
    pool = sorted(neighbors)
    if not pool:
        raise ValueError("need at least one neighbor")
    k = len(pool) if eta is None else min(eta, len(pool))
    return tuple(sorted(rng.sample(pool, k)))


def draw_successor(live: tuple[PeerId, ...], exclude,
                   rng: RngStream) -> PeerId | None:
    """A uniform pick from the sorted `live` successors that are not in
    `exclude`, or None, with no draw, when none is left. It makes the one
    ``randrange`` of indexing the filtered tuple and picks the same peer,
    without building that tuple: excluded peers that are not live are
    ignored and duplicates count once."""
    size = len(live)
    skip = set()
    for peer in exclude:
        i = bisect_left(live, peer)
        if i < size and live[i] == peer:
            skip.add(i)
    size -= len(skip)
    if not size:
        return None
    k = rng.randrange(size)
    # the k-th kept successor: step over every excluded index at or below it
    for i in sorted(skip):
        if i > k:
            break
        k += 1
    return live[k]


@dataclass
class ProxySession(Search):
    """A proxy's search; DONE once it has answered the walks."""

    # predecessor -> tag of the walk that ended here
    preds: dict[PeerId, WalkTag] = field(default_factory=dict)
    # providers in the order they were found
    found: dict[PeerId, None] = field(default_factory=dict)
    # the FORWARD-HAVE sent when DONE, and again to every later walk
    answer: Message | None = None
    answer_pending: bool = False


@dataclass
class RequesterSession(FetchSession):
    first_hop: PeerId | None = None
    walk_serial: int = 0
    retx_count: int = 0
    verified: bool = False  # the current target answered the verify WANT-HAVE

    def walk_id(self, node: PeerId) -> tuple:
        return (node, self.cid, self.walk_serial)


class RawaEngine(HonestEngine):
    session_type = RequesterSession

    def __init__(self, node, sim, dht, config: RaWaConfig, **kwargs):
        super().__init__(node, sim, dht, **kwargs)
        self.config = config
        self.t1_ms = config.t1_ms
        self.graph: tuple[PeerId, ...] | None = None
        # (departures, the graph's reachable successors at that count)
        self._live: tuple = (-1, ())
        # (cid, predecessor) -> successor of a relayed step
        self.entries: dict[tuple[Cid, PeerId], PeerId] = {}
        # cid -> successor -> (predecessor, tag) of the step relayed to it,
        # or None for the first hop of this node's own walk
        self.sent: dict[Cid, dict[PeerId, tuple[PeerId, WalkTag] | None]] = {}
        self.proxies: dict[Cid, ProxySession] = {}

    # -- privacy subgraph ---------------------------------------------------

    def build_graph(self) -> None:
        sim = self._sim()
        self.graph = build_forward_graph(sim.neighbors(self.node),
                                         self.config.eta, sim.rng)
        self._live = (-1, ())

    def _live_successors(self) -> tuple[PeerId, ...]:
        sim = self._sim()
        departures = sim.departures
        epoch, live = self._live
        if epoch != departures:
            # successors are neighbors when the graph is built; only a
            # departure can make one unreachable
            live = tuple(s for s in self.graph if sim.reachable(self.node, s))
            self._live = (departures, live)
        return live

    # -- requester ----------------------------------------------------------

    def _discover(self, session: RequesterSession) -> None:
        self._start_walk(session, fresh=False)
        self._arm(session, self.config.t0_ms, "t0", self._t0_tick)
        self._arm(session, self.config.u_ms, "u", self._u_tick)

    def _start_walk(self, session: RequesterSession, fresh: bool) -> None:
        if fresh:
            session.walk_serial += 1
        candidates = self._live_successors()
        if not candidates:
            session.first_hop = None
            return
        session.first_hop = candidates[self._sim().rng.randrange(len(candidates))]
        self.sent.setdefault(session.cid, {}).setdefault(session.first_hop)
        self._send_want_forward(session, retx=0)

    def _send_want_forward(self, session: RequesterSession, retx: int) -> None:
        sim = self._sim()
        sim.send(self.node, session.first_hop,
                 sim.message(WANT_FORWARD, session.cid),
                 WalkTag(session.walk_id(self.node), 1, retx))

    def _t0_tick(self, session: RequesterSession) -> None:
        if session.state is SEARCHING:
            if session.first_hop is not None and \
                    self._sim().reachable(self.node, session.first_hop):
                session.retx_count += 1
                self._send_want_forward(session, retx=session.retx_count)
            else:
                self._start_walk(session, fresh=True)
        self._arm(session, self.config.t0_ms, "t0", self._t0_tick)

    def _u_tick(self, session: RequesterSession) -> None:
        if session.state is SEARCHING:
            self._query_index(session, self._offer)
        self._arm(session, self.config.u_ms, "u", self._u_tick)

    def _attempt(self, session: RequesterSession, peer: PeerId) -> None:
        session.verified = False
        super()._attempt(session, peer)

    def _exchange(self, session: RequesterSession) -> None:
        if self.config.verify_provider and not session.verified:
            session.queried = tuple(sorted({*session.queried, session.target}))
            sim = self._sim()
            sim.send(self.node, session.target, sim.message(WANT_HAVE, session.cid))
            self._arm_attempt(session)
        else:
            super()._exchange(session)

    # -- relay manager ------------------------------------------------------

    def _on_want_forward(self, frm: PeerId, cid: Cid, tag: WalkTag) -> None:
        """Route a walk step: a repeat from a known predecessor follows its
        entry, a new one draws its next hop; then relay or be the proxy."""
        sim = self._sim()
        key = (cid, frm)
        successor = self.entries.get(key)
        if successor is None:
            successor = self._next_hop(cid, frm)
            if successor is not None:
                self.entries[key] = successor
                self.sent.setdefault(cid, {})[successor] = (frm, tag)
        elif not sim.reachable(self.node, successor):
            # recorded successor is gone: collapse into the proxy role
            del self.entries[key]
            successor = None
        if successor is None:
            self._become_proxy(cid, frm, tag)
            return
        sim.send(self.node, successor, sim.message(WANT_FORWARD, cid),
                 WalkTag(tag.walk, tag.hop + 1, tag.retx))

    def _next_hop(self, cid: Cid, frm: PeerId) -> PeerId | None:
        """The successor a new walk step from `frm` goes to, or None for
        the proxy role, which a node keeps for a CID once it has it."""
        if cid in self.proxies:
            return None
        rng = self._sim().rng
        sent = self.sent.get(cid)
        if sent:
            # loop reduction: only successors that have not seen this cid yet
            return draw_successor(self._live_successors(), (*sent, frm), rng)
        if rng.random() < self.config.p:
            return None
        live = self._live_successors()
        successor = draw_successor(live, (frm,), rng)
        # peer ids start at 0: test for None, never truthiness
        if successor is None:
            successor = draw_successor(live, (), rng)
        return successor

    # -- proxy --------------------------------------------------------------

    def _become_proxy(self, cid: Cid, pred: PeerId, tag: WalkTag) -> None:
        """End the walk from `pred` here. The first walk for `cid` starts
        the search; a later walk, or a repeat of one, gets the answer if
        there is one. A repeat keeps the tag its walk first ended with."""
        sim = self._sim()
        session = self.proxies.get(cid)
        new = session is None
        if new:
            session = self.proxies[cid] = ProxySession(cid=cid, started_at=sim.now)
        if pred not in session.preds:
            session.preds[pred] = tag
            sim.observer.walk_terminated(tag, self.node, sim.now)
        if session.state is DONE:
            self._send_answer(session, pred)
        elif new:
            if cid in self.store:
                session.found[self.node] = None
                self._answer(session)
            else:
                self._broadcast(session)

    def _on_index(self, session: ProxySession, providers: list[PeerId]) -> None:
        session.found.update(dict.fromkeys(providers))
        if session.found:
            self._answer(session)
        # otherwise retry, then stay silent; the requester's own fallback
        # covers this

    def _proxy_have(self, session: ProxySession, frm: PeerId) -> None:
        if session.state is DONE:
            return
        session.last_activity = self._sim().now
        session.found.setdefault(frm)
        if self.config.proxy_aggregate_dht:
            self._lookup(session)
            return
        window = self.config.forward_have_aggregation_ms
        if window <= 0:
            self._answer(session)
        elif not session.answer_pending:
            session.answer_pending = True
            self._arm(session, window, "proxy-agg", self._answer)

    def _answer(self, session: ProxySession) -> None:
        session.answer = Message(FORWARD_HAVE, session.cid,
                                 providers=tuple(session.found))
        for pred in sorted(session.preds):
            self._send_answer(session, pred)
        self._close(session)

    def _send_answer(self, session: ProxySession, pred: PeerId) -> None:
        sim = self._sim()
        if sim.reachable(self.node, pred):
            sim.send(self.node, pred, session.answer, session.preds[pred])

    # -- return phase -------------------------------------------------------

    def _route_back(self, frm: PeerId, msg: Message, tag: WalkTag | None) -> None:
        cid = msg.cid
        sim = self._sim()
        handled = False
        back = self.sent.get(cid, {}).get(frm)
        if back is not None:
            pred, pred_tag = back
            # a collapsed entry (now the proxy role) is gone from `entries`
            if self.entries.get((cid, pred)) == frm:
                handled = True
                if sim.reachable(self.node, pred):
                    # the relayed copy is the received message itself
                    sim.send(self.node, pred, msg, pred_tag)
        session = self.sessions.get(cid)
        if session is not None and session.state not in (DONE, FAILED):
            handled = True
            if tag is not None:
                sim.observer.fh_consumed(self.node, tag.walk)
            self._offer(session, msg.providers)
        if not handled:
            sim.observer.record_drop(sim.now, frm, self.node, msg,
                                     "stray-forward-have")

    # -- message dispatch ---------------------------------------------------

    def handle_message(self, frm: PeerId, msg: Message,
                       tag: WalkTag | None = None) -> None:
        variant = msg.variant
        if variant is CANCEL:
            return
        if variant is WANT_HAVE:
            self.reply_presence(frm, msg.cid)
            return
        if variant is WANT_FORWARD:
            self._on_want_forward(frm, msg.cid, tag)
            return
        if variant is FORWARD_HAVE:
            self._route_back(frm, msg, tag)
            return
        if variant is WANT_BLOCK:
            self.serve_block(frm, msg.cid)
            return
        # HAVE / DONT-HAVE / BLOCK: requester attempt first, then proxy
        session = self.sessions.get(msg.cid)
        if session is not None and session.state is FETCHING and frm == session.target:
            if variant is not HAVE:
                self._on_answer(session, msg)
            elif self.config.verify_provider and not session.verified:
                session.verified = True
                session.attempt_serial += 1
                self._exchange(session)
            return
        proxy = self.proxies.get(msg.cid)
        if proxy is not None:
            if variant is HAVE:
                self._proxy_have(proxy, frm)
            elif variant is DONT_HAVE:
                proxy.last_activity = self._sim().now
            return
        if session is not None and variant is BLOCK and \
                session.state not in (DONE, FAILED):
            self._on_block(session, msg)
            return
        sim = self._sim()
        sim.observer.record_drop(sim.now, frm, self.node, msg,
                                 "unmatched-response")
