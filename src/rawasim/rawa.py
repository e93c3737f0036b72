"""Random-walk content discovery engine.

Instead of broadcasting interest, a requester hands a WANT-FORWARD to one
successor drawn from its privacy subgraph. Each receiver either relays the
request to one of its own successors (probability ``1 - p``) or becomes the
proxy (probability ``p``), runs the baseline neighbor discovery on behalf of
the unknown origin, and returns the provider list along the reversed walk
with FORWARD-HAVE. The requester then fetches directly from one provider,
which is the only peer that ever learns its interest.

Churn handling: the requester re-transmits on ``t0``; relays route repeat
requests to the recorded successor and collapse into the proxy role when
that successor is gone, so a re-transmitted walk is a prefix of the original.
A requester-side fallback lookup fires every ``u`` until a global give-up
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (Cid, Message, MessageType, PeerId, ProviderRecord,
                   peer_name)
from .engine import HonestEngine
from .netsim import RngStream

WALKING = "walking"
EXCHANGING = "exchanging"
DONE = "done"
FAILED = "failed"

RELAY_ENTRY_TTL_MS = 60_000.0


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
    t1_ms: float = 1000.0   # proxy fallback-lookup timer
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
        if not (0 < self.p <= 1):
            raise ValueError("p must be in (0, 1]")
        if self.eta is not None and self.eta < 1:
            raise ValueError("eta must be >= 1 (or None for all neighbors)")
        if not (self.u_ms > self.t1_ms and self.u_ms > self.t0_ms):
            raise ValueError("require u > t1 and u > t0")


@dataclass
class ForwardGraph:
    successors: tuple[PeerId, ...]
    built_at: float


def build_forward_graph(neighbors, eta: int | None, rng: RngStream,
                        now: float = 0.0) -> ForwardGraph:
    """Uniform sample without replacement of min(eta, degree) successors."""
    pool = sorted(neighbors)
    if not pool:
        raise ValueError("need at least one neighbor")
    k = len(pool) if eta is None else min(eta, len(pool))
    return ForwardGraph(successors=tuple(sorted(rng.sample(pool, k))), built_at=now)


@dataclass
class RelayEntry:
    successor: PeerId | None  # None marks the proxy role for this predecessor
    created_at: float
    walk: tuple
    hop: int


class RelayTable(dict):
    """Relay entries keyed by ``(cid, predecessor)``, indexed by
    ``(cid, successor)`` so a returning FORWARD-HAVE finds the predecessors
    it goes back to without scanning every entry.

    Write entries by item assignment (replacing one moves it to the end)
    and remove them with ``del``; end a relay role with `collapse`. Other
    dict mutators bypass the index.
    """

    def __init__(self) -> None:
        super().__init__()
        self._via: dict[tuple[Cid, PeerId], list[PeerId]] = {}

    def __setitem__(self, key: tuple[Cid, PeerId], entry: RelayEntry) -> None:
        if key in self:
            # a replaced entry moves to the end, as a fresh one would
            del self[key]
        super().__setitem__(key, entry)
        if entry.successor is not None:
            self._via.setdefault((key[0], entry.successor), []).append(key[1])

    def __delitem__(self, key: tuple[Cid, PeerId]) -> None:
        self._unlink(key)
        super().__delitem__(key)

    def collapse(self, key: tuple[Cid, PeerId]) -> None:
        """The recorded successor is gone: this entry now marks the proxy."""
        self._unlink(key)
        self[key].successor = None

    def via(self, cid: Cid, successor: PeerId) -> list[tuple[PeerId, RelayEntry]]:
        """(predecessor, entry) of every entry relaying `cid` to
        `successor`, in the table's insertion order."""
        preds = self._via.get((cid, successor), ())
        return [(pred, self[(cid, pred)]) for pred in preds]

    def _unlink(self, key: tuple[Cid, PeerId]) -> None:
        successor = self[key].successor
        if successor is None:
            return
        preds = self._via[(key[0], successor)]
        preds.remove(key[1])
        if not preds:
            del self._via[(key[0], successor)]


@dataclass
class ProxySession:
    cid: Cid
    started_at: float
    # predecessor -> walk tag of the walk that ended here
    preds: dict[PeerId, tuple] = field(default_factory=dict)
    queried: set[PeerId] = field(default_factory=set)
    found: list[ProviderRecord] = field(default_factory=list)
    answered: bool = False
    providers_sent: tuple[ProviderRecord, ...] = ()
    last_activity: float = 0.0
    dht_pending: bool = False
    answer_pending: bool = False
    timers: list = field(default_factory=list)


@dataclass
class RequesterSession:
    cid: Cid
    started_at: float
    state: str = WALKING
    first_hop: PeerId | None = None
    walk_serial: int = 0
    providers: list[ProviderRecord] = field(default_factory=list)
    tried: set[PeerId] = field(default_factory=set)
    target: PeerId | None = None
    verified: bool = False
    queried: set[PeerId] = field(default_factory=set)  # verify-mode WANT-HAVEs
    attempt_serial: int = 0
    retx_count: int = 0
    done_at: float | None = None
    timers: list = field(default_factory=list)

    @property
    def ttfb_ms(self) -> float | None:
        return None if self.done_at is None else self.done_at - self.started_at

    def walk_id(self, node: PeerId) -> tuple:
        return (node, self.cid, self.walk_serial)

    def untried(self, node: PeerId) -> list[ProviderRecord]:
        return [r for r in self.providers
                if r.peer not in self.tried and r.peer != node]


class RawaEngine(HonestEngine):
    def __init__(self, node, sim, dht, config: RaWaConfig, **kwargs):
        super().__init__(node, sim, dht, immediate_block_limit=None, **kwargs)
        self.config = config
        self.graph: ForwardGraph | None = None
        # (graph, departures, its reachable successors at that count)
        self._live: tuple = (None, -1, ())
        self.entries = RelayTable()
        self.sent_for_cid: dict[Cid, set[PeerId]] = {}
        self.proxies: dict[Cid, ProxySession] = {}
        self.sessions: dict[Cid, RequesterSession] = {}
        self._pending_dials: dict[PeerId, Cid] = {}

    # -- privacy subgraph ---------------------------------------------------

    def build_graph(self) -> None:
        self.graph = build_forward_graph(self.sim.neighbors(self.node),
                                         self.config.eta, self.sim.rng,
                                         now=self.sim.now)

    def reconstruct_graph(self) -> ForwardGraph:
        """Periodic rebuild with fresh randomness; recorded successors of
        in-flight relay entries are untouched."""
        self.build_graph()
        return self.graph

    def _live_successors(self, exclude: set[PeerId] = frozenset()) -> tuple[PeerId, ...]:
        if self.graph is None:
            self.build_graph()
        graph, departures = self.graph, self.sim.departures
        cached, epoch, live = self._live
        if cached is not graph or epoch != departures:
            # successors are neighbors when the graph is built; only a
            # departure can make one unreachable
            live = tuple(s for s in graph.successors
                         if self.sim.reachable(self.node, s))
            self._live = (graph, departures, live)
        if not exclude:
            return live
        return tuple(s for s in live if s not in exclude)

    # -- requester ----------------------------------------------------------

    def request_block(self, cid: Cid) -> None:
        if cid in self.sessions:
            return
        now = self.sim.now
        session = RequesterSession(cid=cid, started_at=now)
        self.sessions[cid] = session
        if cid in self.store:
            session.state = DONE
            session.done_at = now
            self.sim.observer.request_done(self.node, cid, now, now)
            return
        self._start_walk(session, fresh=False)
        cfg = self.config
        self._arm(session, cfg.t0_ms, f"t0:{cid.short()}",
                  lambda: self._t0_tick(session))
        self._arm(session, cfg.u_ms, f"u:{cid.short()}",
                  lambda: self._u_tick(session))
        self._arm(session, self.give_up_ms, f"give-up:{cid.short()}",
                  lambda: self._give_up(session))

    def _start_walk(self, session: RequesterSession, fresh: bool) -> None:
        if fresh:
            session.walk_serial += 1
        candidates = self._live_successors()
        if not candidates:
            session.first_hop = None
            return
        session.first_hop = candidates[self.sim.rng.randrange(len(candidates))]
        self.sent_for_cid.setdefault(session.cid, set()).add(session.first_hop)
        self._send_want_forward(session, retx=0)

    def _send_want_forward(self, session: RequesterSession, retx: int) -> None:
        meta = {"walk": session.walk_id(self.node), "hop": 1, "retx": retx}
        self.send(session.first_hop,
                  Message(MessageType.WANT_FORWARD, session.cid), meta)

    def _t0_tick(self, session: RequesterSession) -> None:
        if session.state in (DONE, FAILED):
            return
        if session.state is WALKING:
            if session.first_hop is not None and \
                    self.sim.reachable(self.node, session.first_hop):
                session.retx_count += 1
                self._send_want_forward(session, retx=session.retx_count)
            else:
                self._start_walk(session, fresh=True)
        self._arm(session, self.config.t0_ms, f"t0:{session.cid.short()}",
                  lambda: self._t0_tick(session))

    def _u_tick(self, session: RequesterSession) -> None:
        if session.state in (DONE, FAILED):
            return
        if session.state is WALKING:
            self.dht.lookup(session.cid, self.node,
                            lambda providers: self._fallback_result(session, providers))
        self._arm(session, self.config.u_ms, f"u:{session.cid.short()}",
                  lambda: self._u_tick(session))

    def _fallback_result(self, session: RequesterSession,
                         providers: list[ProviderRecord]) -> None:
        if session.state in (DONE, FAILED):
            return
        self._merge_providers(session, providers)
        if session.state is WALKING and session.untried(self.node):
            self._try_next_provider(session)

    def _merge_providers(self, session: RequesterSession, providers) -> None:
        known = {r.peer for r in session.providers}
        for rec in providers:
            if rec.peer not in known:
                session.providers.append(rec)
                known.add(rec.peer)

    def _on_forward_have(self, session: RequesterSession,
                         providers: tuple[ProviderRecord, ...],
                         walk: tuple | None) -> None:
        if session.state in (DONE, FAILED):
            return
        if walk is not None:
            self.sim.observer.fh_consumed(self.node, walk)
        self._merge_providers(session, providers)
        if session.state is WALKING and session.untried(self.node):
            self._try_next_provider(session)

    def _try_next_provider(self, session: RequesterSession) -> None:
        untried = session.untried(self.node)
        if not untried:
            session.state = WALKING
            session.target = None
            return
        record = untried[self.sim.rng.randrange(len(untried))]
        session.state = EXCHANGING
        session.tried.add(record.peer)
        session.target = record.peer
        session.verified = False
        session.attempt_serial += 1
        if self.sim.connected(self.node, record.peer):
            self._exchange(session)
        else:
            self._pending_dials[record.peer] = session.cid
            self.sim.dial(self.node, record.peer)

    def _exchange(self, session: RequesterSession) -> None:
        serial = session.attempt_serial
        if self.config.verify_provider and not session.verified:
            session.queried.add(session.target)
            self.send(session.target, Message(MessageType.WANT_HAVE, session.cid),
                      {"role": "verify"})
        else:
            self.send(session.target, Message(MessageType.WANT_BLOCK, session.cid))
        self._arm(session, self.config.t1_ms, f"attempt:{session.cid.short()}",
                  lambda: self._attempt_timeout(session, serial))

    def _attempt_timeout(self, session: RequesterSession, serial: int) -> None:
        if session.state is EXCHANGING and session.attempt_serial == serial:
            self._try_next_provider(session)

    def handle_dial(self, peer: PeerId, ok: bool) -> None:
        cid = self._pending_dials.pop(peer, None)
        if cid is None:
            return
        session = self.sessions.get(cid)
        if session is None or session.state is not EXCHANGING or session.target != peer:
            return
        if ok:
            self._exchange(session)
        else:
            self._try_next_provider(session)

    def _give_up(self, session: RequesterSession) -> None:
        if session.state in (DONE, FAILED):
            return
        session.state = FAILED
        self._cancel_timers(session)
        self.sim.observer.request_failed(self.node, session.cid)

    def _complete(self, session: RequesterSession) -> None:
        session.state = DONE
        session.done_at = self.sim.now
        self._cancel_timers(session)
        self.sim.fan_out(self.node, sorted(session.queried),
                         Message(MessageType.CANCEL, session.cid))
        self.sim.observer.request_done(self.node, session.cid,
                                       session.started_at, session.done_at)

    def _arm(self, session, delay: float, label: str, fn) -> None:
        session.timers.append(self.sim.schedule(delay, label, fn, node=self.node))

    def _cancel_timers(self, session) -> None:
        for t in session.timers:
            t.cancel()
        session.timers.clear()

    # -- relay manager ------------------------------------------------------

    def _fresh_entry(self, cid: Cid, pred: PeerId) -> RelayEntry | None:
        entry = self.entries.get((cid, pred))
        if entry is None:
            return None
        if self.sim.now - entry.created_at > RELAY_ENTRY_TTL_MS:
            del self.entries[(cid, pred)]
            return None
        return entry

    def _on_want_forward(self, frm: PeerId, cid: Cid, meta: dict | None) -> None:
        meta = meta or {}
        walk = meta.get("walk", (frm, cid, -1))
        hop = meta.get("hop", 1)
        retx = meta.get("retx", 0)
        entry = self._fresh_entry(cid, frm)
        if entry is not None:
            if entry.successor is None:
                self._proxy_repeat(cid, frm)
            elif self.sim.reachable(self.node, entry.successor):
                self.send(entry.successor, Message(MessageType.WANT_FORWARD, cid),
                          {"walk": walk, "hop": hop + 1, "retx": retx})
            else:
                # recorded successor is gone: collapse into the proxy role
                self.entries.collapse((cid, frm))
                self._become_proxy(cid, frm, walk, hop, retx)
            return
        if cid in self.proxies:
            self.entries[(cid, frm)] = RelayEntry(None, self.sim.now, walk, hop)
            self._become_proxy(cid, frm, walk, hop, retx)
            return
        sent = self.sent_for_cid.get(cid)
        if sent:
            # loop reduction: only successors that have not seen this cid yet
            candidates = self._live_successors(exclude=sent | {frm})
            if not candidates:
                self.entries[(cid, frm)] = RelayEntry(None, self.sim.now, walk, hop)
                self._become_proxy(cid, frm, walk, hop, retx)
                return
            self._relay(frm, cid, candidates, walk, hop, retx)
            return
        if self.sim.rng.random() < self.config.p:
            self.entries[(cid, frm)] = RelayEntry(None, self.sim.now, walk, hop)
            self._become_proxy(cid, frm, walk, hop, retx)
            return
        candidates = self._live_successors(exclude={frm})
        if not candidates:
            candidates = self._live_successors()
        if not candidates:
            self.entries[(cid, frm)] = RelayEntry(None, self.sim.now, walk, hop)
            self._become_proxy(cid, frm, walk, hop, retx)
            return
        self._relay(frm, cid, candidates, walk, hop, retx)

    def _relay(self, frm: PeerId, cid: Cid, candidates: tuple[PeerId, ...],
               walk: tuple, hop: int, retx: int) -> None:
        successor = candidates[self.sim.rng.randrange(len(candidates))]
        self.entries[(cid, frm)] = RelayEntry(successor, self.sim.now, walk, hop)
        self.sent_for_cid.setdefault(cid, set()).add(successor)
        self.send(successor, Message(MessageType.WANT_FORWARD, cid),
                  {"walk": walk, "hop": hop + 1, "retx": retx})

    # -- proxy --------------------------------------------------------------

    def _become_proxy(self, cid: Cid, pred: PeerId, walk: tuple, hop: int,
                      retx: int) -> None:
        self.sim.observer.walk_terminated(walk, retx, hop, self.node, self.sim.now)
        session = self.proxies.get(cid)
        if session is not None:
            session.preds[pred] = walk
            if session.answered:
                self._send_forward_have(session, only_pred=pred)
            return
        session = ProxySession(cid=cid, started_at=self.sim.now,
                               last_activity=self.sim.now)
        session.preds[pred] = walk
        self.proxies[cid] = session
        if cid in self.store:
            session.found.append(ProviderRecord(self.node, peer_name(self.node)))
            self._answer(session)
            return
        peers = self.sim.neighbors(self.node)
        session.queried.update(peers)
        self.sim.fan_out(self.node, peers, Message(MessageType.WANT_HAVE, cid),
                         {"role": "proxy"})
        self._arm(session, self.config.t1_ms, f"proxy-t1:{cid.short()}",
                  lambda: self._proxy_t1(session))

    def _proxy_repeat(self, cid: Cid, pred: PeerId) -> None:
        session = self.proxies.get(cid)
        if session is not None and session.answered:
            self._send_forward_have(session, only_pred=pred)

    def _proxy_t1(self, session: ProxySession) -> None:
        if session.answered:
            return
        idle = self.sim.now - session.last_activity
        if idle + 1e-9 < self.config.t1_ms:
            self._arm(session, self.config.t1_ms - idle,
                      f"proxy-t1:{session.cid.short()}",
                      lambda: self._proxy_t1(session))
            return
        if not session.dht_pending:
            session.dht_pending = True
            self.dht.lookup(session.cid, self.node,
                            lambda providers: self._proxy_dht_result(session, providers))

    def _proxy_dht_result(self, session: ProxySession,
                          providers: list[ProviderRecord]) -> None:
        session.dht_pending = False
        if session.answered:
            return
        known = {r.peer for r in session.found}
        for rec in providers:
            if rec.peer not in known:
                session.found.append(rec)
                known.add(rec.peer)
        if session.found:
            self._answer(session)
        elif self.sim.now - session.started_at < self.give_up_ms:
            self._arm(session, self.config.t1_ms,
                      f"proxy-t1-retry:{session.cid.short()}",
                      lambda: self._proxy_t1_retry(session))
        # otherwise stay silent; the requester's own fallback covers this

    def _proxy_t1_retry(self, session: ProxySession) -> None:
        if session.answered or session.dht_pending:
            return
        session.dht_pending = True
        self.dht.lookup(session.cid, self.node,
                        lambda providers: self._proxy_dht_result(session, providers))

    def _proxy_have(self, session: ProxySession, frm: PeerId) -> None:
        if session.answered:
            return
        session.last_activity = self.sim.now
        if all(r.peer != frm for r in session.found):
            session.found.append(ProviderRecord(frm, peer_name(frm)))
        if self.config.proxy_aggregate_dht:
            if not session.dht_pending:
                session.dht_pending = True
                self.dht.lookup(session.cid, self.node,
                                lambda providers: self._proxy_dht_result(session, providers))
            return
        window = self.config.forward_have_aggregation_ms
        if window <= 0:
            self._answer(session)
        elif not session.answer_pending:
            session.answer_pending = True
            self._arm(session, window, f"proxy-agg:{session.cid.short()}",
                      lambda: self._answer(session))

    def _answer(self, session: ProxySession) -> None:
        if session.answered:
            return
        session.answered = True
        session.providers_sent = tuple(session.found)
        self._cancel_timers(session)
        self._send_forward_have(session)
        self.sim.fan_out(self.node, sorted(session.queried),
                         Message(MessageType.CANCEL, session.cid))

    def _send_forward_have(self, session: ProxySession,
                           only_pred: PeerId | None = None) -> None:
        preds = [only_pred] if only_pred is not None else sorted(session.preds)
        msg = Message(MessageType.FORWARD_HAVE, session.cid,
                      providers=session.providers_sent)
        for pred in preds:
            if self.sim.reachable(self.node, pred):
                self.send(pred, msg, {"walk": session.preds[pred]})

    # -- return phase -------------------------------------------------------

    def _route_back(self, frm: PeerId, msg: Message, meta: dict | None) -> None:
        cid = msg.cid
        handled = False
        for pred, entry in self.entries.via(cid, frm):
            handled = True
            if self.sim.reachable(self.node, pred):
                # the relayed copy is the received message itself
                self.send(pred, msg, {"walk": entry.walk})
        session = self.sessions.get(cid)
        if session is not None and session.state not in (DONE, FAILED):
            handled = True
            self._on_forward_have(session, msg.providers,
                                  (meta or {}).get("walk"))
        if not handled:
            self.sim.observer.record_drop(self.sim.now, frm, self.node, msg,
                                          "stray-forward-have")

    # -- message dispatch ---------------------------------------------------

    def handle_message(self, frm: PeerId, msg: Message, meta: dict | None) -> None:
        variant = msg.variant
        if variant is MessageType.WANT_FORWARD:
            self._on_want_forward(frm, msg.cid, meta)
            return
        if variant is MessageType.FORWARD_HAVE:
            self._route_back(frm, msg, meta)
            return
        if self.handle_storage_query(frm, msg):
            return
        # HAVE / DONT-HAVE / BLOCK: requester attempt first, then proxy
        session = self.sessions.get(msg.cid)
        if session is not None and session.state is EXCHANGING and frm == session.target:
            self._requester_answer(session, frm, msg)
            return
        proxy = self.proxies.get(msg.cid)
        if proxy is not None:
            if variant is MessageType.HAVE:
                self._proxy_have(proxy, frm)
            elif variant is MessageType.DONT_HAVE:
                proxy.last_activity = self.sim.now
            return
        if session is not None and variant is MessageType.BLOCK and \
                session.state not in (DONE, FAILED):
            if self.accept_block(msg.cid, msg.payload):
                self._complete(session)
            return
        self.sim.observer.record_drop(self.sim.now, frm, self.node, msg,
                                      "unmatched-response")

    def _requester_answer(self, session: RequesterSession, frm: PeerId,
                          msg: Message) -> None:
        if msg.variant is MessageType.HAVE:
            if self.config.verify_provider and not session.verified:
                session.verified = True
                session.attempt_serial += 1
                self._exchange(session)
        elif msg.variant is MessageType.DONT_HAVE:
            self._try_next_provider(session)
        elif msg.variant is MessageType.BLOCK:
            if self.accept_block(msg.cid, msg.payload):
                self._complete(session)
            else:
                self._try_next_provider(session)
