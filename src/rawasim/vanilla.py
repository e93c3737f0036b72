"""Baseline block-exchange engine: broadcast discovery with DHT fallback.

A request announces interest with WANT-HAVE to every neighbor. The first
HAVE wins and is answered with a WANT-BLOCK; later candidates are kept as
backups. When discovery goes quiet for ``t1`` without a candidate, the node
queries the provider index and retries every ``t1`` until a global give-up
bound. Completion sends exactly one CANCEL to every peer that received the
WANT-HAVE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Cid, Message, MessageType, PeerId, ProviderRecord, peer_name
from .engine import HonestEngine

PROBING = "probing"
AWAITING_BLOCK = "awaiting_block"
DONE = "done"
FAILED = "failed"

IMMEDIATE_BLOCK_LIMIT = 1024
DEFAULT_T1_MS = 1000.0


@dataclass
class VanillaSession:
    cid: Cid
    started_at: float
    t1_ms: float
    state: str = PROBING
    queried: set[PeerId] = field(default_factory=set)
    candidates: list[ProviderRecord] = field(default_factory=list)
    tried: set[PeerId] = field(default_factory=set)
    target: PeerId | None = None
    last_activity: float = 0.0
    dht_pending: bool = False
    done_at: float | None = None
    attempt_serial: int = 0
    timers: list = field(default_factory=list)

    @property
    def ttfb_ms(self) -> float | None:
        return None if self.done_at is None else self.done_at - self.started_at

    def untried(self) -> list[ProviderRecord]:
        return [r for r in self.candidates if r.peer not in self.tried]


class VanillaEngine(HonestEngine):
    def __init__(self, node, sim, dht, t1_ms: float = DEFAULT_T1_MS, **kwargs):
        super().__init__(node, sim, dht,
                         immediate_block_limit=IMMEDIATE_BLOCK_LIMIT, **kwargs)
        self.t1_ms = t1_ms
        self.sessions: dict[Cid, VanillaSession] = {}
        self._pending_dials: dict[PeerId, Cid] = {}

    # -- requester side -----------------------------------------------------

    def request_block(self, cid: Cid) -> None:
        if cid in self.sessions:
            return
        now = self.sim.now
        session = VanillaSession(cid=cid, started_at=now, t1_ms=self.t1_ms,
                                 last_activity=now)
        self.sessions[cid] = session
        if cid in self.store:
            session.state = DONE
            session.done_at = now
            self.sim.observer.request_done(self.node, cid, now, now)
            return
        peers = self.sim.neighbors(self.node)
        session.queried.update(peers)
        self.sim.fan_out(self.node, peers, Message(MessageType.WANT_HAVE, cid))
        self._arm(session, self.t1_ms, f"t1:{cid.short()}",
                  lambda: self._t1_tick(session))
        self._arm(session, self.give_up_ms, f"give-up:{cid.short()}",
                  lambda: self._give_up(session))

    def _arm(self, session: VanillaSession, delay: float, label: str, fn) -> None:
        session.timers.append(self.sim.schedule(delay, label, fn, node=self.node))

    def _cancel_timers(self, session: VanillaSession) -> None:
        for t in session.timers:
            t.cancel()
        session.timers.clear()

    def _t1_tick(self, session: VanillaSession) -> None:
        """Inactivity-based fallback: fire the provider-index lookup only
        after a full quiet period with nothing left to try."""
        if session.state not in (PROBING,):
            return
        idle = self.sim.now - session.last_activity
        if idle + 1e-9 < session.t1_ms:
            self._arm(session, session.t1_ms - idle, f"t1:{session.cid.short()}",
                      lambda: self._t1_tick(session))
            return
        if session.untried():
            self._begin_attempt(session, self._pick_uniform(session.untried()))
            return
        if not session.dht_pending:
            session.dht_pending = True
            self.dht.lookup(session.cid, self.node,
                            lambda providers: self._dht_result(session, providers))

    def _dht_result(self, session: VanillaSession, providers: list[ProviderRecord]) -> None:
        session.dht_pending = False
        if session.state in (DONE, FAILED):
            return
        self._merge_candidates(session, providers)
        if session.state is not PROBING:
            return
        untried = session.untried()
        if untried:
            self._begin_attempt(session, self._pick_uniform(untried))
        else:
            self._arm(session, session.t1_ms, f"t1-retry:{session.cid.short()}",
                      lambda: self._t1_tick(session))

    def _merge_candidates(self, session: VanillaSession, providers) -> None:
        known = {r.peer for r in session.candidates}
        for rec in providers:
            if rec.peer != self.node and rec.peer not in known:
                session.candidates.append(rec)
                known.add(rec.peer)

    def _pick_uniform(self, records: list[ProviderRecord]) -> ProviderRecord:
        return records[self.sim.rng.randrange(len(records))]

    def _begin_attempt(self, session: VanillaSession, record: ProviderRecord) -> None:
        session.state = AWAITING_BLOCK
        session.tried.add(record.peer)
        session.target = record.peer
        session.attempt_serial += 1
        serial = session.attempt_serial
        if self.sim.connected(self.node, record.peer):
            self._send_want_block(session, serial)
        else:
            self._pending_dials[record.peer] = session.cid
            self.sim.dial(self.node, record.peer)

    def _send_want_block(self, session: VanillaSession, serial: int) -> None:
        self.send(session.target, Message(MessageType.WANT_BLOCK, session.cid))
        self._arm(session, session.t1_ms, f"attempt:{session.cid.short()}",
                  lambda: self._attempt_timeout(session, serial))

    def _attempt_timeout(self, session: VanillaSession, serial: int) -> None:
        if session.state is AWAITING_BLOCK and session.attempt_serial == serial:
            self._attempt_failed(session)

    def _attempt_failed(self, session: VanillaSession) -> None:
        session.target = None
        untried = session.untried()
        if untried:
            self._begin_attempt(session, self._pick_uniform(untried))
        else:
            session.state = PROBING
            session.last_activity = self.sim.now
            self._arm(session, session.t1_ms, f"t1:{session.cid.short()}",
                      lambda: self._t1_tick(session))

    def handle_dial(self, peer: PeerId, ok: bool) -> None:
        cid = self._pending_dials.pop(peer, None)
        if cid is None:
            return
        session = self.sessions.get(cid)
        if session is None or session.state is not AWAITING_BLOCK or session.target != peer:
            return
        if ok:
            self._send_want_block(session, session.attempt_serial)
        else:
            self._attempt_failed(session)

    def _give_up(self, session: VanillaSession) -> None:
        if session.state in (DONE, FAILED):
            return
        session.state = FAILED
        self._cancel_timers(session)
        self.sim.observer.request_failed(self.node, session.cid)

    def _complete(self, session: VanillaSession) -> None:
        session.state = DONE
        session.done_at = self.sim.now
        self._cancel_timers(session)
        self.sim.fan_out(self.node, sorted(session.queried),
                         Message(MessageType.CANCEL, session.cid))
        self.sim.observer.request_done(self.node, session.cid,
                                       session.started_at, session.done_at)

    # -- message handling ---------------------------------------------------

    def handle_message(self, frm: PeerId, msg: Message, meta: dict | None) -> None:
        if self.handle_storage_query(frm, msg):
            return
        session = self.sessions.get(msg.cid)
        if session is None or session.state in (DONE, FAILED):
            if msg.variant is MessageType.BLOCK:
                self.sim.observer.record_drop(self.sim.now, frm, self.node, msg,
                                              "unsolicited-block")
            return
        session.last_activity = self.sim.now
        if msg.variant is MessageType.HAVE:
            self._merge_candidates(session, [ProviderRecord(frm, peer_name(frm))])
            if session.state is PROBING and frm not in session.tried:
                self._begin_attempt(session, ProviderRecord(frm, peer_name(frm)))
        elif msg.variant is MessageType.DONT_HAVE:
            if session.state is AWAITING_BLOCK and frm == session.target:
                self._attempt_failed(session)
        elif msg.variant is MessageType.BLOCK:
            if self.accept_block(msg.cid, msg.payload):
                self._complete(session)
            # invalid payload: discard and keep waiting
