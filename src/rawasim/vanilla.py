"""Baseline block-exchange engine: broadcast discovery with DHT fallback.

A request announces interest with WANT-HAVE to every neighbor. The first
HAVE wins and is answered with a WANT-BLOCK; later candidates are kept as
backups. When discovery goes quiet for ``t1`` without a candidate, the node
queries the provider index and retries every ``t1`` until a global give-up
bound. Completion sends exactly one CANCEL to every peer that received the
WANT-HAVE. The fetch itself is the shared one in `rawasim.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BLOCK, HAVE, WANT_HAVE, Message, PeerId, ProviderRecord
from .engine import (DONE, FAILED, FETCHING, SEARCHING, FetchSession,
                     HonestEngine)

IMMEDIATE_BLOCK_LIMIT = 1024
# quiet period before the provider-index fallback; also the attempt timeout
T1_MS = 1000.0


@dataclass
class VanillaSession(FetchSession):
    last_activity: float = 0.0
    dht_pending: bool = False


class VanillaEngine(HonestEngine):
    immediate_block_limit = IMMEDIATE_BLOCK_LIMIT
    attempt_timeout_ms = T1_MS
    session_type = VanillaSession

    # -- requester side -----------------------------------------------------

    def _discover(self, session: VanillaSession) -> None:
        session.last_activity = self.sim.now
        peers = self.sim.neighbors(self.node)
        session.queried.update(peers)
        self.sim.fan_out(self.node, peers, self.sim.message(WANT_HAVE, session.cid))
        self._arm_t1(session, T1_MS)

    def _arm_t1(self, session: VanillaSession, delay: float, kind: str = "t1") -> None:
        self._arm(session, delay, f"{kind}:{session.cid.short()}",
                  lambda: self._t1_tick(session))

    def _t1_tick(self, session: VanillaSession) -> None:
        """Inactivity-based fallback: fire the provider-index lookup only
        after a full quiet period with nothing left to try."""
        if session.state is not SEARCHING:
            return
        idle = self.sim.now - session.last_activity
        if idle + 1e-9 < T1_MS:
            self._arm_t1(session, T1_MS - idle)
            return
        if session.untried():
            self._next_provider(session)
            return
        if not session.dht_pending:
            session.dht_pending = True
            self.dht.lookup(session.cid, self.node,
                            lambda providers: self._dht_result(session, providers))

    def _dht_result(self, session: VanillaSession, providers: list[ProviderRecord]) -> None:
        session.dht_pending = False
        if session.state in (DONE, FAILED):
            return
        self._merge(session, providers)
        if session.state is not SEARCHING:
            return
        if session.untried():
            self._next_provider(session)
        else:
            self._arm_t1(session, T1_MS, "t1-retry")

    def _all_tried(self, session: VanillaSession) -> None:
        session.last_activity = self.sim.now
        self._arm_t1(session, T1_MS)

    # -- message handling ---------------------------------------------------

    def handle_message(self, frm: PeerId, msg: Message, meta: dict | None) -> None:
        if self.handle_storage_query(frm, msg):
            return
        session = self.sessions.get(msg.cid)
        if session is None or session.state in (DONE, FAILED):
            if msg.variant is BLOCK:
                self.sim.observer.record_drop(self.sim.now, frm, self.node, msg,
                                              "unsolicited-block")
            return
        session.last_activity = self.sim.now
        if msg.variant is HAVE:
            self._merge(session, [ProviderRecord(frm)])
            if session.state is SEARCHING and frm not in session.tried:
                self._attempt(session, frm)
        elif session.state is FETCHING and frm == session.target:
            self._on_answer(session, msg)
        elif msg.variant is BLOCK:
            # a small block sent for the WANT-HAVE, or a late answer to an
            # earlier attempt
            self._on_block(session, msg)
