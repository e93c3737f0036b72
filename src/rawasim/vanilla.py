"""Baseline block-exchange engine: broadcast discovery with DHT fallback.

A request runs the shared neighbour discovery of `rawasim.engine`: WANT-HAVE
to every neighbor, then the provider index after ``t1`` of quiet, retried
every ``t1`` until a global give-up bound. The first HAVE wins and is
answered with a WANT-BLOCK; later candidates are kept as backups.
Completion sends exactly one CANCEL to every peer that received the
WANT-HAVE. The fetch itself is the shared one in `rawasim.engine`.
"""

from __future__ import annotations

from .core import (BLOCK, CANCEL, HAVE, WANT_BLOCK, WANT_HAVE, Message,
                   PeerId)
from .engine import (DONE, FAILED, FETCHING, SEARCHING, FetchSession,
                     HonestEngine)
from .netsim import WalkTag

IMMEDIATE_BLOCK_LIMIT = 1024
# quiet period before the provider-index fallback; also the attempt timeout
T1_MS = 1000.0


class VanillaEngine(HonestEngine):
    immediate_block_limit = IMMEDIATE_BLOCK_LIMIT
    t1_ms = T1_MS

    # -- requester side -----------------------------------------------------

    def _discover(self, session: FetchSession) -> None:
        self._broadcast(session)

    def _on_index(self, session: FetchSession, providers: list[PeerId]) -> None:
        self._offer(session, providers)

    def _all_tried(self, session: FetchSession) -> None:
        session.last_activity = self._sim().now
        self._arm(session, self.t1_ms, "t1", self._discovery_tick)

    # -- message handling ---------------------------------------------------

    def handle_message(self, frm: PeerId, msg: Message,
                       tag: WalkTag | None = None) -> None:
        variant = msg.variant
        if variant is CANCEL:
            return
        if variant is WANT_HAVE:
            self.reply_presence(frm, msg.cid)
            return
        if variant is WANT_BLOCK:
            self.serve_block(frm, msg.cid)
            return
        sim = self._sim()
        session = self.sessions.get(msg.cid)
        if session is None or session.state in (DONE, FAILED):
            if variant is BLOCK:
                sim.observer.record_drop(sim.now, frm, self.node, msg,
                                         "unsolicited-block")
            return
        session.last_activity = sim.now
        if variant is HAVE:
            self._merge(session, (frm,))
            if session.state is SEARCHING and frm not in session.tried:
                self._attempt(session, frm)
        elif session.state is FETCHING and frm == session.target:
            self._on_answer(session, msg)
        elif variant is BLOCK:
            # a small block sent for the WANT-HAVE, or a late answer to an
            # earlier attempt
            self._on_block(session, msg)
