"""Shared honest-node machinery: block storage, storage-query answering and
the requester's fetch state machine.

Both protocol engines answer WANT-HAVE / WANT-BLOCK / CANCEL the same way
and fetch the same way; they differ only in how a requester discovers
providers. The baseline engine additionally serves blocks at or below
``immediate_block_limit`` straight in response to a WANT-HAVE; the
walk-based engine disables that path because the asking peer there is
usually a proxy that never needs the bytes.

A request is SEARCHING while discovery runs and FETCHING while one provider
is asked for the block. Each attempt draws a provider uniformly from those
not yet tried, dials it if there is no link, and sends WANT-BLOCK. The
attempt fails on DONT-HAVE, on a block that does not hash to the CID, on a
failed dial or after ``attempt_timeout_ms``; the next untried provider is
then drawn, and with none left the request goes back to SEARCHING. A valid
block completes the request and sends one CANCEL to every peer that got a
WANT-HAVE from it. A request still open after ``give_up_ms`` fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (BLOCK, CANCEL, DONT_HAVE, HAVE, WANT_BLOCK, WANT_HAVE, Block,
                   Cid, Message, PeerId, ProviderRecord, derive_cid,
                   validate_block)
from .dht import DummyDht
from .netsim import Simulator

GIVE_UP_MS = 30_000.0

SEARCHING = "searching"
FETCHING = "fetching"
DONE = "done"
FAILED = "failed"


@dataclass
class FetchSession:
    """One request of a requester; engines subclass it for discovery state."""

    cid: Cid
    started_at: float
    state: str = SEARCHING
    providers: list[ProviderRecord] = field(default_factory=list)
    tried: set[PeerId] = field(default_factory=set)
    target: PeerId | None = None
    attempt_serial: int = 0
    # peers sent a WANT-HAVE for this request; each gets a CANCEL at the end
    queried: set[PeerId] = field(default_factory=set)
    # pending timers by arm serial (`HonestEngine._arm`)
    timers: dict = field(default_factory=dict)

    def untried(self) -> list[ProviderRecord]:
        return [r for r in self.providers if r.peer not in self.tried]


class HonestEngine:
    """Event-loop-confined node: owns a block store, per-cid bookkeeping of
    which peers asked for presence (cleared again by CANCEL), and its own
    requests. Subclasses set the class attributes and implement
    `_discover` and `handle_message`."""

    immediate_block_limit: int | None = None
    attempt_timeout_ms: float
    session_type: type[FetchSession] = FetchSession

    def __init__(self, node: PeerId, sim: Simulator, dht: DummyDht,
                 give_up_ms: float = GIVE_UP_MS):
        self.node = node
        self.sim = sim
        self.dht = dht
        self.give_up_ms = give_up_ms
        self.store: dict[Cid, Block] = {}
        self.peer_wants: dict[Cid, set[PeerId]] = {}
        self.sessions: dict[Cid, FetchSession] = {}
        self._pending_dials: dict[PeerId, Cid] = {}
        self._arms = 0

    # -- storage ----------------------------------------------------------

    def store_block(self, block: Block) -> Cid:
        cid = derive_cid(block)
        self.store[cid] = block
        self.dht.provide(cid, self.node)
        return cid

    def accept_block(self, cid: Cid, block: Block) -> bool:
        if not validate_block(cid, block):
            return False
        self.store[cid] = block
        self.dht.provide(cid, self.node)
        return True

    # -- messaging helpers --------------------------------------------------

    def send(self, to: PeerId, msg: Message, meta: dict | None = None) -> bool:
        return self.sim.send(self.node, to, msg, meta)

    def reply_presence(self, frm: PeerId, cid: Cid) -> None:
        """Answer a WANT-HAVE, optionally short-circuiting with the block
        itself when it is small enough (baseline behavior only)."""
        sim = self.sim
        block = self.store.get(cid)
        if block is not None and self.immediate_block_limit is not None \
                and block.size <= self.immediate_block_limit:
            reply = Message(BLOCK, cid, payload=block)
        elif block is not None:
            reply = sim.message(HAVE, cid)
        else:
            reply = sim.message(DONT_HAVE, cid)
        sim.send(self.node, frm, reply)

    def handle_storage_query(self, frm: PeerId, msg: Message) -> bool:
        """Shared handling for presence/retrieval/cancel messages; returns
        True when the message was consumed."""
        variant = msg.variant
        if variant is WANT_HAVE:
            self.peer_wants.setdefault(msg.cid, set()).add(frm)
            self.reply_presence(frm, msg.cid)
            return True
        if variant is WANT_BLOCK:
            block = self.store.get(msg.cid)
            if block is not None:
                self.send(frm, Message(BLOCK, msg.cid, payload=block))
            else:
                self.send(frm, self.sim.message(DONT_HAVE, msg.cid))
            return True
        if variant is CANCEL:
            wants = self.peer_wants.get(msg.cid)
            if wants is not None:
                wants.discard(frm)
                if not wants:
                    del self.peer_wants[msg.cid]
            return True
        return False

    # -- requester: session and timers --------------------------------------

    def request_block(self, cid: Cid) -> None:
        if cid in self.sessions:
            return
        now = self.sim.now
        session = self.session_type(cid=cid, started_at=now)
        self.sessions[cid] = session
        if cid in self.store:
            session.state = DONE
            self.sim.observer.request_done(self.node, cid, now, now)
            return
        self._discover(session)
        self._arm(session, self.give_up_ms, f"give-up:{cid.short()}",
                  lambda: self._give_up(session))

    def _discover(self, session: FetchSession) -> None:
        """Start looking for providers and arm the discovery timers."""
        raise NotImplementedError

    def _arm(self, session, delay: float, label: str, fn) -> None:
        """Schedule `fn`. Its handle stays in `session.timers` until it
        fires or is cancelled, so re-armed ticks hold no dead handles. The
        handle is keyed by an arm serial, not referenced from the callback:
        a callback holding its own timer would be a cycle outliving the
        event."""
        timers = session.timers
        key = self._arms = self._arms + 1

        def fire() -> None:
            del timers[key]
            fn()
        timers[key] = self.sim.schedule(delay, label, fire, node=self.node)

    def _cancel_timers(self, session) -> None:
        for t in session.timers.values():
            t.cancel()
        session.timers.clear()

    # -- requester: providers and attempts ----------------------------------

    def _merge(self, session: FetchSession, providers) -> None:
        known = {r.peer for r in session.providers}
        for rec in providers:
            if rec.peer != self.node and rec.peer not in known:
                session.providers.append(rec)
                known.add(rec.peer)

    def _next_provider(self, session: FetchSession) -> None:
        """Attempt a uniformly drawn untried provider; with none left, go
        back to searching."""
        untried = session.untried()
        if untried:
            self._attempt(session, untried[self.sim.rng.randrange(len(untried))].peer)
            return
        session.state = SEARCHING
        session.target = None
        self._all_tried(session)

    def _all_tried(self, session: FetchSession) -> None:
        """Hook: every known provider failed and the request searches again."""

    def _attempt(self, session: FetchSession, peer: PeerId) -> None:
        session.state = FETCHING
        session.tried.add(peer)
        session.target = peer
        session.attempt_serial += 1
        if self.sim.connected(self.node, peer):
            self._exchange(session)
        else:
            self._pending_dials[peer] = session.cid
            self.sim.dial(self.node, peer)

    def _exchange(self, session: FetchSession) -> None:
        self.send(session.target, self.sim.message(WANT_BLOCK, session.cid))
        self._arm_attempt(session)

    def _arm_attempt(self, session: FetchSession) -> None:
        serial = session.attempt_serial
        self._arm(session, self.attempt_timeout_ms, f"attempt:{session.cid.short()}",
                  lambda: self._attempt_timeout(session, serial))

    def _attempt_timeout(self, session: FetchSession, serial: int) -> None:
        if session.state is FETCHING and session.attempt_serial == serial:
            self._next_provider(session)

    def handle_dial(self, peer: PeerId, ok: bool) -> None:
        cid = self._pending_dials.pop(peer, None)
        if cid is None:
            return
        session = self.sessions.get(cid)
        if session is None or session.state is not FETCHING or session.target != peer:
            return
        if ok:
            self._exchange(session)
        else:
            self._next_provider(session)

    # -- requester: outcomes ------------------------------------------------

    def _on_answer(self, session: FetchSession, msg: Message) -> None:
        """The target's answer to the current attempt: a valid block
        completes the request; DONT-HAVE or a tampered block fails the
        attempt."""
        if msg.variant is DONT_HAVE:
            self._next_provider(session)
        elif msg.variant is BLOCK and not self._on_block(session, msg):
            self._next_provider(session)

    def _on_block(self, session: FetchSession, msg: Message) -> bool:
        """Complete the request on a valid block; False if it is invalid."""
        if not self.accept_block(msg.cid, msg.payload):
            return False
        self._complete(session)
        return True

    def _give_up(self, session: FetchSession) -> None:
        if session.state in (DONE, FAILED):
            return
        session.state = FAILED
        self._cancel_timers(session)
        self.sim.observer.request_failed(self.node, session.cid)

    def _complete(self, session: FetchSession) -> None:
        session.state = DONE
        self._cancel_timers(session)
        self.sim.fan_out(self.node, sorted(session.queried),
                         self.sim.message(CANCEL, session.cid))
        self.sim.observer.request_done(self.node, session.cid,
                                       session.started_at, self.sim.now)

    # -- interface for the simulator ---------------------------------------

    def handle_message(self, frm: PeerId, msg: Message, meta: dict | None) -> None:
        raise NotImplementedError
