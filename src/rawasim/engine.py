"""Shared honest-node machinery: block storage, storage-query answering,
the baseline neighbour discovery and the requester's fetch state machine.

Both protocol engines answer WANT-HAVE (`reply_presence`) and WANT-BLOCK
(`serve_block`) the same way, ignore CANCEL, and fetch the same way; they differ only in how a requester discovers
providers. The baseline engine additionally serves blocks at or below
``immediate_block_limit`` straight in response to a WANT-HAVE; the
walk-based engine disables that path because the asking peer there is
usually a proxy that never needs the bytes.

A `Search` runs the baseline neighbour discovery: a WANT-HAVE to every
neighbour, then, once nothing has arrived for a quiet period of ``t1``, a
provider-index lookup, repeated ``t1`` after each result that leaves the
search open until ``give_up_ms`` after it began. A vanilla requester runs
it for itself, a rawa proxy on behalf of the walks that ended at it; each
engine says what an index result does. A completed search sends one CANCEL
to every peer that got its WANT-HAVE. The broadcast keeps the simulator's
own neighbour tuple as the search's ``queried`` peers rather than a copy:
the simulator never changes a tuple it has handed out, so the search holds
the snapshot it broadcast to, and a spy linked to all n peers does not hold
n entries per walk that ends at it.

A request is SEARCHING while discovery runs and FETCHING while one provider
is asked for the block. Providers are peer ids, kept in the order they were
learned. Each attempt draws a provider uniformly from those not yet tried,
dials it if there is no link, and sends WANT-BLOCK once its own dial
completes. The attempt fails on DONT-HAVE, on a block that does not hash to
the CID, on a failed dial or after ``t1_ms``; the next untried provider is
then drawn, and with none left the request goes back to SEARCHING. A valid
block completes the request. A request still open after ``give_up_ms``
fails.

Nothing cancels a timer. A session arms every timer through
`HonestEngine._arm` and hands every provider-index result on through
`HonestEngine._query_index`. These two are the only deferred callbacks that
test whether their session is open, and `_arm` alone names a session timer,
with the pair ``(kind, cid)``; the simulator writes its text ``<kind>:<cid>``
only into a trace row, so an untraced run never builds it. So once the
session is DONE or FAILED its pending timers fire as no-ops and arm nothing,
and a late index result does nothing.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .core import (BLOCK, CANCEL, DONT_HAVE, HAVE, WANT_BLOCK, WANT_HAVE, Block,
                   Cid, Message, PeerId, derive_cid, validate_block)
from .dht import DummyDht
from .netsim import Simulator, WalkTag

GIVE_UP_MS = 30_000.0

SEARCHING = "searching"
FETCHING = "fetching"
DONE = "done"
FAILED = "failed"


@dataclass
class Search:
    """One node's search for providers of `cid`.

    Either a broadcast or a rawa requester's verify WANT-HAVEs fill
    `queried`, never both: vanilla never verifies, a rawa requester never
    broadcasts, and a proxy never verifies."""

    cid: Cid
    started_at: float
    state: str = SEARCHING
    # peers sent a WANT-HAVE for this search, ascending and distinct; each
    # gets a CANCEL at the end. A broadcast stores the simulator's neighbour
    # tuple itself, which the simulator never changes
    queried: tuple[PeerId, ...] = ()
    # start of the current t1 quiet period
    last_activity: float = 0.0
    dht_pending: bool = False


@dataclass
class FetchSession(Search):
    """One request of a requester; engines subclass it for discovery state."""

    # providers in the order they were learned
    providers: dict[PeerId, None] = field(default_factory=dict)
    tried: set[PeerId] = field(default_factory=set)
    target: PeerId | None = None
    attempt_serial: int = 0

    def untried(self) -> list[PeerId]:
        return [p for p in self.providers if p not in self.tried]


class HonestEngine:
    """Event-loop-confined node: owns a block store and its own requests.
    Subclasses set `t1_ms` (the discovery quiet period, also the fetch
    attempt timeout) and implement `_discover`, `_on_index` and
    `handle_message`.

    The simulator holds its engines, so an engine holds the simulator
    weakly (`_sim`, dereferenced once per method) and a run stays acyclic."""

    immediate_block_limit: int | None = None
    t1_ms: float
    session_type: type[FetchSession] = FetchSession

    def __init__(self, node: PeerId, sim: Simulator, dht: DummyDht,
                 give_up_ms: float = GIVE_UP_MS):
        self.node = node
        self._sim = weakref.ref(sim)
        self.dht = dht
        self.give_up_ms = give_up_ms
        self.store: dict[Cid, Block] = {}
        self.sessions: dict[Cid, FetchSession] = {}

    @property
    def sim(self) -> Simulator:
        return self._sim()

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

    def reply_presence(self, frm: PeerId, cid: Cid) -> None:
        """Answer a WANT-HAVE, optionally short-circuiting with the block
        itself when it is small enough (baseline behavior only)."""
        sim = self._sim()
        block = self.store.get(cid)
        if block is not None and self.immediate_block_limit is not None \
                and block.size <= self.immediate_block_limit:
            reply = Message(BLOCK, cid, payload=block)
        elif block is not None:
            reply = sim.message(HAVE, cid)
        else:
            reply = sim.message(DONT_HAVE, cid)
        sim.send(self.node, frm, reply)

    def serve_block(self, frm: PeerId, cid: Cid) -> None:
        """Answer a WANT-BLOCK with the block, or DONT-HAVE without it."""
        sim = self._sim()
        block = self.store.get(cid)
        if block is not None:
            sim.send(self.node, frm, Message(BLOCK, cid, payload=block))
        else:
            sim.send(self.node, frm, sim.message(DONT_HAVE, cid))

    # -- requester: session and timers --------------------------------------

    def request_block(self, cid: Cid) -> None:
        if cid in self.sessions:
            return
        sim = self._sim()
        now = sim.now
        session = self.session_type(cid=cid, started_at=now)
        self.sessions[cid] = session
        if cid in self.store:
            session.state = DONE
            sim.observer.request_done(self.node, cid, now, now)
            return
        self._discover(session)
        self._arm(session, self.give_up_ms, "give-up", self._give_up)

    def _discover(self, session: FetchSession) -> None:
        """Start looking for providers and arm the discovery timers."""
        raise NotImplementedError

    def _arm(self, search: Search, delay: float, kind: str, fn) -> None:
        """Arm `fn(search)` as the timer `<kind>:<cid>` of this node, in
        `delay` ms. It still fires after `search` has closed, but as a
        no-op."""
        def fire() -> None:
            state = search.state
            if state is not DONE and state is not FAILED:
                fn(search)
        sim = self._sim()
        sim.call_at(sim.now + delay, self.node, fire, (kind, search.cid))

    def _query_index(self, search: Search, fn) -> None:
        """Look `search`'s CID up in the provider index and hand the result
        to `fn(search, providers)` if `search` is still open then."""
        def result(providers: list[PeerId]) -> None:
            state = search.state
            if state is not DONE and state is not FAILED:
                fn(search, providers)
        self.dht.lookup(search.cid, self.node, result)

    # -- neighbour discovery ------------------------------------------------

    def _broadcast(self, search: Search) -> None:
        """Ask every neighbour with WANT-HAVE and start the quiet period."""
        sim = self._sim()
        search.last_activity = sim.now
        search.queried = peers = sim.neighbors(self.node)
        sim.fan_out(self.node, peers, sim.message(WANT_HAVE, search.cid))
        self._arm(search, self.t1_ms, "t1", self._discovery_tick)

    def _discovery_tick(self, search: Search) -> None:
        """Look the cid up in the provider index once a full quiet period
        has passed; re-arm for the rest of it otherwise."""
        if search.state is not SEARCHING:
            return
        idle = self._sim().now - search.last_activity
        if idle + 1e-9 < self.t1_ms:
            self._arm(search, self.t1_ms - idle, "t1", self._discovery_tick)
            return
        self._lookup(search)

    def _lookup(self, search: Search) -> None:
        if not search.dht_pending:
            search.dht_pending = True
            self._query_index(search, self._index_result)

    def _index_result(self, search: Search, providers: list[PeerId]) -> None:
        search.dht_pending = False
        self._on_index(search, providers)
        if search.state is SEARCHING and \
                self._sim().now - search.started_at < self.give_up_ms:
            self._arm(search, self.t1_ms, "t1-retry", self._discovery_tick)

    def _on_index(self, search: Search, providers: list[PeerId]) -> None:
        """What a provider-index result does to the open `search`."""
        raise NotImplementedError

    def _close(self, search: Search) -> None:
        """End a search with one CANCEL per queried peer."""
        search.state = DONE
        sim = self._sim()
        sim.fan_out(self.node, search.queried,
                    sim.message(CANCEL, search.cid))

    # -- requester: providers and attempts ----------------------------------

    def _merge(self, session: FetchSession, providers) -> None:
        for peer in providers:
            if peer != self.node:
                session.providers.setdefault(peer)

    def _offer(self, session: FetchSession, providers) -> None:
        """Providers learned while the request is open: merge them, and
        attempt one if the request is searching."""
        self._merge(session, providers)
        if session.state is SEARCHING and session.untried():
            self._next_provider(session)

    def _next_provider(self, session: FetchSession) -> None:
        """Attempt a uniformly drawn untried provider; with none left, go
        back to searching."""
        untried = session.untried()
        if untried:
            self._attempt(session, untried[self._sim().rng.randrange(len(untried))])
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
        sim = self._sim()
        if sim.reachable(self.node, peer):
            self._exchange(session)
        else:
            sim.dial(self.node, peer, lambda ok: self._dialled(session, peer, ok))

    def _exchange(self, session: FetchSession) -> None:
        sim = self._sim()
        sim.send(self.node, session.target, sim.message(WANT_BLOCK, session.cid))
        self._arm_attempt(session)

    def _arm_attempt(self, session: FetchSession) -> None:
        serial = session.attempt_serial
        self._arm(session, self.t1_ms, "attempt",
                  lambda s: self._attempt_timeout(s, serial))

    def _attempt_timeout(self, session: FetchSession, serial: int) -> None:
        if session.state is FETCHING and session.attempt_serial == serial:
            self._next_provider(session)

    def _dialled(self, session: FetchSession, peer: PeerId, ok: bool) -> None:
        """This session's dial of `peer` completed; act on it only if the
        attempt that dialled is still waiting for it."""
        if session.state is not FETCHING or session.target != peer:
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
        session.state = FAILED
        self._sim().observer.request_failed(self.node, session.cid)

    def _complete(self, session: FetchSession) -> None:
        self._close(session)
        sim = self._sim()
        sim.observer.request_done(self.node, session.cid, session.started_at,
                                  sim.now)

    # -- interface for the simulator ---------------------------------------

    def handle_message(self, frm: PeerId, msg: Message,
                       tag: WalkTag | None = None) -> None:
        raise NotImplementedError
