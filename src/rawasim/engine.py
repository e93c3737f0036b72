"""Shared honest-node machinery: block storage and storage-query answering.

Both protocol engines answer WANT-HAVE / WANT-BLOCK / CANCEL the same way;
they differ in how a node discovers content it wants. The baseline engine
additionally serves blocks at or below ``immediate_block_limit`` straight in
response to a WANT-HAVE; the walk-based engine disables that path because
the asking peer there is usually a proxy that never needs the bytes.
"""

from __future__ import annotations

from .core import (Block, Cid, Message, MessageType, PeerId, derive_cid,
                   validate_block)
from .dht import DummyDht
from .netsim import Simulator

GIVE_UP_MS = 30_000.0


class HonestEngine:
    """Event-loop-confined node: owns a block store and per-cid bookkeeping
    of which peers asked for presence (cleared again by CANCEL)."""

    def __init__(self, node: PeerId, sim: Simulator, dht: DummyDht,
                 immediate_block_limit: int | None = None,
                 give_up_ms: float = GIVE_UP_MS):
        self.node = node
        self.sim = sim
        self.dht = dht
        self.immediate_block_limit = immediate_block_limit
        self.give_up_ms = give_up_ms
        self.store: dict[Cid, Block] = {}
        self.peer_wants: dict[Cid, set[PeerId]] = {}

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
        block = self.store.get(cid)
        if block is not None and self.immediate_block_limit is not None \
                and block.size <= self.immediate_block_limit:
            reply = Message(MessageType.BLOCK, cid, payload=block)
        elif block is not None:
            reply = Message(MessageType.HAVE, cid)
        else:
            reply = Message(MessageType.DONT_HAVE, cid)
        self.sim.send(self.node, frm, reply)

    def handle_storage_query(self, frm: PeerId, msg: Message) -> bool:
        """Shared handling for presence/retrieval/cancel messages; returns
        True when the message was consumed."""
        if msg.variant is MessageType.WANT_HAVE:
            self.peer_wants.setdefault(msg.cid, set()).add(frm)
            self.reply_presence(frm, msg.cid)
            return True
        if msg.variant is MessageType.WANT_BLOCK:
            block = self.store.get(msg.cid)
            if block is not None:
                self.send(frm, Message(MessageType.BLOCK, msg.cid, payload=block))
            else:
                self.send(frm, Message(MessageType.DONT_HAVE, msg.cid))
            return True
        if msg.variant is MessageType.CANCEL:
            wants = self.peer_wants.get(msg.cid)
            if wants is not None:
                wants.discard(frm)
                if not wants:
                    del self.peer_wants[msg.cid]
            return True
        return False

    # -- interface for the simulator ---------------------------------------

    def handle_message(self, frm: PeerId, msg: Message, meta: dict | None) -> None:
        raise NotImplementedError

    def handle_dial(self, peer: PeerId, ok: bool) -> None:
        pass
