"""Content-addressing primitives and the protocol message vocabulary.

Peers are dense integer indices within a run (rendered ``P<index>`` in logs).
Blocks are opaque byte payloads addressed by a SHA-256 digest. Messages model
a Bitswap-style envelope carrying exactly one entry; sizes follow a fixed
wire-size table rather than a real codec, so the bandwidth model stays
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

PeerId = int

# Wire-size table (bytes). One envelope carries exactly one CID entry.
ENVELOPE_BYTES = 4
CID_ENTRY_BYTES = 40
PROVIDER_RECORD_BYTES = 38


def peer_name(peer: PeerId) -> str:
    return f"P{peer}"


@dataclass(frozen=True)
class Cid:
    """Self-verifying content identifier: SHA-256 digest of the block payload."""

    digest: bytes

    def short(self) -> str:
        return self.digest.hex()[:8]

    def __repr__(self) -> str:
        return f"Cid({self.short()})"


@dataclass(frozen=True)
class Block:
    payload: bytes

    @property
    def size(self) -> int:
        return len(self.payload)

    def __post_init__(self) -> None:
        if not self.payload:
            raise ValueError("block payload must be non-empty")


def derive_cid(block: Block) -> Cid:
    """Digest of the payload; equal payloads always map to equal CIDs."""
    return Cid(hashlib.sha256(block.payload).digest())


def validate_block(cid: Cid, block: Block) -> bool:
    return derive_cid(block) == cid


class MessageType(Enum):
    WANT_HAVE = "WANT-HAVE"
    WANT_BLOCK = "WANT-BLOCK"
    CANCEL = "CANCEL"
    HAVE = "HAVE"
    DONT_HAVE = "DONT-HAVE"
    BLOCK = "BLOCK"
    WANT_FORWARD = "WANT-FORWARD"
    FORWARD_HAVE = "FORWARD-HAVE"


REQUEST_TYPES = frozenset(
    {MessageType.WANT_HAVE, MessageType.WANT_BLOCK, MessageType.WANT_FORWARD}
)


@dataclass(frozen=True)
class ProviderRecord:
    """A peer believed to store the block."""

    peer: PeerId


@dataclass(frozen=True)
class Message:
    variant: MessageType
    cid: Cid
    payload: Block | None = None
    providers: tuple[ProviderRecord, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if (self.payload is not None) != (self.variant is MessageType.BLOCK):
            raise ValueError("payload present iff variant is BLOCK")
        if bool(self.providers) != (self.variant is MessageType.FORWARD_HAVE):
            raise ValueError("providers non-empty iff variant is FORWARD-HAVE")

    def __repr__(self) -> str:
        extra = ""
        if self.payload is not None:
            extra = f", {self.payload.size}B"
        elif self.providers:
            extra = f", providers={[peer_name(p.peer) for p in self.providers]}"
        return f"Message({self.variant.value} {self.cid.short()}{extra})"


def wire_size(message: Message) -> int:
    """Size in bytes: envelope + CID entry, plus payload / provider records."""
    size = ENVELOPE_BYTES + CID_ENTRY_BYTES
    if message.variant is MessageType.BLOCK:
        size += message.payload.size
    elif message.variant is MessageType.FORWARD_HAVE:
        size += PROVIDER_RECORD_BYTES * len(message.providers)
    return size
