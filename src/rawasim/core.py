"""Content-addressing primitives and the protocol message vocabulary.

Peers are dense integer indices within a run (rendered ``P<index>`` in logs).
Blocks are opaque byte payloads addressed by a SHA-256 digest. Messages model
a Bitswap-style envelope carrying exactly one entry; sizes follow a fixed
wire-size table rather than a real codec, so the bandwidth model stays
reproducible.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from random import Random

PeerId = int

# Wire-size table (bytes). One envelope carries exactly one CID entry.
ENVELOPE_BYTES = 4
CID_ENTRY_BYTES = 40
PROVIDER_RECORD_BYTES = 38


def peer_name(peer: PeerId) -> str:
    return f"P{peer}"


def check_field_types(config, numbers=(), flags=()) -> None:
    """Refuse a bool for each numeric field in `numbers` (JSON ``true``
    compares as 1) and anything but a bool for each flag in `flags` (the
    string ``"no"`` is truthy)."""
    for name in numbers:
        value = getattr(config, name)
        if isinstance(value, bool):
            raise ValueError(f"{name} must be a number, not {value!r}")
    for name in flags:
        value = getattr(config, name)
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, not {value!r}")


class Cid(bytes):
    """Self-verifying content identifier: SHA-256 digest of the block payload.

    A `bytes` subclass, so the dict and set lookups keyed by CID on every
    message use bytes' cached C hash and C equality.
    """

    __slots__ = ()

    @property
    def digest(self) -> bytes:
        return bytes(self)

    def short(self) -> str:
        return self.hex()[:8]

    def __repr__(self) -> str:
        return f"Cid({self.short()})"


@dataclass(frozen=True)
class Block:
    """An immutable payload. Its CID is computed on first use and kept on
    the instance, so a block is hashed once however often it is stored,
    sent and validated; a different (say, tampered) block is a different
    object and is hashed afresh."""

    payload: bytes

    @property
    def size(self) -> int:
        return len(self.payload)

    @cached_property
    def cid(self) -> Cid:
        return Cid(hashlib.sha256(self.payload).digest())

    def __post_init__(self) -> None:
        if not self.payload:
            raise ValueError("block payload must be non-empty")


def derive_cid(block: Block) -> Cid:
    """Digest of the payload; equal payloads always map to equal CIDs."""
    return block.cid


def validate_block(cid: Cid, block: Block) -> bool:
    return block.cid == cid


# At or above this many bytes a payload comes from numpy's Mersenne Twister.
# Below it numpy's fixed cost (mostly its seeding, about 25 us) outweighs
# what it saves per byte: both paths take about 40 us at 8 KiB, and numpy
# takes a quarter of the time at 150 KiB.
LARGE_PAYLOAD_BYTES = 8192

_mt_lock = threading.Lock()


@cache
def _numpy_mt():
    # Imported on first use, not with this module: numpy.random costs
    # 10-15 ms and a few MiB of RSS, which runs with small blocks never pay.
    from numpy.random import MT19937, RandomState
    return RandomState(MT19937())


def random_payload(seed: int, size: int) -> bytes:
    """`random.Random(seed).randbytes(size)`, for any seed >= 0 and size >= 1.

    Large payloads are drawn from numpy's MT19937 seeded with the key CPython
    derives from an int seed: its 32-bit words, least significant first (a
    list, so numpy runs the same init_by_array; a scalar would take another
    seeding). `randint` over the full 32-bit range returns the generator's
    raw words. `randbytes` emits them little-endian, and a last partial word
    as its high bytes."""
    if size < LARGE_PAYLOAD_BYTES:
        return Random(seed).randbytes(size)
    key = [(seed >> shift) & 0xFFFFFFFF
           for shift in range(0, max(seed.bit_length(), 1), 32)]
    generator = _numpy_mt()
    with _mt_lock:  # reseed and draw as one step
        generator.seed(key)
        words = generator.randint(0, 1 << 32, size=-(-size // 4), dtype="u4")
    data = words.astype("<u4", copy=False).tobytes()
    tail = size % 4
    if tail:
        last = int(words[-1]) >> (32 - 8 * tail)
        data = data[:size - tail] + last.to_bytes(tail, "little")
    return data


class MessageType(Enum):
    WANT_HAVE = "WANT-HAVE"
    WANT_BLOCK = "WANT-BLOCK"
    CANCEL = "CANCEL"
    HAVE = "HAVE"
    DONT_HAVE = "DONT-HAVE"
    BLOCK = "BLOCK"
    WANT_FORWARD = "WANT-FORWARD"
    FORWARD_HAVE = "FORWARD-HAVE"


# The members as module globals: a global load is about ten times cheaper
# than an attribute lookup on the enum class, and handlers make several per
# message.
WANT_HAVE = MessageType.WANT_HAVE
WANT_BLOCK = MessageType.WANT_BLOCK
CANCEL = MessageType.CANCEL
HAVE = MessageType.HAVE
DONT_HAVE = MessageType.DONT_HAVE
BLOCK = MessageType.BLOCK
WANT_FORWARD = MessageType.WANT_FORWARD
FORWARD_HAVE = MessageType.FORWARD_HAVE

# A tuple, not a set: `in` then compares identities in C, where a set would
# call Enum's Python-level __hash__ on every test (once per log record when
# a classifier scans the adversary's log).
REQUEST_TYPES = (WANT_HAVE, WANT_BLOCK, WANT_FORWARD)


@dataclass(frozen=True)
class Message:
    """One envelope. Immutable, so one instance may be sent many times; its
    wire size is computed once, at construction."""

    variant: MessageType
    cid: Cid
    payload: Block | None = None
    # peers believed to store the block (FORWARD-HAVE only)
    providers: tuple[PeerId, ...] = field(default_factory=tuple)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.payload is not None) != (self.variant is BLOCK):
            raise ValueError("payload present iff variant is BLOCK")
        if bool(self.providers) != (self.variant is FORWARD_HAVE):
            raise ValueError("providers non-empty iff variant is FORWARD-HAVE")
        size = ENVELOPE_BYTES + CID_ENTRY_BYTES
        if self.payload is not None:
            size += self.payload.size
        else:
            size += PROVIDER_RECORD_BYTES * len(self.providers)
        object.__setattr__(self, "size", size)

    def __repr__(self) -> str:
        extra = ""
        if self.payload is not None:
            extra = f", {self.payload.size}B"
        elif self.providers:
            extra = f", providers={[peer_name(p) for p in self.providers]}"
        return f"Message({self.variant.value} {self.cid.short()}{extra})"


def wire_size(message: Message) -> int:
    """Size in bytes: envelope + CID entry, plus payload / provider records."""
    return message.size
