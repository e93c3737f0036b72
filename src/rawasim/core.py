"""Content-addressing primitives and the protocol message vocabulary.

Peers are dense integer indices within a run (rendered ``P<index>`` in logs).
Blocks are opaque byte payloads addressed by a SHA-256 digest. Messages model
a Bitswap-style envelope carrying exactly one entry; sizes follow a fixed
wire-size table rather than a real codec, so the bandwidth model stays
reproducible.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from random import Random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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
        return self[:4].hex()

    def __repr__(self) -> str:
        return f"Cid({self.short()})"


@dataclass(frozen=True)
class Block:
    """An immutable payload and its CID, computed once, at construction, so
    a block is hashed once however often it is stored, sent and validated;
    a different (say, tampered) block is a different object and is hashed
    afresh. The CID is a plain field rather than a `cached_property`: on
    Python 3.11 that descriptor holds one lock, shared by every instance,
    while it computes, so blocks built on several threads would hash one at
    a time."""

    payload: bytes
    cid: Cid = field(init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.payload)

    def __post_init__(self) -> None:
        if not self.payload:
            raise ValueError("block payload must be non-empty")
        object.__setattr__(self, "cid", Cid(hashlib.sha256(self.payload).digest()))


def derive_cid(block: Block) -> Cid:
    """Digest of the payload; equal payloads always map to equal CIDs."""
    return block.cid


def validate_block(cid: Cid, block: Block) -> bool:
    return block.cid == cid


# At or above this many bytes a payload comes from numpy's Mersenne Twister,
# and `make_blocks` builds blocks on a thread pool. Below it numpy's fixed
# cost (mostly its seeding, about 25 us) outweighs what it saves per byte:
# both paths take about 40 us at 8 KiB, and numpy takes a quarter of the
# time at 150 KiB.
LARGE_PAYLOAD_BYTES = 8192

# Most threads `make_blocks` runs on. Drawing a payload and hashing it both
# release the GIL, but the event loop is single-threaded, so a few threads
# cover a run's blocks.
MAX_BLOCK_THREADS = 4

_local = threading.local()
_pool: ThreadPoolExecutor | None = None


def _numpy_mt():
    """This thread's generator: one per thread, so threads reseed and draw
    without a lock. numpy.random is imported on first use, not with this
    module: it costs 10-15 ms and a few MiB of RSS, which runs with small
    blocks never pay."""
    generator = getattr(_local, "mt", None)
    if generator is None:
        from numpy.random import MT19937, RandomState
        generator = _local.mt = RandomState(MT19937())
    return generator


def random_payload(seed: int, size: int) -> bytes:
    """`random.Random(seed).randbytes(size)`, for any seed >= 0 and size >= 1,
    safe to call from several threads at once.

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
    generator.seed(key)
    words = generator.randint(0, 1 << 32, size=-(-size // 4), dtype="u4")
    data = words.astype("<u4", copy=False).tobytes()
    tail = size % 4
    if tail:
        last = int(words[-1]) >> (32 - 8 * tail)
        data = data[:size - tail] + last.to_bytes(tail, "little")
    return data


def _block(seed: int, size: int) -> Block:
    return Block(random_payload(seed, size))


def _block_pool() -> ThreadPoolExecutor | None:
    """The process's block pool, created on first use; None with one CPU.
    No lock: two threads racing here would at worst leave one idle pool.
    concurrent.futures is imported here: with logging it costs about 10 ms
    of start-up, which runs with small blocks never pay."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
        if cpus < 2:
            return None
        _pool = ThreadPoolExecutor(min(cpus, MAX_BLOCK_THREADS),
                                   thread_name_prefix="rawasim-blocks")
    return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool but not its threads: work submitted
    # to it would wait forever. The child builds its own on first use.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # no fork, so no guard, on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def make_blocks(seeds: Iterable[int], size: int) -> Iterator[Block]:
    """`Block(random_payload(seed, size))` for each seed, in seed order.

    Large blocks are all submitted to the block pool before this returns,
    so the caller can do other work while they are drawn and hashed; the
    iterator waits for each in turn. Every block is a pure function of its
    seed, so the thread count cannot change a byte."""
    pool = _block_pool() if size >= LARGE_PAYLOAD_BYTES else None
    if pool is None:
        return (_block(seed, size) for seed in seeds)
    return pool.map(_block, seeds, repeat(size))


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
