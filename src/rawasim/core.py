"""Content addressing, the protocol message vocabulary and config field rules.

Peers are dense integer indices within a run (rendered ``P<index>`` in logs).
A block is its size on the wire and a short payload, the bytes its SHA-256
CID hashes: no run reads a block's content, only its CID and its size.
Messages model a Bitswap-style envelope carrying exactly one entry; sizes
follow a fixed wire-size table rather than a real codec, so the bandwidth
model stays reproducible.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache

PeerId = int

# Wire-size table (bytes). One envelope carries exactly one CID entry.
ENVELOPE_BYTES = 4
CID_ENTRY_BYTES = 40
PROVIDER_RECORD_BYTES = 38


def peer_name(peer: PeerId) -> str:
    return f"P{peer}"


def rule(default, check: Callable, text: str, none_as: str | None = None):
    """A config field's default and range: `check` tells whether a value of
    its kind is in range; `text` ends the refusal "<key> must <text>, not
    <value>"; `decode` reads the string `none_as` as None."""
    return field(default=default, metadata={"rule": (check, text, none_as)})


# the kinds an annotation may name, each with the text of a field of no rule
_KINDS = {"int": (int, "be an integer"), "float": (float, "be a number"),
          "bool": (bool, "be true or false"), "str": (str, "be a string"),
          "tuple": (tuple, "be a list")}


@cache
def field_rules(cls) -> dict[str, tuple]:
    """Each field of config class `cls`, by name in field order, to ``(kind,
    nullable, check, text, none_as)``: the kind from its annotation (one of
    `_KINDS`, maybe ``| None``) or a nested config's ``default_factory``, the
    rest from its `rule`. Callers share the dict and must not change it."""
    rules = {}
    for f in fields(cls):
        names = f.type.split(" | ")
        kinds = [_KINDS.get(name.partition("[")[0]) for name in names if name != "None"]
        if is_dataclass(f.default_factory):
            kinds = [(f.default_factory, f"be an object of {f.name} keys")]
        if len(kinds) != 1 or kinds[0] is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no kind in {f.type!r}")
        check, text, none_as = f.metadata.get("rule", (None, kinds[0][1], None))
        rules[f.name] = (kinds[0][0], "None" in names, check, text, none_as)
    return rules


def is_kind(value, kind: type) -> bool:
    """Whether `value` is of `kind`: an int is a float too, a bool neither."""
    return (isinstance(value, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(value, bool)))


def check_fields(config) -> None:
    """Refuse the first field of `config` not of its kind or out of its range."""
    for name, (kind, nullable, check, text, _) in field_rules(type(config)).items():
        value = getattr(config, name)
        if not (value is None and nullable or is_kind(value, kind)
                and (check is None or check(value))):
            raise ValueError(f"{name} must {text}, not {value!r}")


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


def decode(cls, data: dict, what: str = "config"):
    """Config class `cls` built from the JSON object `data`, refusing unknown
    keys: a nested config's object is decoded in turn, a tuple field's lists
    become tuples, and a field's `none_as` string becomes None."""
    rules = field_rules(cls)
    unknown = set(data) - set(rules)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for name, value in data.items():
        kind, _, _, _, none_as = rules[name]
        if isinstance(value, dict) and is_dataclass(kind):
            value = decode(kind, value, name)
        elif kind is tuple:
            value = _tuples(value)
        values[name] = None if value == none_as else value
    return cls(**values)


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
    """A block: `payload`, the bytes its CID hashes, and `size`, its length
    on the wire. The CID is computed once, at construction, so a block is
    hashed once however often it is stored, sent and validated; a different
    (say, tampered) block has another payload and is hashed afresh."""

    payload: bytes
    size: int
    cid: Cid = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.payload:
            raise ValueError("block payload must be non-empty")
        if self.size < 1:
            raise ValueError("block size must be >= 1")
        object.__setattr__(self, "cid", Cid(hashlib.sha256(self.payload).digest()))


def derive_cid(block: Block) -> Cid:
    """Digest of the payload; equal payloads always map to equal CIDs."""
    return block.cid


def validate_block(cid: Cid, block: Block) -> bool:
    return block.cid == cid


def make_blocks(seeds: Iterable[int], size: int) -> list[Block]:
    """One block of `size` bytes per sub-seed, in seed order. Its payload is
    the key ``b"<seed>:<size>"``, so two blocks share a CID only if they
    share both."""
    return [Block(f"{seed}:{size}".encode(), size) for seed in seeds]


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
# call Enum's Python-level __hash__ on every test (once per message an
# adversary hears).
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
