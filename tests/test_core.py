import hashlib
import pickle
from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawasim import core, runner
from rawasim.core import (CID_ENTRY_BYTES, ENVELOPE_BYTES, PROVIDER_RECORD_BYTES,
                          Block, Cid, Message, MessageType, derive_cid,
                          peer_name, validate_block, wire_size)
from rawasim.netsim import LinkSpec
from rawasim.runner import ExperimentConfig, build_run


def test_cid_deterministic():
    block = Block(b"hello world", 11)
    assert derive_cid(block) == derive_cid(Block(b"hello world", 11))


def test_cid_collision_free_over_random_blocks():
    # 10^5 random payloads must map to 10^5 distinct digests
    rng = Random(1234)
    seen = set()
    for _ in range(100_000):
        payload = rng.randbytes(rng.randint(1, 64)) + rng.randbytes(8)
        seen.add(derive_cid(Block(payload, len(payload))))
    assert len(seen) == 100_000


def test_validate_round_trip():
    block = Block(b"payload", 7)
    assert validate_block(derive_cid(block), block)


def test_validate_rejects_other_payload():
    cid = derive_cid(Block(b"payload", 7))
    assert not validate_block(cid, Block(b"payload!", 7))


@pytest.mark.parametrize("protocol, block_size", [
    ("vanilla", 1025), ("rawa", 1025), ("vanilla", 153_600), ("rawa", 153_600),
], ids=["vanilla", "rawa", "vanilla-153600", "rawa-153600"])
def test_a_run_hashes_each_stored_block_once(protocol, block_size, monkeypatch):
    """A received block is the sender's stored object, whose CID is kept on
    it, so validating it on receipt hashes nothing: each block's key is
    hashed once, whatever the block's size."""
    hashed = Counter()

    def sha256(data):
        hashed[id(data)] += 1
        return hashlib.sha256(data)
    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=sha256))
    config = ExperimentConfig(protocol=protocol, n_peers=20, out_links=3,
                              runs=1, base_seed=3, block_size=block_size)
    handles = build_run(config, 0)
    handles.sim.run()
    assert len(handles.sim.observer.completions) == len(handles.honest)
    stored = {id(block): block for engine in handles.engines.values()
              for block in engine.store.values()}
    assert len(stored) == len(handles.honest)
    assert hashed == Counter({id(block.payload): 1 for block in stored.values()})


@pytest.mark.parametrize("block_size", [1, 1025, 153_600, 2**64 + 1])
@pytest.mark.parametrize("protocol", ["vanilla", "rawa"])
def test_build_run_blocks_equal_a_serial_oracle(protocol, block_size,
                                                monkeypatch):
    """The blocks a run stores are `Block(b"<seed>:<size>", size)` of the
    sub-seeds it draws, stored in node order and indexed in that order;
    every interest is one of their CIDs."""
    drawn = []

    def make_blocks(seeds, size):
        drawn.extend(seeds)
        return core.make_blocks(seeds, size)
    monkeypatch.setattr(runner, "make_blocks", make_blocks)
    # a link fast enough that a block past 64 bits stays under the clock's
    # horizon; the build draws nothing from the link
    config = ExperimentConfig(protocol=protocol, n_peers=20, out_links=3,
                              runs=1, base_seed=3, block_size=block_size,
                              link=LinkSpec(bandwidth_bytes_per_s=2.0 ** 64))
    handles = build_run(config, 0)
    oracle = [Block(f"{seed}:{block_size}".encode(), block_size)
              for seed in drawn]
    cids = [Cid(hashlib.sha256(block.payload).digest()) for block in oracle]
    assert len(oracle) == len(handles.honest)
    for node, block, cid in zip(handles.honest, oracle, cids):
        assert block.cid == cid
        store = handles.engines[node].store
        assert list(store) == [cid] and store[cid] == block
        assert store[cid].cid == cid and store[cid].size == block_size
    assert handles.dht.table == {cid: {node}
                                 for node, cid in zip(handles.honest, cids)}
    assert list(handles.dht.table) == cids
    assert set(handles.truth.interests.values()) <= set(cids)


def test_empty_block_rejected():
    with pytest.raises(ValueError):
        Block(b"", 1)


@pytest.mark.parametrize("size", [0, -1])
def test_block_without_bytes_rejected(size):
    with pytest.raises(ValueError, match="size"):
        Block(b"x", size)


def test_message_field_invariants():
    cid = derive_cid(Block(b"x", 1))
    with pytest.raises(ValueError):
        Message(MessageType.WANT_HAVE, cid, payload=Block(b"x", 1))
    with pytest.raises(ValueError):
        Message(MessageType.BLOCK, cid)
    with pytest.raises(ValueError):
        Message(MessageType.HAVE, cid, providers=(1,))
    with pytest.raises(ValueError):
        Message(MessageType.FORWARD_HAVE, cid)
    for variant in MessageType:
        if variant is not MessageType.BLOCK:
            with pytest.raises(ValueError, match="payload"):
                Message(variant, cid, payload=Block(b"x", 1))
        if variant is not MessageType.FORWARD_HAVE:
            payload = Block(b"x", 1) if variant is MessageType.BLOCK else None
            with pytest.raises(ValueError, match="providers"):
                Message(variant, cid, payload, (1,))


def test_wire_size_table():
    cid = derive_cid(Block(b"x", 1))
    assert wire_size(Message(MessageType.WANT_HAVE, cid)) == 44
    assert wire_size(Message(MessageType.CANCEL, cid)) == 44
    assert wire_size(Message(MessageType.FORWARD_HAVE, cid, providers=(1, 2))) == 120
    assert wire_size(Message(MessageType.BLOCK, cid, payload=Block(b"a" * 1025, 1025))) == 1069


def test_wire_size_monotone_in_payload():
    sizes = []
    for n in (1, 2, 17, 1024, 1025, 153_600):
        block = Block(b"b" * n, n)
        sizes.append(wire_size(Message(MessageType.BLOCK, derive_cid(block),
                                       payload=block)))
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)


def test_peer_rendering():
    assert peer_name(17) == "P17"
    assert len(Cid(b"\xab" * 32).short()) == 8


def test_cids_with_one_digest_are_one_key():
    digest = bytes(range(32))
    a, b = Cid(digest), Cid(bytes(digest))
    assert a == b and hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert table == {a: "second"} and len({a, b}) == 1
    assert Cid(b"\x01" * 32) != a


def test_cid_digest_short_repr_and_pickle():
    digest = bytes(range(32))
    cid = Cid(digest)
    assert type(cid.digest) is bytes and cid.digest == digest
    assert cid.short() == digest.hex()[:8] == "00010203"
    assert repr(cid) == "Cid(00010203)"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(cid, protocol))
        assert type(back) is Cid and back == cid and hash(back) == hash(cid)
    assert type(derive_cid(Block(b"x", 1))) is Cid


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(min_size=32, max_size=32))
def test_cid_short_is_the_first_eight_hex_digits(digest):
    cid = Cid(digest)
    assert cid.short() == cid.hex()[:8] == digest.hex()[:8]


PAYLOAD_FREE = [t for t in MessageType
                if t not in (MessageType.BLOCK, MessageType.FORWARD_HAVE)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(payload=st.integers(2, 200_000), providers=st.integers(1, 40))
def test_wire_size_follows_the_table(payload, providers):
    cid = derive_cid(Block(b"s", 1))
    base = ENVELOPE_BYTES + CID_ENTRY_BYTES
    for variant in PAYLOAD_FREE:
        assert wire_size(Message(variant, cid)) == base
    # the wire carries the block's size, never its 1-byte payload's length
    block = Message(MessageType.BLOCK, cid, payload=Block(b"b", payload))
    assert wire_size(block) == base + payload
    forward = Message(MessageType.FORWARD_HAVE, cid,
                      providers=tuple(range(providers)))
    assert wire_size(forward) == base + PROVIDER_RECORD_BYTES * providers
