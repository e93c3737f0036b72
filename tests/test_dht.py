from random import Random

import pytest

from rawasim.core import Block, derive_cid
from rawasim.dht import DummyDht
from rawasim.netsim import Observer, Simulator

from conftest import ZERO_JITTER


def make_dht(spread=0.10, seed=1):
    sim = Simulator(ZERO_JITTER, Random(seed), Observer())
    for node in range(4):
        sim.add_node(node)
    return sim, DummyDht(sim, base_delay_ms=622.0, delay_spread=spread)


def lookup_now(sim, dht, cid, node=0):
    out = {}
    dht.lookup(cid, node, lambda providers: out.setdefault("r", providers))
    sim.run()
    return out["r"], sim.now


def test_provide_then_lookup():
    sim, dht = make_dht()
    cid = derive_cid(Block(b"a", 1))
    dht.provide(cid, 1)
    providers, at = lookup_now(sim, dht, cid)
    assert providers == [1]


def test_provide_idempotent():
    sim, dht = make_dht()
    cid = derive_cid(Block(b"a", 1))
    dht.provide(cid, 1)
    dht.provide(cid, 1)
    providers, _ = lookup_now(sim, dht, cid)
    assert providers == [1]


def test_multiple_providers_returned():
    sim, dht = make_dht()
    cid = derive_cid(Block(b"a", 1))
    dht.provide(cid, 2)
    dht.provide(cid, 1)
    providers, _ = lookup_now(sim, dht, cid)
    assert providers == [1, 2]


def test_unknown_cid_empty_after_same_delay():
    sim, dht = make_dht()
    providers, at = lookup_now(sim, dht, derive_cid(Block(b"nope", 4)))
    assert providers == []
    assert 559.8 <= at <= 684.2


def test_delay_bounds_and_mean():
    sim, dht = make_dht()
    draws = [dht.lookup_delay() for _ in range(10_000)]
    assert all(559.8 <= d <= 684.2 for d in draws)
    mean = sum(draws) / len(draws)
    assert 615.0 <= mean <= 629.0


def test_departed_provider_filtered_at_delivery():
    sim, dht = make_dht()
    cid = derive_cid(Block(b"a", 1))
    dht.provide(cid, 1)
    dht.provide(cid, 2)
    sim.schedule_departure(2, at=100.0)  # departs while the query is pending
    providers, _ = lookup_now(sim, dht, cid)
    assert providers == [1]


def test_never_returns_unregistered_peer():
    sim, dht = make_dht()
    cid = derive_cid(Block(b"a", 1))
    dht.provide(cid, 3)
    providers, _ = lookup_now(sim, dht, cid)
    assert all(p == 3 for p in providers)
