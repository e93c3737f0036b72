"""Shared fixtures and scenario builders.

`micro_sim` wires an explicit hand-built topology with chosen engines so
tests can script exact message flows. The timing oracle below recomputes
per-message delays straight from the delay formula, independently of the
simulator's implementation.
"""

from __future__ import annotations

from random import Random

import pytest

from rawasim.core import Block, derive_cid
from rawasim.dht import DummyDht
from rawasim.netsim import LinkSpec, Observer, Simulator
from rawasim.rawa import RaWaConfig, RawaEngine
from rawasim.vanilla import VanillaEngine

MIB = 1048576.0
ZERO_JITTER = LinkSpec(latency_ms=100.0, jitter_ms=0.0, bandwidth_bytes_per_s=MIB)


def ser_ms(size: int) -> float:
    return size / MIB * 1000.0


def leg_ms(size: int, latency: float = 100.0) -> float:
    """One-way delay of a single message at zero jitter."""
    return latency + ser_ms(size)


def make_block(size: int, tag: int = 0) -> Block:
    payload = bytes([tag % 256]) * size
    return Block(payload, size)


class Scenario:
    """A hand-wired run: explicit nodes, edges, engines and block placement."""

    def __init__(self, n_nodes: int, edges, protocol: str = "rawa",
                 rawa: RaWaConfig | None = None, link: LinkSpec = ZERO_JITTER,
                 seed: int = 1, dht_base: float = 622.0, dht_spread: float = 0.0,
                 keep_trace: bool = True, give_up_ms: float = 30_000.0):
        self.rng = Random(seed)
        self.observer = Observer(keep_trace=keep_trace)
        self.sim = Simulator(link, self.rng, self.observer)
        for node in range(n_nodes):
            self.sim.add_node(node)
        for a, b in edges:
            self.sim.add_edge(a, b)
        self.dht = DummyDht(self.sim, dht_base, dht_spread)
        self.engines = {}
        for node in range(n_nodes):
            if protocol == "rawa":
                engine = RawaEngine(node, self.sim, self.dht,
                                    rawa or RaWaConfig(), give_up_ms=give_up_ms)
            else:
                engine = VanillaEngine(node, self.sim, self.dht,
                                       give_up_ms=give_up_ms)
            self.engines[node] = engine
            self.sim.attach(node, engine)

    def place_block(self, node: int, block: Block):
        return self.engines[node].store_block(block)

    def build_graphs(self) -> None:
        for node in sorted(self.engines):
            engine = self.engines[node]
            if isinstance(engine, RawaEngine) and self.sim.neighbors(node):
                engine.build_graph()

    def request(self, node: int, cid, at: float = 0.0) -> None:
        engine = self.engines[node]
        self.sim.schedule(at - self.sim.now, f"request:{cid.short()}",
                          lambda: engine.request_block(cid), node=node)

    def sends(self, variant: str):
        return [rec for rec in self.observer.trace
                if rec[2] == "send" and rec[5] == variant]


@pytest.fixture
def scenario():
    return Scenario


@pytest.fixture
def block_1025():
    return make_block(1025, tag=7)


def cid_of(block: Block):
    return derive_cid(block)
