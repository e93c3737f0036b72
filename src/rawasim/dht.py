"""Omniscient provider index standing in for the content-routing DHT.

Lookups resolve after a uniform delay of ``base_delay * (1 +/- spread)``
and cost no link bandwidth. Departed providers are filtered out at the
moment the result is delivered, not when the query is issued.
"""

from __future__ import annotations

import weakref
from typing import Callable

from .core import Cid, PeerId
from .netsim import Simulator


class DummyDht:
    """The run's provider index. Engines and pending lookups hold it, so it
    holds the simulator weakly, as engines do."""

    def __init__(self, sim: Simulator, base_delay_ms: float = 622.0,
                 delay_spread: float = 0.10):
        self._sim = weakref.ref(sim)
        self.base_delay_ms = base_delay_ms
        self.delay_spread = delay_spread
        self.table: dict[Cid, set[PeerId]] = {}

    @property
    def sim(self) -> Simulator:
        return self._sim()

    def provide(self, cid: Cid, peer: PeerId) -> None:
        self.table.setdefault(cid, set()).add(peer)

    def lookup_delay(self) -> float:
        lo = self.base_delay_ms * (1 - self.delay_spread)
        hi = self.base_delay_ms * (1 + self.delay_spread)
        return self._sim().rng.uniform(lo, hi)

    def lookup(self, cid: Cid, node: PeerId,
               callback: Callable[[list[PeerId]], None]) -> None:
        """Deliver the sorted ids of all live registered providers to
        `callback` after the sampled delay. An empty list is a valid
        outcome."""
        delay = self.lookup_delay()

        def resolve() -> None:
            sim = self._sim()
            callback([p for p in sorted(self.table.get(cid, ())) if sim.is_alive(p)])

        sim = self._sim()
        sim.call_at(sim.now + delay, node, resolve, ("dht-lookup", cid))
