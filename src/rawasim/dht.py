"""Omniscient provider index standing in for the content-routing DHT.

Lookups resolve after a uniform delay of ``base_delay * (1 +/- spread)``
and cost no link bandwidth. Departed providers are filtered out at the
moment the result is delivered, not when the query is issued.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .core import Cid, PeerId, ProviderRecord
from .netsim import Simulator


@dataclass
class DummyDht:
    sim: Simulator
    base_delay_ms: float = 622.0
    delay_spread: float = 0.10
    table: dict[Cid, set[PeerId]] = field(default_factory=dict)

    def provide(self, cid: Cid, peer: PeerId) -> None:
        self.table.setdefault(cid, set()).add(peer)

    def lookup_delay(self) -> float:
        lo = self.base_delay_ms * (1 - self.delay_spread)
        hi = self.base_delay_ms * (1 + self.delay_spread)
        return self.sim.rng.uniform(lo, hi)

    def lookup(self, cid: Cid, node: PeerId,
               callback: Callable[[list[ProviderRecord]], None]) -> None:
        """Deliver all live registered providers to `callback` after the
        sampled delay. An empty list is a valid outcome."""
        delay = self.lookup_delay()

        def resolve() -> None:
            peers = sorted(self.table.get(cid, ()))
            records = [ProviderRecord(p) for p in peers if self.sim.is_alive(p)]
            callback(records)

        self.sim.schedule(delay, f"dht-lookup:{cid.short()}", resolve, node=node)
