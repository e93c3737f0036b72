"""Run lifetime: a finished run is freed by reference counting alone, and
`Simulator.run` runs the event loop without the cycle collector.

Engines and the provider index hold the simulator weakly, and only the
event set holds a timer: sessions keep no handle to theirs, and a timer
reads its session's state when it fires. So a run holds no reference cycle
however it ends: all requests settled, nodes departed with timers pending,
or stopped by a run bound with events, dials and departures still queued.
"""

from __future__ import annotations

import gc
from random import Random

import pytest

from rawasim.core import Block, MessageType
from rawasim.netsim import LinkSpec, Simulator
from rawasim.runner import ExperimentConfig, build_run, collect_metrics

ENDINGS = {
    "plain": {},
    "churn-stagger": {"churn": ((1, 300.0), (4, 900.0)), "stagger_ms": 200.0},
    "run-bound": {"run_bound_ms": 700.0},
    # a departure, and under rawa some dials, still queued at the bound
    "run-bound-churn": {"churn": ((1, 300.0), (4, 900.0)), "run_bound_ms": 700.0},
}


@pytest.fixture
def collector_off():
    """The cycle collector off for the test; its state restored after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("adversary", ["none", "fse", "wfe", "sawfe"])
@pytest.mark.parametrize("protocol", ["vanilla", "rawa"])
def test_a_dropped_run_leaves_no_cyclic_garbage(protocol, adversary, ending,
                                                collector_off):
    config = ExperimentConfig(protocol=protocol, adversary=adversary,
                              n_peers=20, out_links=3, runs=1, base_seed=5,
                              **ENDINGS[ending])
    gc.collect()  # start from a heap without cyclic garbage
    handles = build_run(config, 0)
    handles.sim.run(until=config.run_bound_ms)
    metrics = collect_metrics(handles)
    assert metrics.n_requesters == len(handles.honest)
    del handles
    assert gc.collect() == 0


class Probe:
    """An engine that notes the collector's state on every delivery and,
    if asked, raises from the first one."""

    def __init__(self, raises: bool):
        self.raises = raises
        self.seen: list[bool] = []

    def handle_message(self, frm, msg, tag=None):
        self.seen.append(gc.isenabled())
        if self.raises:
            raise RuntimeError("handler failed")


@pytest.mark.parametrize("ending", ["drained", "until", "raises"])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_turns_the_collector_off_and_restores_it(enabled, ending):
    """Timers and handlers run with the collector off, and `run` gives it
    back its previous state whether the heap drains, the run stops at
    `until` or a handler raises."""
    sim = Simulator(LinkSpec(), Random(1))
    for v in (0, 1):
        sim.add_node(v)
    sim.add_edge(0, 1)
    probe = Probe(raises=ending == "raises")
    sim.attach(1, probe)
    seen = []

    def tick():
        seen.append(gc.isenabled())
        sim.send(0, 1, sim.message(MessageType.WANT_HAVE, Block(b"x", 1).cid))
    for at in (0.0, 300.0, 600.0):
        sim.schedule(at, "tick", tick, node=0)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if ending == "raises":
            with pytest.raises(RuntimeError, match="handler failed"):
                sim.run()
        else:
            sim.run(until=450.0 if ending == "until" else None)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    # a delivery takes about 100 ms, so the bound at 450 ms stops the run
    # after two ticks and their deliveries
    expected = {"drained": (3, 3), "until": (2, 2), "raises": (1, 1)}[ending]
    assert (len(seen), len(probe.seen)) == expected
    assert not any(seen + probe.seen)
