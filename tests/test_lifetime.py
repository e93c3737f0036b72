"""Run lifetime: a finished run is freed by reference counting alone, and
`run_single` runs the event loop without the cycle collector.

Engines and the provider index hold the simulator weakly, and sessions
hold only weak handles to their pending timers, so a run holds no
reference cycle however it ends: all requests settled, nodes departed with
timers pending, or stopped by a run bound with events, dials and
departures still queued.
"""

from __future__ import annotations

import gc

import pytest

from rawasim import runner
from rawasim.netsim import Simulator
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


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_run_single_runs_without_the_collector_and_restores_it(
        enabled, raises, monkeypatch):
    seen = []
    real_run = Simulator.run

    def run(sim, until=None):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("run failed")
        return real_run(sim, until)

    monkeypatch.setattr(Simulator, "run", run)
    config = ExperimentConfig(protocol="rawa", n_peers=10, out_links=2, runs=1)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="run failed"):
                runner.run_single(config, 0)
        else:
            assert runner.run_single(config, 0).metrics.n_requesters == 10
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False]
