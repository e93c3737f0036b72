"""Run memory: what a search keeps of the peers it asked, what the event set
keeps of the events it ran, and what an import loads.

A broadcast keeps the simulator's own neighbour tuple as the search's
`queried` peers, not a copy. The simulator never changes a tuple it has
handed out, so the search holds the snapshot it broadcast to, and the fse
spy, linked to every peer, holds one tuple for all its proxy searches
instead of n entries each. A rawa requester under ``verify_provider`` never
broadcasts; its `queried` peers are its verify targets. The event set
clears an entry's slot as its event runs, so a timer's function is freed
before the next event, not at the next refill, and a drained run keeps
nothing but cleared slots. Importing the
package leaves out `multiprocessing`, which only a worker pool needs, and
numpy, which the package does not use: it has no runtime dependency.
"""

from __future__ import annotations

import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from random import Random
from unittest.mock import patch

import rawasim
from rawasim.engine import DONE
from rawasim.netsim import LinkSpec, Observer, Simulator
from rawasim.rawa import RaWaConfig
from rawasim.runner import ExperimentConfig, build_run
from rawasim.vanilla import VanillaEngine


def test_spy_proxy_searches_share_the_spy_neighbour_tuple():
    config = ExperimentConfig(protocol="rawa", adversary="fse", n_peers=30,
                              runs=1, base_seed=1)
    handles = build_run(config, 0)
    handles.sim.run()
    spy, = handles.adversaries
    proxies = handles.engines[spy].inner.proxies
    assert len(proxies) >= 2
    neighbours = handles.sim.neighbors(spy)
    assert len(neighbours) == config.n_peers - 1
    for session in proxies.values():
        assert session.queried is neighbours


def test_vanilla_requester_keeps_its_neighbours_at_request_time():
    at_request = {}
    request_block = VanillaEngine.request_block

    def recording(self, cid):
        at_request[self.node] = self.sim.neighbors(self.node)
        request_block(self, cid)

    config = ExperimentConfig(protocol="vanilla", adversary="none",
                              n_peers=30, runs=1, base_seed=1, stagger_ms=500.0)
    with patch.object(VanillaEngine, "request_block", recording):
        handles = build_run(config, 0)
        handles.sim.run()
    sim = handles.sim
    for node in handles.honest:
        session, = handles.engines[node].sessions.values()
        assert session.queried is at_request[node]
    # dials added edges after the broadcasts; the searches kept their snapshot
    assert any(sim.neighbors(node) != at_request[node] for node in handles.honest)


def test_verify_targets_are_queried_ascending_and_cancelled_once():
    config = ExperimentConfig(protocol="rawa", adversary="wfe", n_peers=30,
                              runs=1, base_seed=1, keep_trace=True,
                              rawa=RaWaConfig(verify_provider=True))
    handles = build_run(config, 0)
    handles.sim.run()
    targets: dict[tuple, list] = {}
    cancels: Counter = Counter()
    for _, _, kind, frm, to, variant, cid8, _ in handles.sim.observer.trace:
        if kind == "send" and variant == "WANT-HAVE":
            targets.setdefault((frm, cid8), []).append(to)
        elif kind == "send" and variant == "CANCEL":
            cancels[(frm, to, cid8)] += 1
    out_of_order = 0
    for node in handles.honest:
        engine = handles.engines[node]
        for cid, session in engine.sessions.items():
            # a proxy for the same cid would broadcast under the same key
            assert cid not in engine.proxies
            sent = targets.get((node, cid.short()), [])
            assert session.queried == tuple(sorted(set(sent)))
            out_of_order += sent != sorted(sent)
            expected = Counter({(node, peer, cid.short()): 1
                                for peer in session.queried
                                if session.state is DONE})
            assert Counter({key: n for key, n in cancels.items()
                            if key[0] == node and key[2] == cid.short()}) \
                == expected
    # the exploiters' ids follow the honest ones, so a fake provider
    # verified first is queried last
    assert out_of_order


class Callback:
    def __call__(self) -> None:
        pass


def test_a_timer_function_is_freed_before_the_next_event_runs():
    """Both timers sit in one ready run (the window is 90 ms), so an entry
    kept until the next refill would keep the first one's function alive."""
    sim = Simulator(LinkSpec(), Random(1), Observer())
    callback = Callback()
    ref = weakref.ref(callback)
    sim.call_at(1.0, -1, callback, ("first", None))
    del callback
    alive_then = []
    sim.call_at(2.0, -1, lambda: alive_then.append(ref() is not None),
                ("second", None))
    sim.call_at(3.0, -1, Callback(), ("third", None))
    assert sim.run(until=2.5) == 2 and len(sim._ready) == 3
    assert alive_then == [False]


def test_a_drained_run_keeps_only_cleared_slots():
    handles = build_run(ExperimentConfig(protocol="rawa", adversary="fse",
                                         n_peers=30, runs=1, base_seed=1), 0)
    sim = handles.sim
    assert sim.run() > 0
    assert sim._later == [] and sim._ready
    assert all(slot is None for slot in sim._ready)


def test_importing_the_package_leaves_multiprocessing_and_numpy_out():
    src = str(Path(rawasim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    check = ("import rawasim, rawasim.cli, sys; "
             "assert 'multiprocessing' not in sys.modules; "
             "assert 'numpy' not in sys.modules")
    subprocess.run([sys.executable, "-c", check], env=env, check=True)
