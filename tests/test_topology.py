from itertools import combinations
from random import Random

import pytest

from rawasim import runner
from rawasim.netsim import LinkSpec, Simulator
from rawasim.runner import ExperimentConfig, build_run
from rawasim.topology import (build_honest_topology, wire_adversary)

SCALES = [(n, out_links, seed) for n in (20, 50, 400)
          for out_links in (1, 2, 3, 4) for seed in (0, 7, 4242)]


def honest_sim(n_honest, out_links, rng):
    sim = Simulator(LinkSpec(), Random(0))
    return sim, build_honest_topology(sim, n_honest, out_links, rng)


def edges(sim):
    return {(a, b) for a in sim.nodes() for b in sim.neighbors(a) if a < b}


def test_degrees_at_default_scale():
    for seed in range(100):
        sim, honest = honest_sim(50, 4, Random(seed))
        degrees = [len(sim.neighbors(n)) for n in honest]
        assert min(degrees) >= 4
        mean = sum(degrees) / len(degrees)
        assert 7.5 <= mean <= 8.5
        # each node contributes exactly out_links fresh edges
        assert len(edges(sim)) == 50 * 4


def test_small_network_forced_complete():
    sim, _ = honest_sim(5, 4, Random(3))
    assert edges(sim) == {(a, b) for a, b in combinations(range(5), 2)}


def test_same_seed_same_edges():
    a, _ = honest_sim(50, 4, Random(11))
    b, _ = honest_sim(50, 4, Random(11))
    assert edges(a) == edges(b)


def test_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        honest_sim(4, 4, Random(0))


def test_no_self_loops_or_duplicates():
    sim, honest = honest_sim(30, 4, Random(5))
    assert all(n not in sim.neighbors(n) for n in honest)
    # a duplicate pick would leave fewer than out_links edges per node
    assert sum(len(sim.neighbors(n)) for n in honest) == 2 * 30 * 4


def test_fse_wiring():
    sim, honest = honest_sim(49, 4, Random(2))
    adversaries = wire_adversary(sim, honest, "fse", Random(2))
    assert len(sim.nodes()) == 50
    spy = adversaries[0]
    assert len(sim.neighbors(spy)) == 49
    assert set(sim.neighbors(spy)) == set(honest)


def test_wfe_wiring_partitions_honest_nodes():
    sim, honest = honest_sim(40, 4, Random(8))
    adversaries = wire_adversary(sim, honest, "wfe", Random(8))
    assert len(adversaries) == 10
    assert len(sim.nodes()) == 50
    for adv in adversaries:
        assert len(sim.neighbors(adv)) == 4
    for node in honest:
        adv_neighbors = [p for p in sim.neighbors(node) if p in adversaries]
        assert len(adv_neighbors) == 1


def test_sawfe_wiring_matches_wfe():
    wfe, honest = honest_sim(40, 4, Random(9))
    wire_adversary(wfe, honest, "wfe", Random(77))
    sawfe, honest = honest_sim(40, 4, Random(9))
    wire_adversary(sawfe, honest, "sawfe", Random(77))
    assert edges(wfe) == edges(sawfe)


def test_wfe_wiring_rejects_bad_split():
    sim, honest = honest_sim(41, 4, Random(1))
    with pytest.raises(ValueError):
        wire_adversary(sim, honest, "wfe", Random(1))


def test_unknown_kind_rejected():
    sim, honest = honest_sim(10, 4, Random(1))
    with pytest.raises(ValueError):
        wire_adversary(sim, honest, "mitm", Random(1))


# -- run setup against the rules it was first written as -------------------------


def reference_edges(n_honest, out_links, rng):
    """Each node samples its targets from a scan of the honest ids, in
    ascending order, that are neither itself nor already its neighbours."""
    adjacency = {v: set() for v in range(n_honest)}
    for node in range(n_honest):
        candidates = [p for p in range(n_honest)
                      if p != node and p not in adjacency[node]]
        for target in rng.sample(candidates, min(out_links, len(candidates))):
            adjacency[node].add(target)
            adjacency[target].add(node)
    return {(a, b) for a in adjacency for b in adjacency[a] if a < b}


@pytest.mark.parametrize("n, out_links, seed", SCALES)
def test_edges_and_draws_match_the_reference(n, out_links, seed):
    rng, oracle = Random(seed), Random(seed)
    sim, _ = honest_sim(n, out_links, rng)
    assert edges(sim) == reference_edges(n, out_links, oracle)
    assert rng.getstate() == oracle.getstate()


class RecordingRandom(Random):
    """A `Random` that keeps every `randrange` result, in order."""

    def __init__(self, seed=None):
        self.drawn = []
        super().__init__(seed)

    def randrange(self, *args):
        value = super().randrange(*args)
        self.drawn.append(value)
        return value


@pytest.mark.parametrize("n, out_links, seed", SCALES)
def test_interests_are_the_drawn_index_into_the_other_nodes(
        n, out_links, seed, monkeypatch):
    """Without unique interests node v wants the block of ``others[j]``,
    where ``others`` is the honest ids less v and j the draw made for v;
    those draws are the last ones `build_run` makes."""
    monkeypatch.setattr(runner, "Random", RecordingRandom)
    config = ExperimentConfig(protocol="vanilla", n_peers=n,
                              out_links=out_links, runs=1, base_seed=seed,
                              unique_interests=False)
    handles = build_run(config, 0)
    honest = handles.honest
    owners = {node: next(iter(handles.engines[node].store)) for node in honest}
    draws = handles.sim.rng.drawn[-len(honest):]
    for node, j in zip(honest, draws):
        others = [v for v in honest if v != node]
        assert handles.truth.interests[node] == owners[others[j]]
