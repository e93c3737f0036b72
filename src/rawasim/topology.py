"""Overlay topology construction: honest graph plus adversary wiring.

Both steps write nodes and edges straight into the run's `Simulator`, which
holds the one adjacency of a run. Honest nodes each dial a fixed number of
peers they are not yet connected to, which yields exactly
``n * out_links`` undirected edges, minimum degree ``out_links`` and mean
degree ``2 * out_links``. Adversaries are wired on top: a single
fully-connected spy, or a team whose links partition the honest population
so every honest node gets exactly one adversary neighbor.
"""

from __future__ import annotations

from .core import PeerId
from .netsim import RngStream, Simulator

ADVERSARY_NONE = "none"
ADVERSARY_FSE = "fse"
ADVERSARY_WFE = "wfe"
ADVERSARY_SAWFE = "sawfe"

# The wiring (nodes, links, messages) each adversary runs; sawfe runs wfe's.
WIRING = {ADVERSARY_NONE: ADVERSARY_NONE, ADVERSARY_FSE: ADVERSARY_FSE,
          ADVERSARY_WFE: ADVERSARY_WFE, ADVERSARY_SAWFE: ADVERSARY_WFE}


def build_honest_topology(sim: Simulator, n_honest: int, out_links: int,
                          rng: RngStream) -> list[PeerId]:
    """Add honest nodes ``0 .. n_honest - 1`` to `sim`; every node picks
    `out_links` distinct targets it is not yet connected to, uniformly at
    random. Returns the honest ids."""
    if n_honest <= out_links:
        raise ValueError("need n_honest > out_links")
    honest = list(range(n_honest))
    for node in honest:
        sim.add_node(node)
    for node in honest:
        # draw indices into the honest ids less `node` and its neighbours,
        # then step each index past the taken ids at or below it, so index
        # j names the j-th untaken id; `rng.sample` reads only the length
        # and the items of its population, so the draws are those of
        # sampling the list of untaken ids
        taken = sorted((*sim.neighbors(node), node))
        size = n_honest - len(taken)
        for target in rng.sample(range(size), min(out_links, size)):
            for t in taken:
                if t > target:
                    break
                target += 1
            sim.add_edge(node, target)
    return honest


def wire_adversary(sim: Simulator, honest: list[PeerId], kind: str,
                   rng: RngStream) -> list[PeerId]:
    """Add the adversary nodes of `kind` to `sim`, numbered after the honest
    ones, and return their ids.

    fse: one node linked to every honest node. wfe: one node per four honest
    nodes, links assigned by a random partition of the honest set.
    """
    if kind not in WIRING:
        raise ValueError(f"unknown adversary kind: {kind!r}")
    if WIRING[kind] == ADVERSARY_NONE:
        return []
    next_id = len(honest)
    if WIRING[kind] == ADVERSARY_FSE:
        sim.add_node(next_id)
        for node in honest:
            sim.add_edge(next_id, node)
        return [next_id]
    if len(honest) % 4 != 0:
        raise ValueError("wfe wiring needs honest count divisible by 4")
    shuffled = list(honest)
    rng.shuffle(shuffled)
    adversaries = list(range(next_id, next_id + len(honest) // 4))
    for i, adv in enumerate(adversaries):
        sim.add_node(adv)
        for node in shuffled[4 * i:4 * i + 4]:
            sim.add_edge(adv, node)
    return adversaries
