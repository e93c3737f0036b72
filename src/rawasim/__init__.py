"""Deterministic simulator for Bitswap-style content discovery, comparing
plain broadcast lookups against random-walk proxy discovery under passive
and active deanonymization adversaries."""

from .core import (Block, Cid, Message, MessageType, derive_cid,
                   validate_block, wire_size)
from .netsim import LinkSpec, Observer, RngStream, Simulator, link_delay
from .rawa import RaWaConfig, build_forward_graph, path_length_probability
from .runner import (ExperimentConfig, RunResult, build_run, run_experiment,
                     run_shared, sweep, write_results)
from .topology import build_honest_topology, wire_adversary

__version__ = "0.1.0"

__all__ = [
    "Block", "Cid", "Message", "MessageType", "derive_cid", "validate_block",
    "wire_size",
    "LinkSpec", "Observer", "RngStream", "Simulator", "link_delay",
    "RaWaConfig", "build_forward_graph", "path_length_probability",
    "ExperimentConfig", "RunResult", "build_run", "run_experiment",
    "run_shared", "sweep", "write_results",
    "build_honest_topology", "wire_adversary",
    "__version__",
]
