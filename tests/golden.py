"""Golden result files: the SHA-256 of every result CSV and summary JSON for
a small grid, recorded before any change to the event kernel.

Kernel work (caches, fan-out, indexed walk return) must keep the RNG draw
order and the scheduling sequence, so every file here must stay byte for
byte the same. The churn config exercises the departure paths that
invalidate the cached neighbor and successor views. The extra configs
cover the requester and proxy paths the base grid misses: provider
verification against active exploiters (with and without fake HAVEs), the
proxy's provider-index aggregation, the FORWARD-HAVE aggregation window
under churn and stagger, vanilla against exploiters, a run bound that
cuts requests off, and 150 KiB blocks for both protocols, whose size
reaches the results only through the wire size and serialization delay.
A deliberate change of the draw order re-records the table and says why
in CHANGES.md. The same runs made with ``keep_trace`` must give the same
files: keeping the trace changes no result.

A second table pins the event order itself, which the result files see
only through their aggregates: one SHA-256 per config over its runs with
``keep_trace``, covering the full event trace (sends, deliveries and timer
rows), the adversary's observation log, the drops, the walk records,
every requester outcome, and the final clock, sequence number and RNG
state. Trace rows carry each block's short CID, so a change of the block
key moves this table only; `tests/test_properties.py` checks that such a
change renames CIDs and moves nothing else.

This module needs no pytest, so the digests can be checked on an
interpreter with no packages installed (`tests/test_golden.py` runs the
same comparisons under pytest)::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/golden.py

prints both tables as recomputed, in the form they are recorded in below,
and exits 1 if any digest differs from its recorded value. A deliberate
re-record pastes that output over the tables.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from rawasim.rawa import RaWaConfig
from rawasim.runner import (ExperimentConfig, build_run, run_experiment,
                            write_results)


def _grid() -> dict[str, ExperimentConfig]:
    configs = {}
    for protocol in ("vanilla", "rawa"):
        for adversary in ("none", "fse", "sawfe"):
            configs[f"{protocol}_{adversary}"] = ExperimentConfig(
                protocol=protocol, adversary=adversary, n_peers=50, runs=2,
                base_seed=11, rawa=RaWaConfig(p=0.2, eta=2))
        configs[f"{protocol}_churn"] = ExperimentConfig(
            protocol=protocol, adversary="fse", n_peers=50, runs=2,
            base_seed=23, stagger_ms=40.0,
            churn=((3, 150.0), (17, 900.0), (30, 2500.0)),
            rawa=RaWaConfig(p=0.2, eta=None))
    wfe = dict(adversary="wfe", n_peers=50, runs=2, base_seed=11)
    configs["vanilla_wfe"] = ExperimentConfig(protocol="vanilla", **wfe)
    configs["vanilla_bound"] = ExperimentConfig(
        protocol="vanilla", adversary="fse", n_peers=50, runs=2,
        base_seed=11, run_bound_ms=1500.0)
    for fake_have in (True, False):
        configs[f"rawa_wfe_verify_fake{int(fake_have)}"] = ExperimentConfig(
            protocol="rawa", wfe_fake_have=fake_have, **wfe,
            rawa=RaWaConfig(p=0.2, eta=2, verify_provider=True))
    configs["rawa_wfe_aggdht"] = ExperimentConfig(
        protocol="rawa", **wfe,
        rawa=RaWaConfig(p=0.2, eta=2, proxy_aggregate_dht=True))
    configs["rawa_window_churn"] = ExperimentConfig(
        protocol="rawa", adversary="fse", n_peers=50, runs=2, base_seed=23,
        stagger_ms=40.0, churn=((3, 150.0), (17, 900.0), (30, 2500.0)),
        rawa=RaWaConfig(p=0.2, eta=None, forward_have_aggregation_ms=300.0))
    for protocol in ("vanilla", "rawa"):
        configs[f"{protocol}_b150k"] = ExperimentConfig(
            protocol=protocol, n_peers=50, runs=2, base_seed=11,
            block_size=153_600, rawa=RaWaConfig(p=0.2, eta=2))
    return configs


GOLDEN = {
    "rawa_b150k": ("380e49d185283f35381aca54b069ba60b4a8da6baf27ad7fe2eea8c2b2a8573f",
                  "16d15b907a7e4bdd72cc23919a77a1b3f88348e48d53f5d7a8d0b379366a8a6f"),
    "rawa_churn": ("3df6874f64630cd81069963f55ac8ac4d6357ffd86cf7a464ed9de6cbf332756",
                  "fbd986ccd3dd7732dcadf0fd21b456b8e1e3b5ba0fe8b1c7e4e368a6213e7945"),
    "rawa_fse": ("079af41fef9577d3041743957871edd261dbbb971be8cb33e6de141617fc57a2",
                "690a395d1c9f4cca58e04c638fcb5522529ff63d0dc0c5f4f17b225dd8e44ec0"),
    "rawa_none": ("072e4f21ef3d355468c66f83b73b7729e1480ca0a9da1cb97da4caf238f381e9",
                 "148ab9cb6dc4c20f4882716e97605e73470860836477051c25a605be4b6d0b04"),
    "rawa_sawfe": ("88e3801d480daeb4209384d6687049f0850146de2ec766b30e920630aa257a57",
                  "b23afa1b9c51b60bbb58c3b86d3d62b73c7d94ec0c5b42361d3b48e36b13357b"),
    "rawa_wfe_aggdht": ("3dd9703d3bd878780e509d4a21c7a630bd0985a2c539477d6db6a607109de99c",
                       "584d1b5604630dce26e77c0a764986e72dae7dcbec2549aec363cc7803b0e915"),
    "rawa_wfe_verify_fake0": ("60894636606fdf809d1017295db4048f70a82fa11b73c1a0a09d706b9e75a033",
                             "846caa14949bc850943681fe5750b86cc57480e212d58ce4d876c1add5a5df76"),
    "rawa_wfe_verify_fake1": ("41d861c1dde2d43a68eb3108283497fcdd59916944bda0af1bb33b22441e3946",
                             "ff1fc811c1d2af84cec29553306aea916945fc38ce02809b2f5a12e7edcec4fa"),
    "rawa_window_churn": ("5c9de0b6a72cb41bf75bdb09d3cea7340d6730652eec5ad9625dcee7e37e8d8f",
                         "ec0b8c9cf30f90de9ac9a7fcaf9f96690f867e7cc0fec37b8b3fa56ec07b6db4"),
    "vanilla_b150k": ("e9f8952c49fd7b09a8ca9cf672b58c65c0a82395fb7fd0a49c8ebaf028a0a620",
                     "a57ceb3a3ebb4e72865a7b7553d69e82f7e7443347feb77837a77b056dfc9ca3"),
    "vanilla_bound": ("6909354e10405cd517466aeb56a2953173833eb1abe6fdc8e6e04c959539d401",
                     "6ef326c4199fc4dc321059f0c3aa6ec4322ade4583aeece3da61bc84639a293d"),
    "vanilla_churn": ("0436608dfaaebcaba320b851a2dce3cf7bbedf092faaa761b8596bd3ff4660a6",
                     "a797d1165f2877383228888b826e2d1a04dd6cd1d44b0a7ce98b53f799ff1caa"),
    "vanilla_fse": ("fb433454b392ef1365a7742f35cc9882f673a67e23520c3d5b87a27a12e1f71a",
                   "f5f3af124010020d552bbc39d85426a01d96ec044ad84e3e3b08af6388e3b894"),
    "vanilla_none": ("50d63078906d85f79bf75bc8b62a239a669d8fc92c9568b83baf9614d8c9cc31",
                    "a6f71eefb9e107138b107e8c4131feeb668850f1d52c5dcf4b7cf0fd359eddcf"),
    "vanilla_sawfe": ("cdd9fe144afeb607d8d6243a3b0a62cd9b82feeac310d437967bcfebb99298ec",
                     "eed514d45df8afcb08c8106e75c054fc97fd895034bc2b207c8c44178a022352"),
    "vanilla_wfe": ("22f97485b92bb03bc6ccb604296a01a2ff07f7eb95b3194f52f904dc973a648f",
                   "9f68adadff1548569aac7db496ae47cbf65316b81fa8e3a16a6e4eee8f43f7ee"),
}

TRACE_GOLDEN = {
    "rawa_b150k":
        "d5c3da8df1b12e2dca18c948d9e57a6cd4830eb4a5b866ac6acd30df1ebb0c79",
    "rawa_churn":
        "c8dccd614b2d84d387c237cfd6d9d88a3714fe0371bb26d1190e9a421aa91d81",
    "rawa_fse":
        "9c88f259cd46a005947bde9f32b6cbc686b1fcca81eb3f195d7f1fd451976aa8",
    "rawa_none":
        "a68794b7755872d80325efe250f09a15e83a3bb679f504b71a0d47c729c71f79",
    "rawa_sawfe":
        "4eaa92b0117bcc3c4fa733aebe657f405aee7964193e1dcd21e82a353d2f45be",
    "rawa_wfe_aggdht":
        "0374ba6f1f3198fdc0776fef1b26ba8d175355e63ac1308fd3035625401486d3",
    "rawa_wfe_verify_fake0":
        "60b891824c91463b5ce87015623e50d7d59ec49312093bd2e7006127c5e38a23",
    "rawa_wfe_verify_fake1":
        "043e1c0f5882b43377d98cb450adb5db0004f2cf831b76f3ac70f4664d72b15d",
    "rawa_window_churn":
        "f269f01e140ae6f9eb8a123cfe19b0e0ad1aaba3562168822995090af7f6f818",
    "vanilla_b150k":
        "d8f05d644e89baaa960c8e40344536109d82ee6004360551c2673eb29b5f683a",
    "vanilla_bound":
        "dcbea7581906d17c763db613e50dd19bdae7b662d30e6db2a7bc4d8ac23d9b98",
    "vanilla_churn":
        "f09ca64c12c3a955b8c5b8ae29ac2ff82e8985dd9f356f343c70c03aa5496166",
    "vanilla_fse":
        "8701cd6f116626fc8cb6d26930805de3edb2007d4dbc646bb11d6e1f703c52b5",
    "vanilla_none":
        "aa50b955f172f78bce243db30df7c2f76795ce441f02e1ba74b8f308d2fb2fce",
    "vanilla_sawfe":
        "07dc6e1cffdd8e390b30ef67a70fd687c1f73a58b2b454129002aa460bda96cf",
    "vanilla_wfe":
        "07dc6e1cffdd8e390b30ef67a70fd687c1f73a58b2b454129002aa460bda96cf",
}


def digests(name: str, config: ExperimentConfig, out: Path,
            keep_trace: bool = False) -> tuple[str, str]:
    """The digests of `config`'s result files, its runs made with
    `keep_trace` as given; the files are written under `config` itself."""
    results = run_experiment(replace(config, keep_trace=keep_trace))
    csv_path, json_path = write_results(config, results, out / name)
    return (hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            hashlib.sha256(json_path.read_bytes()).hexdigest())


def trace_digest(config: ExperimentConfig) -> str:
    """SHA-256 over every run of `config` replayed with ``keep_trace``."""
    config = replace(config, keep_trace=True)
    digest = hashlib.sha256()
    for run_index in range(config.runs):
        handles = build_run(config, run_index)
        sim = handles.sim
        sim.run(until=config.run_bound_ms)
        obs = sim.observer
        lines = [*obs.trace_lines(), *handles.log.trace_lines(),
                 repr(obs.drops), repr(obs.wf_sends), repr(obs.fh_sends),
                 repr(obs.terminations), repr(list(obs.completions.items())),
                 repr(sorted(obs.failures)), repr(obs.consumed),
                 repr((sim.now, sim._seq, sim.rng.getstate()))]
        digest.update("\n".join(lines).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def main() -> int:
    """Recompute both tables, print them as recorded, and count mismatches."""
    import tempfile
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in sorted(_grid().items()):
            csv_hash, json_hash = digests(name, config, Path(tmp))
            print(f'    "{name}": ("{csv_hash}",\n'
                  f'{" " * (len(name) + 8)}"{json_hash}"),')
            if (csv_hash, json_hash) != GOLDEN.get(name):
                mismatches.append(f"{name} result files")
    print()
    for name, config in sorted(_grid().items()):
        trace_hash = trace_digest(config)
        print(f'    "{name}":\n        "{trace_hash}",')
        if trace_hash != TRACE_GOLDEN.get(name):
            mismatches.append(f"{name} full trace")
    for mismatch in mismatches:
        print("mismatch:", mismatch, file=sys.stderr)
    print(f"{len(mismatches)} mismatches of {len(GOLDEN) + len(TRACE_GOLDEN)}",
          file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
