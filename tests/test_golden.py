"""Golden result files: the SHA-256 of every result CSV and summary JSON for
a small grid, recorded before any change to the event kernel.

Kernel work (caches, fan-out, indexed walk return) must keep the RNG draw
order and the scheduling sequence, so every file here must stay byte for
byte the same. The churn config exercises the departure paths that
invalidate the cached neighbor and successor views. A deliberate change of
the draw order re-records the table and says why in CHANGES.md.

Re-record with ``python tests/test_golden.py`` (prints the table).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from rawasim.rawa import RaWaConfig
from rawasim.runner import ExperimentConfig, run_experiment, write_results


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
    return configs


GOLDEN = {
    "rawa_churn": ("3df6874f64630cd81069963f55ac8ac4d6357ffd86cf7a464ed9de6cbf332756",
                   "fbd986ccd3dd7732dcadf0fd21b456b8e1e3b5ba0fe8b1c7e4e368a6213e7945"),
    "rawa_fse": ("079af41fef9577d3041743957871edd261dbbb971be8cb33e6de141617fc57a2",
                 "690a395d1c9f4cca58e04c638fcb5522529ff63d0dc0c5f4f17b225dd8e44ec0"),
    "rawa_none": ("072e4f21ef3d355468c66f83b73b7729e1480ca0a9da1cb97da4caf238f381e9",
                  "148ab9cb6dc4c20f4882716e97605e73470860836477051c25a605be4b6d0b04"),
    "rawa_sawfe": ("88e3801d480daeb4209384d6687049f0850146de2ec766b30e920630aa257a57",
                   "b23afa1b9c51b60bbb58c3b86d3d62b73c7d94ec0c5b42361d3b48e36b13357b"),
    "vanilla_churn": ("0436608dfaaebcaba320b851a2dce3cf7bbedf092faaa761b8596bd3ff4660a6",
                      "a797d1165f2877383228888b826e2d1a04dd6cd1d44b0a7ce98b53f799ff1caa"),
    "vanilla_fse": ("fb433454b392ef1365a7742f35cc9882f673a67e23520c3d5b87a27a12e1f71a",
                    "f5f3af124010020d552bbc39d85426a01d96ec044ad84e3e3b08af6388e3b894"),
    "vanilla_none": ("50d63078906d85f79bf75bc8b62a239a669d8fc92c9568b83baf9614d8c9cc31",
                     "a6f71eefb9e107138b107e8c4131feeb668850f1d52c5dcf4b7cf0fd359eddcf"),
    "vanilla_sawfe": ("cdd9fe144afeb607d8d6243a3b0a62cd9b82feeac310d437967bcfebb99298ec",
                      "eed514d45df8afcb08c8106e75c054fc97fd895034bc2b207c8c44178a022352"),
}


def digests(name: str, config: ExperimentConfig, out: Path) -> tuple[str, str]:
    csv_path, json_path = write_results(config, run_experiment(config),
                                        out / name)
    return (hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            hashlib.sha256(json_path.read_bytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(_grid()))
def test_result_files_match_golden(name, tmp_path):
    assert digests(name, _grid()[name], tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in sorted(_grid().items()):
            csv_hash, json_hash = digests(name, config, Path(tmp))
            print(f'    "{name}": ("{csv_hash}",\n'
                  f'{" " * (len(name) + 8)}"{json_hash}"),', file=sys.stdout)
