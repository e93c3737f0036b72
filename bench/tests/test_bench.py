"""Self-tests of the benchmark: seeded inputs, the correctness gate, the
tracer and the output contract.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    first, again = harness.plan(name, 7), harness.plan(name, 7)
    assert first == again
    workload = harness.WORKLOADS[name]
    assert workload.cells(first[0]) == workload.cells(again[0])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_two_seeds_give_different_inputs(name):
    one, two = harness.plan(name, 1), harness.plan(name, 2)
    assert one != two
    assert one[0] != two[0]
    workload = harness.WORKLOADS[name]
    assert workload.cells(one[0]) != workload.cells(two[0])


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_every_pass_of_the_walk_takes_one_input_per_stratum(name):
    entries = harness.load_reference()[name]
    bank = sorted(harness.WORKLOADS[name].bank,
                  key=lambda s: (entries[str(s)]["events"], s))
    stratum = {s: i // harness.STRATUM for i, s in enumerate(bank)}
    order = harness.plan(name, 5)
    assert sorted(order) == sorted(bank)
    width = -(-len(bank) // harness.STRATUM)
    first = order[:width]
    assert sorted(stratum[s] for s in first) == list(range(width))


def test_speed_factors_use_the_median_of_the_nearest_gauges():
    ref = harness.GAUGE_REFERENCE_S
    gauges = [ref, ref, 2 * ref, ref, ref]  # one disturbed gauge
    assert harness.speeds(gauges) == [1.0, 1.0, 1.0, 1.0]
    slow = [2 * ref] * 5
    assert harness.speeds(slow) == [0.5] * 4


def test_reference_covers_every_banked_input():
    reference = harness.load_reference()
    assert set(reference) == set(harness.WORKLOADS)
    for name, workload in harness.WORKLOADS.items():
        assert set(reference[name]) == {str(s) for s in workload.bank}


def test_gate_fails_against_an_altered_reference(tmp_path):
    name = "blocks_150k"
    seed = harness.plan(name, 1)[0]
    reference = tmp_path / "reference.json"
    shutil.copy(harness.REFERENCE, reference)

    good = harness.replay(name, [seed], harness.load_reference(reference)[name])
    assert (good.attempted, good.failed, good.problems) == (2, 0, [])

    altered = json.loads(reference.read_text())
    altered[name][str(seed)]["bytes"]["BLOCK"] += 1
    reference.write_text(json.dumps(altered))
    bad = harness.replay(name, [seed], harness.load_reference(reference)[name])
    assert (bad.attempted, bad.failed) == (2, 2)
    assert "bytes" in bad.problems[0]


def test_tracer_restores_every_original_and_accounts_for_run_time():
    config = harness.WORKLOADS["grid_n50"].cells(1000)[-1]  # rawa + sawfe
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert not tracing.pristine()
        handles = harness.runner.build_run(config, 0)
        handles.sim.run()
        harness.runner.collect_metrics(handles)
    finally:
        tracing.uninstall()
    assert tracing.pristine()
    error, checked = tracing.accounting_error(tracer)
    assert checked == 1 and error < 1e-9
    layers = tracing.layer_metrics(tracer)
    assert layers["netsim.events"][0] > 0
    assert layers["core.wire_size_per_send"][0] == pytest.approx(2.0)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_every_declared_metric(trace, section):
    proc = _run(ROOT, "--workload", "blocks_150k", "--seed", "3",
                "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "grid_n50", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
