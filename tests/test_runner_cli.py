import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rawasim import runner
from rawasim.cli import main
from rawasim.core import wire_size
from rawasim.netsim import LinkSpec
from rawasim.rawa import RaWaConfig
from rawasim.runner import (CSV_HEADER, ExperimentConfig, build_run,
                            collect_metrics, overlay, result_rows,
                            run_experiment, sweep, sweep_cells, write_results)
from rawasim.topology import WIRING


def small_config(**overrides):
    base = dict(protocol="rawa", adversary="fse", n_peers=16, runs=2,
                base_seed=77, rawa=RaWaConfig(p=0.5, eta=2))
    base.update(overrides)
    return ExperimentConfig(**base)


# -- config -------------------------------------------------------------------

# n 15, one link each, half the honest nodes gone at 0 ms, no index delay
# and a give-up of millions of timer periods
LIVELOCK = {"n_peers": 15, "out_links": 1,
            "churn": [[i, 0.0] for i in range(7)], "dht_base_delay_ms": 0.0,
            "give_up_ms": 8e12}


def test_config_round_trip():
    config = small_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config
    assert again.fingerprint() == config.fingerprint()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"protcol": "vanilla"})


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(protocol="carrier-pigeon")
    with pytest.raises(ValueError):
        ExperimentConfig(adversary="mitm")
    with pytest.raises(ValueError):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n_peers=4)
    with pytest.raises(ValueError):
        ExperimentConfig(adversary="wfe", n_peers=47)


@pytest.mark.parametrize("overrides", [
    {"dht_delay_spread": 1.0}, {"dht_delay_spread": 2.0},
    {"dht_delay_spread": -0.1}, {"dht_base_delay_ms": -1.0},
    {"stagger_ms": -5.0}, {"give_up_ms": 0.0}, {"give_up_ms": -1.0},
    {"give_up_ms": math.inf},
    {"stagger_ms": math.inf}, {"stagger_ms": math.nan},
    {"dht_base_delay_ms": math.inf}, {"dht_base_delay_ms": math.nan},
    {"dial_rtt_multiplier": -1.0}, {"dial_rtt_multiplier": math.inf},
    {"dial_rtt_multiplier": math.nan},
    {"churn": ((15, 100.0),)}, {"churn": ((-1, 100.0),)},
    {"churn": ((2, -1.0),)}, {"churn": ((2,),)},
    {"run_bound_ms": -10.0}, {"run_bound_ms": 0.0},
    {"block_size": 0}, {"block_size": -1}, {"block_size": 1.5},
    {"block_size": True}, {"out_links": 0}, {"out_links": -1},
    {"out_links": 2.0}, {"out_links": True},
    # these loaded, then failed inside the run's build, or (eta true) ran
    # as eta 1 under the label etaTrue
    {"n_peers": 16.0}, {"n_peers": True}, {"runs": 2.0}, {"runs": True},
    {"eta": 2.5}, {"eta": True}, {"eta": "2"},
    # these loaded: a bool ran as 1 or 0, and a string flag ran as true
    {"p": True}, {"stagger_ms": True}, {"give_up_ms": True},
    {"dht_delay_spread": False}, {"dht_base_delay_ms": False},
    {"dial_rtt_multiplier": True}, {"run_bound_ms": True},
    {"base_seed": True}, {"churn": ((True, 100.0),)}, {"churn": ((2, True),)},
    {"rawa": {"t0_ms": True}}, {"rawa": {"forward_have_aggregation_ms": True}},
    {"rawa": {"forward_have_aggregation_ms": False}},
    {"link": {"latency_ms": True, "jitter_ms": 0.0}},
    {"link": {"jitter_ms": True}}, {"link": {"bandwidth_bytes_per_s": True}},
    {"rawa": {"verify_provider": "no"}}, {"rawa": {"proxy_aggregate_dht": 1}},
    {"keep_trace": "yes"}, {"fixed_topology": 1}, {"wfe_fake_have": "no"},
    {"unique_interests": None},
    # these loaded, and each can carry the clock past 2**43 ms, where a
    # float stops resolving a timer's period: a block past a float failed
    # with OverflowError in the serialization delay, and a latency of 1e18
    # ms or a stagger of 1e300 ms re-armed a timer at the same instant until
    # the livelock guard
    {"block_size": 10**400}, {"link": {"latency_ms": 1e18}},
    {"stagger_ms": 1e300}, {"give_up_ms": 1e300}, {"churn": ((2, 1e300),)},
    {"dht_base_delay_ms": 1e300}, {"dial_rtt_multiplier": 1e300},
    {"rawa": {"u_ms": 1e300}}, {"rawa": {"forward_have_aggregation_ms": 1e300}},
    # these loaded, then failed mid-run: a link, walk config or seed of the
    # wrong type, a string time, and a re-transmit period of 1 µs or less
    # (the livelock guard); a t1 under 1 ms goes with it, as the index
    # retry re-arms t1 too; a float seed ran
    {"link": []}, {"rawa": 5}, {"base_seed": None}, {"base_seed": 1.5},
    {"rawa": {"t0_ms": 1e-3}}, {"rawa": {"t0_ms": 1e-300}},
    {"rawa": {"t1_ms": 1e-3}}, {"churn": ((2, "x"),)},
    {"stagger_ms": "5"},
    # these loaded, and with no run bound their requests' periodic timers
    # alone pass the livelock guard once no request can resolve: the rawa
    # config died with "livelock: more than 10000000 events" after 42 s
    {**LIVELOCK, "rawa": {"t0_ms": 1, "t1_ms": 1, "u_ms": 1.5}},
    {**LIVELOCK, "protocol": "vanilla", "give_up_ms": 2**43},
])
def test_config_rejects_values_that_would_fail_mid_run(overrides):
    # the loader's path: fse at n=16, so honest indices are 0..14
    with pytest.raises(ValueError):
        overlay(small_config().to_dict(), overrides)


def test_overlay_merges_rawa_and_link_entries_under_p_and_eta():
    base = small_config(link=LinkSpec(latency_ms=50.0))
    data = base.to_dict()
    config = overlay(data, {"rawa": {"t0_ms": 5.0, "p": 0.9}, "eta": "max",
                            "link": {"jitter_ms": 2.0}})
    assert config.rawa == replace(base.rawa, t0_ms=5.0, p=0.9, eta=None)
    assert config.link == LinkSpec(latency_ms=50.0, jitter_ms=2.0)
    assert overlay(data, {"rawa": {"p": 0.9}, "p": 0.3}).rawa.p == 0.3


@pytest.mark.parametrize("entry", ["rawa", "link"])
def test_overlay_rejects_an_unknown_nested_key(entry):
    with pytest.raises(ValueError, match=f"unknown {entry} keys"):
        overlay(small_config().to_dict(), {entry: {"t0": 5.0}})


def test_wfe_split_is_four_to_one():
    config = ExperimentConfig(adversary="wfe", n_peers=50)
    assert config.n_honest == 40
    assert ExperimentConfig(adversary="fse", n_peers=50).n_honest == 49


def test_eta_max_accepted_in_json():
    config = ExperimentConfig.from_dict(
        {"protocol": "rawa", "rawa": {"p": 0.3, "eta": "max"}})
    assert config.rawa.eta is None


def test_fingerprint_tracks_every_field():
    config = small_config()
    assert config.fingerprint() != replace(config, block_size=2048).fingerprint()
    assert config.fingerprint() != replace(
        config, rawa=replace(config.rawa, p=0.25)).fingerprint()
    assert config.fingerprint() != replace(
        config, link=LinkSpec(latency_ms=50.0)).fingerprint()


def test_cached_fingerprint_is_invisible():
    cached, fresh = small_config(), small_config()
    digest = cached.fingerprint()
    assert digest == cached.fingerprint() == fresh.fingerprint()
    canonical = json.dumps(fresh.to_dict(), sort_keys=True)
    assert digest == hashlib.sha256(canonical.encode()).hexdigest()[:16]
    assert cached.to_dict() == fresh.to_dict()
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    back = pickle.loads(pickle.dumps(cached))
    assert back == fresh and hash(back) == hash(fresh)
    assert back.to_dict() == fresh.to_dict()
    assert back.fingerprint() == digest
    changed = replace(cached, block_size=2048)
    assert changed == replace(fresh, block_size=2048)
    assert changed.fingerprint() == replace(fresh, block_size=2048).fingerprint()
    assert changed.fingerprint() != digest


def test_seed_derivation():
    results = run_experiment(small_config())
    assert [r.seed for r in results] == [77, 78]


# -- every accepted config runs to its end ------------------------------------

numbers = st.one_of(st.integers(), st.floats())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=5)


def mostly(values):
    """`values` nine times in ten, any JSON value otherwise."""
    return st.integers(0, 9).flatmap(lambda i: json_values if i == 0 else values)


times = mostly(st.one_of(st.floats(0.0, 5000.0), numbers))
flags = mostly(st.booleans())
config_dicts = st.fixed_dictionaries(
    # one small run: at most 15 peers, and a bound on its simulated time
    # (5, 10 and 15 split 4:1 into honest and wfe nodes)
    {"n_peers": mostly(st.sampled_from([5, 10, 15]) | st.integers(-1, 15)).filter(
        lambda n: not (isinstance(n, int) and n > 15)),
     "run_bound_ms": st.floats(1.0, 10_000.0),
     "protocol": mostly(st.sampled_from(["vanilla", "rawa"])),
     "adversary": mostly(st.sampled_from(sorted(WIRING)))},
    optional={
        "out_links": mostly(st.integers(-1, 5)),
        "link": mostly(st.fixed_dictionaries({}, optional={
            "latency_ms": times, "jitter_ms": mostly(st.floats(0.0, 20.0) | numbers),
            "bandwidth_bytes_per_s": mostly(st.floats(1.0, 1e7) | numbers)})),
        "dht_base_delay_ms": times,
        "dht_delay_spread": mostly(st.floats(0.0, 1.0)),
        "block_size": mostly(st.integers(1, 2**20) | st.integers(1)),
        "rawa": mostly(st.fixed_dictionaries({}, optional={
            "p": mostly(st.floats(0.0, 1.0)),
            "eta": mostly(st.sampled_from([None, "max"]) | st.integers(-1, 5)),
            "t0_ms": times, "t1_ms": times, "rebuild_ms": times,
            "u_ms": mostly(st.floats(1000.0, 20_000.0) | numbers),
            "verify_provider": flags, "forward_have_aggregation_ms": times,
            "proxy_aggregate_dht": flags})),
        "runs": mostly(st.integers(-1, 3)),
        "base_seed": mostly(st.integers()),
        "churn": mostly(st.lists(st.lists(mostly(st.integers(0, 14) | times),
                                          max_size=3), max_size=3)),
        "stagger_ms": times, "fixed_topology": flags,
        "dial_rtt_multiplier": times, "give_up_ms": times,
        "wfe_fake_have": flags, "unique_interests": flags, "keep_trace": flags,
    })


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=config_dicts)
@example(data={"n_peers": 12, "run_bound_ms": 5000.0, "block_size": 10**400})
@example(data={"n_peers": 12, "run_bound_ms": 5000.0, "protocol": "rawa",
               "link": {"latency_ms": 1e18}})
@example(data={"n_peers": 12, "run_bound_ms": 5000.0, "protocol": "rawa",
               "stagger_ms": 1e300})
def test_a_config_dict_is_refused_at_load_or_runs_to_its_end(data):
    """Any dict of the schema's keys with JSON values either raises
    ValueError at load, or one run of it completes and is scored."""
    try:
        config = ExperimentConfig.from_dict(data)
    except ValueError:
        return
    handles = build_run(config, 0)
    handles.sim.run(until=config.run_bound_ms)
    collect_metrics(handles)


# -- runs ----------------------------------------------------------------------


def test_worker_pool_matches_serial():
    config = small_config(runs=4)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert a.metrics.ttfb_ms == b.metrics.ttfb_ms
        assert a.metrics.precision == b.metrics.precision


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_worker_pool_matches_serial_under_each_start_method(method, monkeypatch):
    """Spawn and forkserver workers re-import the package (forkserver is the
    default from Python 3.14 on) and still give the serial results."""
    config = small_config(runs=3)
    serial = run_experiment(config, workers=1)
    monkeypatch.setattr(multiprocessing, "Pool",
                        multiprocessing.get_context(method).Pool)
    assert run_experiment(config, workers=2) == serial


FORK_AFTER_LARGE_BLOCKS = """
from rawasim.runner import (ExperimentConfig, build_run, result_rows,
                            run_experiment)
config = ExperimentConfig(n_peers=16, runs=3, block_size=153_600)
build_run(config, 0).sim.run()  # a run in this process before the fork
print(*result_rows(config, run_experiment(config, workers=2)), sep="\\n")
"""


def test_worker_pool_after_large_blocks_in_process():
    """A worker pool forked after an in-process 150 KiB run neither hangs
    nor changes a result."""
    src = str(Path(runner.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    # a session of its own, so a hang kills the pool's workers too
    with subprocess.Popen([sys.executable, "-c", FORK_AFTER_LARGE_BLOCKS],
                          env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("run_experiment(workers=2) hung after an in-process "
                        "150 KiB run")
    assert proc.returncode == 0
    config = ExperimentConfig(n_peers=16, runs=3, block_size=153_600)
    serial = result_rows(config, run_experiment(config, workers=1))
    assert out.splitlines() == list(serial)


def test_byte_accounting_matches_trace():
    config = small_config(keep_trace=True, runs=1)
    handles = build_run(config, 0)
    handles.sim.run()
    observer = handles.sim.observer
    sends = [rec for rec in observer.trace if rec[2] == "send"]
    assert sum(rec[7] for rec in sends) == observer.bytes_total
    assert sum(observer.bytes_by_variant.values()) == observer.bytes_total
    counts = {}
    for rec in sends:
        counts[rec[5]] = counts.get(rec[5], 0) + 1
    assert counts == dict(observer.msg_counts)


def test_churn_departure_scheduled():
    config = small_config(protocol="rawa", adversary="none", n_peers=16,
                          churn=((3, 400.0),), runs=1)
    handles = build_run(config, 0)
    handles.sim.run()
    assert not handles.sim.is_alive(handles.honest[3])


def test_stagger_delays_requests():
    config = small_config(adversary="none", stagger_ms=10.0, runs=1,
                          keep_trace=True)
    handles = build_run(config, 0)
    handles.sim.run()
    starts = [rec[0] for rec in handles.sim.observer.trace
              if rec[2] == "timer" and rec[5].startswith("request:")]
    assert starts == [10.0 * i for i in range(len(handles.honest))]


@pytest.mark.parametrize("protocol", ["vanilla", "rawa"])
def test_run_bound_stops_the_run(protocol):
    bound = 1500.0
    config = small_config(protocol=protocol, runs=1)
    full = run_experiment(config)[0].metrics
    bounded = run_experiment(replace(config, run_bound_ms=bound))[0].metrics
    # the same run, cut off: what finished by the bound, and nothing else
    assert bounded.ttfb_ms == {node: ttfb for node, ttfb in full.ttfb_ms.items()
                               if ttfb <= bound}
    assert 0 < bounded.resolved_fraction < 1
    handles = build_run(replace(config, run_bound_ms=bound), 0)
    handles.sim.run(until=bound)
    assert handles.sim.now <= bound
    assert handles.sim.run() > 0  # events past the bound were left queued


# -- files ----------------------------------------------------------------------


def test_csv_schema_and_rows(tmp_path):
    config = small_config()
    results = run_experiment(config)
    csv_path, json_path = write_results(config, results, tmp_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + config.runs
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["protocol"] == "rawa" and row["adversary"] == "fse"
    assert row["eta"] == "2" and float(row["p"]) == 0.5
    assert 0.0 <= float(row["precision"]) <= 1.0
    summary = json.loads(json_path.read_text())
    assert summary["fingerprint"] == config.fingerprint()
    assert summary["config"]["n_peers"] == 16
    assert summary["aggregate"]["runs"] == config.runs


def test_vanilla_rows_leave_walk_fields_empty(tmp_path):
    config = ExperimentConfig(protocol="vanilla", adversary="none",
                              n_peers=10, runs=1, base_seed=5)
    results = run_experiment(config)
    csv_path, _ = write_results(config, results, tmp_path)
    lines = csv_path.read_text().strip().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["p"] == "" and row["eta"] == ""
    assert row["precision"] == "" and row["mean_walk_hops"] == ""
    assert row["resolved_fraction"] == "1.000000"


def test_overwrite_guard(tmp_path):
    config = small_config(runs=1)
    results = run_experiment(config)
    write_results(config, results, tmp_path)
    with pytest.raises(FileExistsError):
        write_results(config, results, tmp_path)
    write_results(config, results, tmp_path, force=True)


def test_repeated_execution_byte_identical(tmp_path):
    config = small_config(runs=3)
    outputs = []
    for i in range(3):
        results = run_experiment(config)
        csv_path, _ = write_results(config, results, tmp_path / str(i))
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_cross_product(tmp_path):
    config = small_config(runs=1)
    report = sweep(config, {"p": [0.2, 0.5], "eta": [1, "max"]}, tmp_path)
    assert len(report["combinations"]) == 4
    assert report["errors"] == []
    for combo in report["combinations"]:
        assert (tmp_path / (combo["label"] + ".csv")).exists()
    assert (tmp_path / "sweep_summary.json").exists()


def counted_runs(monkeypatch, failing=None):
    """Count the calls of `runner.run_experiment`, and make it raise for the
    config labelled `failing`; returns the labels of every call."""
    calls = []
    real = runner.run_experiment

    def run(config, workers=None):
        calls.append(config.label())
        if config.label() == failing:
            raise RuntimeError("disk on fire")
        return real(config, workers=workers)
    monkeypatch.setattr(runner, "run_experiment", run)
    return calls


def test_sweep_isolates_failures(tmp_path, monkeypatch):
    counted_runs(monkeypatch, "rawa_fse_p0.5_eta1_b1025")
    report = sweep(small_config(runs=1), {"eta": [1, 2]}, tmp_path)
    assert [c["label"] for c in report["combinations"]] == [
        "rawa_fse_p0.5_eta2_b1025"]
    assert report["errors"] == [{"combo": {"eta": 1}, "error": "disk on fire"}]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rawa_fse_p0.5_eta2_b1025.csv", "rawa_fse_p0.5_eta2_b1025_summary.json",
        "sweep_summary.json"]


@pytest.mark.parametrize("grid", [
    {"eta": [1, 0]}, {"block_size": [1025, 0]}, {"eta": [2.5]},
    {"eta": [1, True]}, {"p": [0.5, 2.0]}, {"adversary": ["fse", "mitm"]},
    {"p": []},
    # one label, so the second cell's files would overwrite the first's
    {"p": [0.2, 0.2000001]},
])
def test_sweep_checks_every_cell_before_the_first_run(tmp_path, monkeypatch,
                                                      grid):
    calls = counted_runs(monkeypatch)
    with pytest.raises(ValueError):
        sweep(small_config(runs=1), grid, tmp_path)
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_sweep_cells_build_every_combination_in_sorted_axis_order():
    base = small_config(runs=1)
    cells = sweep_cells(base, {"protocol": ["vanilla", "rawa"],
                               "eta": [1, "max"]})
    assert [cell.combo for cell in cells] == [
        {"eta": 1, "protocol": "vanilla"}, {"eta": 1, "protocol": "rawa"},
        {"eta": "max", "protocol": "vanilla"}, {"eta": "max", "protocol": "rawa"}]
    assert [cell.config.label() for cell in cells] == [
        "vanilla_fse_b1025", "rawa_fse_p0.5_eta1_b1025",
        "vanilla_fse_b1025", "rawa_fse_p0.5_etamax_b1025"]
    assert [cell.repeat for cell in cells] == [False, False, True, False]
    assert cells[3].config == replace(base, rawa=replace(base.rawa, eta=None))
    # a vanilla cell's run key drops the walk parameters it never reads
    assert cells[0].config.run_key() == cells[2].config.run_key() == replace(
        base, protocol="vanilla", rawa=RaWaConfig())


TWIN_GRID = {"adversary": ["wfe", "sawfe"], "p": [0.2, 0.5]}


def counted_builds(monkeypatch, tmp_path, failing_p=None):
    """Append the run index of every `runner.build_run` call to a file, so
    the calls of forked workers count too, and make a build raise for the
    config with walk probability `failing_p`; returns the file."""
    log = tmp_path / "builds.txt"
    log.write_text("")
    real = runner.build_run

    def build(config, run_index):
        with log.open("a") as f:
            f.write(f"{run_index}\n")
        if config.rawa.p == failing_p:
            raise RuntimeError("disk on fire")
        return real(config, run_index)
    monkeypatch.setattr(runner, "build_run", build)
    return log


def result_files(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir()
            if p.name != "sweep_summary.json"}


@pytest.mark.parametrize("workers", [1, 2])
def test_run_shared_builds_each_run_once_for_wfe_and_sawfe(tmp_path, monkeypatch,
                                                           workers):
    """`run_shared` builds each run of a wfe config once and scores its
    sawfe twin from it too; every file equals that of the config run on its
    own, and those a sweep of the same grid writes."""
    base = small_config(n_peers=20, runs=2)
    cells = sweep_cells(base, TWIN_GRID)
    assert [cell.repeat for cell in cells] == [False] * 4
    keys = [cell.config.run_key() for cell in cells]
    assert keys[0] == keys[2] != keys[1] == keys[3]
    alone = tmp_path / "alone"
    for cell in cells:
        write_results(cell.config, run_experiment(cell.config), alone)
    report = sweep(base, TWIN_GRID, tmp_path / "sweep", workers=workers)
    assert report["errors"] == [] and report["skipped"] == []
    assert [c["label"] for c in report["combinations"]] == [
        "rawa_wfe_p0.2_eta2_b1025", "rawa_wfe_p0.5_eta2_b1025",
        "rawa_sawfe_p0.2_eta2_b1025", "rawa_sawfe_p0.5_eta2_b1025"]
    builds = counted_builds(monkeypatch, tmp_path)
    for twins in ([cells[0].config, cells[2].config],
                  [cells[1].config, cells[3].config]):
        for config, results in zip(twins, runner.run_shared(twins, workers)):
            write_results(config, results, tmp_path / "shared")
    assert sorted(builds.read_text().split()) == ["0", "0", "1", "1"]
    assert result_files(tmp_path / "shared") == result_files(alone) == \
        result_files(tmp_path / "sweep")
    assert len(result_files(alone)) == 8


def test_sweep_reports_a_failed_run_for_each_cell(tmp_path, monkeypatch):
    builds = counted_builds(monkeypatch, tmp_path, failing_p=0.2)
    report = sweep(small_config(n_peers=20, runs=1), TWIN_GRID, tmp_path / "sweep")
    assert builds.read_text().split() == ["0"] * 4
    assert [c["label"] for c in report["combinations"]] == [
        "rawa_wfe_p0.5_eta2_b1025", "rawa_sawfe_p0.5_eta2_b1025"]
    assert report["errors"] == [
        {"combo": {"adversary": "wfe", "p": 0.2}, "error": "disk on fire"},
        {"combo": {"adversary": "sawfe", "p": 0.2}, "error": "disk on fire"}]
    assert sorted(p.name for p in (tmp_path / "sweep").glob("*.csv")) == [
        "rawa_sawfe_p0.5_eta2_b1025.csv", "rawa_wfe_p0.5_eta2_b1025.csv"]


def test_a_failed_scoring_fails_its_own_cell_and_every_shared_config(
        tmp_path, monkeypatch):
    """A sweep runs each cell on its own, so a sawfe classifier that raises
    fails the sawfe cell alone; `run_shared` scores every config from one
    run, so there it fails the wfe twin too."""
    def classify(*args):
        raise RuntimeError("oracle lost")
    monkeypatch.setattr(runner, "sawfe_classify", classify)
    base = small_config(n_peers=20, runs=1)
    report = sweep(base, {"adversary": ["wfe", "sawfe"]}, tmp_path)
    assert [c["label"] for c in report["combinations"]] == [
        "rawa_wfe_p0.5_eta2_b1025"]
    assert report["errors"] == [{"combo": {"adversary": "sawfe"},
                                 "error": "oracle lost"}]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "rawa_wfe_p0.5_eta2_b1025.csv"]
    with pytest.raises(RuntimeError, match="oracle lost"):
        runner.run_shared([replace(base, adversary=kind)
                           for kind in ("wfe", "sawfe")])


def test_run_shared_refuses_configs_that_do_not_share_their_runs():
    config = small_config(n_peers=20, adversary="wfe")
    with pytest.raises(ValueError):
        runner.run_shared([config, replace(config, adversary="fse", n_peers=21)])
    with pytest.raises(ValueError):
        runner.run_shared([config, replace(config, base_seed=78)])


def test_sweep_runs_vanilla_once_across_walk_only_axes(tmp_path):
    config = small_config(runs=1)
    report = sweep(config, {"protocol": ["vanilla", "rawa"], "p": [0.2, 0.5]},
                   tmp_path)
    assert report["errors"] == []
    assert [c["label"] for c in report["combinations"]] == [
        "vanilla_fse_b1025", "rawa_fse_p0.2_eta2_b1025", "rawa_fse_p0.5_eta2_b1025"]
    assert report["skipped"] == [{"combo": {"p": 0.5, "protocol": "vanilla"},
                                  "label": "vanilla_fse_b1025"}]
    assert len(list(tmp_path.glob("*.csv"))) == 3


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ValueError):
        sweep(small_config(), {"latency": [1]}, tmp_path)


# -- cli -------------------------------------------------------------------------


def write_config(tmp_path, **extra):
    data = {"protocol": "rawa", "adversary": "fse", "n_peers": 16, "runs": 2,
            "base_seed": 3, "rawa": {"p": 0.5, "eta": 1}}
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_cli_run_and_report(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "precision.mean" in captured
    assert main(["report", "--in", str(out)]) == 0
    assert "runs=2" in capsys.readouterr().out


def test_cli_refuses_overwrite_then_forces(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--force"]) == 0


def test_cli_flag_overrides(tmp_path):
    config_path = write_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--runs", "1", "--seed", "9", "--eta", "max"]) == 0
    csvs = list(out.glob("*.csv"))
    assert len(csvs) == 1 and "etamax" in csvs[0].name
    lines = csvs[0].read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "9"  # seed column


def test_cli_config_error_exit_code(tmp_path):
    config_path = write_config(tmp_path, protocol="smoke-signal")
    assert main(["run", "--config", str(config_path)]) == 1


@pytest.mark.parametrize("extra", [
    {"dht_delay_spread": 2}, {"stagger_ms": -1}, {"give_up_ms": -1},
    {"churn": [[99, 100.0]]},
    # these loaded, then died mid-run (exit 2) or resolved nothing (exit 0);
    # JSON Infinity ran an unresolvable request to the livelock cap
    {"give_up_ms": math.inf},
    # JSON Infinity and NaN: a stagger failed at build, a DHT delay mid-run,
    # an infinite latency resolved nothing and a NaN bandwidth made the
    # clock NaN
    {"stagger_ms": math.inf}, {"stagger_ms": math.nan},
    {"dht_base_delay_ms": math.inf}, {"dht_base_delay_ms": math.nan},
    {"dial_rtt_multiplier": math.nan},
    {"link": {"latency_ms": math.inf}},
    {"link": {"bandwidth_bytes_per_s": math.nan}},
    {"rawa": {"p": 0.5, "eta": 1, "t0_ms": -1}},
    {"rawa": {"p": 0.5, "eta": 1, "t1_ms": -5}},
    {"rawa": {"p": 0.5, "eta": 1, "u_ms": 0, "t0_ms": -2, "t1_ms": -3}},
    {"rawa": {"p": 0.5, "eta": 1, "forward_have_aggregation_ms": -5}},
    # JSON Infinity: the proxy's window timer ran after every finite event,
    # so the run's clock ended at inf
    {"rawa": {"p": 0.5, "eta": 1, "forward_have_aggregation_ms": math.inf}},
    {"run_bound_ms": -10}, {"run_bound_ms": 0},
    # a block of no bytes failed at block build, zero links found no neighbor
    # and negative links failed the topology's sample
    {"block_size": 0}, {"block_size": "1025"}, {"out_links": 0},
    {"out_links": -1}, {"out_links": True},
    # a float count failed inside the run's build; eta 2.5 failed in the
    # subgraph draw and eta true ran as eta 1 under the label etaTrue
    {"n_peers": 20.0}, {"runs": 2.0}, {"runs": True},
    {"rawa": {"p": 0.5, "eta": 2.5}}, {"rawa": {"p": 0.5, "eta": True}},
    # these ran: a bool as 1 or 0, and a string flag as true
    {"rawa": {"p": True, "eta": 1}}, {"stagger_ms": True}, {"give_up_ms": True},
    {"dht_delay_spread": False}, {"run_bound_ms": True},
    {"rawa": {"p": 0.5, "eta": 1, "t0_ms": True}},
    {"rawa": {"p": 0.5, "eta": 1, "forward_have_aggregation_ms": False}},
    {"link": {"latency_ms": True, "jitter_ms": 0}},
    {"rawa": {"p": 0.5, "eta": 1, "verify_provider": "no"}},
    {"keep_trace": "yes"}, {"churn": [[2, True]]},
    # these loaded, then failed mid-run: the serialization delay overflowed
    # a float (exit 2 on "File name too long", from the label), and the
    # clock stalled where a float no longer resolves a timer's period, up
    # to the livelock guard
    {"block_size": 10**400}, {"link": {"latency_ms": 1e18}},
    {"stagger_ms": 1e300}, {"rawa": {"p": 0.5, "eta": 1, "t0_ms": 1e-300}},
    # these loaded, then reached the livelock guard on their requests'
    # periodic timers alone
    {**LIVELOCK, "rawa": {"p": 0.5, "eta": 1, "t0_ms": 1, "t1_ms": 1,
                          "u_ms": 1.5}},
    {**LIVELOCK, "protocol": "vanilla", "give_up_ms": 2**43},
])
def test_cli_rejects_bad_values_at_load_time(tmp_path, extra):
    config_path = write_config(tmp_path, **extra)
    out = tmp_path / "results"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    assert not list(out.glob("*.csv"))


def test_cli_sweep(tmp_path, capsys):
    config_path = write_config(tmp_path, runs=1)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"p": [0.5, 1.0]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid),
                 "--out", str(out)]) == 0
    assert len(list(out.glob("*.csv"))) == 2


def sweep_args(tmp_path, grid):
    config_path = write_config(tmp_path, runs=1)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    return ["sweep", "--config", str(config_path), "--grid", str(grid_path),
            "--out", str(tmp_path / "sweep")]


def test_cli_sweep_partial_failure_exit_code(tmp_path, monkeypatch):
    calls = counted_runs(monkeypatch, "rawa_fse_p0.5_eta1_b1025")
    assert main(sweep_args(tmp_path, {"eta": [1, 2, 3]})) == 2
    assert len(calls) == 3
    assert sorted(p.name for p in (tmp_path / "sweep").glob("*.csv")) == [
        "rawa_fse_p0.5_eta2_b1025.csv", "rawa_fse_p0.5_eta3_b1025.csv"]


@pytest.mark.parametrize("grid", [
    {"block_size": [1025, 0]}, {"eta": [2.5]}, {"latency": [1]},
])
def test_cli_sweep_rejects_a_bad_grid_before_any_run(tmp_path, monkeypatch, grid):
    calls = counted_runs(monkeypatch)
    assert main(sweep_args(tmp_path, grid)) == 1
    assert calls == [] and not list((tmp_path / "sweep").glob("*"))


def test_cli_sweep_refuses_existing_outputs_before_any_run(tmp_path, monkeypatch):
    calls = counted_runs(monkeypatch)
    args = sweep_args(tmp_path, {"adversary": ["none", "fse"]})
    out = tmp_path / "sweep"
    assert main(args) == 0 and len(calls) == 2
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    calls.clear()
    assert main(args) == 1 and calls == []
    # the combined summary alone is enough to refuse
    for path in out.glob("*_b1025*"):
        path.unlink()
    assert main(args) == 1 and calls == []
    assert main(args + ["--force"]) == 0 and len(calls) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


@pytest.mark.parametrize("eta", ["2.5", "two", "0"])
def test_cli_rejects_a_bad_eta_flag(tmp_path, eta):
    out = tmp_path / "results"
    assert main(["run", "--config", str(write_config(tmp_path)), "--eta", eta,
                 "--out", str(out)]) == 1
    assert not list(out.glob("*.csv"))
