import json
from dataclasses import replace

import pytest

from rawasim.cli import main
from rawasim.core import wire_size
from rawasim.netsim import LinkSpec
from rawasim.rawa import RaWaConfig
from rawasim.runner import (CSV_HEADER, ExperimentConfig, build_run,
                            run_experiment, run_single, sweep, write_results)


def small_config(**overrides):
    base = dict(protocol="rawa", adversary="fse", n_peers=16, runs=2,
                base_seed=77, rawa=RaWaConfig(p=0.5, eta=2))
    base.update(overrides)
    return ExperimentConfig(**base)


# -- config -------------------------------------------------------------------


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
    {"churn": ((15, 100.0),)}, {"churn": ((-1, 100.0),)},
    {"churn": ((2, -1.0),)}, {"churn": ((2,),)},
])
def test_config_rejects_values_that_would_fail_mid_run(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)  # fse at n=16: honest indices 0..14


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


def test_seed_derivation():
    results = run_experiment(small_config())
    assert [r.seed for r in results] == [77, 78]


# -- runs ----------------------------------------------------------------------


def test_worker_pool_matches_serial():
    config = small_config(runs=4)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert a.metrics.ttfb_ms == b.metrics.ttfb_ms
        assert a.metrics.precision == b.metrics.precision


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


def test_sweep_isolates_failures(tmp_path):
    config = small_config(runs=1)
    report = sweep(config, {"eta": [1, 0]}, tmp_path)  # eta 0 is invalid
    assert len(report["combinations"]) == 1
    assert len(report["errors"]) == 1


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


def test_cli_sweep_partial_failure_exit_code(tmp_path):
    config_path = write_config(tmp_path, runs=1)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"eta": [1, 0]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config_path), "--grid", str(grid),
                 "--out", str(out)]) == 2
