"""Benchmark of the rawasim simulator: host time per experiment.

    python3 bench/run.py --workload grid_n50 --seed 1 --seconds 20 --trace 0

With `--trace 0` it measures, with no wrapper installed, for `--seconds`
seconds and prints the end-to-end metrics. With `--trace 1` it measures a
quarter of that untraced, replays the same iterations with spans around the
simulator's public calls, and prints the per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Every run's outputs are
checked against `reference.json`; the run fails if any differ. Run
timings are scaled to a reference speed of the machine by a gauge run
between timed phases (see `harness.gauge` and NOTES.md), and printed as
measured too; set-up time is reported as measured.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 7


def _cpus(mask: str) -> int:
    count = 0
    for part in mask.split(","):
        lo, _, hi = part.partition("-")
        count += int(hi or lo) - int(lo) + 1
    return count


def machine_facts() -> dict:
    """What explains a noisy figure, read from /proc where it lives."""
    facts = {"python": platform.python_version()}
    status = Path("/proc/self/status").read_text().splitlines()
    for line in status:
        if line.startswith("Cpus_allowed_list:"):
            facts["nproc"] = _cpus(line.split(":", 1)[1].strip())
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            facts["cpu_model"] = line.split(":", 1)[1].strip()
            break
    facts["loadavg_1m"] = float(Path("/proc/loadavg").read_text().split()[0])
    return facts


def setup_seconds(args) -> list[float]:
    """Interpreter start, imports, reference load and workload generation,
    timed from outside in fresh processes."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--probe-setup"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
    return samples


def end_to_end(m, setup: list[float]) -> dict:
    """Run timings at the gauge's reference speed; events_per_s is the
    median over phases. Set-up is timed as measured: it spans fresh
    processes the gauge does not follow."""
    # no samples means every phase failed, which `correct` already reports
    return {
        "events_per_s": (statistics.median(m.rates() or [0.0]), "1/s"),
        "run_ms_p50": (float(np.percentile(m.scaled_ms() or [0.0], 50)), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB"),
    }


def traced(args, order, reference):
    """Untraced pass, then the same iterations traced."""
    import harness
    import tracing

    untraced = harness.measure(args.workload, order, args.seconds / 4, reference)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        spans = harness.replay(args.workload, untraced.seeds, reference)
    finally:
        tracing.uninstall()
    problems = []
    error, checked = tracing.accounting_error(tracer)
    if error > 1e-9:
        problems.append(f"self times under Simulator.run miss its duration by {error} s")
    if tracer.counts["events"] != spans.events:
        problems.append("traced event count differs from the reference")
    harness.OUT.mkdir(exist_ok=True)
    tracer.write(harness.OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    layers = tracing.layer_metrics(tracer)
    # the tail of the untraced runs: reported here, without a bound, as the
    # host's bursts of slowness move it too much to gate on
    scaled = untraced.scaled_ms()
    layers["run_ms_p95"] = (float(np.percentile(scaled or [0.0], 95)), "ms")
    runs = max(tracer.runs, 1)
    # both passes at the gauge's reference speed, so a speed switch of the
    # machine between them does not show as overhead
    traced_s, untraced_s = spans.scaled_wall_s(), untraced.scaled_wall_s()
    layers["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3 / runs, "ms/run")
    layers["trace.overhead_ratio"] = (
        traced_s / untraced_s if untraced_s else 0.0, "ratio")
    passes = [untraced, spans]
    beyond = sum(1 for v in scaled if v > layers["run_ms_p95"][0])
    notes = [f"run_ms_p95 over {len(scaled)} untraced samples, {beyond} beyond it",
             f"traced {tracer.runs} runs, {len(tracer.start)} spans; "
             f"accounting checked on {checked} Simulator.run spans, "
             f"worst error {error * 1e6:.3g} us; traced {spans.wall_s:.3f} s "
             f"vs untraced {untraced.wall_s:.3f} s on the same iterations "
             f"as measured, {traced_s:.3f} s vs {untraced_s:.3f} s scaled"]
    return layers, passes, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rawasim" / "__init__.py").is_file():
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    facts = machine_facts()
    import harness
    import rawasim
    import tracing

    if Path(rawasim.__file__).resolve().parent != SRC / "rawasim":
        print(f"bench: imported rawasim from {rawasim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    reference = harness.load_reference()[args.workload]
    order = harness.plan(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    problems, notes = [], []
    if args.trace:
        harness.warm_up(args.workload, order[-1])
        metrics, passes, problems, notes = traced(args, order, reference)
    else:
        setup = setup_seconds(args)
        harness.warm_up(args.workload, order[-1])
        if not tracing.pristine():
            problems.append("a wrapper is installed in the untraced run")
        m = harness.measure(args.workload, order, args.seconds, reference)
        passes = [m]
        metrics = end_to_end(m, setup)
        raw50 = np.percentile(m.run_ms or [0.0], 50)
        speeds = np.percentile(m.speeds() or [0.0], [0, 50, 100])
        notes += [
            f"run_ms_p50 over {len(m.run_ms)} samples; {len(m.seeds)} iterations, "
            f"{len(m.matched)} phases in {m.wall_s:.2f} s timed",
            "gauge speed factor per phase min/median/max "
            + " / ".join(f"{v:.3f}" for v in speeds),
            f"as measured: events_per_s "
            f"{m.events / m.wall_s if m.wall_s else 0.0:.6g}, run_ms_p50 {raw50:.6g}",
            f"setup samples {[round(s, 4) for s in setup]}"]
    if not tracing.pristine():
        problems.append("a wrapper stayed installed")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        problems += p.problems
    correct = failed == 0 and not problems

    print(f"# rawasim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_fraction':40s} {failed / attempted if attempted else 0.0:14.6g} "
          f"ratio ({failed} of {attempted} runs)")
    for line in notes + problems:
        print("# " + line)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    harness.OUT.mkdir(exist_ok=True)
    (harness.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "machine": facts, "notes": notes,
                              "problems": problems}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
