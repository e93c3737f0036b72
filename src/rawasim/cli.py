"""Command line front end: run one experiment, sweep a grid, or summarize
existing result files.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .metrics import aggregate
from .runner import (ExperimentConfig, run_experiment, sweep, write_results)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _apply_overrides(data: dict, args) -> dict:
    for key in ("protocol", "adversary", "n_peers", "block_size", "runs"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.seed is not None:
        data["base_seed"] = args.seed
    rawa = dict(data.get("rawa", {}))
    if args.p is not None:
        rawa["p"] = args.p
    if args.eta is not None:
        rawa["eta"] = None if args.eta == "max" else int(args.eta)
    if rawa:
        data["rawa"] = rawa
    return data


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="base seed override")
    parser.add_argument("--runs", type=int, help="number of runs override")
    parser.add_argument("--protocol", choices=["vanilla", "rawa"])
    parser.add_argument("--adversary", choices=["none", "fse", "wfe", "sawfe"])
    parser.add_argument("--n-peers", dest="n_peers", type=int)
    parser.add_argument("--block-size", dest="block_size", type=int)
    parser.add_argument("--p", type=float, help="proxy transition probability")
    parser.add_argument("--eta", help="subgraph out-degree (integer or 'max')")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing result files")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rawasim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment configuration")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="run a parameter grid")
    _add_common(sweep_p)
    sweep_p.add_argument("--grid", required=True,
                         help="JSON file with lists per axis (p, eta, "
                              "adversary, block_size, protocol)")

    report_p = sub.add_parser("report", help="aggregate existing CSV files")
    report_p.add_argument("--in", dest="in_dir", required=True)
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_apply_overrides(_load_config(args.config), args))
    out = Path(args.out)
    _check_writable(out)
    if not args.force:
        for suffix in (".csv", "_summary.json"):
            path = out / f"{config.label()}{suffix}"
            if path.exists():
                raise FileExistsError(f"{path} exists; use --force")
    results = run_experiment(config, workers=args.workers)
    csv_path, json_path = write_results(config, results, out, force=args.force)
    summary = aggregate([r.metrics for r in results])
    print(f"wrote {csv_path} and {json_path}")
    _print_aggregate(config.label(), summary)
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_dict(_apply_overrides(_load_config(args.config), args))
    grid = json.loads(Path(args.grid).read_text())
    _check_writable(Path(args.out))
    report = sweep(config, grid, args.out, force=args.force, workers=args.workers)
    for combo in report["combinations"]:
        _print_aggregate(combo["label"], combo["aggregate"])
    for skip in report["skipped"]:
        print(f"skipped {skip['combo']}: same run as {skip['label']}")
    for err in report["errors"]:
        print(f"FAILED {err['combo']}: {err['error']}", file=sys.stderr)
    return 0 if not report["errors"] else 2


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    csvs = sorted(in_dir.glob("*.csv"))
    if not csvs:
        raise FileNotFoundError(f"no CSV files under {in_dir}")
    for path in csvs:
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        def mean_of(column):
            values = [float(r[column]) for r in rows if r[column]]
            return sum(values) / len(values) if values else None
        stats = {c: mean_of(c) for c in
                 ("precision", "recall", "resolved_fraction", "ttfb_mean_ms")}
        parts = [f"{path.stem}: runs={len(rows)}"]
        for key, value in stats.items():
            if value is not None:
                parts.append(f"{key}={value:.4f}")
        print("  ".join(parts))
    return 0


def _check_writable(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()


def _print_aggregate(label: str, summary: dict) -> None:
    parts = [label]
    for key in ("precision", "recall", "ttfb_ms"):
        stats = summary.get(key) or {}
        if stats.get("n"):
            parts.append(f"{key}.mean={stats['mean']:.4f}")
    rf = summary.get("resolved_fraction") or {}
    if rf.get("n"):
        parts.append(f"resolved={rf['mean']:.4f}")
    print("  ".join(parts))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_report(args)
    except (ValueError, FileExistsError, FileNotFoundError,
            json.JSONDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
