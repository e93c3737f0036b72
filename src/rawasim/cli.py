"""Command line front end: run one experiment, sweep a grid, or summarize
existing result files.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from pathlib import Path

from .runner import (ExperimentConfig, overlay, refuse_existing, result_paths,
                     run_experiment, sweep, sweep_cells, write_results)
from .topology import WIRING


def _config(args) -> ExperimentConfig:
    """The --config file, which must hold a JSON object, with the flags on
    top; --eta is an int if it reads as one."""
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"{args.config}: a config file must hold a JSON "
                         f"object, not {json.dumps(data)[:40]}")
    flags = {key: getattr(args, key) for key in ("protocol", "adversary",
             "n_peers", "block_size", "runs", "base_seed", "p", "eta")}
    with suppress(TypeError, ValueError):
        flags["eta"] = int(args.eta)
    return overlay(data, {k: v for k, v in flags.items() if v is not None})


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", dest="base_seed", type=int, help="base seed override")
    parser.add_argument("--runs", type=int, help="number of runs override")
    parser.add_argument("--protocol", choices=["vanilla", "rawa"])
    parser.add_argument("--adversary", choices=list(WIRING))
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
    config = _config(args)
    out = Path(args.out)
    _check_writable(out)
    if not args.force:  # before the runs, not after them
        refuse_existing(result_paths(config, out))
    results = run_experiment(config, workers=args.workers)
    csv_path, json_path = write_results(config, results, out, force=args.force)
    summary = json.loads(json_path.read_text())["aggregate"]  # computed once
    print(f"wrote {csv_path} and {json_path}")
    _print_aggregate(config.label(), summary)
    return 0


def _cmd_sweep(args) -> int:
    config = _config(args)
    grid = json.loads(Path(args.grid).read_text())
    if not isinstance(grid, dict):
        raise ValueError(f"{args.grid}: a sweep grid must be a JSON object "
                         f"of axis lists, not {type(grid).__name__}")
    sweep_cells(config, grid)  # every cell checked before --out is made
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
    columns = ("precision", "recall", "resolved_fraction", "ttfb_mean_ms")
    for path in csvs:
        header, *rows = [line.split(",") for line in
                         path.read_text().strip().splitlines()] or [[""]]
        if not set(columns) <= set(header):
            raise ValueError(f"{path} is not a result CSV: it lacks a column "
                             f"of {', '.join(columns)}")
        if any(len(row) != len(header) for row in rows):
            raise ValueError(f"{path}: a row's field count differs from the header's")
        parts = [f"{path.stem}: runs={len(rows)}"]
        for column in columns:
            at = header.index(column)
            values = [_number(row[at], path, column, i)
                      for i, row in enumerate(rows, 1) if row[at]]
            if values:
                parts.append(f"{column}={sum(values) / len(values):.4f}")
        print("  ".join(parts))
    return 0


def _number(text: str, path: Path, column: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path}: {column} of result row {row} is {text!r}, "
                         "not a number") from None


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
    except (ValueError, TypeError, FileExistsError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
