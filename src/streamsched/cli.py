"""Command-line front end: single runs, parameter sweeps, oracle validation, topology dumps.

Exit codes: 0 success, 1 validation failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import engine, topology as topo, validate
from .config import SimConfig, config_from_sources, config_hash
from .errors import ConfigError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable, last one wins)")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamsched",
                                     description="Cross-layer adaptive video streaming simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation and write summary/run CSVs")
    _add_common(p_run)
    p_run.add_argument("--trace", action="store_true", help="also write per-slot trace CSVs")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per value of a named parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=sorted(engine.SWEEP_PARAMETERS),
                         help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the randomized oracle suites")
    p_val.add_argument("--instances", type=_nonnegative_int, default=10_000,
                       help="scheduler instances (default 10000)")
    p_val.add_argument("--cases", type=_nonnegative_int, default=1000, help="gamma cases (default 1000)")
    p_val.add_argument("--seed", type=_nonnegative_int, default=7)
    p_val.set_defaults(func=cmd_validate)

    p_topo = sub.add_parser("topology", help="generate a topology and dump nodes/gains CSVs")
    _add_common(p_topo)
    p_topo.set_defaults(func=cmd_topology)
    return parser


def _config(args: argparse.Namespace) -> SimConfig:
    """The config the common options give, after rejecting an --out whose nearest existing path is no directory."""
    path = os.path.abspath(args.out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {args.out!r}: {path!r} exists and is not a directory")
    return config_from_sources(args.config, args.overrides, args.seed)


def _means(result: engine.SimResult) -> tuple[float, float, float]:
    """Mean quality and delay over the users that received a chunk (nan if none did), and mean buffering %."""
    delivered = [u for u in result.users if u.delivered_chunks]
    if delivered:
        quality = np.mean([u.average_quality for u in delivered])
        delay = np.mean([u.average_delay for u in delivered])
    else:
        quality = delay = float("nan")
    return quality, delay, np.mean([u.buffering_percent for u in result.users])


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config(args)
    result = engine.run(cfg, collect_traces=args.trace)
    engine.write_summary_csv(result, os.path.join(args.out, "summary.csv"))
    engine.write_run_csv(result, cfg, os.path.join(args.out, "run.csv"))
    engine.write_trace_csvs(result, args.out)
    quality, _, buffering = _means(result)
    print(
        f"utility={result.utility:.6g} meanQuality={quality:.4f} "
        f"meanBuffering%={buffering:.3f} drained={result.drain_complete} slots={result.slots_run}"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args)
    values: list[str] = []
    for v in args.values.split(","):
        v = v.strip()
        if v in values:
            print(f"warning: duplicate sweep value {v!r} ignored", file=sys.stderr)
        elif v:
            values.append(v)
    results = engine.sweep(cfg, args.param, values)
    rows = []
    for value, run_cfg, result in results:
        subdir = os.path.join(args.out, f"{args.param}={value}")
        engine.write_summary_csv(result, os.path.join(subdir, "summary.csv"))
        engine.write_run_csv(result, run_cfg, os.path.join(subdir, "run.csv"))
        quality, delay, buffering = _means(result)
        rows.append([value, f"{result.utility:.10g}", f"{quality:.6g}", f"{delay:.6g}", f"{buffering:.6g}",
                     int(result.drain_complete)])
    agg_path = engine.write_csv(
        os.path.join(args.out, "aggregate.csv"), config_hash(cfg), cfg.seed,
        [args.param, "utility", "meanQuality", "meanDelay", "meanBufferingPercent", "drainComplete"], rows)
    print(f"swept {args.param} over {len(values)} values -> {agg_path}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    results = validate.run_all(args.instances, args.cases, args.seed)
    status = EXIT_OK
    for suite in results:
        print(f"{suite.name}: {suite.passed}/{suite.total}")
        if not suite.ok and status == EXIT_OK:
            status = EXIT_VALIDATION
            print(json.dumps({"suite": suite.name, "counterexample": suite.first_failure}, default=str),
                  file=sys.stderr)
    return status


def cmd_topology(args: argparse.Namespace) -> int:
    cfg = _config(args)
    graph = engine.build_network(cfg, engine.run_seeds(cfg)[0])
    nodes = [["helper", i, repr(x), repr(y)] for i, (x, y) in enumerate(graph.helpers.tolist())]
    nodes += [["user", i, repr(x), repr(y)] for i, (x, y) in enumerate(graph.users.tolist())]
    gains = topo.topology_state(graph).gains.tolist()
    digest = config_hash(cfg)
    engine.write_csv(os.path.join(args.out, "nodes.csv"), digest, cfg.seed, ["nodeType", "id", "x", "y"], nodes)
    engine.write_csv(os.path.join(args.out, "gains.csv"), digest, cfg.seed, ["helperId", "userId", "gainLinear"],
                     ([h, u, repr(g)] for h, row in enumerate(gains) for u, g in enumerate(row)))
    print(f"wrote {len(graph.helpers)} helpers, {len(graph.users)} users to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
