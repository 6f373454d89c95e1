"""Run the benchmark's workloads over several seeds and summarise the spread.

    python3 benchmarks/suite.py                      # BENCHMARK.json's workloads, seeds 0-9, one traced run each
    python3 benchmarks/suite.py --workloads paper_baseline --seeds 5 --no-trace
    python3 benchmarks/suite.py --out benchmarks/results/<commit>.json
    python3 benchmarks/suite.py --no-trace --against benchmarks/results/<commit>.json

Each run is a separate process (``BENCHMARK.json``'s command), so peak RSS is
per run. For every end-to-end metric the suite prints the median over seeds,
the quartiles and the spread: the distance between the quartiles as a share of
the median, which must stay within the metric's bound. With ``--against``, each
median must also be no worse than the one recorded in that earlier ``--out``
file by more than the bound. The traced run's per-layer metrics are printed,
then each layer's (module's) summed share of ``engine.run`` wall time.
``predictions.json`` says which end-to-end metric each layer metric should
move; it is copied into ``--out``. Exit status 1 when any run failed its
checks or exited nonzero, or a spread or a median is over its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def invoke(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None]:
    """One benchmark process; returns (result line, report) or Nones when it produced none."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode} without a result", file=sys.stderr)
        return None, None
    report = next((json.loads(line[len("report "):]) for line in lines if line.startswith("report ")), None)
    return json.loads(lines[-1]), report


def summarise(values: list[float]) -> dict:
    p25, median, p75 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": median, "p25": p25, "p75": p75,
            "spread": (p75 - p25) / median if median else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per workload (default 10)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    parser.add_argument("--against", help="an earlier --out file whose medians this set must not be worse than")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    seeds = list(range(args.seeds))
    ok = True
    predictions = json.loads((Path(__file__).parent / "predictions.json").read_text())
    summary: dict = {"seconds": args.seconds, "seeds": seeds, "predictions": predictions, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        entry: dict = {"runs": {}}
        for seed in seeds:
            result, report = invoke(bench["command"], workload, seed, args.seconds, 0)
            ok &= bool(result and result["correct"])
            if result is None:
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            entry["runs"][seed] = report
            summary.setdefault("machine", report and report["machine"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
        entry["end_to_end"] = {}
        for name, vals in values.items():
            if not vals:
                continue
            stats = summarise(vals)
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            verdict = "ok" if stats["spread"] <= bounds[name] / 3 else ("wide" if stats["spread"] <= bounds[name] else "OVER BOUND")
            ok &= stats["spread"] <= bounds[name]
            line = (f"{workload} {name}: median {stats['median']:.6g} p25 {stats['p25']:.6g} p75 {stats['p75']:.6g} "
                    f"spread {stats['spread']:.4f} bound {bounds[name]} [{verdict}]")
            before = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if before:
                change = stats["median"] / before["median"] - 1.0
                worse = change if better[name] == "lower" else -change
                stats["change_vs_against"] = change
                ok &= worse <= bounds[name]
                line += f" vs earlier {change:+.4f} [{'ok' if worse <= bounds[name] else 'REGRESSED'}]"
            print(line)
        if not args.no_trace:
            result, report = invoke(bench["command"], workload, seeds[0], args.seconds, 1)
            ok &= bool(result and result["correct"])
            if report is not None:
                layers = {k: m["value"] for k, m in report["metrics"].items()}
                entry["per_layer"] = layers
                for name, value in layers.items():
                    print(f"{workload} {name} = {value:.6g} {report['metrics'][name]['unit']}")
                by_layer: dict[str, float] = {}
                for name, value in layers.items():
                    if name.endswith((".share", ".self_share")):
                        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + value
                ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
                entry["layer_shares"] = dict(ranked)
                print(f"{workload} layer shares: " + ", ".join(f"{k} {v:.3f}" for k, v in ranked))
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
