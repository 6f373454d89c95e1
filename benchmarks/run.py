"""streamsched benchmark: run one workload for a fixed time and report its metrics.

    python3 benchmarks/run.py --workload paper_dpp --seed 0 --seconds 20 --trace 0

An operation is one run sequence, the calls ``streamsched run [--trace]``
makes: ``config_from_sources``, ``engine.run`` and the result CSVs (plus the
trace CSVs on the workload that runs with engine traces); or one timed
set-up. Every output is checked; an operation whose checks fail counts as
failed.

``--trace 0`` measures untraced runs and reports the end-to-end metrics,
each the 90th percentile over the window's runs except ``setup_s`` and
``peak_rss_mb`` (see ``end_to_end`` for why):

    run_s         wall time of the whole run sequence
    slot_us       engine.run wall time per simulated slot
    user_slot_us  engine.run wall time per user-slot
    setup_s       wall time of the set-up engine.run does before its first
                  slot (build_network, synth_catalog, topology_state and every
                  helper's helper_rate_rows), timed SETUPS_PER_RUN times after
                  each full run; the fastest is reported
    peak_rss_mb   this process's peak resident set size

``--trace 1`` alternates untraced runs and runs under the span tracer
(``tracer.py``), and reports the per-layer metrics of the traced runs plus
``trace.overhead_pct`` (traced against untraced engine.run wall time).

Output: one line per metric, a ``report {json}`` line with every metric's
quartiles and sample count, the simulated-outcome block, provenance and
machine, and last a JSON line ``{"correct", "attempted", "failed", "metrics"}``
whose metrics are those BENCHMARK.json lists for the mode. Exit status: 0 when
every check passed, 1 when one failed, 2 on bad arguments or when the
program under ``src/`` cannot be imported (no result line then).
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS_PER_RUN = 5
MIN_RUNS = 3
E2E_UNITS = {"run_s": "s", "slot_us": "us", "user_slot_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "_completed", ".users_scheduled", ".stalls")):
        return "count"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "fraction"


def spread(values: list[float], unit: str, value=statistics.median) -> dict:
    """The reported ``value`` (by default the median) with the median, quartiles, 90th percentile and sample count."""
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"value": value(values), "median": statistics.median(values), "p25": p25, "p75": p75,
            "p90": p90(values), "n": len(values), "unit": unit}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def git_commit() -> str:
    """HEAD of the checkout's own repository, read from its files; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass(frozen=True)
class Sample:
    run_s: float
    engine_s: float
    slots: int
    users: int


class Ledger:
    """Counts attempted and failed operations of one workload and keeps their failures.

    Only the first full run's result is kept (for the sim block); later ones
    are dropped after their checks, so the heap, and with it the cyclic
    collector's work, does not grow with the number of runs.
    """

    def __init__(self, workloads, wl, seed: int):
        self.workloads, self.wl = workloads, wl
        self.sim_seed = workloads.sim_seed(wl, seed)
        self.outdir = str(OUT / wl.name)
        self.pinned = workloads.PINNED.get(wl.name, {}).get(seed)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.first = None
        self.cfg = None

    def attempt(self) -> Sample | None:
        """One checked run sequence; its timings, or None when it failed."""
        self.attempted += 1
        try:
            run = self.workloads.run_sequence(self.wl, self.sim_seed, self.outdir)
            failures = self.workloads.check(self.wl, run)
        except Exception as exc:  # a crashed run is a failed operation; the others still count
            traceback.print_exc()
            run, failures = None, [f"{type(exc).__name__}: {exc}"]
        if run is not None:
            digest = self.workloads.result_digest(run.result)
            self.digest = self.digest or digest
            if digest != self.digest:
                failures.append(f"result digest {digest} differs from the first run's {self.digest}")
            if self.pinned is not None and digest != self.pinned:
                failures.append(f"result digest {digest} differs from the pinned {self.pinned}")
        if failures:
            self.failed += 1
            self.failures += failures
            return None
        if self.first is None:
            self.first = run.result
            self.cfg = run.cfg
        return Sample(run.run_s, run.engine_s, run.result.slots_run, len(run.result.users))

    def setup(self) -> float | None:
        """One checked set-up (the calls engine.run makes before its first slot); its wall time."""
        self.attempted += 1
        try:
            return self.workloads.setup_time(self.wl, self.cfg)
        except Exception as exc:
            traceback.print_exc()
            self.failed += 1
            self.failures.append(f"set-up: {type(exc).__name__}: {exc}")
            return None


def end_to_end(ledger: Ledger, seconds: int) -> dict:
    """Full runs for ``seconds``, at least MIN_RUNS of them, each followed by
    SETUPS_PER_RUN timed set-ups, so both sample the whole window."""
    runs, setups = [], []
    start = time.perf_counter()
    for i in itertools.count():
        if i >= MIN_RUNS and time.perf_counter() >= start + seconds:
            break
        sample = ledger.attempt()
        if sample is not None:
            runs.append(sample)
        gc.collect()
        if ledger.first is not None:
            setups += [s for s in (ledger.setup() for _ in range(SETUPS_PER_RUN)) if s is not None]
    values = {
        "run_s": [r.run_s for r in runs],
        "slot_us": [r.engine_s / r.slots * 1e6 for r in runs],
        "user_slot_us": [r.engine_s / (r.users * r.slots) * 1e6 for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    # On a shared 2-core VM each core was measured to switch every few tenths
    # of a second between a fast state and one up to 1.8x slower, and the
    # slow share drifted over minutes, moving a window's median run time by up
    # to 1.5x. The 90th percentile sits at the slow state's level and the
    # fastest 10 ms set-up at the fast state's, so neither follows the drift
    # as the median does (timeit's reasoning for min).
    return {name: spread(v, E2E_UNITS[name], min if name == "setup_s" else p90)
            for name, v in values.items() if v}


def per_layer(ledger: Ledger, seconds: int, tracer) -> dict:
    """Alternate untraced and traced runs, so the overhead compares runs made
    during the same stretch of the machine's speed swings."""
    deadline = time.perf_counter() + seconds
    tr = tracer.Tracer()
    untraced, traced = [], []
    for i in itertools.count():
        if i % 2 == 0 and i >= 2 and time.perf_counter() >= deadline:
            break
        if i % 2:
            with tr:
                sample = ledger.attempt()
        else:
            sample = ledger.attempt()
        if sample is not None:
            (traced if i % 2 else untraced).append(sample)
        gc.collect()
    if not traced:
        return {}
    metrics = tr.summary(runs=len(traced))
    if untraced:
        base = statistics.median(r.engine_s for r in untraced)
        metrics["trace.overhead_pct"] = (statistics.median(r.engine_s for r in traced) / base - 1.0) * 100.0
    tr.write(os.path.join(ledger.outdir, "spans.npz"))
    for warning in tr.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return {name: spread([value], layer_unit(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import streamsched
    except ImportError as exc:
        print(f"benchmark: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(streamsched.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"benchmark: streamsched was imported from {streamsched.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ledger = Ledger(workloads, wl, args.seed)
    if args.trace:
        metrics = per_layer(ledger, args.seconds, tracer)
    else:
        metrics = end_to_end(ledger, args.seconds)
    first = ledger.first

    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']} "
              f"(median {m['median']:.6g}, p25 {m['p25']:.6g}, p75 {m['p75']:.6g}, n={m['n']})")
    sim = workloads.sim_block(first) if first else {}
    for name, value in sim.items():
        print(f"{wl.name} sim.{name} = {value}")
    for failure in ledger.failures:
        print(f"{wl.name} FAILED: {failure}", file=sys.stderr)
    correct = ledger.failed == 0 and first is not None
    # The result line carries the metrics BENCHMARK.json lists for this mode;
    # the report line above it carries every metric measured.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "sim_seed": ledger.sim_seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": f"# config={first.config_hash} seed={first.seed}" if first else None,
        "digest_pinned": ledger.pinned is not None,
        "operations_attempted": ledger.attempted,
        "operations_failed": ledger.failed,
        "failures": ledger.failures[:20],
        "metrics": metrics,
        "sim": sim,
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "commit": git_commit(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        },
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items() if name in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # One BLAS/OpenMP thread: the simulator is single-threaded and the timings
    # must not depend on how many cores a pool grabs. Set before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
