"""Workload definitions, the run sequence, output checks and result digests.

A workload is a config (``--set`` overrides on the defaults) plus what its
results must satisfy. The benchmark seed picks the simulation seed: the first
seed in ``[seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE)`` whose Poisson user
draw has exactly ``users`` users. Seeds then vary placement, catalog and start
chunks but not the amount of work, so timings from different seeds compare.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from streamsched import config, engine, scheduler, topology, video

SEED_STRIDE = 1000

# Paper scale: 80 m square, 5 helpers (centre + quarter points), M=40,
# s_max=10, advanced receivers, static users; the population is pinned to the
# paper's mean of 500.
PAPER = ("session_chunks=20",)
# Acceptance-criterion-6 scale, with waypoint mobility.
SMALL = ("topology.mean_users=50", "mimo.m=20", "mimo.s_max=5", "session_chunks=30")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]
    users: int
    engine_traces: bool
    drains: bool


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="paper_dpp",
            why=("paper scale (500 users, 5 helpers, M=40, s_max=10), max-weight policy: most time is in the "
                 "scheduler kernel greedy_from_rates"),
            overrides=PAPER + ("policy=dpp",),
            users=500,
            engine_traces=False,
            drains=True,
        ),
        Workload(
            name="paper_baseline",
            why=("same population, max-RSSI + round robin: bypasses the max-weight kernel, so per-user engine "
                 "and client work dominates; never drains, so it runs the full drain limit"),
            overrides=PAPER + ("policy=baseline", "drain_limit_slots=2000"),
            users=500,
            engine_traces=False,
            drains=False,
        ),
        Workload(
            name="small_waypoint_traced",
            why=("50 users, M=20, s_max=5, waypoint users at 0.05 m/slot, run --trace: gain and rate tables "
                 "rebuilt every slot, traces kept; digest unpinned and no mobility check (known defect)"),
            overrides=SMALL + ("topology.mobility=waypoint", "topology.waypoint_speed=0.05"),
            users=50,
            engine_traces=True,
            drains=True,
        ),
    )
}

# The workloads BENCHMARK.json lists, whose end-to-end metrics gate a change.
# small_waypoint_traced is run and recorded by suite.py but not gated yet: its
# per-slot work is pure-Python gain and waypoint loops, whose speed on a
# shared 2-core VM was measured to switch by up to 1.7x between states that
# last minutes (ten-seed slot_us spread 0.26 with window medians at 36 s per
# run, 0.14 with the 90th percentile at 56 s), and a third gated workload
# needs shorter runs that have not been measured twice.
GATED = ("paper_dpp", "paper_baseline")

# Expected result digests by benchmark seed (0-63). The static workloads must
# stay bit-identical under scheduler, engine-state and trace-memory changes.
# The waypoint workload is deliberately unpinned: fixing its teleport/freeze
# defect changes mobile results on purpose, and for the same reason it has no
# displacement check, which the defect would fail today.
PINNED = {
    name: {int(seed): digest for seed, digest in table.items()}
    for name, table in json.loads((Path(__file__).parent / "pinned_digests.json").read_text()).items()
}


def sim_seed(wl: Workload, seed: int) -> int:
    """First simulation seed of the benchmark seed's block whose draw has wl.users users."""
    for sim in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
        cfg = config.config_from_sources(None, wl.overrides, sim)
        graph = engine.build_network(cfg, np.random.SeedSequence(sim).spawn(3)[0])
        if len(graph.users) == wl.users:
            return sim
    raise RuntimeError(f"{wl.name}: no seed in block {seed} draws exactly {wl.users} users")


@dataclass
class Run:
    result: engine.SimResult
    cfg: config.SimConfig
    written: list[str]
    run_s: float
    engine_s: float


def run_sequence(wl: Workload, seed: int, outdir: str) -> Run:
    """What ``streamsched run [--trace]`` does: parse the config, simulate, write the CSVs."""
    t0 = time.perf_counter()
    cfg = config.config_from_sources(None, wl.overrides, seed)
    t1 = time.perf_counter()
    result = engine.run(cfg, collect_traces=wl.engine_traces)
    t2 = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    written = [os.path.join(outdir, "summary.csv"), os.path.join(outdir, "run.csv")]
    engine.write_summary_csv(result, written[0])
    engine.write_run_csv(result, cfg, written[1])
    if wl.engine_traces:
        written += engine.write_trace_csvs(result, outdir)
    t3 = time.perf_counter()
    return Run(result=result, cfg=cfg, written=written, run_s=t3 - t0, engine_s=t2 - t1)


def setup_time(wl: Workload, cfg: config.SimConfig) -> float:
    """Wall time of the set-up ``engine.run`` does before its first slot.

    The same public calls with the same seeds: the network, the catalog, the
    slot-0 topology state and every helper's rate rows. Raises when the
    network does not have the workload's user count.
    """
    seed_users, seed_catalog, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    mobility = None
    if cfg.topology.mobility != "static":
        mobility = topology.WaypointMobility(cfg.topology.waypoint_speed, seed=cfg.seed)
    v = cfg.video
    start = time.perf_counter()
    graph = engine.build_network(cfg, seed_users)
    video.synth_catalog(v.segments, seed_catalog, d_min=v.d_min, d_max=v.d_max, sigma=v.sigma,
                        ladder_ratio=v.ladder_ratio, t_gop_seconds=cfg.t_gop_seconds)
    state = topology.topology_state(graph, 0, mobility)
    for h in range(len(graph.helpers)):
        scheduler.helper_rate_rows(h, state, graph, cfg.mimo.s_max)
    elapsed = time.perf_counter() - start
    if len(graph.users) != wl.users:
        raise RuntimeError(f"set-up built {len(graph.users)} users, expected {wl.users}")
    return elapsed


def check(wl: Workload, run: Run) -> list[str]:
    """Output checks; each returned string is one failed check."""
    result, cfg = run.result, run.cfg
    failures = []
    not_prefix = [u.user_id for u in result.users if u.delivered_chunk_ids != tuple(range(len(u.delivered_chunk_ids)))]
    if not_prefix:
        failures.append(f"{len(not_prefix)} users' delivered chunks are not an in-order prefix (first: user {not_prefix[0]})")
    short = [u.user_id for u in result.users if u.requested_chunks != cfg.session_chunks]
    if short:
        failures.append(f"{len(short)} users requested != session_chunks={cfg.session_chunks} (first: user {short[0]})")
    if wl.drains:
        if not result.drain_complete:
            failures.append("queues did not drain")
        if not result.all_finished:
            failures.append("not every player finished")
    elif result.slots_run != cfg.session_chunks * cfg.n + cfg.effective_drain_limit:
        failures.append(f"slots_run={result.slots_run}, expected session plus drain limit")
    provenance = f"# config={result.config_hash} seed={result.seed}"
    for path in run.written:
        with open(path) as fh:
            if fh.readline().rstrip("\n") != provenance:
                failures.append(f"{os.path.basename(path)} lacks the provenance line {provenance!r}")
    return failures


RESULT_FIELDS = ("config_hash", "seed", "policy", "receiver", "utility", "utility_defined", "mean_q_total",
                 "mean_theta_total", "drain_complete", "all_finished", "slots_run")
USER_FIELDS = ("user_id", "requested_chunks", "delivered_chunks", "delivered_chunk_ids", "average_quality",
               "average_delay", "buffering_percent", "stall_count", "prebuffer_slots", "t_start",
               "mean_quality_over_requested", "mean_q_bits", "mean_theta", "playback_finished", "queue_drained")


def _canonical(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "T" if value else "F"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, tuple):
        return "(" + ",".join(map(_canonical, value)) + ")"
    return repr(value)


def result_digest(result: engine.SimResult) -> str:
    """Digest of the simulated outcome: named fields only, floats bit-exact, traces excluded."""
    h = hashlib.sha256()
    h.update(_canonical(tuple(getattr(result, f) for f in RESULT_FIELDS)).encode())
    for user in result.users:
        h.update(_canonical(tuple(getattr(user, f) for f in USER_FIELDS)).encode())
    return h.hexdigest()[:16]


def sim_block(result: engine.SimResult) -> dict:
    """Deterministic model outputs, reported beside (not as) timing metrics."""
    qualities = [u.average_quality for u in result.users if u.delivered_chunks]
    return {
        "users": len(result.users),
        "utility": result.utility if result.utility_defined else None,
        "mean_quality": float(np.mean(qualities)) if qualities else None,
        "buffering_pct": float(np.mean([u.buffering_percent for u in result.users])),
        "stalls": sum(u.stall_count for u in result.users),
        "chunks_delivered": sum(u.delivered_chunks for u in result.users),
        "mean_q_total": result.mean_q_total,
        "slots_run": result.slots_run,
        "digest": result_digest(result),
    }
