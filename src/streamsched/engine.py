"""Two-time-scale simulation loop.

Chunk requests happen every n transmission slots; scheduling and queue
draining happen every slot; playback advances once per video slot (n
transmission slots). All randomness flows from a single seed split per
subsystem, so a run is bit-reproducible.

Users request in lockstep: on chunk slot k = t // n (k < session_chunks)
every user requests its k-th chunk, catalog index (starts[u] + k) mod the
catalog length, where starts holds each user's random first chunk. That one
session clock is all the session state there is.

Per transmission slot t the order is: (video-slot boundary: step playback),
sample queue averages, place chunk requests and update the virtual queues
(chunk-boundary slots only), schedule, drain delivered bits. A chunk completed
during slot t is credited at once to video slot t // n + 1, the video slot
containing t, i.e. it becomes playable at the next boundary.
"""
from __future__ import annotations

import csv
import os
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import client as cl
from . import playback as pb
from . import scheduler as sched
from . import topology as topo
from .config import SimConfig, config_hash, flatten_config, with_key
from .errors import ConfigError
from .video import synth_catalog

SWEEP_PARAMETERS = {
    "V": "utility.v",
    "M": "mimo.m",
    "sMax": "mimo.s_max",
    "policy": "policy",
    "receiverModel": "receiver",
    "userCount": "topology.mean_users",
}


@dataclass(frozen=True)
class UserResult:
    user_id: int
    requested_chunks: int
    delivered_chunks: int
    delivered_chunk_ids: tuple[int, ...]
    average_quality: float
    average_delay: float
    buffering_percent: float
    stall_count: int
    prebuffer_slots: int
    t_start: int | None
    mean_quality_over_requested: float
    mean_q_bits: float
    mean_theta: float
    playback_finished: bool
    queue_drained: bool


@dataclass(frozen=True)
class SimResult:
    config_hash: str
    seed: int
    policy: str
    receiver: str
    users: tuple[UserResult, ...]
    utility: float
    utility_defined: bool
    mean_q_total: float
    mean_theta_total: float
    drain_complete: bool
    all_finished: bool
    slots_run: int
    traces: dict | None = None

    @property
    def unstable(self) -> bool:
        return not self.drain_complete


def build_network(cfg: SimConfig, seed_users: np.random.SeedSequence) -> topo.NetworkGraph:
    """Helpers from the configured layout plus Poisson-placed users."""
    spec = cfg.topology
    if spec.helper_layout == "center+quarters":
        helpers = topo.default_helper_layout(spec.side_m)
    else:
        helpers = _parse_layout(spec.helper_layout, "topology.helper_layout", spec.side_m)
        if not helpers:
            raise ConfigError("topology.helper_layout produced no helpers")
    if spec.user_layout == "poisson":
        users = topo.place_users(spec.side_m, spec.hotspot_side_m, spec.mean_users, spec.hotspot_ratio, seed_users)
    else:
        users = _parse_layout(spec.user_layout, "topology.user_layout", spec.side_m)
    if len(users) == 0:
        raise ConfigError("topology: the user draw produced zero users; raise the mean or change the seed")
    return topo.build_graph(helpers, users, spec.side_m, spec.tx_power, cfg.mimo.antennas, spec.edge_rule,
                            spec.edge_threshold)


def _parse_layout(text: str, key: str, side: float) -> list[tuple[float, float]]:
    """Points of an explicit `x:y;x:y;...` layout; empty entries are skipped.

    Coordinates must lie in [0, side], the region `torus_distance` wraps
    correctly; this also rejects nan and infinities.
    """
    coords = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            x, y = part.split(":")
            point = (float(x), float(y))
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {part!r}") from exc
        if not (0.0 <= point[0] <= side and 0.0 <= point[1] <= side):
            raise ConfigError(f"{key}: coordinates must lie in [0, topology.side_m={side:g}], got {part!r}")
        coords.append(point)
    return coords


def _mobility_model(cfg: SimConfig, seed: int):
    if cfg.topology.mobility == "static":
        return None
    return topo.WaypointMobility(cfg.topology.waypoint_speed, seed=seed)


def run(cfg: SimConfig, collect_traces: bool = False, check_invariants: bool = False) -> SimResult:
    """Simulate one configuration end to end and summarize per-user QoE.

    check_invariants asserts the queue/cursor accounting identities and the
    playback consumption bound on every slot (slower; used by the fuzz tests).
    """
    root = np.random.SeedSequence(cfg.seed)
    seed_users, seed_catalog, seed_starts = root.spawn(3)

    graph = build_network(cfg, seed_users)
    n_users = len(graph.users)
    profile = synth_catalog(
        cfg.video.segments,
        seed_catalog,
        d_min=cfg.video.d_min,
        d_max=cfg.video.d_max,
        sigma=cfg.video.sigma,
        ladder_ratio=cfg.video.ladder_ratio,
        t_gop_seconds=cfg.t_gop_seconds,
    )
    start_rng = np.random.default_rng(seed_starts)
    starts = start_rng.integers(0, profile.num_chunks, size=n_users).tolist()

    queues = [cl.RequestQueueState() for _ in range(n_users)]
    players = [
        pb.PlaybackState(total_chunks=cfg.session_chunks, window_size=cfg.playback.window_slots, rho=cfg.playback.rho)
        for _ in range(n_users)
    ]
    requested_quality: list[list[float]] = [[] for _ in range(n_users)]
    gammas = np.zeros(n_users)
    last_mode = np.zeros(n_users, dtype=int)
    last_bits = np.zeros(n_users, dtype=np.int64)

    mobility = _mobility_model(cfg, cfg.seed)
    static = mobility is None
    state = topo.topology_state(graph, 0, mobility)
    tables = sched.helper_tables(state, graph, cfg.mimo)
    if cfg.policy == "baseline":
        rr = sched.build_round_robin(sched.max_rssi_associate(state, graph), graph)

    n = cfg.n
    session_slots = cfg.session_chunks * n
    max_slots = session_slots + cfg.effective_drain_limit
    weight_history: deque[np.ndarray] = deque(maxlen=cfg.scheduler_staleness + 1)

    sum_q = np.zeros(n_users)
    sum_theta = np.zeros(n_users)

    traces: dict[str, list] | None = None
    if collect_traces:
        traces = {"schedule": [], "client": [], "playback": []}

    t = 0
    while t < max_slots:
        # Video-slot boundary: step playback over the finished video slot,
        # whose completions are already credited.
        if t % n == 0 and t > 0:
            i = t // n
            for u in range(n_users):
                ps = players[u]
                if ps.phase == pb.FINISHED:
                    continue
                pb.playback_step(ps, i)
                if traces is not None:
                    # The delay window still holds every arrival credited to slot i.
                    a_i = sum(a == i for a, _ in ps.recent)
                    traces["playback"].append((i, u, ps.psi, ps.phase, ps.e_last, a_i))

        sum_q += [qs.q for qs in queues]
        sum_theta += [qs.theta for qs in queues]

        # Chunk-boundary slots: every user picks the quality of its k-th chunk,
        # enqueues the request and advances theta.
        k = t // n
        requesting = t % n == 0 and k < cfg.session_chunks
        if requesting:
            for u in range(n_users):
                qs = queues[u]
                gamma = cl.optimize_gamma(qs.theta, cfg.utility, cfg.video.d_min, cfg.video.d_max)
                gammas[u] = gamma
                i = (starts[u] + k) % profile.num_chunks
                m = cl.request_chunk(qs, profile, i)
                quality = profile.quality[i][m - 1]
                requested_quality[u].append(quality)
                last_mode[u], last_bits[u] = m, profile.size_bits[i][m - 1]
                cl.update_virtual_queue(qs, gamma, quality)

        if not static:
            state = topo.topology_state(graph, t, mobility)
            tables = sched.helper_tables(state, graph, cfg.mimo)

        if cfg.policy == "dpp":
            # Max-weight reads the backlogs of scheduler_staleness slots ago (slot 0's early on).
            weight_history.append(np.fromiter((qs.q for qs in queues), dtype=float, count=n_users))
            per_edge, subsets = sched.max_weight_slot(tables, weight_history[0])
        else:
            per_edge, subsets = sched.round_robin_slot(rr, tables, n_users)
        delivered = sched.aggregate_per_user(per_edge, cfg.receiver)
        if traces is not None:
            for h, subset in enumerate(subsets):
                if subset:
                    traces["schedule"].append((t, h, len(subset), subset, int(per_edge[h].sum())))

        for u in np.flatnonzero(delivered):
            completed = cl.drain_bits(queues[u], int(delivered[u]))
            if completed:
                pb.record_arrivals(players[u], completed, k + 1)

        if check_invariants:
            advanced_view = per_edge.sum(axis=0)
            receiver_view = advanced_view if cfg.receiver == "advanced" else per_edge.max(axis=0)
            if not np.array_equal(delivered, receiver_view):
                raise RuntimeError(f"slot {t}: delivered bits are not the {cfg.receiver} receiver's view")
            if (delivered > advanced_view).any():
                raise RuntimeError(f"slot {t}: delivered bits exceed the advanced receiver's view")
            for u in range(n_users):
                qs = queues[u]
                broken = qs.broken_identity()
                if broken is not None:
                    raise RuntimeError(f"slot {t}: user {u} {broken}")
                if players[u].consumed_count > len(players[u].delays):
                    raise RuntimeError(f"slot {t}: user {u} played a chunk that never arrived")

        if traces is not None and requesting:
            for u in range(n_users):
                qs = queues[u]
                traces["client"].append(
                    (t, u, qs.q, qs.theta, gammas[u], int(last_mode[u]), int(last_bits[u]), int(delivered[u]))
                )

        t += 1
        # Every request is placed by session_slots; the run ends once all queues drain.
        if t >= session_slots and all(qs.q == 0 for qs in queues):
            break

    drain_complete = all(qs.q == 0 for qs in queues)
    slots_run = t

    # Playback epilogue: step the final partial video slot (its completions
    # are already credited; late chunks still count toward delay metrics); if
    # every queue drained, the remaining playout is deterministic, so step
    # video slots through to the finish without the scheduler.
    for u in range(n_users):
        ps = players[u]
        if ps.phase == pb.FINISHED:
            continue
        i = ps.last_slot + 1
        pb.playback_step(ps, i)
        if not drain_complete:
            continue
        cap = i + ps.total_chunks + ps.window_size + 4
        while ps.phase != pb.FINISHED and i < cap:
            i += 1
            pb.playback_step(ps, i)

    users = []
    d_bar = np.zeros(n_users)
    for u in range(n_users):
        ps = players[u]
        delivered_ids = sorted(ps.delays)
        qualities = [requested_quality[u][k] for k in delivered_ids]
        qoe = pb.qoe_metrics(ps, qualities)
        requested = len(requested_quality[u])
        d_bar[u] = sum(qualities) / requested if requested else 0.0
        users.append(
            UserResult(
                user_id=u,
                requested_chunks=requested,
                delivered_chunks=qoe.delivered_chunks,
                delivered_chunk_ids=tuple(delivered_ids),
                average_quality=qoe.average_quality,
                average_delay=qoe.average_delay,
                buffering_percent=qoe.buffering_percent,
                stall_count=qoe.stall_count,
                prebuffer_slots=qoe.prebuffer_slots,
                t_start=qoe.t_start,
                mean_quality_over_requested=float(d_bar[u]),
                mean_q_bits=float(sum_q[u] / slots_run),
                mean_theta=float(sum_theta[u] / slots_run),
                playback_finished=ps.phase == pb.FINISHED,
                queue_drained=queues[u].q == 0,
            )
        )

    utility_defined = bool(n_users and (d_bar > 0).all())
    utility = float(sum(cl.utility(cfg.utility.alpha, x) for x in d_bar)) if utility_defined else float("nan")

    return SimResult(
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        policy=cfg.policy,
        receiver=cfg.receiver,
        users=tuple(users),
        utility=utility,
        utility_defined=utility_defined,
        mean_q_total=float(sum_q.sum() / slots_run),
        mean_theta_total=float(sum_theta.sum() / slots_run),
        drain_complete=drain_complete,
        all_finished=all(p.phase == pb.FINISHED for p in players),
        slots_run=slots_run,
        traces=traces,
    )


def sweep(cfg: SimConfig, parameter: str, values: Sequence) -> list[tuple[object, SimResult]]:
    """Run once per value of a named parameter, sharing the base seed."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; known: {sorted(SWEEP_PARAMETERS)}")
    if not values:
        raise ConfigError("sweep requires at least one value")
    key = SWEEP_PARAMETERS[parameter]
    return [(value, run(with_key(cfg, key, value))) for value in values]


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

def _provenance_line(result: SimResult) -> list[str]:
    return [f"# config={result.config_hash} seed={result.seed}"]


def write_summary_csv(result: SimResult, path: str) -> None:
    """Per-user metrics, one row per user, with a provenance comment line."""
    with open(path, "w", newline="") as fh:
        fh.write(_provenance_line(result)[0] + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["userId", "requestedChunks", "deliveredChunks", "avgQuality", "avgDelaySlots",
             "bufferingPercent", "stallCount", "prebufferSlots", "tStart", "meanQBits", "meanTheta",
             "playbackFinished", "queueDrained"]
        )
        for u in result.users:
            writer.writerow(
                [u.user_id, u.requested_chunks, u.delivered_chunks, f"{u.average_quality:.6g}",
                 f"{u.average_delay:.6g}", f"{u.buffering_percent:.6g}", u.stall_count, u.prebuffer_slots,
                 "" if u.t_start is None else u.t_start, f"{u.mean_q_bits:.6g}", f"{u.mean_theta:.6g}",
                 int(u.playback_finished), int(u.queue_drained)]
            )


def write_run_csv(result: SimResult, cfg: SimConfig, path: str) -> None:
    """Run-level utility, mean backlogs, and the key config knobs."""
    flat = flatten_config(cfg)
    with open(path, "w", newline="") as fh:
        fh.write(_provenance_line(result)[0] + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["utility", "utilityDefined", "meanQTotal", "meanThetaTotal", "drainComplete", "allFinished",
             "slotsRun", "policy", "receiver", "V", "alpha", "M", "sMax", "users", "seed"]
        )
        writer.writerow(
            [f"{result.utility:.10g}", int(result.utility_defined), f"{result.mean_q_total:.10g}",
             f"{result.mean_theta_total:.10g}", int(result.drain_complete), int(result.all_finished),
             result.slots_run, result.policy, result.receiver, flat["utility.v"], flat["utility.alpha"],
             flat["mimo.m"], flat["mimo.s_max"], len(result.users), result.seed]
        )


def write_trace_csvs(result: SimResult, outdir: str) -> list[str]:
    """Optional per-slot traces; returns the paths written."""
    if result.traces is None:
        return []
    os.makedirs(outdir, exist_ok=True)
    written = []
    headers = {
        "schedule": ["t", "helperId", "subsetSize", "userIds", "bits"],
        "client": ["t", "userId", "qBits", "theta", "gamma", "requestedMode", "requestedBits", "deliveredBits"],
        "playback": ["i", "userId", "psi", "phase", "eWindow", "arrivals"],
    }
    for name in ("schedule", "client", "playback"):
        path = os.path.join(outdir, f"trace_{name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write(_provenance_line(result)[0] + "\n")
            writer = csv.writer(fh)
            writer.writerow(headers[name])
            for row in result.traces[name]:
                writer.writerow([" ".join(map(str, v)) if isinstance(v, tuple) else v for v in row])
        written.append(path)
    return written
