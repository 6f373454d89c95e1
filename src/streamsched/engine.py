"""Two-time-scale simulation loop.

Chunk requests happen every n transmission slots; scheduling and queue
draining happen every slot; playback advances once per video slot (n
transmission slots). All randomness flows from a single seed split per
subsystem, so a run is bit-reproducible.

Users request in lockstep: on chunk slot k = t // n (k < session_chunks)
every user requests its k-th chunk, catalog index (starts[u] + k) mod the
catalog length, where starts holds each user's random first chunk. That one
session clock is all the session state there is.

`run` is the slot loop over the phase methods of one `RunState`, in this
order per transmission slot t: `playback(i)` on video-slot boundaries
t = i * n > 0, `sample()`, `request(k)` on chunk slots k = t // n below
session_chunks, `refresh_topology(t)`, `schedule(t)`, `drain(delivered, k)`.
A chunk completed during slot t is credited at once to video slot t // n + 1,
the video slot containing t, i.e. it becomes playable at the next boundary.
After the loop, playback plays out through the same `playback` phase.
"""
from __future__ import annotations

import csv
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def run_seeds(cfg: SimConfig) -> list[np.random.SeedSequence]:
    """The user, catalog and start seeds a run splits from cfg.seed; the user seed places the network."""
    return np.random.SeedSequence(cfg.seed).spawn(3)


def build_network(cfg: SimConfig, seed_users: np.random.SeedSequence) -> topo.NetworkGraph:
    """Helpers from the configured layout plus Poisson-placed users."""
    spec = cfg.topology
    if spec.helper_layout == "center+quarters":
        helpers = topo.default_helper_layout(spec.side_m)
    else:
        helpers = _parse_layout(spec.helper_layout, "topology.helper_layout", spec.side_m)
        if not helpers:
            raise ConfigError("topology.helper_layout produced no helpers")
    # phy.sinr_matrix sums every helper's received power as interference; an infinite sum zeroes every SINR.
    if not np.isfinite(spec.tx_power * len(helpers)):
        raise ConfigError(f"topology.tx_power: the {len(helpers)} helpers' summed power must be finite")
    if spec.user_layout == "poisson":
        users = topo.place_users(spec.side_m, spec.hotspot_side_m, spec.mean_users, spec.hotspot_ratio, seed_users)
        if len(users) == 0:
            raise ConfigError("topology.mean_users: the Poisson draw produced zero users; "
                              "raise the mean or change the seed")
    else:
        users = _parse_layout(spec.user_layout, "topology.user_layout", spec.side_m)
        if not users:
            raise ConfigError("topology.user_layout produced no users")
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


class RunState:
    """Everything a run carries from slot to slot, per-user state indexed by
    user id; each method is one phase of the slot loop `run`.

    The backlogs Q and virtual queues theta are the (N,) float vectors q and
    theta, the only copy of that state: sampling, the max-weight weights and
    the drained test are one numpy call each. queues holds each user's chunk
    ledger, and players its playback state. requests holds each user's
    (gamma, mode, bits) record of the last chunk slot, which the client trace
    reads.
    """

    def __init__(self, cfg: SimConfig, collect_traces: bool = False) -> None:
        self.cfg = cfg
        seed_users, seed_catalog, seed_starts = run_seeds(cfg)
        self.graph = graph = build_network(cfg, seed_users)
        self.n_users = n_users = len(graph.users)
        v = cfg.video
        # A backlog is a float, exact only while a session's requested bits stay below 2**53.
        try:
            self.profile = synth_catalog(v.segments, seed_catalog, d_min=v.d_min, d_max=v.d_max, sigma=v.sigma,
                                         ladder_ratio=v.ladder_ratio, t_gop_seconds=cfg.t_gop_seconds)
        except OverflowError as exc:  # a chunk of 2**53 bits or more, infinite ones included
            raise ConfigError("video.segments and t_gop_seconds give a chunk of 2**53 bits or more; backlogs count "
                              "bits exactly only below 2**53") from exc
        session_max = cfg.session_chunks * max(sizes[-1] for sizes in self.profile.size_bits)
        if session_max >= 2**53:
            raise ConfigError(f"video.segments: a session of {cfg.session_chunks} chunks could request up to "
                              f"{session_max} bits; backlogs count bits exactly only below 2**53")
        self.starts = np.random.default_rng(seed_starts).integers(0, self.profile.num_chunks, size=n_users).tolist()
        self.q = np.zeros(n_users)
        self.theta = np.zeros(n_users)
        self.queues = [cl.RequestQueueState() for _ in range(n_users)]
        p = cfg.playback
        self.players = [pb.PlaybackState(total_chunks=cfg.session_chunks, window_size=p.window_slots, rho=p.rho)
                        for _ in range(n_users)]
        self.requests: list[tuple[float, int, int]] = []
        self.mobility = (None if cfg.topology.mobility == "static"
                         else topo.WaypointMobility(cfg.topology.waypoint_speed, seed=cfg.seed))
        gains = topo.topology_state(graph, 0, self.mobility)
        self.tables = sched.helper_tables(gains, graph, cfg.mimo)
        if cfg.policy == "baseline":
            self.rr = sched.RoundRobinState(gains, graph)
        self.weight_history: deque[np.ndarray] = deque(maxlen=cfg.scheduler_staleness + 1)
        self.sum_q = np.zeros(n_users)
        self.sum_theta = np.zeros(n_users)
        self.traces = {"schedule": [], "client": [], "playback": []} if collect_traces else None

    def playback(self, i: int) -> None:
        """Step (and trace) every unfinished player over video slot i, whose completions are already credited."""
        rows = self.traces["playback"] if self.traces is not None else None
        for u, ps in enumerate(self.players):
            if ps.phase != pb.FINISHED:
                pb.playback_step(ps, i)
                if rows is not None:
                    # The delay window still holds every arrival credited to slot i.
                    a_i = sum(a == i for a, _ in ps.recent)
                    rows.append((i, u, ps.psi, ps.phase, ps.e_last, a_i))

    def sample(self) -> None:
        """Add this slot's backlogs and virtual queues to the running sums."""
        self.sum_q += self.q
        self.sum_theta += self.theta

    def request(self, k: int) -> None:
        """Chunk slot k: every user picks the rung of its k-th chunk, enqueues it, advances theta and records it."""
        utility, video = self.cfg.utility, self.cfg.video
        profile, starts = self.profile, self.starts
        q, theta = self.q.tolist(), self.theta.tolist()
        self.requests = requests = []
        for u, qs in enumerate(self.queues):
            gamma = cl.optimize_gamma(theta[u], utility, video.d_min, video.d_max)
            m, bits, quality = cl.request_chunk(qs, q[u], theta[u], profile, (starts[u] + k) % profile.num_chunks)
            q[u] += bits
            theta[u] = cl.update_virtual_queue(theta[u], gamma, quality)
            requests.append((gamma, m, bits))
        self.q[:] = q
        self.theta[:] = theta

    def refresh_topology(self, t: int) -> None:
        """Under mobility, slot t's gains and every helper's rate table; edges and association stay slot 0's."""
        if self.mobility is not None:
            gains = topo.topology_state(self.graph, t, self.mobility)
            self.tables = sched.helper_tables(gains, self.graph, self.cfg.mimo)

    def schedule(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Every helper's subset for slot t; returns (per-edge bits, bits delivered per user)."""
        if self.cfg.policy == "dpp":
            # Max-weight reads the backlogs of scheduler_staleness slots ago (slot 0's early on).
            # A copy: the history must keep past backlogs, not views of the live vector.
            self.weight_history.append(self.q.copy())
            per_edge, subsets = sched.max_weight_slot(self.tables, self.weight_history[0])
        else:
            per_edge, subsets = sched.round_robin_slot(self.rr, self.tables, self.n_users)
        delivered = sched.aggregate_per_user(per_edge, self.cfg.receiver)
        if self.traces is not None:
            rows = self.traces["schedule"]
            for h, subset in enumerate(subsets):
                if subset:
                    rows.append((t, h, len(subset), subset, int(per_edge[h].sum())))
        return per_edge, delivered

    def drain(self, delivered: np.ndarray, k: int) -> None:
        """Drain each served user's bits; completed chunks are credited to video slot k + 1."""
        served = np.flatnonzero(delivered)
        bits = delivered[served]
        cl.drain_backlog(self.q, served, bits)
        queues, players = self.queues, self.players
        for u, b in zip(served.tolist(), bits.tolist()):
            completed = cl.drain_bits(queues[u], b)
            if completed:
                pb.record_arrivals(players[u], completed, k + 1)

    def trace_requests(self, t: int, delivered: np.ndarray) -> None:
        """Chunk slot t's client trace, after its drain: per user Q, theta, its request record and bits delivered."""
        self.traces["client"].extend(
            (t, u, q, theta, gamma, m, bits, b) for u, (q, theta, (gamma, m, bits), b)
            in enumerate(zip(self.q.tolist(), self.theta.tolist(), self.requests, delivered.tolist())))

    def check(self, t: int, per_edge: np.ndarray, delivered: np.ndarray) -> None:
        """Raise unless slot t's bits match the receiver model and every queue and player is consistent."""
        receiver = self.cfg.receiver
        advanced_view = per_edge.sum(axis=0)
        receiver_view = advanced_view if receiver == "advanced" else per_edge.max(axis=0)
        if not np.array_equal(delivered, receiver_view):
            raise RuntimeError(f"slot {t}: delivered bits are not the {receiver} receiver's view")
        if (delivered > advanced_view).any():
            raise RuntimeError(f"slot {t}: delivered bits exceed the advanced receiver's view")
        for u, (q, qs, ps) in enumerate(zip(self.q.tolist(), self.queues, self.players)):
            broken = qs.broken_identity(q)
            if broken is not None:
                raise RuntimeError(f"slot {t}: user {u} {broken}")
            if ps.arrived != qs.head:
                raise RuntimeError(f"slot {t}: user {u} player arrivals != queue head")
            if ps.consumed_count > ps.arrived:
                raise RuntimeError(f"slot {t}: user {u} played a chunk that never arrived")

    def drained(self) -> bool:
        return not self.q.any()

    def finished(self) -> bool:
        return all(ps.phase == pb.FINISHED for ps in self.players)

    def result(self, slots_run: int, drain_complete: bool) -> SimResult:
        """Per-user QoE and the run-level summary over slots_run slots."""
        cfg, sum_q, sum_theta = self.cfg, self.sum_q, self.sum_theta
        users = []
        d_bar = np.zeros(self.n_users)
        for u, (q, qs, ps) in enumerate(zip(self.q.tolist(), self.queues, self.players)):
            requested = qs.requested_chunks
            d_bar[u] = qs.delivered_quality / requested if requested else 0.0
            # UserResult extends the playback QoE metrics with the queue side.
            users.append(UserResult(
                user_id=u, requested_chunks=requested, delivered_chunk_ids=tuple(range(ps.arrived)),
                mean_quality_over_requested=float(d_bar[u]), mean_q_bits=float(sum_q[u] / slots_run),
                mean_theta=float(sum_theta[u] / slots_run), playback_finished=ps.phase == pb.FINISHED,
                queue_drained=q == 0, **vars(pb.qoe_metrics(ps, qs.delivered_quality)),
            ))
        utility_defined = bool(self.n_users and (d_bar > 0).all())
        utility = float(sum(cl.utility(cfg.utility.alpha, x) for x in d_bar)) if utility_defined else float("nan")
        return SimResult(
            config_hash=config_hash(cfg), seed=cfg.seed, policy=cfg.policy, receiver=cfg.receiver,
            users=tuple(users), utility=utility, utility_defined=utility_defined,
            mean_q_total=float(sum_q.sum() / slots_run), mean_theta_total=float(sum_theta.sum() / slots_run),
            drain_complete=drain_complete, all_finished=self.finished(), slots_run=slots_run, traces=self.traces,
        )


def run(cfg: SimConfig, collect_traces: bool = False, check_invariants: bool = False) -> SimResult:
    """Simulate one configuration end to end and summarize per-user QoE.

    check_invariants asserts the queue/cursor accounting identities and the
    playback consumption bound on every slot (slower; the parity matrix, the
    acceptance criteria and the engine tests run with it).
    """
    st = RunState(cfg, collect_traces)
    n, chunks = cfg.n, cfg.session_chunks
    session_slots = chunks * n
    max_slots = session_slots + cfg.effective_drain_limit
    t = 0
    while t < max_slots:
        k = t // n
        chunk_slot = t % n == 0
        if chunk_slot and t > 0:
            st.playback(k)
        st.sample()
        requesting = chunk_slot and k < chunks
        if requesting:
            st.request(k)
        st.refresh_topology(t)
        per_edge, delivered = st.schedule(t)
        st.drain(delivered, k)
        if check_invariants:
            st.check(t, per_edge, delivered)
        if requesting and st.traces is not None:
            st.trace_requests(t, delivered)
        t += 1
        # Every request is placed by session_slots; the run ends once all queues drain.
        if t >= session_slots and st.drained():
            break

    # Every unfinished player last stepped at video slot (t - 1) // n. Step the
    # final partial video slot (late chunks still count toward delay metrics);
    # if every queue drained, the playout left is deterministic, so play it out.
    drain_complete = st.drained()
    i = (t - 1) // n + 1
    st.playback(i)
    if drain_complete:
        cap = i + chunks + cfg.playback.window_slots + 4
        while i < cap and not st.finished():
            i += 1
            st.playback(i)
    return st.result(t, drain_complete)


def sweep(cfg: SimConfig, parameter: str, values: Sequence) -> list[tuple[object, SimConfig, SimResult]]:
    """Run once per value of a named parameter, sharing the base seed; returns (value, config, result) triples.

    Every value's config and network are built, and so checked, before any run.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; known: {sorted(SWEEP_PARAMETERS)}")
    if not values:
        raise ConfigError("sweep requires at least one value")
    key = SWEEP_PARAMETERS[parameter]
    configs = [with_key(cfg, key, value) for value in values]
    for value_cfg in configs:
        build_network(value_cfg, run_seeds(value_cfg)[0])
    return [(value, value_cfg, run(value_cfg)) for value, value_cfg in zip(values, configs)]


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

def write_csv(path: str, digest: str, seed: int, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write one result file and return its path.

    Line 1 is the provenance line `# config=<digest> seed=<seed>`, line 2 the
    header, then one line per row; a tuple cell is written space-joined. This
    is the only code that creates a result file or its directory, so a config
    rejected before the first write leaves no output behind.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={digest} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([" ".join(map(str, v)) if isinstance(v, tuple) else v for v in row] for row in rows)
    return path


def write_summary_csv(result: SimResult, path: str) -> None:
    """Per-user metrics, one row per user, with a provenance comment line."""
    write_csv(path, result.config_hash, result.seed,
              ["userId", "requestedChunks", "deliveredChunks", "avgQuality", "avgDelaySlots", "bufferingPercent",
               "stallCount", "prebufferSlots", "tStart", "meanQBits", "meanTheta", "playbackFinished",
               "queueDrained"],
              ([u.user_id, u.requested_chunks, u.delivered_chunks, f"{u.average_quality:.6g}",
                f"{u.average_delay:.6g}", f"{u.buffering_percent:.6g}", u.stall_count, u.prebuffer_slots,
                "" if u.t_start is None else u.t_start, f"{u.mean_q_bits:.6g}", f"{u.mean_theta:.6g}",
                int(u.playback_finished), int(u.queue_drained)] for u in result.users))


def write_run_csv(result: SimResult, cfg: SimConfig, path: str) -> None:
    """Run-level utility, mean backlogs, and the key config knobs."""
    flat = flatten_config(cfg)
    write_csv(path, result.config_hash, result.seed,
              ["utility", "utilityDefined", "meanQTotal", "meanThetaTotal", "drainComplete", "allFinished",
               "slotsRun", "policy", "receiver", "V", "alpha", "M", "sMax", "users", "seed"],
              [[f"{result.utility:.10g}", int(result.utility_defined), f"{result.mean_q_total:.10g}",
                f"{result.mean_theta_total:.10g}", int(result.drain_complete), int(result.all_finished),
                result.slots_run, result.policy, result.receiver, flat["utility.v"], flat["utility.alpha"],
                flat["mimo.m"], flat["mimo.s_max"], len(result.users), result.seed]])


def write_trace_csvs(result: SimResult, outdir: str) -> list[str]:
    """Optional per-slot traces; returns the paths written."""
    if result.traces is None:
        return []
    headers = {
        "schedule": ["t", "helperId", "subsetSize", "userIds", "bits"],
        "client": ["t", "userId", "qBits", "theta", "gamma", "requestedMode", "requestedBits", "deliveredBits"],
        "playback": ["i", "userId", "psi", "phase", "eWindow", "arrivals"],
    }
    return [write_csv(os.path.join(outdir, f"trace_{name}.csv"), result.config_hash, result.seed, header,
                      result.traces[name]) for name, header in headers.items()]
