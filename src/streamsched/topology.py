"""Network geometry: node placement, pathloss, connectivity graph, gain snapshots.

Distances live on a square torus (wrap-around) to avoid boundary effects.
Gains are large-scale pathloss only. A slot's channel is the plain (H, N)
array of gains that `topology_state` returns; it is deterministic given
positions, so a static layout yields the same gains every slot.

Under waypoint mobility the users step toward random waypoints once per slot,
and only the gains follow them: `topology_state` recomputes them each slot and
the engine rebuilds the rate tables. The `NetworkGraph`, its `edge_rule=snr`
edge set included, is that of slot 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigError

PATHLOSS_REF_DISTANCE_M = 40.0
PATHLOSS_EXPONENT = 3.5

# Default: transmit power in linear SNR-reference units, calibrated so a user
# 40 m from a lone helper sees 10 dB SNR (P * g(40) = P/2 = 10).
DEFAULT_TX_POWER = 20.0


@dataclass(frozen=True)
class NetworkGraph:
    """Bipartite helper/user graph over node positions.

    helpers is the (H, 2) array of helper positions and users the (N, 2)
    array of user positions; a node's id is its row. tx_power is each
    helper's transmit power, shape (H,), and every helper has the same
    antenna count. adjacency[h, u] marks an edge, the only way helper h can
    serve user u. Every user has at least one edge.
    """

    helpers: np.ndarray
    users: np.ndarray
    tx_power: np.ndarray
    antennas: int
    side: float
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        h, u = len(self.helpers), len(self.users)
        if self.helpers.shape != (h, 2) or self.users.shape != (u, 2) or self.tx_power.shape != (h,):
            raise ConfigError("helpers and users must be (count, 2) positions, tx_power one per helper")
        if self.antennas < 1 or (self.tx_power <= 0).any():
            raise ConfigError("antennas and tx_power must be positive")
        if self.adjacency.shape != (h, u):
            raise ConfigError("adjacency shape must be (helpers, users)")
        if u and not self.adjacency.any(axis=0).all():
            orphan = int(np.flatnonzero(~self.adjacency.any(axis=0))[0])
            raise ConfigError(f"user {orphan} has no edge to any helper")


def torus_distance(a: ArrayLike, b: ArrayLike, side: float) -> float | np.ndarray:
    """Euclidean distance with coordinate-wise wraparound on a square of the given side.

    a and b are (x, y) points or arrays of them whose last axis is (x, y);
    the leading axes broadcast. Every coordinate must lie in [0, side]: the
    wrap subtracts one period at most, so points further out get a wrong
    distance.
    """
    delta = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    delta = np.minimum(delta, side - delta)
    return np.sqrt(delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1])


def pathloss_gain(d: float) -> float:
    """Linear power gain 1 / (1 + (d / d0)^eta) at distance d meters."""
    return 1.0 / (1.0 + (d / PATHLOSS_REF_DISTANCE_M) ** PATHLOSS_EXPONENT)


def place_users(
    side: float,
    hotspot_side: float,
    mean_users: float,
    hotspot_ratio: float,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Draw user positions from a two-stratum Poisson point process.

    A central hotspot square of the given side has point density hotspot_ratio
    times the outer density; intensities are scaled so the expected total count
    is mean_users. Returns an (n, 2) array, deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    hot_area = hotspot_side * hotspot_side
    out_area = side * side - hot_area
    base_density = mean_users / (out_area + hotspot_ratio * hot_area)

    n_out = rng.poisson(base_density * out_area)
    n_hot = rng.poisson(base_density * hotspot_ratio * hot_area)

    lo = (side - hotspot_side) / 2.0
    hi = lo + hotspot_side
    outer: list[np.ndarray] = []
    # Rejection-sample the outer stratum: uniform over the region minus hotspot.
    while sum(len(p) for p in outer) < n_out:
        cand = rng.uniform(0.0, side, size=(max(n_out, 16), 2))
        inside = (cand[:, 0] >= lo) & (cand[:, 0] < hi) & (cand[:, 1] >= lo) & (cand[:, 1] < hi)
        outer.append(cand[~inside])
    outer_pts = np.concatenate(outer)[:n_out] if n_out else np.empty((0, 2))
    hot_pts = rng.uniform(lo, hi, size=(n_hot, 2)) if n_hot else np.empty((0, 2))
    return np.concatenate([outer_pts, hot_pts])


def default_helper_layout(side: float) -> list[tuple[float, float]]:
    """One helper at the region center, four at the quarter points."""
    c = side / 2.0
    q = side / 4.0
    return [(c, c), (q, q), (q, 3 * q), (3 * q, q), (3 * q, 3 * q)]


def build_graph(
    helpers: ArrayLike,
    users: ArrayLike,
    side: float,
    tx_power: float,
    antennas: int,
    edge_rule: str = "all",
    snr_threshold: float = 0.0,
) -> NetworkGraph:
    """Assemble the bipartite graph over helper and user positions under an edge rule.

    Every helper gets the same tx_power and antenna count. "all" connects
    every pair; "snr" keeps edges with tx_power * gain >= the threshold,
    falling back to each user's best-gain helper so no user is isolated.
    """
    helpers = np.asarray(helpers, dtype=float).reshape(-1, 2)
    users = np.asarray(users, dtype=float).reshape(-1, 2)
    powers = np.full(len(helpers), float(tx_power))
    if edge_rule == "all":
        adjacency = np.ones((len(helpers), len(users)), dtype=bool)
    else:
        rssi = gain_matrix(helpers, users, side) * powers[:, None]
        adjacency = rssi >= snr_threshold
        for u in range(len(users)):
            if not adjacency[:, u].any():
                adjacency[int(np.argmax(rssi[:, u])), u] = True
    return NetworkGraph(helpers, users, powers, antennas, side, adjacency)


class WaypointMobility:
    """Random waypoint mobility (Camp, Boleng & Davies 2002), stepped once per slot.

    The first call copies graph.users and draws each user a target, uniform over
    the region, from one generator seeded with seed. Each slot moves every user
    speed_m_per_slot straight toward its target; one within that distance lands
    on it and draws its next target, in ascending user id. positions(graph, t)
    steps on from the last slot asked to t, so t must never decrease.
    """

    def __init__(self, speed_m_per_slot: float, seed: int = 0):
        self.speed = speed_m_per_slot
        self.rng = np.random.default_rng(seed)
        self.t = 0
        self.pos: np.ndarray | None = None

    def positions(self, graph: NetworkGraph, t: int) -> np.ndarray:
        if self.pos is None:
            self.pos = graph.users.copy()
            self.targets = self.rng.uniform(0.0, graph.side, size=self.pos.shape)
        if t < self.t:
            raise ValueError(f"waypoint positions asked for slot {t} after slot {self.t}")
        for _ in range(self.t, t):
            vec = self.targets - self.pos
            dist = np.hypot(vec[:, 0], vec[:, 1])
            arrived = dist <= self.speed
            step = self.pos + vec * (self.speed / np.maximum(dist, self.speed))[:, None]
            self.pos = np.where(arrived[:, None], self.targets, step)  # a new array: earlier returns stay put
            self.targets[arrived] = self.rng.uniform(0.0, graph.side, size=(int(arrived.sum()), 2))
        self.t = t
        return self.pos


def topology_state(graph: NetworkGraph, t: int = 0, mobility: WaypointMobility | None = None) -> np.ndarray:
    """(H, N) gains at slot t under the mobility model (default static); ValueError on a negative or non-finite one."""
    user_pos = graph.users if mobility is None else mobility.positions(graph, t)
    gains = gain_matrix(graph.helpers, user_pos, graph.side)
    if (gains < 0).any() or not np.isfinite(gains).all():
        raise ValueError("gains must be finite and nonnegative")
    return gains


def gain_matrix(helper_pos: np.ndarray, user_pos: np.ndarray, side: float) -> np.ndarray:
    """Pathloss gain of every (helper, user) pair from (H, 2) and (N, 2) positions, shape (H, N).

    Each gain goes through `pathloss_gain` on a Python float: numpy's `**`
    can differ from Python's in the last bit.
    """
    dist = torus_distance(helper_pos[:, None, :], user_pos[None, :, :], side)
    return np.array([pathloss_gain(d) for d in dist.ravel().tolist()]).reshape(dist.shape)

