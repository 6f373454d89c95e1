"""Per-slot transmission scheduling: the one scheduling path.

The max-weight problem decouples per helper: because a scheduled user's rate
depends only on the active-subset cardinality, the best subset of a given size
S is the top-S users by weighted rate, and scanning S = 1..s_max is optimal.
Few users can reach any row's top S, so `greedy_from_rates` first keeps
exactly those (a threshold per row, from one row's partition) and stably
sorts just that block, ranking it as a stable sort of every whole row would.
At paper scale it keeps a median of 10 of 500 users; only when fewer than
s_max users have backlog does it keep them all.
The exhaustive enumerator `exhaustive_select(weights, rows)` is the testing
oracle; both it and the kernel return table columns, which `max_weight_slot`
maps to user ids. The queue-oblivious baseline is one class,
`RoundRobinState(gains, graph)`: it associates each user with its max-RSSI
helper, finds once each user's column in that helper's table, and rotates
over each helper's users. Under waypoint mobility the engine rebuilds the
rate tables from each slot's gains, but the association stays that of slot
0's gains, as do the graph's edges, so the columns hold too.

The hardened rate model `log2(1 + ((M - S + 1) / S) * sinr)` of `phy` is
evaluated in one place, `helper_rate_rows`. `helper_tables` turns those rows
into per-helper bit budgets, and both per-slot policies, `max_weight_slot` and
`round_robin_slot`, read their bits from those tables. Each returns one
`Service` per helper, its served users and their budgets, so a slot costs what
it serves, not the population; `aggregate_per_user` combines those into each
served user's bits under the receiver model. The engine schedules
with these functions; the tests and `streamsched validate` check the greedy
kernel against the oracle on the same table, comparing columns, or their
objectives as exact rationals when optimal subsets tie.
"""
from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

import numpy as np

from .phy import MimoConfig, sinr_matrix
from .topology import NetworkGraph

EXHAUSTIVE_NEIGHBORHOOD_CAP = 20


class RoundRobinState:
    """The baseline's max-RSSI association and per-helper rotating cursors.

    Each user is associated with the helper of strongest received power
    (tx_power * gain) among its edges, the lower helper id on a tie. An edge
    is the eligibility rule helper_rate_rows uses, so every associated user
    has a column in its helper's table: column[u], the number of that
    helper's edges to lower ids. Edges never change, so neither do the
    columns. `NetworkGraph` gives every user at least one edge.
    """

    def __init__(self, gains: np.ndarray, graph: NetworkGraph) -> None:
        rssi = np.where(graph.adjacency, graph.tx_power[:, None] * gains, -np.inf)
        helper_of = rssi.argmax(axis=0)
        self.users = [np.flatnonzero(helper_of == h).tolist() for h in range(len(graph.helpers))]
        self.cursors = [0] * len(self.users)
        edges_through = np.cumsum(graph.adjacency, axis=1)
        self.column = (edges_through[helper_of, np.arange(len(helper_of))] - 1).tolist()

    def next_user(self, h: int) -> int | None:
        """Helper h's next associated user in ascending-id rotation, None if it has none."""
        users = self.users[h]
        if not users:
            return None
        cursor = self.cursors[h]
        self.cursors[h] = (cursor + 1) % len(users)
        return users[cursor]


def helper_rate_rows(
    h: int, gains: np.ndarray, graph: NetworkGraph, s_max: int, sinr: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eligible user ids of helper h and their rates for every subset size.

    Returns (user_ids ascending, rows) with rows[S-1, j] the bits/symbol of
    user_ids[j] when h serves S streams. A user is eligible when it has an
    edge to h. sinr is h's row of `sinr_matrix(gains, graph)` when the caller
    already has it; otherwise it is computed here.
    """
    ids = np.flatnonzero(graph.adjacency[h])
    if sinr is None:
        sinr = sinr_matrix(gains, graph)[h]
    sinr_vec = sinr[ids]
    sizes = np.arange(1, min(s_max, graph.antennas) + 1)
    prefactor = (graph.antennas - sizes + 1) / sizes
    rows = np.log2(1.0 + prefactor[:, None] * sinr_vec[None, :])
    return ids, rows


def greedy_from_rates(weights: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Sort-&-greedy subset selection from precomputed rate rows.

    For each size S, candidates are the top-S columns by weight * rate, equal
    values breaking toward the lower column; the best size wins, ties toward
    smaller S. Returns the winning columns, ascending, and their prefix sum.

    Only s_eff = min(s_max, N) rows matter, and only a few columns can reach
    any row's top S, so the kernel keeps just those and ranks that block with
    a stable sort: the same subset and the same prefix-sum bits as a stable
    sort of every whole row, for any finite rows. Partitioning the last row
    picks some s_eff columns T; lam[S-1], the S-th largest of row S over T, is
    at most the S-th largest of the whole row, so a column below lam in every
    row has S values strictly above it in each row S and is in no top S under
    any tie-break. Every column of T is at or above lam in the last row, so at
    least s_eff columns stay, and they stay in column order, so the block's
    stable sort ranks each row's top S as the whole row's would. With
    s_eff == 1 the winner is the row's first maximum, which is np.argmax, and
    a one-term prefix sum is that value.
    """
    n = len(weights)
    if not n:
        return np.empty(0, dtype=np.intp), 0.0
    s_eff = min(rows.shape[0], n)
    weighted = weights * rows[:s_eff]
    if s_eff == 1:
        j = weighted[0].argmax(keepdims=True)
        return j, float(weighted[0, j[0]])
    top = np.argpartition(weighted[-1], n - s_eff)[n - s_eff :]
    lam = np.sort(weighted.take(top, axis=1), axis=1)[:, ::-1].diagonal()
    cand = np.flatnonzero((weighted >= lam[:, None]).any(axis=0))
    block = weighted.take(cand, axis=1)
    order = np.argsort(-block, axis=1, kind="stable")[:, :s_eff]
    objectives = np.cumsum(block[np.arange(s_eff)[:, None], order], axis=1).diagonal()
    best_s = int(np.argmax(objectives))  # first max, so ties go to the smaller size
    return np.sort(cand[order[best_s, : best_s + 1]]), float(objectives[best_s])


def exhaustive_select(weights: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact argmax over every nonempty subset of a table's columns; testing oracle.

    Takes and returns what `greedy_from_rates` does. On a float tie the first
    subset found wins: the smaller size, then the lexicographically lower columns.
    """
    n = len(weights)
    if n > EXHAUSTIVE_NEIGHBORHOOD_CAP:
        raise ValueError(f"neighborhood too large for enumeration ({n} users)")
    best_cols: tuple[int, ...] = ()
    best_obj = -np.inf if n else 0.0
    for size in range(1, min(rows.shape[0], n) + 1):
        weighted = (weights * rows[size - 1]).tolist()
        for combo in itertools.combinations(range(n), size):
            objective = 0.0
            for j in combo:
                objective += weighted[j]
            if objective > best_obj:
                best_obj, best_cols = objective, combo
    return np.array(best_cols, dtype=np.intp), best_obj


class RateTable(NamedTuple):
    """One helper's eligible users and what each would get per subset size S.

    rows[S-1, j] and bits[S-1, j] are the bits/symbol and integer slot budget of
    user ids[j] when the helper serves S streams; ids ascend, as columns do.
    """

    ids: np.ndarray
    rows: np.ndarray
    bits: np.ndarray


def helper_tables(gains: np.ndarray, graph: NetworkGraph, cfg: MimoConfig) -> list[RateTable]:
    """Every helper's table; valid for as long as the (H, N) gains hold.

    A table has a row for each subset size up to min(s_max, its eligible
    users): no helper can serve more streams than it has users.
    """
    sinr = sinr_matrix(gains, graph)
    tables = []
    for h, eligible in enumerate(np.count_nonzero(graph.adjacency, axis=1).tolist()):
        ids, rows = helper_rate_rows(h, gains, graph, min(cfg.s_max, eligible), sinr=sinr[h])
        bits = np.floor(rows * cfg.symbols_per_slot).astype(np.int64)
        tables.append(RateTable(ids, rows, bits))
    return tables


# One helper's service in a slot: its served users (ascending ids) and each one's bit budget.
Service = tuple[tuple[int, ...], tuple[int, ...]]
IDLE: Service = ((), ())


def max_weight_slot(tables: list[RateTable], weights: np.ndarray) -> list[Service]:
    """One slot of max-weight scheduling, helper by helper; each helper's service, IDLE when it serves nobody."""
    served = []
    for ids, rows, bits in tables:
        cols, _ = greedy_from_rates(weights[ids], rows)
        if len(cols):
            served.append((tuple(ids[cols].tolist()), tuple(bits[len(cols) - 1, cols].tolist())))
        else:
            served.append(IDLE)
    return served


def round_robin_slot(rr: RoundRobinState, tables: list[RateTable]) -> list[Service]:
    """One slot of the baseline: each helper serves its next associated user SU-MIMO.

    The user gets the S=1 bit budget of the helper's table. Same return as
    max_weight_slot.
    """
    served = []
    for h, table in enumerate(tables):
        u = rr.next_user(h)
        served.append(IDLE if u is None else ((u,), (int(table.bits[0, rr.column[u]]),)))
    return served


def aggregate_per_user(served: list[Service], receiver_model: str) -> dict[int, int]:
    """Each served user's bits over every helper serving it: the sum for advanced receivers, else the max.

    Users appear in the order helpers first serve them; a zero-bit edge still
    lists its user.
    """
    combine = operator.add if receiver_model == "advanced" else max
    delivered: dict[int, int] = {}
    for users, bits in served:
        for u, b in zip(users, bits):
            delivered[u] = combine(delivered[u], b) if u in delivered else b
    return delivered
