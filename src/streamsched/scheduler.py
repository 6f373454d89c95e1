"""Per-slot transmission scheduling: the one scheduling path.

The max-weight problem decouples per helper: because a scheduled user's rate
depends only on the active-subset cardinality, the best subset of a given size
S is the top-S users by weighted rate, and scanning S = 1..s_max is optimal.
Only the top s_max users of each row can matter, so `greedy_from_rates`
partitions each row for them and sorts just that small block, ranking them
exactly as a stable sort of the whole row would.
The exhaustive enumerator `exhaustive_select(weights, rows, ids)` takes the
greedy kernel's inputs and serves as the testing oracle. The queue-oblivious
baseline is one class, `RoundRobinState(state, graph)`: it associates each
user with its max-RSSI helper and rotates over each helper's users.

The hardened rate model `log2(1 + ((M - S + 1) / S) * sinr)` of `phy` is
evaluated in one place, `helper_rate_rows`. `helper_tables` turns those rows
into per-helper bit budgets, and both per-slot policies, `max_weight_slot` and
`round_robin_slot`, read their bits from those tables. The engine schedules
with these functions; the tests and `streamsched validate` check the greedy
kernel against the oracle on the same table, comparing subsets, or their
objectives as exact rationals when optimal subsets tie.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .phy import MimoConfig, sinr_matrix
from .topology import NetworkGraph, TopologyState

EXHAUSTIVE_NEIGHBORHOOD_CAP = 20


class RoundRobinState:
    """The baseline's max-RSSI association and per-helper rotating cursors.

    Each user is associated with the helper of strongest received power
    (tx_power * gain) among its edges, the lower helper id on a tie. An edge
    is the eligibility rule helper_rate_rows uses, so every associated user
    has a column in its helper's table; `NetworkGraph` gives every user at
    least one edge.
    """

    def __init__(self, state: TopologyState, graph: NetworkGraph) -> None:
        rssi = np.where(graph.adjacency, graph.tx_power[:, None] * state.gains, -np.inf)
        helper_of = rssi.argmax(axis=0)
        self.users = [np.flatnonzero(helper_of == h).tolist() for h in range(len(graph.helpers))]
        self.cursors = [0] * len(self.users)

    def next_user(self, h: int) -> int | None:
        """Helper h's next associated user in ascending-id rotation, None if it has none."""
        users = self.users[h]
        if not users:
            return None
        cursor = self.cursors[h]
        self.cursors[h] = (cursor + 1) % len(users)
        return users[cursor]


def helper_rate_rows(
    h: int, state: TopologyState, graph: NetworkGraph, s_max: int, sinr: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Eligible user ids of helper h and their rates for every subset size.

    Returns (user_ids ascending, rows) with rows[S-1, j] the bits/symbol of
    user_ids[j] when h serves S streams. A user is eligible when it has an
    edge to h. sinr is h's row of `sinr_matrix(state, graph)` when the caller
    already has it; otherwise it is computed here.
    """
    ids = np.flatnonzero(graph.adjacency[h])
    if sinr is None:
        sinr = sinr_matrix(state, graph)[h]
    sinr_vec = sinr[ids]
    sizes = np.arange(1, min(s_max, graph.antennas) + 1)
    prefactor = (graph.antennas - sizes + 1) / sizes
    rows = np.log2(1.0 + prefactor[:, None] * sinr_vec[None, :])
    return ids, rows


def greedy_from_rates(weights: np.ndarray, rows: np.ndarray, ids: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Sort-&-greedy subset selection from precomputed rate rows.

    For each size S, candidates are the top-S users by weight * rate, equal
    values breaking toward the lower id; the best size wins, ties toward
    smaller S. Only the top s_eff = min(s_max, N) users of a row can matter,
    so each row is partitioned for them (O(N)) and just those are ordered by
    (-value, column); when s_eff == N the partition keeps every column. A row
    whose s_eff-th value ties one outside the partition, as when fewer than
    s_eff users have nonzero weight, is stably sorted whole instead
    (O(N log N) for that row). This ranks exactly as a stable sort of the
    full row, and the prefix sums run over the same values in the same order.
    The returned objective is the winning prefix sum.
    """
    if not len(ids):
        return (), 0.0
    s_eff = min(rows.shape[0], len(ids))
    weighted = weights * rows[:s_eff]
    order = _top_k_order(weighted, s_eff)
    diag = np.arange(s_eff)
    ranked = weighted[diag[:, None], order]
    objectives = np.cumsum(ranked, axis=1)[diag, diag]
    best_s = int(np.argmax(objectives))  # first max, so ties go to the smaller size
    chosen = np.sort(order[best_s, : best_s + 1])
    return tuple(ids[chosen].tolist()), float(objectives[best_s])


def _top_k_order(weighted: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k largest values, as a stable descending sort ranks them.

    (rows, k) int array. Ties break toward the lower column, and -0.0 ranks
    equal to 0.0, both as in the stable sort.
    """
    n = weighted.shape[1]
    r = np.arange(len(weighted))[:, None]
    top = np.argpartition(weighted, n - k, axis=1)[:, n - k :]
    top_values = weighted[r, top]
    order = top[r, np.lexsort((top, -top_values), axis=1)]
    # top_values[:, 0] is the partition point, each row's k-th largest value;
    # a row with more than k values at or above it has a tie the partition split.
    # Few calls have one, and one flat count rules them out ~10x cheaper than
    # the per-row count.
    at_or_above = weighted >= top_values[:, :1]
    if np.count_nonzero(at_or_above) > order.size:
        for row in np.flatnonzero(np.count_nonzero(at_or_above, axis=1) > k):
            order[row] = np.argsort(-weighted[row], kind="stable")[:k]
    return order


def exhaustive_select(weights: np.ndarray, rows: np.ndarray, ids: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Exact argmax over every nonempty subset of a table's users; testing oracle.

    Takes `greedy_from_rates`' inputs. On a float tie the first subset found
    wins: the smaller size, then the lexicographically lower columns.
    """
    if len(ids) > EXHAUSTIVE_NEIGHBORHOOD_CAP:
        raise ValueError(f"neighborhood too large for enumeration ({len(ids)} users)")
    if not len(ids):
        return (), 0.0
    best_subset: tuple[int, ...] = ()
    best_obj = -np.inf
    for size in range(1, min(rows.shape[0], len(ids)) + 1):
        weighted = (weights * rows[size - 1]).tolist()
        for combo in itertools.combinations(range(len(ids)), size):
            objective = 0.0
            for j in combo:
                objective += weighted[j]
            if objective > best_obj:
                best_obj = objective
                best_subset = tuple(int(ids[j]) for j in combo)
    return best_subset, best_obj


class RateTable(NamedTuple):
    """One helper's eligible users and what each would get per subset size S.

    rows[S-1, j] is the bits/symbol and bits[S-1, j] the integer slot budget of
    user ids[j] when the helper serves S streams; ids ascend, so a user's
    column is ids.searchsorted(user).
    """

    ids: np.ndarray
    rows: np.ndarray
    bits: np.ndarray


def helper_tables(state: TopologyState, graph: NetworkGraph, cfg: MimoConfig) -> list[RateTable]:
    """Every helper's table; valid for as long as the gains in state hold."""
    sinr = sinr_matrix(state, graph)
    tables = []
    for h in range(len(graph.helpers)):
        ids, rows = helper_rate_rows(h, state, graph, cfg.s_max, sinr=sinr[h])
        bits = np.floor(rows * cfg.symbols_per_slot).astype(np.int64)
        tables.append(RateTable(ids, rows, bits))
    return tables


def max_weight_slot(tables: list[RateTable], weights: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """One slot of max-weight scheduling, helper by helper.

    Returns the (helpers, users) int64 per-edge bits and each helper's active
    subset (ascending ids, empty when it serves nobody).
    """
    per_edge = np.zeros((len(tables), len(weights)), dtype=np.int64)
    subsets = []
    for h, (ids, rows, bits) in enumerate(tables):
        subset, _ = greedy_from_rates(weights[ids], rows, ids)
        subsets.append(subset)
        if subset:
            per_edge[h, subset] = bits[len(subset) - 1, ids.searchsorted(subset)]
    return per_edge, subsets


def round_robin_slot(
    rr: RoundRobinState, tables: list[RateTable], n_users: int
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """One slot of the baseline: each helper serves its next associated user SU-MIMO.

    The user gets the S=1 bit budget of the helper's table. Same return shape
    as max_weight_slot.
    """
    per_edge = np.zeros((len(tables), n_users), dtype=np.int64)
    subsets = []
    for h, table in enumerate(tables):
        u = rr.next_user(h)
        if u is None:
            subsets.append(())
            continue
        subsets.append((u,))
        per_edge[h, u] = table.bits[0, table.ids.searchsorted(u)]
    return per_edge, subsets


def aggregate_per_user(per_edge_bits: np.ndarray, receiver_model: str) -> np.ndarray:
    return per_edge_bits.sum(axis=0) if receiver_model == "advanced" else per_edge_bits.max(axis=0)

