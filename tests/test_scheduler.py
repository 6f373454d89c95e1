import math

import numpy as np
import pytest

from graphs import make_graph
from streamsched import validate
from streamsched.phy import MimoConfig
from streamsched.scheduler import (
    RoundRobinState,
    aggregate_per_user,
    exhaustive_select,
    greedy_from_rates,
    helper_rate_rows,
    helper_tables,
    max_weight_slot,
    round_robin_slot,
)

CFG = MimoConfig(antennas=8, s_max=4, symbols_per_slot=1000)


def greedy(h, weights, state, graph, cfg):
    """Helper h's greedy pick on the shared table, as max_weight_slot makes it."""
    ids, rows, _ = helper_tables(state, graph, cfg)[h]
    return greedy_from_rates(weights[ids], rows, ids)


def test_zero_weights_lowest_id_singleton():
    graph, state = make_graph(np.random.default_rng(0).uniform(0.1, 1, (1, 5)))
    subset, obj = greedy(0, np.zeros(5), state, graph, CFG)
    assert subset == (0,)
    assert obj == 0.0


def test_single_positive_weight_wins_alone():
    graph, state = make_graph(np.full((1, 5), 0.5))
    weights = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
    subset, obj = greedy(0, weights, state, graph, CFG)
    assert subset == (2,)
    assert obj > 0


def test_greedy_equals_exhaustive():
    suite = validate.greedy_vs_exhaustive(instances=800, seed=21)
    assert suite.ok, suite.first_failure


def test_greedy_vs_exhaustive_passes_optimal_subsets_one_ulp_apart(monkeypatch):
    # Users 2 and 5 tie, so (0, 2, 3) and (0, 3, 5) are both optimal; summed in
    # ascending-id order their float objectives differ by 1 ulp (found by a
    # seeded search over small tied instances), so the oracle keeps the later one.
    graph, state = make_graph([[0.7, 0.3, 0.7, 0.3, 0.3, 0.7]], antennas=20)
    weights = np.array([7e6, 0.0, 1e6, 2.5e6, 0.0, 1e6])
    cfg = MimoConfig(antennas=20, s_max=3, symbols_per_slot=1000)
    table = helper_tables(state, graph, cfg)[0]
    g_subset, _ = greedy_from_rates(weights[table.ids], table.rows, table.ids)
    e_subset, _ = exhaustive_select(weights[table.ids], table.rows, table.ids)
    assert g_subset != e_subset
    assert validate.exact_objective(g_subset, weights, table) == validate.exact_objective(e_subset, weights, table)
    monkeypatch.setattr(validate, "random_instance", lambda rng: (graph, state, weights, cfg))
    suite = validate.greedy_vs_exhaustive(instances=1)
    assert suite.ok, suite.first_failure


def _full_sort_greedy(weights, rows, ids):
    """Reference kernel: a stable sort of every whole row, prefix sums over all N columns."""
    if not len(ids):
        return (), 0.0
    s_eff = min(rows.shape[0], len(ids))
    weighted = weights * rows[:s_eff]
    order = np.argsort(-weighted, axis=1, kind="stable")
    ranked = np.take_along_axis(weighted, order, axis=1)
    diag = np.arange(s_eff)
    objectives = np.cumsum(ranked, axis=1)[diag, diag]
    best_s = int(np.argmax(objectives))
    chosen = np.sort(order[best_s, : best_s + 1])
    return tuple(int(ids[j]) for j in chosen), float(objectives[best_s])


def _tied_instance(rng, n, s_max, kind):
    """Rate rows of n users, few distinct SINRs, and weights of the given kind.

    Few antennas make large subsets cost rate, so the best size often falls inside
    a run of tied values.
    """
    gains = rng.choice(rng.uniform(0.01, 1.0, 3), (1, n))
    graph, state = make_graph(gains, antennas=int(rng.choice([10, 12, 40])))
    ids, rows = helper_rate_rows(0, state, graph, s_max)
    if kind == "zero":
        weights = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)
    elif kind == "mostly_zero":
        weights = np.where(rng.uniform(size=n) < 0.8, 0.0, rng.choice([1.0, 2.0, 3.0], n))
    else:  # "repeated": a handful of weights times a handful of SINRs
        weights = rng.choice([0.0, 1.0, 4.0, 9.0], n) * 10.0 ** int(rng.integers(0, 7))
    return weights, rows, ids * 3 + 1  # spaced ids: columns and user ids differ


def test_greedy_ranks_as_a_full_stable_sort():
    """The partitioned kernel picks the subset and objective bits of the stable-sort kernel."""
    rng = np.random.default_rng(2024)
    cases = [(n, s, kind) for n in range(1, 13) for s in (1, 4, 10) for kind in ("zero", "mostly_zero", "repeated")]
    cases += [(int(rng.integers(1, 601)), int(rng.integers(1, 11)), kind)
              for _ in range(300) for kind in ("zero", "mostly_zero", "repeated")]
    for n, s_max, kind in cases:
        weights, rows, ids = _tied_instance(rng, n, s_max, kind)
        got = greedy_from_rates(weights, rows, ids)
        want = _full_sort_greedy(weights, rows, ids)
        assert got[0] == want[0], (n, s_max, kind)
        assert got[1] == want[1], (n, s_max, kind)


def test_greedy_breaks_ties_at_the_partition_toward_lower_ids():
    m40 = np.log2(1.0 + np.outer([40.0, 19.5, 38.0 / 3], np.full(600, 0.5)))  # M=40, sizes 1-3
    m10 = np.log2(1.0 + np.outer([10.0, 4.5, 8.0 / 3], np.ones(600)))  # M=10, sizes 1-3
    ties = np.zeros(600)
    ties[[3, 7, 500]] = [5.0, 2.0, 2.0]
    inner = np.zeros(600)
    inner[[105, 325, 508]] = [4.3, 4.3, 10.0]
    cases = [
        (np.ones(600), m40, (0, 1, 2)),  # every value ties: each row's top-k are its first k columns
        (ties, m40[:2], (3, 7)),  # a clear winner, then columns 7 and 500 tie across the partition
        (inner, m10, (105, 508)),  # the tie sits inside the partition, and the best size 2 splits it
    ]
    ids = np.arange(600)
    for weights, rows, subset in cases:
        got = greedy_from_rates(weights, rows, ids)
        assert got == _full_sort_greedy(weights, rows, ids)
        assert got[0] == subset


def test_greedy_equals_exhaustive_on_tied_neighborhoods():
    """Past validate's 12 users: 13-20 users, zero and repeated weights, repeated SINRs.

    Tied users make several subsets optimal, and the float sums of two optimal
    subsets may differ in the last bit by summation order, so the objectives
    are compared exactly as rationals.
    """
    rng = np.random.default_rng(31)
    for _ in range(150):
        n, n_h = int(rng.integers(13, 21)), int(rng.integers(1, 3))
        gains = rng.choice(rng.uniform(0.05, 1.0, 3), (n_h, n))
        cfg = MimoConfig(antennas=int(rng.choice([10, 20, 40])), s_max=int(rng.integers(1, 6)), symbols_per_slot=1000)
        graph, state = make_graph(gains, tx_powers=rng.uniform(1, 50, n_h), antennas=cfg.antennas)
        weights = rng.choice([0.0, 0.0, 1.0, 2.5, 7.0], n) * 10.0 ** int(rng.integers(0, 7))
        table = helper_tables(state, graph, cfg)[0]
        g_subset, _ = greedy_from_rates(weights[table.ids], table.rows, table.ids)
        e_subset, _ = exhaustive_select(weights[table.ids], table.rows, table.ids)
        assert validate.exact_objective(g_subset, weights, table) == validate.exact_objective(e_subset, weights, table)


def test_weight_scaling_leaves_subset_unchanged():
    rng = np.random.default_rng(9)
    for _ in range(100):
        graph, state, weights, cfg = validate.random_instance(rng)
        base_subset, base_obj = greedy(0, weights, state, graph, cfg)
        c = float(10.0 ** rng.uniform(-3, 3))
        scaled_subset, scaled_obj = greedy(0, weights * c, state, graph, cfg)
        assert scaled_subset == base_subset
        assert scaled_obj == pytest.approx(base_obj * c, rel=1e-9)


def test_exhaustive_neighborhood_cap():
    graph, state = make_graph(np.ones((1, 21)))
    ids, rows, _ = helper_tables(state, graph, CFG)[0]
    with pytest.raises(ValueError):
        exhaustive_select(np.ones(21), rows, ids)


def test_exhaustive_su_reduction():
    # s_max=1 picks the best single user by weight * log2(1 + M * sinr).
    rng = np.random.default_rng(3)
    gains = rng.uniform(0.05, 1, (1, 6))
    weights = rng.uniform(0, 5, 6)
    graph, state = make_graph(gains)
    cfg = MimoConfig(antennas=8, s_max=1, symbols_per_slot=1000)
    ids, rows, _ = helper_tables(state, graph, cfg)[0]
    subset, _ = exhaustive_select(weights[ids], rows, ids)
    scores = weights * np.log2(1 + 8 * 20.0 * gains[0])
    assert subset == (int(np.argmax(scores)),)


def test_schedule_network_single_user_full_su_rate(single_link):
    graph, state = single_link
    per_edge, subsets = max_weight_slot(helper_tables(state, graph, CFG), np.array([5.0]))
    assert subsets == [(0,)]
    assert per_edge[0, 0] == math.floor(1000 * math.log2(1 + 8 * 20.0))
    assert aggregate_per_user(per_edge, "advanced")[0] == per_edge[0, 0]


def test_schedule_network_decouples_disjoint_neighborhoods():
    gains = np.array([[0.9, 0.8, 0.0, 0.0], [0.0, 0.0, 0.7, 0.6]])
    adjacency = gains > 0
    graph, state = make_graph(gains, adjacency=adjacency)
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    tables = helper_tables(state, graph, CFG)
    _, subsets = max_weight_slot(tables, weights)
    for h, (ids, rows, _) in enumerate(tables):
        solo = exhaustive_select(weights[ids], rows, ids)[0]
        assert subsets[h] == solo
        assert set(solo) <= set(np.flatnonzero(adjacency[h]))


def test_shared_user_sum_vs_max_aggregation():
    gains = np.array([[1.0], [0.8]])
    graph, state = make_graph(gains)
    per_edge, subsets = max_weight_slot(helper_tables(state, graph, CFG), np.array([2.0]))
    assert subsets == [(0,), (0,)]
    adv = aggregate_per_user(per_edge, "advanced")
    dumb = aggregate_per_user(per_edge, "dumb")
    assert adv[0] == per_edge[:, 0].sum()
    assert dumb[0] == per_edge[:, 0].max()
    assert dumb[0] < adv[0]


def test_allocation_feasibility_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n_h, n_u = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        adjacency = rng.uniform(size=(n_h, n_u)) < 0.6
        adjacency[0] |= ~adjacency.any(axis=0)  # every user keeps an edge
        graph, state = make_graph(rng.uniform(0, 1, (n_h, n_u)), adjacency=adjacency)
        cfg = MimoConfig(antennas=8, s_max=int(rng.integers(1, 5)), symbols_per_slot=1000)
        weights = rng.uniform(0, 10, n_u)
        per_edge, subsets = max_weight_slot(helper_tables(state, graph, cfg), weights)
        for h in range(n_h):
            members = np.flatnonzero(per_edge[h])
            assert set(members) <= set(subsets[h])
            assert len(set(subsets[h])) == len(subsets[h])
            assert len(subsets[h]) <= cfg.s_max
            assert set(subsets[h]) <= set(np.flatnonzero(adjacency[h]))
        dumb_view = aggregate_per_user(per_edge, "dumb")
        adv_view = aggregate_per_user(per_edge, "advanced")
        assert (dumb_view <= adv_view).all()


def test_availability_mask_blocks_scheduling():
    # Helper 1 is the only edge of user 1, so helper 0 must not serve it.
    gains = np.full((2, 3), 0.5)
    adjacency = np.array([[True, False, True], [False, True, False]])
    graph, state = make_graph(gains, adjacency=adjacency)
    weights = np.array([0.0, 100.0, 1.0])  # the blocked user has the huge weight
    per_edge, subsets = max_weight_slot(helper_tables(state, graph, CFG), weights)
    assert per_edge[0, 1] == 0
    assert 1 not in subsets[0]


def test_max_rssi_single_helper_and_ties():
    graph, state = make_graph(np.array([[0.3, 0.9]]))
    assert RoundRobinState(state, graph).users == [[0, 1]]
    graph2, state2 = make_graph(np.array([[0.5, 1.0], [0.5, 0.2]]))
    assert RoundRobinState(state2, graph2).users == [[0, 1], []]  # tie on user 0 -> lower id


def test_max_rssi_colocated_user():
    graph, state = make_graph(np.array([[0.2], [1.0]]))
    assert RoundRobinState(state, graph).users == [[], [0]]


def test_max_rssi_skips_helpers_without_the_file():
    # User 0's strongest helper has no edge to it, so the weaker one serves it.
    adjacency = np.array([[True, True], [False, True]])
    graph, state = make_graph(np.array([[0.2, 0.5], [1.0, 0.9]]), adjacency=adjacency)
    rr = RoundRobinState(state, graph)
    assert rr.users == [[0], [1]]
    for _ in range(3):
        per_edge, subsets = round_robin_slot(rr, helper_tables(state, graph, CFG), 2)
        assert subsets == [(0,), (1,)]
        assert per_edge[1, 0] == 0


def test_baseline_round_robin_period():
    gains = np.full((1, 3), 0.5)
    graph, state = make_graph(gains)
    rr = RoundRobinState(state, graph)
    assert rr.users == [[0, 1, 2]]
    tables = helper_tables(state, graph, MimoConfig(antennas=8, s_max=2, symbols_per_slot=1000))
    served = [round_robin_slot(rr, tables, 3)[1][0][0] for _ in range(6)]
    assert served == [0, 1, 2, 0, 1, 2]


def test_round_robin_bits_are_the_su_mimo_budget():
    # floor(symbols * log2(1 + M * sinr)), recomputed from the gains and powers.
    rng = np.random.default_rng(5)
    gains = rng.uniform(0.05, 1, (3, 7))
    powers = rng.uniform(1, 40, 3)
    graph, state = make_graph(gains, tx_powers=powers)
    cfg = MimoConfig(antennas=8, s_max=4, symbols_per_slot=168_000)
    rr = RoundRobinState(state, graph)
    tables = helper_tables(state, graph, cfg)
    served = set()
    for _ in range(7):
        per_edge, subsets = round_robin_slot(rr, tables, 7)
        for h, subset in enumerate(subsets):
            for u in subset:
                sinr = powers[h] * gains[h, u] / (1.0 + sum(powers[k] * gains[k, u] for k in range(3) if k != h))
                assert per_edge[h, u] == math.floor(168_000 * math.log2(1 + 8 * sinr))
                served.add(u)
            assert per_edge[h].sum() == sum(per_edge[h, u] for u in subset)
    assert served == set(range(7))


def test_baseline_is_queue_oblivious():
    # No weights argument exists; the schedule replays identically however queues look.
    gains = np.array([[0.5, 0.5, 0.1, 0.1], [0.1, 0.1, 0.5, 0.5]])
    graph, state = make_graph(gains)
    a = RoundRobinState(state, graph)
    b = RoundRobinState(state, graph)
    assert a.users == [[0, 1], [2, 3]]
    tables = helper_tables(state, graph, MimoConfig(antennas=8, s_max=2, symbols_per_slot=1000))
    for _ in range(5):
        bits_a, _ = round_robin_slot(a, tables, 4)
        bits_b, _ = round_robin_slot(b, tables, 4)
        assert np.array_equal(bits_a, bits_b)


def test_baseline_single_user_every_slot_and_idle_helper():
    gains = np.full((2, 1), 0.5)
    graph, state = make_graph(gains)
    rr = RoundRobinState(state, graph)
    assert rr.users == [[0], []]
    tables = helper_tables(state, graph, MimoConfig(antennas=8, s_max=2, symbols_per_slot=1000))
    for _ in range(4):
        per_edge, subsets = round_robin_slot(rr, tables, 1)
        assert subsets == [(0,), ()]
        assert per_edge[1].sum() == 0
