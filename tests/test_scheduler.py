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

CFG = MimoConfig(m=8, s_max=4, symbols_per_slot=1000)


def greedy(h, weights, state, graph, cfg):
    """Helper h's greedy pick on the shared table, mapped to user ids as max_weight_slot maps it."""
    ids, rows, _ = helper_tables(state, graph, cfg)[h]
    cols, objective = greedy_from_rates(weights[ids], rows)
    return tuple(ids[cols].tolist()), objective


def dense(served, n_users):
    """The (helpers, users) bits of a slot's services; zero off the served edges."""
    per_edge = np.zeros((len(served), n_users), dtype=np.int64)
    for h, (users, bits) in enumerate(served):
        per_edge[h, list(users)] = bits
    return per_edge


def _bits(result):
    """A kernel or oracle result as comparable plain values: the columns and the objective's exact bits."""
    cols, objective = result
    return cols.tolist(), objective.hex()


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
    cfg = MimoConfig(m=20, s_max=3, symbols_per_slot=1000)
    table = helper_tables(state, graph, cfg)[0]
    args = weights[table.ids], table.rows
    g_cols, _ = greedy_from_rates(*args)
    e_cols, _ = exhaustive_select(*args)
    assert not np.array_equal(g_cols, e_cols)
    assert validate.exact_objective(g_cols, *args) == validate.exact_objective(e_cols, *args)
    monkeypatch.setattr(validate, "random_instance", lambda rng: (graph, state, weights, cfg))
    suite = validate.greedy_vs_exhaustive(instances=1)
    assert suite.ok, suite.first_failure


def _full_sort_greedy(weights, rows):
    """Reference kernel: a stable sort of every whole row, prefix sums over all N columns."""
    if not len(weights):
        return np.empty(0, dtype=np.intp), 0.0
    s_eff = min(rows.shape[0], len(weights))
    weighted = weights * rows[:s_eff]
    order = np.argsort(-weighted, axis=1, kind="stable")
    ranked = np.take_along_axis(weighted, order, axis=1)
    diag = np.arange(s_eff)
    objectives = np.cumsum(ranked, axis=1)[diag, diag]
    best_s = int(np.argmax(objectives))
    return np.sort(order[best_s, : best_s + 1]), float(objectives[best_s])


def _tied_instance(rng, n, s_max, kind):
    """Rate rows of n users, few distinct SINRs, and weights of the given kind.

    Few antennas make large subsets cost rate, so the best size often falls inside
    a run of tied values.
    """
    gains = rng.choice(rng.uniform(0.01, 1.0, 3), (1, n))
    graph, state = make_graph(gains, antennas=int(rng.choice([10, 12, 40])))
    _, rows = helper_rate_rows(0, state, graph, s_max)
    if kind == "zero":
        weights = np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0)
    elif kind == "mostly_zero":
        weights = np.where(rng.uniform(size=n) < 0.8, 0.0, rng.choice([1.0, 2.0, 3.0], n))
    else:  # "repeated": a handful of weights times a handful of SINRs
        weights = rng.choice([0.0, 1.0, 4.0, 9.0], n) * 10.0 ** int(rng.integers(0, 7))
    return weights, rows


def test_greedy_ranks_as_a_full_stable_sort():
    """On hardened rate rows the kernel picks the subset and objective bits of the stable-sort kernel."""
    rng = np.random.default_rng(2024)
    cases = [(n, s, kind) for n in range(1, 13) for s in (1, 4, 10) for kind in ("zero", "mostly_zero", "repeated")]
    cases += [(int(rng.integers(1, 601)), int(rng.integers(1, 11)), kind)
              for _ in range(300) for kind in ("zero", "mostly_zero", "repeated")]
    for n, s_max, kind in cases:
        weights, rows = _tied_instance(rng, n, s_max, kind)
        assert _bits(greedy_from_rates(weights, rows)) == _bits(_full_sort_greedy(weights, rows)), (n, s_max, kind)


def _arbitrary_instance(rng, n, s_max, kind):
    """Weights and finite rows with no rate structure: rows need not fall with S, and may be negative."""
    if kind == "normal":
        return rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4)), rng.normal(size=(s_max, n))
    if kind == "small_ints":  # exact ties at every threshold, lam's included
        return rng.integers(0, 3, n).astype(float), rng.integers(0, 4, (s_max, n)).astype(float)
    rows = rng.uniform(0, 8, (s_max, n))
    if kind == "zero":
        return np.zeros(n), rows
    if kind == "signed_zero":
        return np.where(rng.uniform(size=n) < 0.5, 0.0, -0.0), rows
    return np.where(rng.uniform(size=n) < 0.9, 0.0, rng.integers(1, 4, n).astype(float)), rows  # "mostly_zero"


def _outside_the_top_instances():
    """Three users-of-600 instances whose winners a top-s_eff partition of one row would miss or misorder."""
    n = 600
    # User 599 wins S=1 alone but has 0 in the last row (S=3), whose top 3 are users 0-2.
    last_out = np.ones((3, n))
    last_out[0, 599], last_out[2] = 100.0, 2.0
    last_out[2, 599] = 0.0
    # User 599 is last in row 1 but tops row 3, so the best size 3 takes it: (0, 1, 599).
    first_out = np.ones((3, n))
    first_out[0], first_out[0, :3] = 0.0, 10.0
    first_out[2, 599] = 50.0
    # The last row's top 3 are users 10, 20, 30; row 1 ties every user at the threshold those
    # users set, so the lowest id, user 0, wins S=1 alone.
    tied = np.zeros((3, n))
    tied[0], tied[2, [10, 20, 30]] = 20.0, 5.0
    return [(np.ones(n), last_out, (599,)), (np.ones(n), first_out, (0, 1, 599)), (np.ones(n), tied, (0,))]


def test_preselection_equals_a_full_stable_sort_bit_for_bit():
    """Any finite rows: the candidate block ranks as the stable sort of every whole row.

    Covers s_eff = 1 and s_eff = n, exact ties at the threshold, all-zero,
    signed-zero and mostly-zero weights, and up to 600 users.
    """
    for weights, rows, subset in _outside_the_top_instances():
        got = _bits(greedy_from_rates(weights, rows))
        assert got == _bits(_full_sort_greedy(weights, rows)) and got[0] == list(subset)
    rng = np.random.default_rng(19)
    kinds = ("normal", "small_ints", "zero", "signed_zero", "mostly_zero")
    cases = [(n, s, kind) for n in range(1, 9) for s in (1, 3, 8) for kind in kinds]
    cases += [(int(rng.integers(1, 601)), int(rng.integers(1, 13)), kind) for _ in range(60) for kind in kinds]
    for n, s_max, kind in cases:
        weights, rows = _arbitrary_instance(rng, n, s_max, kind)
        assert _bits(greedy_from_rates(weights, rows)) == _bits(_full_sort_greedy(weights, rows)), (n, s_max, kind)


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
    for weights, rows, subset in cases:
        got = _bits(greedy_from_rates(weights, rows))
        assert got == _bits(_full_sort_greedy(weights, rows))
        assert got[0] == list(subset)


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
        cfg = MimoConfig(m=int(rng.choice([10, 20, 40])), s_max=int(rng.integers(1, 6)), symbols_per_slot=1000)
        graph, state = make_graph(gains, tx_powers=rng.uniform(1, 50, n_h), antennas=cfg.m)
        weights = rng.choice([0.0, 0.0, 1.0, 2.5, 7.0], n) * 10.0 ** int(rng.integers(0, 7))
        table = helper_tables(state, graph, cfg)[0]
        args = weights[table.ids], table.rows
        g_cols, _ = greedy_from_rates(*args)
        e_cols, _ = exhaustive_select(*args)
        assert validate.exact_objective(g_cols, *args) == validate.exact_objective(e_cols, *args)


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
    _, rows, _ = helper_tables(state, graph, CFG)[0]
    with pytest.raises(ValueError):
        exhaustive_select(np.ones(21), rows)


def test_exhaustive_su_reduction():
    # s_max=1 picks the best single user by weight * log2(1 + M * sinr).
    rng = np.random.default_rng(3)
    gains = rng.uniform(0.05, 1, (1, 6))
    weights = rng.uniform(0, 5, 6)
    graph, state = make_graph(gains)
    cfg = MimoConfig(m=8, s_max=1, symbols_per_slot=1000)
    ids, rows, _ = helper_tables(state, graph, cfg)[0]
    cols, _ = exhaustive_select(weights[ids], rows)
    scores = weights * np.log2(1 + 8 * 20.0 * gains[0])
    assert ids[cols].tolist() == [int(np.argmax(scores))]


def test_schedule_network_single_user_full_su_rate(single_link):
    graph, state = single_link
    served = max_weight_slot(helper_tables(state, graph, CFG), np.array([5.0]))
    assert served == [((0,), (math.floor(1000 * math.log2(1 + 8 * 20.0)),))]
    assert aggregate_per_user(served, "advanced") == {0: served[0][1][0]}


def test_schedule_network_decouples_disjoint_neighborhoods():
    gains = np.array([[0.9, 0.8, 0.0, 0.0], [0.0, 0.0, 0.7, 0.6]])
    adjacency = gains > 0
    graph, state = make_graph(gains, adjacency=adjacency)
    weights = np.array([1.0, 2.0, 3.0, 4.0])
    tables = helper_tables(state, graph, CFG)
    served = max_weight_slot(tables, weights)
    for h, (ids, rows, _) in enumerate(tables):
        solo = tuple(ids[exhaustive_select(weights[ids], rows)[0]].tolist())
        assert served[h][0] == solo
        assert set(solo) <= set(np.flatnonzero(adjacency[h]))


def test_max_weight_slot_maps_columns_to_user_ids():
    """Each helper's users and bit budgets are the full-sort kernel's columns, mapped through ids.

    Adjacency gaps make a table's columns differ from the user ids.
    """
    rng = np.random.default_rng(20)
    gapped = 0
    for _ in range(200):
        n_h, n_u = int(rng.integers(2, 5)), int(rng.integers(1, 40))
        adjacency = rng.uniform(size=(n_h, n_u)) < 0.5
        adjacency[0] |= ~adjacency.any(axis=0)  # every user keeps an edge
        gains = rng.choice(rng.uniform(0.01, 1.0, 3), (n_h, n_u))  # repeated SINRs, so columns tie
        graph, state = make_graph(gains, adjacency=adjacency)
        cfg = MimoConfig(m=8, s_max=int(rng.integers(1, 6)), symbols_per_slot=1000)
        weights = rng.choice([0.0, 1.0, 4.0], n_u) * 10.0 ** int(rng.integers(0, 7))
        tables = helper_tables(state, graph, cfg)
        served = max_weight_slot(tables, weights)
        for h, (ids, rows, bits) in enumerate(tables):
            gapped += not np.array_equal(ids, np.arange(len(ids)))
            cols, _ = _full_sort_greedy(weights[ids], rows)
            users, budgets = served[h]
            assert users == tuple(ids[cols].tolist())
            assert budgets == (tuple(bits[len(cols) - 1, cols].tolist()) if len(cols) else ())
            assert all(type(x) is int for x in users + budgets)
    assert gapped > 100


def test_shared_user_sum_vs_max_aggregation():
    gains = np.array([[1.0], [0.8]])
    graph, state = make_graph(gains)
    served = max_weight_slot(helper_tables(state, graph, CFG), np.array([2.0]))
    assert [users for users, _ in served] == [(0,), (0,)]
    (_, (b0,)), (_, (b1,)) = served
    adv = aggregate_per_user(served, "advanced")
    dumb = aggregate_per_user(served, "dumb")
    assert adv == {0: b0 + b1}
    assert dumb == {0: max(b0, b1)}
    assert dumb[0] < adv[0]


def test_aggregate_per_user_is_the_dense_sum_or_max():
    # Against the (helpers, users) matrix of the same edges: users shared across helpers,
    # zero-bit edges and idle helpers; a served user is listed even when all its edges carry 0 bits.
    rng = np.random.default_rng(31)
    shared = zero_bit = idle = 0
    for _ in range(500):
        n_h, n_u = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        served = []
        for _ in range(n_h):
            users = tuple(sorted(rng.choice(n_u, int(rng.integers(0, n_u + 1)), replace=False).tolist()))
            served.append((users, tuple(rng.choice([0, 1, 7, 10**15], len(users)).tolist())))
        per_edge = dense(served, n_u)
        listed = sorted({u for users, _ in served for u in users})
        counts = np.bincount([u for users, _ in served for u in users], minlength=n_u)
        shared += (counts > 1).any()
        zero_bit += any(0 in bits for _, bits in served)
        idle += any(not users for users, _ in served)
        for model, reference in (("advanced", per_edge.sum(axis=0)), ("dumb", per_edge.max(axis=0))):
            got = aggregate_per_user(served, model)
            assert sorted(got) == listed
            assert got == {u: int(reference[u]) for u in listed}
            assert all(type(b) is int for b in got.values())
    assert min(shared, zero_bit, idle) > 50


def test_allocation_feasibility_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n_h, n_u = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        adjacency = rng.uniform(size=(n_h, n_u)) < 0.6
        adjacency[0] |= ~adjacency.any(axis=0)  # every user keeps an edge
        graph, state = make_graph(rng.uniform(0, 1, (n_h, n_u)), adjacency=adjacency)
        cfg = MimoConfig(m=8, s_max=int(rng.integers(1, 5)), symbols_per_slot=1000)
        weights = rng.uniform(0, 10, n_u)
        served = max_weight_slot(helper_tables(state, graph, cfg), weights)
        for h, (users, bits) in enumerate(served):
            assert len(bits) == len(users)
            assert list(users) == sorted(set(users))
            assert len(users) <= cfg.s_max
            assert set(users) <= set(np.flatnonzero(adjacency[h]))
        dumb_view = aggregate_per_user(served, "dumb")
        adv_view = aggregate_per_user(served, "advanced")
        assert dumb_view.keys() == adv_view.keys()
        assert all(dumb_view[u] <= adv_view[u] for u in adv_view)


def test_availability_mask_blocks_scheduling():
    # Helper 1 is the only edge of user 1, so helper 0 must not serve it.
    gains = np.full((2, 3), 0.5)
    adjacency = np.array([[True, False, True], [False, True, False]])
    graph, state = make_graph(gains, adjacency=adjacency)
    weights = np.array([0.0, 100.0, 1.0])  # the blocked user has the huge weight
    served = max_weight_slot(helper_tables(state, graph, CFG), weights)
    assert 1 not in served[0][0]


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
        served = round_robin_slot(rr, helper_tables(state, graph, CFG))
        assert [users for users, _ in served] == [(0,), (1,)]


def test_baseline_round_robin_period():
    gains = np.full((1, 3), 0.5)
    graph, state = make_graph(gains)
    rr = RoundRobinState(state, graph)
    assert rr.users == [[0, 1, 2]]
    tables = helper_tables(state, graph, MimoConfig(m=8, s_max=2, symbols_per_slot=1000))
    served = [round_robin_slot(rr, tables)[0][0][0] for _ in range(6)]
    assert served == [0, 1, 2, 0, 1, 2]


def test_round_robin_bits_are_the_su_mimo_budget():
    # floor(symbols * log2(1 + M * sinr)), recomputed from the gains and powers.
    rng = np.random.default_rng(5)
    gains = rng.uniform(0.05, 1, (3, 7))
    powers = rng.uniform(1, 40, 3)
    graph, state = make_graph(gains, tx_powers=powers)
    cfg = MimoConfig(m=8, s_max=4, symbols_per_slot=168_000)
    rr = RoundRobinState(state, graph)
    tables = helper_tables(state, graph, cfg)
    served = set()
    for _ in range(7):
        for h, (users, bits) in enumerate(round_robin_slot(rr, tables)):
            assert len(users) == len(bits) <= 1
            for u, b in zip(users, bits):
                sinr = powers[h] * gains[h, u] / (1.0 + sum(powers[k] * gains[k, u] for k in range(3) if k != h))
                assert b == math.floor(168_000 * math.log2(1 + 8 * sinr))
                served.add(u)
    assert served == set(range(7))


def test_round_robin_columns_are_the_table_columns():
    # Gapped adjacency: each associated user's precomputed column is its position in its helper's table.
    rng = np.random.default_rng(8)
    for _ in range(50):
        n_h, n_u = int(rng.integers(1, 5)), int(rng.integers(1, 30))
        adjacency = rng.uniform(size=(n_h, n_u)) < 0.5
        adjacency[0] |= ~adjacency.any(axis=0)  # every user keeps an edge
        graph, state = make_graph(rng.uniform(0.01, 1.0, (n_h, n_u)), adjacency=adjacency)
        rr = RoundRobinState(state, graph)
        tables = helper_tables(state, graph, CFG)
        for h, users in enumerate(rr.users):
            assert [int(tables[h].ids[rr.column[u]]) for u in users] == users


def test_baseline_is_queue_oblivious():
    # No weights argument exists; the schedule replays identically however queues look.
    gains = np.array([[0.5, 0.5, 0.1, 0.1], [0.1, 0.1, 0.5, 0.5]])
    graph, state = make_graph(gains)
    a = RoundRobinState(state, graph)
    b = RoundRobinState(state, graph)
    assert a.users == [[0, 1], [2, 3]]
    tables = helper_tables(state, graph, MimoConfig(m=8, s_max=2, symbols_per_slot=1000))
    for _ in range(5):
        assert round_robin_slot(a, tables) == round_robin_slot(b, tables)


def test_baseline_single_user_every_slot_and_idle_helper():
    gains = np.full((2, 1), 0.5)
    graph, state = make_graph(gains)
    rr = RoundRobinState(state, graph)
    assert rr.users == [[0], []]
    tables = helper_tables(state, graph, MimoConfig(m=8, s_max=2, symbols_per_slot=1000))
    for _ in range(4):
        served = round_robin_slot(rr, tables)
        assert [users for users, _ in served] == [(0,), ()]
        assert served[1] == ((), ())
