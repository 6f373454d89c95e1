import math

import numpy as np
import pytest

from graphs import make_graph
from streamsched.errors import ConfigError
from streamsched.phy import MimoConfig, sinr_matrix
from streamsched.scheduler import RoundRobinState, helper_rate_rows, helper_tables, max_weight_slot, round_robin_slot


def test_sinr_single_helper_no_interference(single_link):
    graph, state = single_link
    assert sinr_matrix(state, graph)[0, 0] == pytest.approx(20.0)


def test_sinr_two_equal_helpers():
    graph, state = make_graph([[0.5], [0.5]])
    pg = 20.0 * 0.5
    assert sinr_matrix(state, graph)[:, 0] == pytest.approx([pg / (1 + pg)] * 2)


def test_sinr_matches_direct_formula_fuzz():
    # Independent re-evaluation of own-power / (1 + sum of other helpers' power).
    rng = np.random.default_rng(4)
    for _ in range(50):
        n_h, n_u = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        gains = rng.uniform(0, 1, (n_h, n_u))
        powers = rng.uniform(1, 40, n_h)
        graph, state = make_graph(gains, tx_powers=powers)
        mat = sinr_matrix(state, graph)
        for h in range(n_h):
            for u in range(n_u):
                expected = powers[h] * gains[h, u] / (1.0 + sum(powers[k] * gains[k, u] for k in range(n_h) if k != h))
                assert mat[h, u] == pytest.approx(expected, rel=1e-12)


def test_rate_closed_form():
    # SINR 1 at M=40, S=10: log2(1 + 31/10) = log2(4.1) bits/symbol.
    graph, state = make_graph([[1.0]], tx_powers=[1.0], antennas=40)
    _, rows = helper_rate_rows(0, state, graph, 10)
    assert rows[9, 0] == pytest.approx(math.log2(4.1), rel=1e-15)


def test_rate_su_mimo_special_case():
    # One antenna, one stream: the rate is the Shannon rate log2(1 + sinr).
    for s in (0.5, 1.0, 7.3):
        graph, state = make_graph([[s]], tx_powers=[1.0], antennas=1)
        ids, rows = helper_rate_rows(0, state, graph, 1)
        assert list(ids) == [0] and rows.shape == (1, 1)
        assert rows[0, 0] == pytest.approx(math.log2(1 + s))


def test_rate_decreasing_in_subset_size():
    for m in (4, 10, 40):
        graph, state = make_graph([[0.1]], antennas=m)
        rates = helper_rate_rows(0, state, graph, m)[1][:, 0]
        assert len(rates) == m
        assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("s,m", [(0, 8), (9, 8), (-1, 8)])
def test_rate_domain_errors(s, m):
    # Subset sizes outside [1, M] are rejected where s_max enters the rate tables.
    with pytest.raises(ValueError):
        MimoConfig(antennas=m, s_max=s)


def test_subset_rates_empty_subset():
    # A helper with no eligible user has an empty table and serves nobody, under either policy.
    graph, state = make_graph(np.full((2, 3), 0.5), adjacency=[[False] * 3, [True] * 3])
    tables = helper_tables(state, graph, MimoConfig(antennas=8, s_max=4, symbols_per_slot=1000))
    assert len(tables[0].ids) == 0 and tables[0].bits.size == 0
    per_edge, subsets = max_weight_slot(tables, np.ones(3))
    assert subsets[0] == ()
    assert per_edge[0].sum() == 0
    per_edge, subsets = round_robin_slot(RoundRobinState(state, graph), tables, 3)
    assert subsets[0] == ()
    assert per_edge[0].sum() == 0


def test_subset_rates_singleton_prefactor(single_link):
    graph, state = single_link
    _, rows = helper_rate_rows(0, state, graph, 4)
    assert rows[0, 0] == math.log2(1 + 8 * sinr_matrix(state, graph)[0, 0])
    assert rows[0, 0] == pytest.approx(math.log2(1 + 8 * 20.0))


def test_subset_rates_identical_prefactor_across_members():
    gains = np.full((1, 6), 0.25)
    graph, state = make_graph(gains)
    _, rows = helper_rate_rows(0, state, graph, 8)
    for row in rows:
        assert len(set(row.tolist())) == 1  # equal SINRs share one exact rate at every size


def test_subset_rates_contract_violations():
    # Scheduled subsets stay inside the neighborhood, within s_max, without duplicates.
    adjacency = [[True, True, True, False], [True, True, True, True]]
    graph, state = make_graph(np.ones((2, 4)), adjacency=adjacency)
    tables = helper_tables(state, graph, MimoConfig(antennas=8, s_max=2, symbols_per_slot=1000))
    assert list(tables[0].ids) == [0, 1, 2]
    assert tables[0].rows.shape[0] == 2  # sizes capped at s_max
    _, subsets = max_weight_slot(tables, np.array([1.0, 1.0, 1.0, 50.0]))
    assert 3 not in subsets[0]
    assert all(len(s) <= 2 and len(set(s)) == len(s) for s in subsets)


def test_slot_bits_values():
    # floor(168000 * log2(4.1)) evaluated independently = 341984.
    cfg = MimoConfig(antennas=40, s_max=10, symbols_per_slot=168_000)
    graph, state = make_graph([[1.0, 0.0]], tx_powers=[1.0], antennas=40)
    bits = helper_tables(state, graph, cfg)[0].bits
    assert bits.dtype == np.int64
    assert bits[9, 0] == 341_984
    assert (bits[:, 1] == 0).all()  # zero SINR, zero bits
    # log2(1 + 1 * 1) = 1 bit/symbol, a whole slot's symbols.
    graph, state = make_graph([[1.0]], tx_powers=[1.0], antennas=1)
    su = MimoConfig(antennas=1, s_max=1, symbols_per_slot=168_000)
    assert helper_tables(state, graph, su)[0].bits[0, 0] == 168_000


def test_default_symbols_per_slot():
    assert MimoConfig().symbols_per_slot == 84 * 100 * 20


def test_symbols_per_slot_keeps_budgets_exact():
    assert MimoConfig(symbols_per_slot=2**40).symbols_per_slot == 2**40
    with pytest.raises(ConfigError, match="mimo.symbols_per_slot"):
        MimoConfig(symbols_per_slot=2**40 + 1)
