import math
from collections import deque

import numpy as np
import pytest

from streamsched.client import (
    RequestQueueState,
    UtilityConfig,
    drain_bits,
    optimize_gamma,
    request_chunk,
    select_mode,
    update_virtual_queue,
    utility,
)
from streamsched.video import QualityRateProfile, synth_catalog


def profile_2x3():
    return QualityRateProfile(
        quality=((0.4, 0.7, 0.95), (0.35, 0.6, 0.9)),
        size_bits=((100, 250, 600), (120, 300, 700)),
        d_min=0.3,
        d_max=1.0,
    )


def outstanding(*chunks):
    """A queue holding session chunks 0.. as (cumulative end, quality), none consumed."""
    end = chunks[-1][0]
    return RequestQueueState(q=float(end), chunks=deque(chunks), requested_chunks=len(chunks), requested_bits=end)


def test_utility_values():
    assert utility(0.0, 5.0) == pytest.approx(5.0)
    assert utility(1.0, math.e) == pytest.approx(1.0)
    assert utility(2.0, 2.0) == pytest.approx(-0.5)


def test_utility_domain():
    with pytest.raises(ValueError):
        utility(1.0, 0.0)
    with pytest.raises(ValueError):
        utility(1.0, -2.0)


def test_select_mode_zero_queue_takes_top_mode():
    qs = RequestQueueState(q=0.0, theta=5.0)
    assert select_mode(qs, profile_2x3(), 0) == 3


def test_select_mode_zero_theta_takes_bottom_mode():
    qs = RequestQueueState(q=10.0, theta=0.0)
    assert select_mode(qs, profile_2x3(), 1) == 1


def test_select_mode_matches_independent_scan():
    # Oracle: score every mode separately and argmin by min(); ties to low mode.
    rng = np.random.default_rng(6)
    catalog = synth_catalog([(20, 6, 800.0)], seed=12)
    for _ in range(400):
        qs = RequestQueueState(q=float(rng.uniform(0, 1e7)), theta=float(rng.uniform(0, 1e7)))
        i = int(rng.integers(0, catalog.num_chunks))
        scores = {
            m: qs.q * catalog.size_bits[i][m - 1] - qs.theta * catalog.quality[i][m - 1]
            for m in range(1, len(catalog.quality[i]) + 1)
        }
        expected = min(scores, key=lambda m: (scores[m], m))
        assert select_mode(qs, catalog, i) == expected


def test_select_mode_scaling_invariance():
    rng = np.random.default_rng(8)
    catalog = synth_catalog([(10, 5, 1200.0)], seed=3)
    for _ in range(100):
        q, theta = float(rng.uniform(0, 1e5)), float(rng.uniform(0, 1e5))
        c = float(10.0 ** rng.uniform(-3, 3))
        i = int(rng.integers(0, catalog.num_chunks))
        assert select_mode(RequestQueueState(q=q, theta=theta), catalog, i) == select_mode(
            RequestQueueState(q=q * c, theta=theta * c), catalog, i
        )


def test_request_chunk_first_request_sets_queue():
    p = profile_2x3()
    qs = RequestQueueState(theta=3.0)
    m = request_chunk(qs, p, 1)
    assert m == select_mode(RequestQueueState(theta=3.0), p, 1)
    assert qs.q == qs.requested_bits == p.size_bits[1][m - 1]
    assert list(qs.chunks) == [(p.size_bits[1][m - 1], p.quality[1][m - 1])]
    assert qs.head == 0 and qs.requested_chunks == 1


def test_request_chunk_single_mode_forced():
    p = synth_catalog([(4, 1, 500.0)], seed=0)
    qs = RequestQueueState(q=123.0, theta=456.0)
    assert request_chunk(qs, p, 0) == 1
    assert list(qs.chunks) == [(p.size_bits[0][0], p.quality[0][0])]


def test_drain_clamp_discards_excess():
    qs = outstanding((100, 0.7))
    completed = drain_bits(qs, 150)
    assert completed == [0]
    assert qs.q == 0.0
    assert qs.discarded_bits == 50
    assert qs.consumed_bits == 100
    assert qs.head == 1 and not qs.chunks and qs.delivered_quality == 0.7
    assert qs.broken_identity() is None


def test_drain_zero_is_identity():
    qs = outstanding((60, 0.7))
    assert drain_bits(qs, 0) == []
    assert qs.q == 60.0 and qs.head == 0 and qs.consumed_bits == 0
    assert list(qs.chunks) == [(60, 0.7)] and qs.delivered_quality == 0.0


def test_drain_head_of_line_order():
    qs = outstanding((60, 0.4), (100, 0.9))
    completed = drain_bits(qs, 70)
    assert completed == [0]
    assert qs.q == 30.0
    assert qs.head == 1 and qs.chunks[0][0] - qs.consumed_bits == 30
    assert qs.delivered_quality == 0.4


def test_drain_completes_several_chunks_then_none_then_discards():
    qualities = (0.1, 0.2, 0.7, 0.3)
    qs = outstanding(*zip((20, 50, 70, 100), qualities))
    assert drain_bits(qs, 75) == [0, 1, 2]
    assert drain_bits(qs, 20) == []
    assert (qs.head, qs.q, qs.consumed_bits) == (3, 5.0, 95)
    assert list(qs.chunks) == [(100, 0.3)]
    assert drain_bits(qs, 40) == [3]
    assert (qs.head, qs.q, qs.consumed_bits, qs.discarded_bits, qs.delivered_bits) == (4, 0.0, 100, 35, 135)
    assert qs.broken_identity() is None
    # The quality sum adds completed chunks left to right, as sum() over a list does.
    assert qs.delivered_quality == sum(qualities) and not qs.chunks


def test_optimize_gamma_closed_form_log_utility():
    cfg = UtilityConfig(alpha=1.0, v=10.0)
    assert optimize_gamma(5.0, cfg, 0.3, 1.0) == 1.0  # v/theta = 2 clamps at d_max
    assert optimize_gamma(100.0, cfg, 0.3, 1.0) == pytest.approx(0.3)  # clamps at d_min
    assert optimize_gamma(20.0, cfg, 0.3, 1.0) == pytest.approx(0.5)


def test_optimize_gamma_zero_theta_maxes_out():
    for alpha in (0.0, 0.5, 1.0, 2.0):
        assert optimize_gamma(0.0, UtilityConfig(alpha=alpha, v=3.0), 0.3, 1.0) == 1.0


def test_optimize_gamma_alpha2_matches_sqrt_clamp():
    # Stationary point of v * (-1/gamma) - theta * gamma is gamma = sqrt(v / theta).
    rng = np.random.default_rng(10)
    for _ in range(300):
        v = float(10.0 ** rng.uniform(-2, 4))
        theta = float(10.0 ** rng.uniform(-2, 6))
        d_min = float(rng.uniform(0.05, 0.5))
        d_max = float(rng.uniform(d_min + 0.1, 1.5))
        expected = min(max(math.sqrt(v / theta), d_min), d_max)
        got = optimize_gamma(theta, UtilityConfig(alpha=2.0, v=v), d_min, d_max)
        assert got == pytest.approx(expected, abs=1e-6)


def test_optimize_gamma_alpha_half_matches_closed_form():
    # utility(0.5, x) = 2 sqrt(x), so v / sqrt(gamma) = theta => gamma = (v / theta)^2.
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = float(10.0 ** rng.uniform(-1, 3))
        theta = float(10.0 ** rng.uniform(-1, 4))
        expected = min(max((v / theta) ** 2, 0.3), 1.0)
        got = optimize_gamma(theta, UtilityConfig(alpha=0.5, v=v), 0.3, 1.0)
        assert got == pytest.approx(expected, abs=1e-6)


def test_optimize_gamma_linear_utility_hits_boundary():
    # alpha=0: objective (v - theta) * gamma is monotone; the search must land on an endpoint.
    assert optimize_gamma(1.0, UtilityConfig(alpha=0.0, v=5.0), 0.3, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert optimize_gamma(5.0, UtilityConfig(alpha=0.0, v=1.0), 0.3, 1.0) == pytest.approx(0.3, abs=1e-6)


def test_gamma_maximizes_over_fine_grid():
    rng = np.random.default_rng(12)
    for _ in range(50):
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
        v = float(10.0 ** rng.uniform(-1, 3))
        theta = float(10.0 ** rng.uniform(-1, 4))
        cfg = UtilityConfig(alpha=alpha, v=v)
        got = optimize_gamma(theta, cfg, 0.3, 1.0)

        def objective(g):
            return v * utility(alpha, g) - theta * g

        grid_best = max(objective(0.3 + 0.7 * k / 2000) for k in range(2001))
        assert objective(got) >= grid_best - 1e-6


def test_update_virtual_queue_examples():
    qs = RequestQueueState(theta=0.0)
    assert update_virtual_queue(qs, 0.5, 0.9) == 0.0
    qs.theta = 1.0
    assert update_virtual_queue(qs, 0.5, 0.0) == pytest.approx(1.5)
    qs.theta = 2.0
    assert update_virtual_queue(qs, 0.8, 0.8) == pytest.approx(2.0)


def test_ledger_consistency_under_interleaving():
    from streamsched import validate

    suite = validate.ledger_fuzz(cases=100, seed=5)
    assert suite.ok, suite.first_failure


def _corrupt_head(qs):
    qs.head += 1


def _corrupt_ends(qs):
    if qs.chunks:
        end, quality = qs.chunks[-1]
        qs.chunks[-1] = (end + 1, quality)


@pytest.mark.parametrize("corrupt,reason", [
    (_corrupt_head, "head != first chunk not fully consumed"),
    (_corrupt_ends, "requested != last chunk end"),
], ids=["head", "ends"])
def test_corrupted_cursor_trips_engine_and_fuzz(monkeypatch, corrupt, reason):
    from streamsched import client, engine, validate
    from streamsched.config import config_from_sources

    drain = client.drain_bits

    def corrupting_drain(qs, delivered_bits):
        completed = drain(qs, delivered_bits)
        corrupt(qs)
        return completed

    monkeypatch.setattr(client, "drain_bits", corrupting_drain)
    suite = validate.ledger_fuzz(cases=5, seed=5)
    assert suite.passed == 0 and suite.first_failure["reason"] == reason
    # 1000 symbols per slot leave chunks outstanding across drains, so there is an end to corrupt.
    cfg = config_from_sources(None, ("topology.mean_users=4", "session_chunks=3", "mimo.symbols_per_slot=1000"), 1)
    with pytest.raises(RuntimeError, match=reason):
        engine.run(cfg, check_invariants=True)


def test_dpp_mode_term_is_minimized_per_slot():
    # The chosen mode's score is the minimum of the separable quality term.
    rng = np.random.default_rng(13)
    catalog = synth_catalog([(15, 8, 2000.0)], seed=2)
    for _ in range(200):
        qs = RequestQueueState(q=float(rng.uniform(0, 1e6)), theta=float(rng.uniform(0, 1e6)))
        i = int(rng.integers(0, catalog.num_chunks))
        m = select_mode(qs, catalog, i)
        chosen = qs.q * catalog.size_bits[i][m - 1] - qs.theta * catalog.quality[i][m - 1]
        for other in range(1, len(catalog.quality[i]) + 1):
            score = qs.q * catalog.size_bits[i][other - 1] - qs.theta * catalog.quality[i][other - 1]
            assert chosen <= score
