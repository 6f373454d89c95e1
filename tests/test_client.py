import math
import re
from collections import deque

import numpy as np
import pytest

from streamsched.client import (
    RequestQueueState,
    UtilityConfig,
    drain_backlog,
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
    """A ledger holding session chunks 0.. as (cumulative end, quality), none consumed."""
    end = chunks[-1][0]
    return RequestQueueState(chunks=deque(chunks), requested_chunks=len(chunks), requested_bits=end)


def drain(qs, q, delivered_bits):
    """Drain one user's ledger and its backlog, as the engine does; returns (completed ids, new backlog)."""
    backlog = np.array([q])
    drain_backlog(backlog, np.array([0]), np.array([delivered_bits]))
    return drain_bits(qs, delivered_bits), backlog.tolist()[0]


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
    assert select_mode(0.0, 5.0, profile_2x3(), 0) == 3


def test_select_mode_zero_theta_takes_bottom_mode():
    assert select_mode(10.0, 0.0, profile_2x3(), 1) == 1


def test_select_mode_matches_independent_scan():
    # Oracle: score every mode separately and argmin by min(); ties to low mode.
    rng = np.random.default_rng(6)
    catalog = synth_catalog([(20, 6, 800.0)], seed=12)
    for _ in range(400):
        q, theta = float(rng.uniform(0, 1e7)), float(rng.uniform(0, 1e7))
        i = int(rng.integers(0, catalog.num_chunks))
        scores = {
            m: q * catalog.size_bits[i][m - 1] - theta * catalog.quality[i][m - 1]
            for m in range(1, len(catalog.quality[i]) + 1)
        }
        expected = min(scores, key=lambda m: (scores[m], m))
        assert select_mode(q, theta, catalog, i) == expected


def test_select_mode_scaling_invariance():
    rng = np.random.default_rng(8)
    catalog = synth_catalog([(10, 5, 1200.0)], seed=3)
    for _ in range(100):
        q, theta = float(rng.uniform(0, 1e5)), float(rng.uniform(0, 1e5))
        c = float(10.0 ** rng.uniform(-3, 3))
        i = int(rng.integers(0, catalog.num_chunks))
        assert select_mode(q, theta, catalog, i) == select_mode(q * c, theta * c, catalog, i)


def test_request_chunk_first_request_sets_queue():
    p = profile_2x3()
    qs = RequestQueueState()
    m = request_chunk(qs, 0.0, 3.0, p, 1)
    assert m == select_mode(0.0, 3.0, p, 1)
    assert qs.requested_bits == p.size_bits[1][m - 1]
    assert list(qs.chunks) == [(p.size_bits[1][m - 1], p.quality[1][m - 1])]
    assert qs.head == 0 and qs.requested_chunks == 1


def test_request_chunk_single_mode_forced():
    p = synth_catalog([(4, 1, 500.0)], seed=0)
    qs = RequestQueueState()
    assert request_chunk(qs, 123.0, 456.0, p, 0) == 1
    assert list(qs.chunks) == [(p.size_bits[0][0], p.quality[0][0])]


def test_drain_clamp_discards_excess():
    qs = outstanding((100, 0.7))
    completed, q = drain(qs, 100.0, 150)
    assert completed == [0]
    assert q == 0.0
    assert qs.discarded_bits == 50
    assert qs.consumed_bits == 100
    assert qs.head == 1 and not qs.chunks and qs.delivered_quality == 0.7
    assert qs.broken_identity(q) is None


def test_drain_zero_is_identity():
    qs = outstanding((60, 0.7))
    assert drain(qs, 60.0, 0) == ([], 60.0)
    assert qs.head == 0 and qs.consumed_bits == 0
    assert list(qs.chunks) == [(60, 0.7)] and qs.delivered_quality == 0.0


def test_drain_head_of_line_order():
    qs = outstanding((60, 0.4), (100, 0.9))
    completed, q = drain(qs, 100.0, 70)
    assert completed == [0]
    assert q == 30.0
    assert qs.head == 1 and qs.chunks[0][0] - qs.consumed_bits == 30
    assert qs.delivered_quality == 0.4


def test_drain_completes_several_chunks_then_none_then_discards():
    qualities = (0.1, 0.2, 0.7, 0.3)
    qs = outstanding(*zip((20, 50, 70, 100), qualities))
    completed, q = drain(qs, 100.0, 75)
    assert completed == [0, 1, 2]
    completed, q = drain(qs, q, 20)
    assert completed == []
    assert (qs.head, q, qs.consumed_bits) == (3, 5.0, 95)
    assert list(qs.chunks) == [(100, 0.3)]
    completed, q = drain(qs, q, 40)
    assert completed == [3]
    assert (qs.head, q, qs.consumed_bits, qs.discarded_bits, qs.delivered_bits) == (4, 0.0, 100, 35, 135)
    assert qs.broken_identity(q) is None
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
    # alpha=0: objective (v - theta) * gamma is monotone, so gamma is an endpoint.
    assert optimize_gamma(1.0, UtilityConfig(alpha=0.0, v=5.0), 0.3, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert optimize_gamma(5.0, UtilityConfig(alpha=0.0, v=1.0), 0.3, 1.0) == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_optimize_gamma_interior_is_stationary_point(alpha):
    # d/dgamma of v * utility(alpha, gamma) - theta * gamma is v * gamma ** -alpha - theta.
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(2000):
        v = float(10.0 ** rng.uniform(-2, 4))
        theta = float(10.0 ** rng.uniform(-2, 4))
        got = optimize_gamma(theta, UtilityConfig(alpha=alpha, v=v), 0.05, 1.5)
        if 0.05 < got < 1.5:
            checked += 1
            assert abs(v * got ** -alpha - theta) <= 1e-12 * theta, (v, theta, got)
    assert checked >= 100


@pytest.mark.parametrize("theta,cfg,expected", [
    (1.0, UtilityConfig(alpha=0.05, v=1e20), 1.0),  # (1e20) ** 20 overflows a float
    (5e-324, UtilityConfig(alpha=1.0, v=2e14), 1.0),  # v / theta is inf
    (5e-324, UtilityConfig(alpha=2.0, v=2e14), 1.0),
    (1e8, UtilityConfig(alpha=1.0, v=5e-324), 0.3),  # v / theta underflows to 0
    (1e8, UtilityConfig(alpha=3.0, v=5e-324), 0.3),
    (2.0, UtilityConfig(alpha=0.0, v=2.0), None),  # linear utility with v == theta: any gamma is optimal
])
def test_optimize_gamma_extreme_inputs_stay_in_range(theta, cfg, expected):
    got = optimize_gamma(theta, cfg, 0.3, 1.0)
    assert 0.3 <= got <= 1.0
    if expected is not None:
        assert got == expected


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
    assert update_virtual_queue(0.0, 0.5, 0.9) == 0.0
    assert update_virtual_queue(1.0, 0.5, 0.0) == pytest.approx(1.5)
    assert update_virtual_queue(2.0, 0.8, 0.8) == pytest.approx(2.0)


def test_ledger_consistency_under_interleaving():
    from streamsched import validate

    suite = validate.ledger_fuzz(cases=100, seed=5)
    assert suite.ok, suite.first_failure


def _corrupt_head(qs, delivered_bits):
    qs.head += 1


def _corrupt_ends(qs, delivered_bits):
    if qs.chunks:
        end, quality = qs.chunks[-1]
        qs.chunks[-1] = (end + 1, quality)


def _corrupt_residual(q, users, delivered_bits):
    q[users[:1]] += 1


def _corrupt_delivered(qs, delivered_bits):
    qs.discarded_bits += 1


@pytest.mark.parametrize("target,corrupt,reason", [
    ("drain_bits", _corrupt_head, "head != first chunk not fully consumed"),
    ("drain_bits", _corrupt_ends, "requested != last chunk end"),
    ("drain_backlog", _corrupt_residual, "requested != consumed + residual"),
    ("drain_bits", _corrupt_delivered, "delivered != consumed + discarded"),
], ids=["head", "ends", "residual", "delivered"])
def test_corrupted_cursor_trips_engine_and_fuzz(monkeypatch, target, corrupt, reason):
    # The backlog is kept apart from the ledger (the engine's and the fuzz's own
    # vector), so bumping it breaks the residual identity rather than passing by construction.
    from streamsched import client, engine, validate
    from streamsched.config import config_from_sources

    original = getattr(client, target)

    def corrupting(*args):
        out = original(*args)
        corrupt(*args)
        return out

    monkeypatch.setattr(client, target, corrupting)
    suite = validate.ledger_fuzz(cases=5, seed=5)
    assert suite.passed == 0 and suite.first_failure["reason"] == reason
    # 1000 symbols per slot leave chunks outstanding across drains, so there is an end to corrupt.
    cfg = config_from_sources(None, ("topology.mean_users=4", "session_chunks=3", "mimo.symbols_per_slot=1000"), 1)
    with pytest.raises(RuntimeError, match=re.escape(reason)):
        engine.run(cfg, check_invariants=True)


def test_dpp_mode_term_is_minimized_per_slot():
    # The chosen mode's score is the minimum of the separable quality term.
    rng = np.random.default_rng(13)
    catalog = synth_catalog([(15, 8, 2000.0)], seed=2)
    for _ in range(200):
        q, theta = float(rng.uniform(0, 1e6)), float(rng.uniform(0, 1e6))
        i = int(rng.integers(0, catalog.num_chunks))
        m = select_mode(q, theta, catalog, i)
        chosen = q * catalog.size_bits[i][m - 1] - theta * catalog.quality[i][m - 1]
        for other in range(1, len(catalog.quality[i]) + 1):
            score = q * catalog.size_bits[i][other - 1] - theta * catalog.quality[i][other - 1]
            assert chosen <= score
