"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers. The heavier network-scale criteria run several paired
simulations and take a few minutes combined.
"""
import itertools
import math
import time

import numpy as np
import pytest

from streamsched import engine, validate
from streamsched.client import UtilityConfig, optimize_gamma, select_mode
from streamsched.config import build_config
from streamsched.video import synth_catalog


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


# -----------------------------------------------------------------------------
# 1. Greedy scheduler optimality against exhaustive enumeration
# -----------------------------------------------------------------------------

def test_criterion_1_greedy_matches_exhaustive_exactly():
    t0 = time.time()
    suite = validate.greedy_vs_exhaustive(instances=10_000, seed=7)
    elapsed = time.time() - t0
    assert suite.ok, f"first counterexample: {suite.first_failure}"
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s (budget 60s)"
    report(1, f"greedy == exhaustive on {suite.passed}/{suite.total} instances in {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. Per-slot DPP term minimization
# -----------------------------------------------------------------------------

def test_criterion_2_mode_selection_matches_scan_and_gamma_matches_clamp():
    rng = np.random.default_rng(23)
    catalog = synth_catalog([(25, 8, 2500.0), (25, 4, 700.0)], seed=4)
    for case in range(1000):
        q = float(10.0 ** rng.uniform(0, 7)) * (rng.uniform() > 0.1)
        theta = float(10.0 ** rng.uniform(0, 7)) * (rng.uniform() > 0.1)
        i = int(rng.integers(0, catalog.num_chunks))
        scores = {
            m: q * catalog.size_bits[i][m - 1] - theta * catalog.quality[i][m - 1]
            for m in range(1, len(catalog.quality[i]) + 1)
        }
        expected = min(scores, key=lambda m: (scores[m], m))
        assert select_mode(q, theta, catalog, i) == expected, f"case {case}"

    for alpha in (1.0, 2.0):
        for case in range(1000):
            v = float(10.0 ** rng.uniform(-2, 6))
            theta = 0.0 if rng.uniform() < 0.05 else float(10.0 ** rng.uniform(-3, 8))
            d_min = float(rng.uniform(0.05, 0.6))
            d_max = float(rng.uniform(d_min + 0.05, 1.5))
            if theta == 0.0:
                expected = d_max
            elif alpha == 1.0:
                expected = min(max(v / theta, d_min), d_max)
            else:
                expected = min(max(math.sqrt(v / theta), d_min), d_max)
            got = optimize_gamma(theta, UtilityConfig(alpha=alpha, v=v), d_min, d_max)
            assert abs(got - expected) <= 1e-6, f"case {case}: alpha={alpha} got={got} want={expected}"
    report(2, "1000/1000 mode selections match the scan; 2x 1000/1000 gamma values within 1e-6 of the clamps")


# -----------------------------------------------------------------------------
# 3. Utility/backlog trade-off in V (desk scale, constant state)
# -----------------------------------------------------------------------------

DESK_FLAT = {
    "seed": "3", "n": "1", "session_chunks": "20000",
    "policy": "dpp", "receiver": "advanced",
    "topology.helper_layout": "40:40", "topology.user_layout": "20:40;76.5:40",
    "mimo.m": "8", "mimo.s_max": "2", "mimo.symbols_per_slot": "1",
    "video.segments": "40x2@0.012", "video.sigma": "0", "video.ladder_ratio": "0.333333333333",
    "video.d_min": "0.3", "video.d_max": "1.0",
    "utility.alpha": "1", "utility.v": "1",
    "playback.window_slots": "10", "playback.rho": "2",
}
DESK_V_VALUES = (0.01, 0.1, 1.0, 10.0, 100.0)  # spans 4 decades


def desk_optimum():
    """Brute-force network optimum over stationary per-user mode fractions.

    Independent oracle path: pathloss, SINR, hardened rates and floored slot
    budgets recomputed from their closed forms; feasibility of a demand pair is
    an exact minimum-time check over the vertices of the time-sharing LP.
    """
    p = 20.0
    side = 80.0
    d1 = 20.0
    d2 = min(abs(76.5 - 40.0), side - abs(76.5 - 40.0))
    sinr = [p / (1.0 + (d / 40.0) ** 3.5) for d in (d1, d2)]
    m = 8

    def bits(s, size):
        return math.floor(math.log2(1.0 + (m - size + 1) / size * s))

    actions = (
        (bits(sinr[0], 1), 0),
        (0, bits(sinr[1], 1)),
        (bits(sinr[0], 2), bits(sinr[1], 2)),
    )
    b_lo, b_hi = 2, 6      # generator contract: round(6 * (1/3)) and round(6)
    d_lo, d_hi = 0.3, 1.0  # ladder endpoints

    def min_service_time(demand):
        best = math.inf
        for a in actions:
            t, ok = 0.0, True
            for need, cap in zip(demand, a):
                if need > 1e-12 and cap == 0:
                    ok = False
                    break
                if cap > 0:
                    t = max(t, need / cap)
            if ok:
                best = min(best, t)
        for x, y in itertools.combinations(actions, 2):
            det = x[0] * y[1] - x[1] * y[0]
            if det == 0:
                continue
            tx = (demand[0] * y[1] - demand[1] * y[0]) / det
            ty = (x[0] * demand[1] - x[1] * demand[0]) / det
            if tx >= -1e-12 and ty >= -1e-12:
                best = min(best, max(tx, 0.0) + max(ty, 0.0))
        return best

    best_util = -math.inf
    for i1 in range(101):
        for i2 in range(101):
            x1, x2 = i1 / 100.0, i2 / 100.0
            demand = (b_lo + (b_hi - b_lo) * x1, b_lo + (b_hi - b_lo) * x2)
            if min_service_time(demand) <= 1.0 + 1e-12:
                util = math.log(d_lo + (d_hi - d_lo) * x1) + math.log(d_lo + (d_hi - d_lo) * x2)
                best_util = max(best_util, util)
    return best_util


def test_criterion_3_v_sweep_approaches_optimum_with_linear_backlog():
    phi_opt = desk_optimum()
    profile = synth_catalog(
        build_config(DESK_FLAT).video.segments,
        np.random.SeedSequence(3).spawn(3)[1],
        d_min=0.3, d_max=1.0, sigma=0.0, ladder_ratio=1 / 3, t_gop_seconds=0.5,
    )
    assert profile.size_bits[0] == (2, 6) and profile.quality[0] == (0.3, 1.0)

    gaps, backlogs = [], []
    for v in DESK_V_VALUES:
        flat = dict(DESK_FLAT)
        flat["utility.v"] = repr(v)
        res = engine.run(build_config(flat))
        assert res.utility_defined
        gaps.append(phi_opt - res.utility)
        backlogs.append(res.mean_q_total + res.mean_theta_total)

    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-9, f"gap increased along V: {gaps}"
    rel = abs(gaps[-1]) / abs(phi_opt)
    assert rel <= 0.02, f"largest V sits {rel * 100:.2f}% away from the optimum {phi_opt:.5f}"
    slope = float(np.polyfit(np.log(DESK_V_VALUES), np.log(backlogs), 1)[0])
    assert slope <= 1.15, f"backlog grows super-linearly: slope {slope:.3f}"
    report(3, f"gaps {['%.4f' % g for g in gaps]} non-increasing; final gap {rel * 100:.2f}% of "
              f"phi_opt={phi_opt:.5f}; backlog log-log slope {slope:.2f}")


# -----------------------------------------------------------------------------
# 4 & 5. In-order delivery and exact conservation across fuzzed runs
# -----------------------------------------------------------------------------

def fuzz_flat(seed):
    return {
        "seed": str(seed), "n": "5", "session_chunks": "25",
        "policy": "dpp" if seed % 3 else "baseline",
        "receiver": "advanced" if seed % 2 else "dumb",
        "topology.mean_users": "6", "topology.hotspot_ratio": "5",
        "mimo.m": "8", "mimo.s_max": "2",
        "mimo.symbols_per_slot": str(int(np.random.default_rng(seed).integers(3000, 40000))),
        "video.segments": "12x3@400", "utility.v": "1e3",
        "playback.window_slots": "8", "playback.rho": "2",
        "drain_limit_slots": "400",
    }


@pytest.fixture(scope="module")
def fuzz_results():
    results = []
    for seed in range(100):
        cfg = build_config(fuzz_flat(seed))
        results.append(engine.run(cfg, check_invariants=True))
    return results


def test_criterion_4_in_order_prefix_delivery(fuzz_results):
    users_checked = 0
    for res in fuzz_results:
        for u in res.users:
            assert u.delivered_chunk_ids == tuple(range(len(u.delivered_chunk_ids))), (
                f"seed {res.seed}: user {u.user_id} ids {u.delivered_chunk_ids[:10]}..."
            )
            users_checked += 1
    report(4, f"contiguous-prefix delivery held for {users_checked} users across {len(fuzz_results)} seeded runs")


def test_criterion_5_conservation_identities(fuzz_results):
    # check_invariants=True already asserted, per slot of every run:
    # requested == consumed + residual and delivered == consumed + discarded.
    drained = sum(1 for r in fuzz_results if r.drain_complete)
    for res in fuzz_results:
        if res.drain_complete:
            for u in res.users:
                assert u.delivered_chunks == u.requested_chunks
    report(5, f"per-slot accounting identities held in all {len(fuzz_results)} runs ({drained} fully drained)")


# -----------------------------------------------------------------------------
# 6. MU-MIMO vs SU-MIMO quality/buffering ordering
# -----------------------------------------------------------------------------

def paper_flat(seed, m, s_max, symbols, policy="dpp", receiver="advanced", session=1000, **extra):
    flat = {
        "seed": str(seed), "n": "50", "session_chunks": str(session),
        "policy": policy, "receiver": receiver,
        "topology.mean_users": "50", "topology.hotspot_ratio": "10",
        "mimo.m": str(m), "mimo.s_max": str(s_max), "mimo.symbols_per_slot": str(symbols),
        "utility.alpha": "1", "utility.v": "2e14",
        "playback.window_slots": "20", "playback.rho": "3",
    }
    flat.update(extra)
    return flat


def population_means(res):
    qualities = [u.average_quality for u in res.users if u.delivered_chunks]
    buffering = [u.buffering_percent for u in res.users]
    return float(np.mean(qualities)), float(np.mean(buffering))


def test_criterion_6_mu_mimo_beats_su_mimo():
    seeds = range(5)
    q_ok = b_ok = 0
    rows = []
    for seed in seeds:
        metrics = {}
        for label, m, s in (("MU40", 40, 10), ("MU20", 20, 5), ("SU10", 10, 1)):
            res = engine.run(build_config(paper_flat(seed, m, s, symbols=25_000)))
            metrics[label] = population_means(res)
        rows.append(metrics)
        if metrics["MU40"][0] > metrics["MU20"][0] > metrics["SU10"][0]:
            q_ok += 1
        if metrics["MU40"][1] < metrics["MU20"][1] < metrics["SU10"][1]:
            b_ok += 1
    assert q_ok > len(list(seeds)) / 2, f"quality ordering held in only {q_ok}/5 seeds: {rows}"
    assert b_ok > len(list(seeds)) / 2, f"buffering ordering held in only {b_ok}/5 seeds: {rows}"
    report(6, f"quality ordering MU40>MU20>SU10 in {q_ok}/5 seeds, buffering reversed in {b_ok}/5")


# -----------------------------------------------------------------------------
# 7. Dumb vs advanced receiver degradation
# -----------------------------------------------------------------------------

def test_criterion_7_dumb_receiver_loss_is_negligible():
    # Paper-scale population (users >> spatial streams) and an SSIM-like
    # quality band; the placeholder 0.3..1.0 band would inflate a per-mode
    # step to ~23% quality, which no real ladder exhibits.
    losses = []
    for seed in range(3):
        common = dict(session=250, **{"video.d_min": "0.88", "video.d_max": "0.99",
                                      "topology.mean_users": "500"})
        adv = engine.run(build_config(paper_flat(seed, 40, 10, symbols=168_000, receiver="advanced", **common)))
        dumb = engine.run(build_config(paper_flat(seed, 40, 10, symbols=168_000, receiver="dumb", **common)))
        qa, _ = population_means(adv)
        qd, _ = population_means(dumb)
        losses.append((qa - qd) / qa)
    assert all(loss <= 0.02 for loss in losses), f"relative losses: {losses}"
    report(7, "dumb-receiver quality loss per seed: " + ", ".join(f"{l * 100:.2f}%" for l in losses))


# -----------------------------------------------------------------------------
# 8. Cross-layer fairness vs max-RSSI round robin
# -----------------------------------------------------------------------------

def test_criterion_8_dpp_is_fairer_than_baseline():
    rows = []
    for seed in range(5):
        stds = {}
        for policy in ("dpp", "baseline"):
            res = engine.run(build_config(paper_flat(seed, 10, 1, symbols=168_000, policy=policy)))
            delays = [u.average_delay for u in res.users if u.delivered_chunks]
            quals = [u.average_quality for u in res.users if u.delivered_chunks]
            stds[policy] = (float(np.std(delays)), float(np.std(quals)))
        rows.append(stds)
        assert stds["dpp"][0] < stds["baseline"][0], f"seed {seed}: delay dispersion {stds}"
        assert stds["dpp"][1] < stds["baseline"][1], f"seed {seed}: quality dispersion {stds}"
    detail = "; ".join(
        f"seed{i} delay {r['dpp'][0]:.2f}<{r['baseline'][0]:.2f} quality {r['dpp'][1]:.3f}<{r['baseline'][1]:.3f}"
        for i, r in enumerate(rows)
    )
    report(8, detail)


# -----------------------------------------------------------------------------
# 9. Pre-buffering correctness and rho monotonicity
# -----------------------------------------------------------------------------

def test_criterion_9_prebuffering_monotone_in_rho():
    def rho_flat(rho):
        return {
            "seed": "5", "n": "50", "session_chunks": "300",
            "policy": "dpp", "receiver": "advanced",
            "topology.mean_users": "30", "topology.hotspot_ratio": "10",
            "mimo.m": "10", "mimo.s_max": "1", "mimo.symbols_per_slot": "40000",
            "utility.alpha": "1", "utility.v": "2e14",
            "playback.window_slots": "20", "playback.rho": str(rho),
        }

    prev_stalls, prev_starts = None, None
    stall_trace = []
    for rho in (1, 2, 3, 4, 5):
        # check_invariants also enforces consumed <= arrived on every slot.
        res = engine.run(build_config(rho_flat(rho)), check_invariants=True)
        stalls = sum(u.stall_count for u in res.users)
        starts = [u.t_start for u in res.users]
        assert all(s is not None for s in starts)
        if prev_stalls is not None:
            assert stalls <= prev_stalls, f"rho={rho}: stalls rose {prev_stalls} -> {stalls}"
            assert all(b >= a for a, b in zip(prev_starts, starts)), f"rho={rho}: some t_start decreased"
        stall_trace.append(stalls)
        prev_stalls, prev_starts = stalls, starts
    report(9, f"no phantom consumption in any run; stalls by rho {stall_trace}; t_start non-decreasing per user")
