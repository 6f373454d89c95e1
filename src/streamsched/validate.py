"""Randomized oracle suites for the scheduler, the gamma optimizer, and the request queue.

These are the checks behind `streamsched validate`: the greedy subset
selection must match exhaustive enumeration exactly, gamma must match the
analytic clamps written out per alpha, and the request-queue cursor and
counters must stay consistent under arbitrary request/drain interleavings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import client as cl
from . import scheduler as sched
from . import topology as topo
from .phy import MimoConfig
from .video import synth_catalog

GAMMA_CLAMP_TOL = 1e-6


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    total: int
    first_failure: dict | None = None

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def random_instance(rng: np.random.Generator):
    """One scheduling instance: a focal helper, random gains, random weights."""
    n_users = int(rng.integers(1, 13))
    n_helpers = int(rng.integers(1, 4))
    antennas = int(rng.choice([10, 20, 40]))
    s_max = int(rng.integers(1, min(10, antennas) + 1))
    graph = topo.NetworkGraph(
        helpers=np.zeros((n_helpers, 2)),
        users=np.zeros((n_users, 2)),
        tx_power=rng.uniform(1, 50, size=n_helpers),
        antennas=antennas,
        side=100.0,
        adjacency=np.ones((n_helpers, n_users), dtype=bool),
    )
    gains = rng.uniform(0.0, 1.0, size=(n_helpers, n_users))
    weights = rng.uniform(0.0, 1.0, size=n_users) * 10.0 ** rng.integers(0, 8)
    weights[rng.uniform(size=n_users) < 0.15] = 0.0
    cfg = MimoConfig(antennas=antennas, s_max=s_max, symbols_per_slot=1000)
    return graph, gains, weights, cfg


def exact_objective(subset, weights: np.ndarray, table: sched.RateTable) -> Fraction:
    """The subset's weighted rates from table, summed as exact rationals."""
    row = table.rows[len(subset) - 1]
    return sum((Fraction(float(weights[u] * row[table.ids.searchsorted(u)])) for u in subset), Fraction(0))


def greedy_vs_exhaustive(instances: int = 10_000, seed: int = 7) -> SuiteResult:
    """Greedy must pick the exhaustive argmax, instance by instance.

    Both run on helper 0's table from `scheduler.helper_tables`, the table the
    engine schedules from. An instance passes when the subsets are equal or,
    where tied users make several subsets optimal, their objectives are equal
    as exact rationals.
    """
    rng = np.random.default_rng(seed)
    passed = 0
    failure = None
    for case in range(instances):
        graph, gains, weights, cfg = random_instance(rng)
        table = sched.helper_tables(gains, graph, cfg)[0]
        args = weights[table.ids], table.rows, table.ids
        g_subset, g_obj = sched.greedy_from_rates(*args)
        e_subset, e_obj = sched.exhaustive_select(*args)
        if g_subset == e_subset or (exact_objective(g_subset, weights, table)
                                    == exact_objective(e_subset, weights, table)):
            passed += 1
        elif failure is None:
            failure = {
                "case": case,
                "greedy_subset": list(g_subset),
                "greedy_objective": g_obj,
                "exhaustive_subset": list(e_subset),
                "exhaustive_objective": e_obj,
                "weights": weights.tolist(),
                "gains": gains.tolist(),
                "antennas": cfg.antennas,
                "s_max": cfg.s_max,
            }
    return SuiteResult("greedy_vs_exhaustive", passed, instances, failure)


def gamma_closed_form(cases: int = 1000, seed: int = 11) -> SuiteResult:
    """optimize_gamma vs the clamp per alpha: exact for alpha=1; 1e-6 for alpha=2, where sqrt and ** 0.5 may differ."""
    rng = np.random.default_rng(seed)
    passed = 0
    failure = None
    for case in range(cases):
        d_min = float(rng.uniform(0.05, 0.6))
        d_max = float(rng.uniform(d_min + 0.05, 1.5))
        v = float(10.0 ** rng.uniform(-2, 6))
        theta = 0.0 if rng.uniform() < 0.1 else float(10.0 ** rng.uniform(-2, 8))
        alpha = 1.0 if case % 2 == 0 else 2.0
        got = cl.optimize_gamma(theta, cl.UtilityConfig(alpha=alpha, v=v), d_min, d_max)
        if theta == 0.0:
            expected = d_max
        elif alpha == 1.0:
            expected = min(max(v / theta, d_min), d_max)
        else:
            expected = min(max(math.sqrt(v / theta), d_min), d_max)
        tol = 0.0 if (alpha == 1.0 or theta == 0.0) else GAMMA_CLAMP_TOL
        if abs(got - expected) <= tol:
            passed += 1
        elif failure is None:
            failure = {"case": case, "alpha": alpha, "v": v, "theta": theta,
                       "d_min": d_min, "d_max": d_max, "got": got, "expected": expected}
    return SuiteResult("gamma_closed_form", passed, cases, failure)


def ledger_fuzz(cases: int = 200, seed: int = 13) -> SuiteResult:
    """Random request/drain interleavings keep the chunk cursor, the counters and the backlog coherent.

    The fuzz carries its own one-user backlog, as the engine does, and moves
    it only by the requested bits and drain_backlog, never from the ledger's
    counters; so the residual identity checks the backlog arithmetic.
    """
    rng = np.random.default_rng(seed)
    passed = 0
    failure = None
    for case in range(cases):
        profile = synth_catalog(
            [(int(rng.integers(2, 20)), int(rng.integers(1, 6)), float(rng.uniform(100, 5000)))],
            seed=int(rng.integers(0, 2**31)),
        )
        start = int(rng.integers(0, profile.num_chunks))
        session_length = int(rng.integers(1, 40))
        qs = cl.RequestQueueState()
        q = np.zeros(1)
        theta = float(rng.uniform(0, 1e6))
        user = np.array([0])
        n = 4
        completed_order: list[int] = []
        problem = None
        t = k = 0
        while k < session_length or qs.chunks:
            if t % n == 0 and k < session_length:
                i = (start + k) % profile.num_chunks
                m = cl.request_chunk(qs, float(q[0]), theta, profile, i)
                q[0] += profile.size_bits[i][m - 1]
                k += 1
            if rng.uniform() < 0.8:
                delivered = int(rng.integers(0, 60000))
                cl.drain_backlog(q, user, np.array([delivered]))
                completed_order.extend(cl.drain_bits(qs, delivered))
            broken = qs.broken_identity(float(q[0]))
            if broken is not None:
                problem = {"case": case, "t": t, "reason": broken, "q": float(q[0])}
                break
            t += 1
        if problem is None and completed_order != sorted(completed_order):
            problem = {"case": case, "reason": "out-of-order completion", "order": completed_order}
        if problem is None and completed_order != list(range(len(completed_order))):
            problem = {"case": case, "reason": "completions not a contiguous prefix", "order": completed_order}
        if problem is None:
            passed += 1
        elif failure is None:
            failure = problem
    return SuiteResult("ledger_fuzz", passed, cases, failure)


def run_all(instances: int = 10_000, cases: int = 1000, seed: int = 7) -> list[SuiteResult]:
    return [
        greedy_vs_exhaustive(instances, seed),
        gamma_closed_form(cases, seed + 1),
        ledger_fuzz(max(cases // 5, 1), seed + 2),
    ]
