import hashlib
import re
from collections.abc import Sized

import numpy as np
import pytest

from streamsched import engine
from streamsched.config import SimConfig, build_config, config_hash, flatten_config
from streamsched.errors import ConfigError
from streamsched.engine import run, sweep
from streamsched.video import synth_catalog


def small_flat(**overrides):
    flat = {
        "seed": "1",
        "n": "5",
        "session_chunks": "30",
        "policy": "dpp",
        "receiver": "advanced",
        "topology.helper_layout": "40:40",
        "topology.user_layout": "30:40;40:60",
        "mimo.m": "8",
        "mimo.s_max": "2",
        "mimo.symbols_per_slot": "20000",
        "video.segments": "15x3@400",
        "utility.v": "100",
        "playback.window_slots": "10",
        "playback.rho": "2",
    }
    flat.update({k: str(v) for k, v in overrides.items()})
    return flat


def test_trivial_overprovisioned_link_delivers_every_chunk_next_slot():
    # One user, one mode, chunk size far below one chunk-period of capacity.
    flat = small_flat(**{
        "topology.user_layout": "40:40",
        "video.segments": "10x1@10",   # 5000-bit chunks
        "session_chunks": "20",
        "mimo.symbols_per_slot": "20000",
    })
    res = run(build_config(flat), check_invariants=True)
    assert res.drain_complete and res.all_finished
    u = res.users[0]
    assert u.delivered_chunks == 20
    assert u.average_delay == pytest.approx(1.0)  # every chunk lands next video slot
    assert u.stall_count == 0


# Chunk load far beyond capacity: the ledger cannot drain by the cap.
OVERLOADED = {
    "topology.user_layout": "40:40",
    "video.segments": "10x1@100000",  # 50 Mbit chunks
    "mimo.symbols_per_slot": "1000",
    "session_chunks": "20",
    "drain_limit_slots": "50",
}


def test_overloaded_link_flagged_unstable():
    res = run(build_config(small_flat(**OVERLOADED)))
    assert not res.drain_complete


def test_run_is_deterministic():
    cfg = build_config(small_flat(**{"topology.user_layout": "poisson", "topology.mean_users": "6"}))
    assert run(cfg) == run(cfg)


def test_conservation_and_order_fuzz():
    for seed in range(8):
        flat = small_flat(seed=seed, **{"topology.user_layout": "poisson", "topology.mean_users": "5"})
        res = run(build_config(flat), check_invariants=True)
        for u in res.users:
            assert u.delivered_chunks <= u.requested_chunks


def test_delivered_chunks_form_contiguous_prefix():
    cfg = build_config(small_flat())
    res = run(cfg, check_invariants=True)
    for u in res.users:
        assert u.delivered_chunks == u.requested_chunks  # drained run delivers all


def test_paired_runs_share_topology_and_catalog():
    flat_a = small_flat(**{"policy": "dpp", "topology.user_layout": "poisson", "topology.mean_users": "8"})
    flat_b = dict(flat_a, policy="baseline")
    seed = np.random.SeedSequence(1).spawn(3)[0]
    g_a = engine.build_network(build_config(flat_a), seed)
    g_b = engine.build_network(build_config(flat_b), np.random.SeedSequence(1).spawn(3)[0])
    assert np.array_equal(g_a.users, g_b.users)
    assert np.array_equal(g_a.helpers, g_b.helpers)


def test_sweep_shares_seed_and_keys_results():
    cfg = build_config(small_flat())
    results = sweep(cfg, "V", ["1e2", "1e4", "1e6"])
    assert [v for v, _, _ in results] == ["1e2", "1e4", "1e6"]
    hashes = {r.config_hash for _, _, r in results}
    assert len(hashes) == 3  # different configs
    assert len({r.seed for _, _, r in results}) == 1


def test_sweep_policy_pairing():
    cfg = build_config(small_flat(**{"topology.user_layout": "poisson", "topology.mean_users": "6"}))
    results = {v: r for v, _, r in sweep(cfg, "policy", ["dpp", "baseline"])}
    assert results["dpp"].policy == "dpp"
    assert results["baseline"].policy == "baseline"


@pytest.mark.parametrize("key,value", [
    ("topology.helper_layout", ";"),
    ("topology.user_layout", ";"),
    ("topology.mean_users", "0"),
])
def test_build_network_requires_helpers_and_users(key, value):
    cfg = build_config(small_flat(**{"topology.user_layout": "poisson", key: value}))
    with pytest.raises(ConfigError, match=re.escape(key)):
        engine.build_network(cfg, np.random.SeedSequence(cfg.seed))


def test_sweep_unknown_parameter():
    cfg = build_config(small_flat())
    with pytest.raises(ConfigError):
        sweep(cfg, "bogus", [1])
    with pytest.raises(ConfigError):
        sweep(cfg, "V", [])


def test_receiver_views_dumb_never_exceeds_advanced(monkeypatch):
    # check_invariants compares, every slot, the delivered bits with the dumb
    # view of the per-edge bits and with the advanced view above it.
    flat = small_flat(receiver="dumb", **{"topology.helper_layout": "30:40;50:40",
                                          "topology.user_layout": "poisson", "topology.mean_users": "6"})
    res = run(build_config(flat), collect_traces=True, check_invariants=True)
    assert res.drain_complete
    # Some slot has a user served by both helpers, where the two views differ.
    served = {}
    for t, h, _, subset, _ in res.traces["schedule"]:
        served.setdefault(t, []).extend(subset)
    assert any(len(users) != len(set(users)) for users in served.values())
    # Delivering the advanced view to dumb receivers trips the check.
    monkeypatch.setattr(engine.sched, "aggregate_per_user", lambda per_edge, model: per_edge.sum(axis=0))
    with pytest.raises(RuntimeError, match="dumb receiver's view"):
        run(build_config(flat), check_invariants=True)


def test_player_queue_count_mismatch_trips_check(monkeypatch):
    # A player credits exactly the chunks its queue completed, so its arrival
    # count equals the queue's head; result() builds delivered_chunk_ids as
    # range(arrived) on that identity. Losing the completions between the two
    # is caught on the slot it happens.
    drain = engine.cl.drain_bits

    def drain_losing_completions(qs, delivered_bits):
        drain(qs, delivered_bits)
        return []

    cfg = build_config(small_flat())
    monkeypatch.setattr(engine.cl, "drain_bits", drain_losing_completions)
    with pytest.raises(RuntimeError, match="user 0 player arrivals != queue head"):
        run(cfg, check_invariants=True)


def test_per_user_state_does_not_grow_with_session_length(monkeypatch):
    # Only outstanding chunks are kept per user; delivered ones are counts and sums.
    states = []

    class Capturing(engine.RunState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(engine, "RunState", Capturing)
    lengths = []
    for chunks in (30, 300):
        res = run(build_config(small_flat(session_chunks=chunks)))
        assert res.drain_complete and res.all_finished
        per_attr = {}
        for obj in states[-1].queues + states[-1].players:
            for name, value in vars(obj).items():
                if isinstance(value, Sized) and not isinstance(value, str):
                    key = (type(obj).__name__, name)
                    per_attr[key] = max(per_attr.get(key, 0), len(value))
        lengths.append(per_attr)
    short, long = lengths
    assert short.keys() == long.keys() and all(long[k] <= short[k] for k in long), (short, long)
    assert all(not qs.chunks for st in states for qs in st.queues)


def test_dumb_receiver_run_differs_but_completes():
    adv = run(build_config(small_flat(receiver="advanced")))
    dumb = run(build_config(small_flat(receiver="dumb")))
    assert adv.receiver == "advanced" and dumb.receiver == "dumb"
    assert dumb.drain_complete


def test_scheduler_staleness_accepted():
    cfg = build_config(small_flat(scheduler_staleness=3))
    res = run(cfg)
    assert res.drain_complete
    assert run(cfg) == res


def test_scheduler_staleness_delays_the_weights(monkeypatch):
    # Slot t's max-weight call reads the backlogs of slot max(t - 3, 0), as its schedule phase saw them.
    backlogs, weights = [], []
    schedule, max_weight_slot = engine.RunState.schedule, engine.sched.max_weight_slot

    def recording_schedule(self, t):
        backlogs.append(self.q.tolist())
        return schedule(self, t)

    def recording_max_weight_slot(tables, w):
        weights.append(w.tolist())
        return max_weight_slot(tables, w)

    monkeypatch.setattr(engine.RunState, "schedule", recording_schedule)
    monkeypatch.setattr(engine.sched, "max_weight_slot", recording_max_weight_slot)
    res = run(build_config(small_flat(scheduler_staleness=3, session_chunks=60)))
    assert len(weights) == len(backlogs) == res.slots_run >= 300
    assert all(weights[t] == backlogs[max(t - 3, 0)] for t in range(res.slots_run))
    assert sum(weights[t] != backlogs[t] for t in range(res.slots_run)) > res.slots_run // 2


def test_baseline_policy_runs_and_finishes():
    cfg = build_config(small_flat(policy="baseline", **{"topology.user_layout": "30:40;50:40"}))
    res = run(cfg, check_invariants=True)
    assert res.drain_complete and res.all_finished


def test_waypoint_mobility_runs():
    flat = small_flat(**{
        "topology.mobility": "waypoint",
        "topology.waypoint_speed": "0.05",
        "session_chunks": "10",
    })
    res = run(build_config(flat), check_invariants=True)
    assert res.drain_complete and res.all_finished


def test_config_hash_stable_and_sensitive():
    cfg_a = build_config(small_flat())
    cfg_b = build_config(small_flat())
    assert config_hash(cfg_a) == config_hash(cfg_b)
    assert config_hash(cfg_a) != config_hash(build_config(small_flat(seed=2)))


def test_build_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        build_config({"not.a.key": "1"})


def test_unset_keys_take_dataclass_defaults():
    assert build_config({}) == SimConfig()
    defaults = flatten_config(SimConfig())
    for key, text in defaults.items():
        cfg = build_config({key: text})
        assert cfg == SimConfig() and repr(cfg) == repr(SimConfig()), key


EVERY_KEY_FLAT = {
    "seed": "9", "policy": "baseline", "receiver": "dumb", "n": "7", "session_chunks": "33",
    "drain_limit_slots": "123", "t_gop_seconds": "0.25", "slot_seconds": "0.005", "scheduler_staleness": "2",
    "utility.alpha": "2", "utility.v": "3.5e9",
    "mimo.m": "16", "mimo.s_max": "4", "mimo.symbols_per_slot": "12345",
    "topology.side_m": "100", "topology.helper_layout": "10:10;90:90", "topology.user_layout": "20:30;40:50",
    "topology.tx_power": "7.5", "topology.mean_users": "42", "topology.hotspot_side_m": "30",
    "topology.hotspot_ratio": "4", "topology.edge_rule": "snr", "topology.edge_threshold": "0.5",
    "topology.mobility": "waypoint", "topology.waypoint_speed": "0.1",
    "video.segments": "12x3@512.5,8x2@99", "video.d_min": "0.2", "video.d_max": "0.9", "video.sigma": "0.1",
    "video.ladder_ratio": "0.5",
    "playback.window_slots": "15", "playback.rho": "2.5",
}


def test_config_hash_pinned_and_every_key_round_trips():
    # Output files carry these digests as provenance; a change here orphans them.
    assert config_hash(SimConfig()) == "3ce089c5a692"
    assert config_hash(build_config(small_flat())) == "e2c74c5ad701"
    every = build_config(EVERY_KEY_FLAT)
    defaults, flat = flatten_config(SimConfig()), flatten_config(every)
    assert flat.keys() == defaults.keys() and all(flat[k] != defaults[k] for k in flat)
    assert config_hash(every) == "35b362dba02f"
    assert build_config(flatten_config(every)) == every


def test_segment_rates_keep_full_precision():
    exact = build_config(small_flat(**{"video.segments": "10x3@400"}))
    close = build_config(small_flat(**{"video.segments": "10x3@400.0004"}))
    assert config_hash(exact) != config_hash(close)
    for cfg in (exact, close):
        assert build_config(flatten_config(cfg)) == cfg


def test_unfinished_users_still_report_metrics():
    res = run(build_config(small_flat(**OVERLOADED)))
    u = res.users[0]
    assert not u.playback_finished
    assert u.requested_chunks == 20
    assert not res.utility_defined or u.delivered_chunks > 0


# sha256 of repr(SimResult) for traced small_flat() runs; repr covers every
# result field and every schedule/client/playback trace row. A refactor that
# changes one bit of a result or a trace changes these. They assume numpy 2
# scalar reprs: the client trace's gamma column holds np.float64 values. The
# first two drain; the overloaded run stops at the drain limit, so after the
# loop it steps only the final partial video slot. Playback rows cover every
# stepped player-slot, the ones stepped after the loop included: 64, 64, 30.
PINNED_RESULT_DIGESTS = [
    ({}, "7a07c3afe344b4bdce462102c11897deefe66008477002ad79493febda5d6858"),
    ({"policy": "baseline", "receiver": "dumb"}, "567cde7f56865a763743408dadc7880d627cc9533f8f5fd5d05b73160e27eb66"),
    (OVERLOADED, "40453cb0f2ea61bd667eb689f348fa8c6187429db48b411f012e4c6446c2e017"),
]


@pytest.mark.parametrize("overrides,digest", PINNED_RESULT_DIGESTS, ids=["dpp", "baseline-dumb", "undrained"])
def test_traced_results_match_pinned_digests(overrides, digest):
    res = run(build_config(small_flat(**overrides)), collect_traces=True)
    assert all(res.traces.values())
    assert hashlib.sha256(repr(res).encode()).hexdigest() == digest


def test_backlog_values_reach_results_as_python_scalars():
    # q and theta live in numpy vectors; the pinned digests hash repr(SimResult),
    # where a numpy scalar would print differently from the float or bool it equals.
    res = run(build_config(small_flat()), collect_traces=True)
    rows = res.traces["client"]
    assert rows and all(type(q) is float and type(theta) is float for _, _, q, theta, *_ in rows)
    assert all(type(u.queue_drained) is bool and type(u.mean_q_bits) is float for u in res.users)


def test_session_wraps_around_short_catalog():
    # 30 session chunks over a 15-chunk catalog: user u's k-th request is
    # catalog chunk (start_u + k) % 15, with start_u drawn from the third
    # child of the seed.
    cfg = build_config(small_flat())
    res = run(cfg, collect_traces=True)
    catalog = synth_catalog(cfg.video.segments, np.random.SeedSequence(cfg.seed).spawn(3)[1],
                            d_min=cfg.video.d_min, d_max=cfg.video.d_max, sigma=cfg.video.sigma,
                            ladder_ratio=cfg.video.ladder_ratio, t_gop_seconds=cfg.t_gop_seconds)
    assert catalog.num_chunks < cfg.session_chunks
    starts = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2]).integers(
        0, catalog.num_chunks, size=len(res.users))
    rows = res.traces["client"]
    assert len(rows) == cfg.session_chunks * len(res.users)
    for t, u, _, _, _, mode, bits, _ in rows:
        k = t // cfg.n
        assert bits == catalog.size_bits[(starts[u] + k) % catalog.num_chunks][mode - 1]
    assert all(u.requested_chunks == cfg.session_chunks for u in res.users)


def test_waypoint_mobility_moves_gains_not_edges_or_association():
    # Only the gains and the rate tables follow the users; the snr edge set and the
    # baseline's max-RSSI association stay those of slot 0.
    cfg = build_config(small_flat(policy="baseline", **{
        "topology.helper_layout": "20:40;60:40",
        "topology.user_layout": "15:40;25:40;55:40;65:40;40:10;40:70",
        "topology.edge_rule": "snr", "topology.edge_threshold": "12",
        "topology.mobility": "waypoint", "topology.waypoint_speed": "0.5",
    }))
    st = engine.RunState(cfg)
    users = [list(ids) for ids in st.rr.users]
    adjacency, tables = st.graph.adjacency.copy(), st.tables
    st.refresh_topology(1000)
    assert st.rr.users == users
    assert (st.graph.adjacency == adjacency).all()
    assert any(not np.array_equal(a.rows, b.rows) for a, b in zip(tables, st.tables))
    # The users did move far enough that slot 1000's positions give other edges and another association.
    g = st.graph
    moved = engine.topo.build_graph(g.helpers, st.mobility.positions(g, 1000), g.side, 20.0, g.antennas, "snr", 12.0)
    assert (moved.adjacency != adjacency).any()
    state = engine.topo.topology_state(st.graph, 1000, st.mobility)
    assert engine.sched.RoundRobinState(state, st.graph).users != users
