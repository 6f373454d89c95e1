"""Tests of the benchmark's tracer, output checks and metric list.

    python3 -m pytest benchmarks -q
"""
import dataclasses
import json
import time

import pytest

import run
import tracer
import workloads
from streamsched import config, engine

TINY = ("topology.mean_users=20", "mimo.m=8", "mimo.s_max=3", "session_chunks=4",
        "topology.mobility=waypoint", "topology.waypoint_speed=0.05")


def tiny(policy):
    return config.config_from_sources(None, TINY + (f"policy={policy}",), 3)


@pytest.mark.parametrize("policy", ["dpp", "baseline"])
def test_traced_result_equals_untraced(policy):
    plain = engine.run(tiny(policy))
    with tracer.Tracer() as tr:
        traced = engine.run(tiny(policy))
    assert traced == plain
    assert workloads.result_digest(traced) == workloads.result_digest(plain)
    assert tr.summary()["topology.WaypointMobility.positions.calls"] > 0
    assert engine.run.__module__ == "streamsched.engine" and not hasattr(engine.run, "__wrapped__")


def test_never_called_and_missing_functions_report_zero_and_warn():
    targets = tracer.TRACED + ("scheduler.no_such_function",)
    with tracer.Tracer(targets) as tr:
        engine.run(tiny("dpp"))
    metrics = tr.summary()
    assert metrics["scheduler.RoundRobinState.next_user.calls"] == 0
    assert metrics["scheduler.RoundRobinState.next_user.us_per_call"] == 0.0
    assert metrics["scheduler.no_such_function.calls"] == 0
    assert any("scheduler.RoundRobinState.next_user" in w for w in tr.warnings)
    assert any("scheduler.no_such_function" in w for w in tr.warnings)
    assert metrics["scheduler.greedy_from_rates.calls"] > 0


def test_self_times_are_nonnegative_and_within_the_run():
    with tracer.Tracer() as tr:
        start = time.perf_counter()
        engine.run(tiny("dpp"))
        wall = time.perf_counter() - start
    metrics = tr.summary()
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) <= wall
    assert 0 < metrics["engine.self_share"] <= 1


def test_counts_match_the_simulated_outcome():
    with tracer.Tracer() as tr:
        result = engine.run(tiny("baseline"))
    metrics = tr.summary()
    assert metrics["playback.stalls"] == sum(u.stall_count for u in result.users)
    assert metrics["client.drain_bits.chunks_completed"] == sum(u.delivered_chunks for u in result.users)
    assert metrics["scheduler.users_scheduled"] > 0
    assert 0 < metrics["client.drain_bits.useful_ratio"] <= 1


def test_checks_flag_bad_outputs(tmp_path):
    wl = workloads.WORKLOADS["small_waypoint_traced"]
    good = workloads.run_sequence(wl, 3, str(tmp_path))
    assert workloads.check(wl, good) == []
    user = good.result.users[0]
    bad_user = dataclasses.replace(user, delivered_chunk_ids=(1,) + user.delivered_chunk_ids[1:], requested_chunks=1)
    bad = dataclasses.replace(good, result=dataclasses.replace(good.result, users=(bad_user,) + good.result.users[1:],
                                                               drain_complete=False))
    failures = workloads.check(wl, bad)
    assert len(failures) == 3
    assert workloads.result_digest(bad.result) != workloads.result_digest(good.result)


def test_setup_time_makes_the_set_up_calls_of_a_run():
    wl = workloads.WORKLOADS["small_waypoint_traced"]
    cfg = config.config_from_sources(None, wl.overrides, workloads.sim_seed(wl, 0))
    with tracer.Tracer() as tr:
        elapsed = workloads.setup_time(wl, cfg)
    metrics = tr.summary()
    assert elapsed > 0
    assert metrics["engine.build_network.calls"] == metrics["video.synth_catalog.calls"] == 1
    assert metrics["topology.topology_state.calls"] == 1
    assert metrics["scheduler.helper_rate_rows.calls"] == 5
    with pytest.raises(RuntimeError, match="users"):
        workloads.setup_time(dataclasses.replace(wl, users=wl.users + 1), cfg)


def test_digest_sees_one_ulp():
    result = engine.run(tiny("dpp"))
    nudged = dataclasses.replace(result, mean_q_total=result.mean_q_total * (1 + 2**-52))
    assert nudged.mean_q_total != result.mean_q_total
    assert workloads.result_digest(nudged) != workloads.result_digest(result)


@pytest.mark.parametrize("name", sorted(workloads.PINNED))
def test_pinned_digest_reproduces(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    seed = min(workloads.PINNED[name])
    got = workloads.run_sequence(wl, workloads.sim_seed(wl, seed), str(tmp_path))
    assert workloads.result_digest(got.result) == workloads.PINNED[name][seed]


def test_benchmark_json_names_the_emitted_metrics(tmp_path):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GATED)
    assert [w["why"] for w in bench["workloads"]] == [workloads.WORKLOADS[name].why for name in workloads.GATED]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    with tracer.Tracer() as tr:
        engine.run(tiny("dpp"))
    emitted = {**tr.summary(), "trace.overhead_pct": 0.0}
    # per_layer lists the functions the run sequence of a static (gated) workload calls, with both policies.
    static = tuple(o for o in TINY if not o.startswith("topology."))
    with tracer.Tracer() as tr:
        for policy in ("dpp", "baseline"):
            wl = workloads.Workload(policy, "", static + (f"policy={policy}",), 20, engine_traces=False, drains=True)
            workloads.run_sequence(wl, 3, str(tmp_path))
    called = {k[:-len(".calls")] for k, v in tr.summary().items() if k.endswith(".calls") and v > 0}
    expected = {k for k in emitted if not any(k.startswith(t + ".") for t in tracer.TRACED) or
                any(k.startswith(t + ".") for t in called)}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: run.layer_unit(k) for k in expected}
    predictions = json.loads((run.ROOT / "benchmarks" / "predictions.json").read_text())
    for layer, prediction in predictions.items():
        if layer.startswith("_"):
            continue
        assert layer in emitted or f"{layer}.share" in emitted
        named = prediction["on"] + prediction.get("flat", []) + prediction.get("setup_only", [])
        assert prediction["moves"] in run.E2E_UNITS and set(named) <= set(workloads.WORKLOADS)
