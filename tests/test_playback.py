import math

import pytest

from streamsched.playback import (
    FINISHED,
    PLAYING,
    REBUFFERING,
    PlaybackState,
    playback_step,
    qoe_metrics,
    record_arrivals,
    window_max_delay,
)


def fresh(total=100, window=20, rho=3.0):
    return PlaybackState(total_chunks=total, window_size=window, rho=rho)


def run_slots(ps, arrivals_by_slot, upto):
    """Drive record_arrivals + playback_step for slots 1..upto."""
    events = []
    for i in range(1, upto + 1):
        record_arrivals(ps, arrivals_by_slot.get(i, []), i)
        events.append((i, playback_step(ps, i)))
    return events


def test_record_arrivals_delay_bookkeeping():
    ps = fresh()
    record_arrivals(ps, [0, 1, 2], 3)  # delays 3, 2, 1
    record_arrivals(ps, [3], 5)
    assert ps.recent[-1] == (5, 2)
    assert ps.delay_sum == 3 + 2 + 1 + 2
    assert ps.arrived == ps.psi == 4


def test_record_arrivals_empty_keeps_psi():
    ps = fresh()
    record_arrivals(ps, [], 1)
    assert ps.psi == 0


def test_record_arrivals_fastest_delivery_has_delay_one():
    ps = fresh()
    record_arrivals(ps, [0], 1)
    assert ps.delay_sum == 1


def test_record_arrivals_duplicate_rejected():
    ps = fresh()
    record_arrivals(ps, [0], 1)
    with pytest.raises(RuntimeError, match="out of order"):
        record_arrivals(ps, [0], 2)


def test_record_arrivals_skipped_chunk_rejected():
    # Delivery is an in-order prefix: an id other than the next one due raises
    # where it happens, before that chunk is counted.
    ps = fresh()
    record_arrivals(ps, [0], 1)
    with pytest.raises(RuntimeError, match="chunk 2 arrived out of order; chunk 1 is due"):
        record_arrivals(ps, [2], 2)
    assert (ps.arrived, ps.delay_sum) == (1, 1)
    with pytest.raises(RuntimeError, match="out of order"):
        record_arrivals(fresh(), [1, 0], 2)


def test_record_arrivals_impossible_delay_rejected():
    ps = fresh()
    record_arrivals(ps, [0, 1, 2, 3, 4], 5)
    with pytest.raises(RuntimeError, match="before it could be requested"):
        record_arrivals(ps, [5], 5)


def test_window_max_single_arrival():
    ps = fresh()
    record_arrivals(ps, [0], 4)  # W = 4
    assert window_max_delay(ps, 4) == 4


def test_window_carry_forward_on_empty():
    ps = fresh(window=3)
    record_arrivals(ps, [0], 3)  # W = 3
    assert window_max_delay(ps, 3) == 3
    # Slots 6+: the arrival has left the 3-slot window; the estimate carries.
    assert window_max_delay(ps, 9) == 3


def test_window_takes_max_of_delays():
    ps = fresh()
    record_arrivals(ps, [0], 2)   # W=2
    record_arrivals(ps, [1], 8)   # W=7
    record_arrivals(ps, [2], 7)   # W=5
    assert window_max_delay(ps, 8) == 7


def test_initial_estimate_is_one():
    ps = fresh()
    assert window_max_delay(ps, 1) == 1.0


def test_start_threshold_crossing():
    # rho=3, arrivals 1/slot keep E=1 -> start once psi >= 3.
    ps = fresh(rho=3.0)
    run_slots(ps, {i: [i - 1] for i in range(1, 10)}, 3)
    assert ps.t_start == 3
    assert ps.phase == PLAYING
    assert ps.prebuffer_slots == 3  # the crossing slot still counts as buffering


def test_no_consumption_on_start_slot():
    ps = fresh(rho=2.0)
    run_slots(ps, {1: [0], 2: [1]}, 2)
    assert ps.t_start == 2
    assert ps.psi == 2  # nothing played on the crossing slot


def test_stall_after_buffer_empties():
    ps = fresh(rho=1.0)
    # One arrival, playback starts, then the source dries up.
    events = run_slots(ps, {1: [0]}, 4)
    assert ps.t_start == 1
    # Slot 2 consumes the only chunk; slot 3 finds the buffer empty -> stall.
    assert ("stall" in events[2][1]) or ("stall" in events[3][1])
    assert ps.phase == REBUFFERING
    assert ps.stall_count == 1


def test_steady_arrivals_never_stall():
    ps = fresh(total=50, rho=3.0)
    run_slots(ps, {i: [i - 1] for i in range(1, 51)}, 50)
    assert ps.stall_count == 0


def test_rebuffer_rearms_threshold_and_resumes():
    ps = fresh(total=10, rho=1.5, window=5)
    # Start at slot 2, drain dry by slot 5 (stall), then a late burst refills.
    arrivals = {1: [0], 2: [1], 6: [2, 3], 7: [4, 5], 8: [6, 7], 10: [8, 9]}
    run_slots(ps, arrivals, 8)
    assert ps.stall_count == 1
    assert ps.phase == PLAYING  # late chunks had delay 4 -> resume needs psi >= 6
    run_slots_from = ps.last_slot + 1
    for i in range(run_slots_from, 25):
        record_arrivals(ps, arrivals.get(i, []), i)
        playback_step(ps, i)
        if ps.phase == FINISHED:
            break
    assert ps.phase == FINISHED


def test_finishes_after_all_chunks_consumed():
    ps = fresh(total=3, rho=1.0)
    run_slots(ps, {1: [0], 2: [1], 3: [2]}, 6)
    assert ps.phase == FINISHED
    assert ps.consumed_count == 3


def test_all_arrived_early_start_for_tiny_sessions():
    # rho * E can exceed the whole session; once everything arrived, play anyway.
    ps = fresh(total=2, rho=50.0)
    run_slots(ps, {1: [0], 2: [1]}, 5)
    assert ps.phase == FINISHED


def test_no_phantom_consumption_fuzz():
    import numpy as np

    rng = np.random.default_rng(14)
    for _ in range(50):
        total = int(rng.integers(1, 30))
        ps = fresh(total=total, rho=float(rng.uniform(0.5, 4)), window=int(rng.integers(1, 10)))
        k = 0
        for i in range(1, 120):
            arrivals = []
            while k < total and k < i and rng.uniform() < 0.4:
                arrivals.append(k)
                k += 1
            record_arrivals(ps, arrivals, i)
            playback_step(ps, i)
            assert ps.consumed_count <= ps.arrived == k
            assert ps.psi == k - ps.consumed_count
            if ps.phase == FINISHED:
                break


def test_step_slots_must_be_consecutive():
    ps = fresh()
    record_arrivals(ps, [], 1)
    playback_step(ps, 1)
    with pytest.raises(RuntimeError):
        playback_step(ps, 3)


def test_rho_monotonicity_on_fixed_arrivals():
    import numpy as np

    rng = np.random.default_rng(15)
    total = 40
    schedule = {}
    k = 0
    for i in range(1, 200):
        arrivals = []
        while k < total and rng.uniform() < 0.45:
            arrivals.append(k)
            k += 1
        schedule[i] = arrivals
    prev_start, prev_stalls = -1, None
    for rho in (1.0, 2.0, 3.0, 4.0, 5.0):
        ps = fresh(total=total, rho=rho, window=10)
        for i in range(1, 200):
            record_arrivals(ps, schedule.get(i, []), i)
            playback_step(ps, i)
            if ps.phase == FINISHED:
                break
        assert ps.t_start >= prev_start
        if prev_stalls is not None:
            assert ps.stall_count <= prev_stalls
        prev_start, prev_stalls = ps.t_start, ps.stall_count


def test_qoe_metrics_quality_and_delay():
    ps = fresh(total=3, rho=1.0)
    run_slots(ps, {1: [0], 5: [1, 2]}, 8)
    m = qoe_metrics(ps, 0.9 + 0.9 + 0.9)
    assert m.average_quality == pytest.approx(0.9)
    assert m.average_delay == pytest.approx((1 + 4 + 3) / 3)
    assert m.delivered_chunks == 3


def test_qoe_buffering_percent_definition():
    # 1000 chunks, start at slot 5, no stalls: 100 * 5 / 1005.
    total = 1000
    ps = fresh(total=total, rho=5.0, window=10)
    arrivals = {i: [i - 1] for i in range(1, total + 1)}
    i = 1
    while ps.phase != FINISHED:
        record_arrivals(ps, arrivals.get(i, []), i)
        playback_step(ps, i)
        i += 1
    assert ps.t_start == 5
    assert ps.stall_count == 0
    m = qoe_metrics(ps, 0.5 * total)
    assert ps.last_slot == 1005
    assert m.buffering_percent == pytest.approx(100 * 5 / 1005)


def test_qoe_constant_delay():
    ps = fresh(total=4, rho=1.0)
    run_slots(ps, {i: [i - 3] for i in range(3, 7)}, 8)  # every chunk 3 slots late
    m = qoe_metrics(ps, 0.5 * 4)
    assert m.average_delay == pytest.approx(3.0)


def test_qoe_undefined_with_no_deliveries():
    ps = fresh(total=5)
    record_arrivals(ps, [], 1)
    playback_step(ps, 1)
    m = qoe_metrics(ps, 0.0)
    assert m.delivered_chunks == 0
    assert math.isnan(m.average_delay) and math.isnan(m.average_quality)


def test_consumption_in_arrival_order():
    ps = fresh(total=5, rho=1.0)
    order = []
    arrivals = {1: [0], 2: [1], 3: [2], 5: [3, 4]}
    for i in range(1, 12):
        record_arrivals(ps, arrivals.get(i, []), i)
        before = ps.consumed_count
        playback_step(ps, i)
        if ps.consumed_count > before:
            order.append(ps.consumed_count - 1)  # chunk indices consumed in order
        if ps.phase == FINISHED:
            break
    assert order == sorted(order)
