import math

import numpy as np
import pytest

from streamsched.topology import (
    WaypointMobility,
    build_graph,
    default_helper_layout,
    pathloss_gain,
    place_users,
    topology_state,
    torus_distance,
)


def test_torus_wraparound():
    assert torus_distance((0, 0), (79, 0), 80) == pytest.approx(1.0)


def test_torus_identity():
    assert torus_distance((12.5, 3.0), (12.5, 3.0), 80) == 0.0


def test_torus_max_separation():
    assert torus_distance((0, 0), (40, 40), 80) == pytest.approx(40 * math.sqrt(2))


def test_torus_metric_properties():
    rng = np.random.default_rng(2)
    side = 80.0
    for _ in range(300):
        a, b, c = (tuple(rng.uniform(0, side, 2)) for _ in range(3))
        assert torus_distance(a, b, side) == pytest.approx(torus_distance(b, a, side))
        assert torus_distance(a, a, side) == 0.0
        assert torus_distance(a, c, side) <= torus_distance(a, b, side) + torus_distance(b, c, side) + 1e-9


def test_pathloss_values():
    assert pathloss_gain(0.0) == 1.0
    assert pathloss_gain(40.0) == pytest.approx(0.5)
    # Independent evaluation of 1 / (1 + 2^3.5).
    assert pathloss_gain(80.0) == pytest.approx(0.08121030314161228, rel=1e-12)


def test_pathloss_strictly_decreasing():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d1, d2 = sorted(rng.uniform(0, 500, 2))
        if d1 != d2:
            assert pathloss_gain(d1) > pathloss_gain(d2)


def test_place_users_zero_density():
    assert len(place_users(80, 80 / 3, 0.0, 10.0, seed=0)) == 0


def test_place_users_deterministic():
    a = place_users(80, 80 / 3, 50, 10.0, seed=7)
    b = place_users(80, 80 / 3, 50, 10.0, seed=7)
    assert np.array_equal(a, b)
    assert (a >= 0).all() and (a < 80).all()


def test_place_users_poisson_concentration():
    # Monte Carlo over 1000 seeds: the sample-mean count sits within 3 sigma
    # of the configured mean (sigma of the mean = sqrt(lambda / n_seeds)).
    mean = 100.0
    counts = [len(place_users(80, 80 / 3, mean, 10.0, seed=s)) for s in range(1000)]
    assert abs(np.mean(counts) - mean) <= 3 * math.sqrt(mean / 1000)


def test_place_users_hotspot_share():
    # With ratio r over a 1/9-area hotspot, the expected in-hotspot share is r / (r + 8).
    side, hs, ratio = 80.0, 80 / 3, 10.0
    lo, hi = (side - hs) / 2, (side + hs) / 2
    pts = np.concatenate([place_users(side, hs, 400, ratio, seed=s) for s in range(50)])
    inside = ((pts[:, 0] >= lo) & (pts[:, 0] < hi) & (pts[:, 1] >= lo) & (pts[:, 1] < hi)).mean()
    assert abs(inside - ratio / (ratio + 8)) < 0.03


def _nodes(n_helpers=5, n_users=10, side=80.0, seed=0):
    """Uniform random (n_helpers, 2) helper and (n_users, 2) user positions."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, side, size=(n_helpers, 2)), rng.uniform(0, side, size=(n_users, 2))


def test_build_graph_all_pairs():
    helpers, users = _nodes()
    g = build_graph(helpers, users, 80.0, 20.0, 8, "all")
    assert int(g.adjacency.sum()) == 50
    assert g.helpers.shape == (5, 2) and g.users.shape == (10, 2)
    assert np.array_equal(g.tx_power, np.full(5, 20.0)) and g.antennas == 8


def test_build_graph_huge_threshold_falls_back_to_best():
    helpers, users = _nodes()
    g = build_graph(helpers, users, 80.0, 20.0, 8, "snr", snr_threshold=math.inf)
    assert (g.adjacency.sum(axis=0) == 1).all()
    rssi = g.tx_power[:, None] * topology_state(g)
    for u in range(len(users)):
        assert g.adjacency[int(np.argmax(rssi[:, u])), u]


def test_build_graph_zero_threshold_is_all_pairs():
    helpers, users = _nodes()
    g = build_graph(helpers, users, 80.0, 20.0, 8, "snr", snr_threshold=0.0)
    assert g.adjacency.all()


def test_topology_state_static_time_invariant():
    helpers, users = _nodes()
    g = build_graph(helpers, users, 80.0, 20.0, 8)
    s1 = topology_state(g, 0)
    s2 = topology_state(g, 12345)
    assert np.array_equal(s1, s2)


def test_topology_state_rejects_negative_or_nonfinite_gains():
    # No negative or non-finite SINR, hence no negative rate or bit budget, gets past topology_state.
    class NanMobility:
        def positions(self, graph, t):
            return np.array([[math.nan, 10.0]])

    g = build_graph([(10.0, 10.0)], [(10.0, 10.0)], 80.0, 20.0, 4)
    with pytest.raises(ValueError):
        topology_state(g, 1, NanMobility())


def test_topology_state_colocated_gain_is_one():
    g = build_graph([(10.0, 10.0)], [(10.0, 10.0)], 80.0, 20.0, 4)
    assert topology_state(g)[0, 0] == 1.0


def test_topology_state_gains_ordered_by_distance():
    side = 80.0
    helpers = default_helper_layout(side)
    g = build_graph(helpers, [(43.0, 41.0)], side, 20.0, 8)
    gains = topology_state(g)[:, 0]
    dists = [torus_distance(h, (43.0, 41.0), side) for h in helpers]
    assert list(np.argsort(gains)[::-1]) == list(np.argsort(dists))


WAYPOINT_SPEED = 0.5
WAYPOINT_SLOTS = 10_000


def _waypoint_graph():
    helpers, users = _nodes(n_users=6)
    return build_graph(helpers, users, 80.0, 20.0, 8)


@pytest.fixture(scope="module")
def waypoint_track():
    """Positions of 6 users at 0.5 m/slot (seed 1), one per slot for slots 0 .. 10**4 + 1."""
    g, mob = _waypoint_graph(), WaypointMobility(WAYPOINT_SPEED, seed=1)
    return np.stack([mob.positions(g, t) for t in range(WAYPOINT_SLOTS + 2)])


def test_waypoint_step_never_exceeds_the_speed(waypoint_track):
    # No teleport: each slot moves a user at most the speed, under the metric the gains use.
    steps = torus_distance(waypoint_track[1:], waypoint_track[:-1], 80.0)
    assert steps.max() <= WAYPOINT_SPEED * (1 + 1e-12)
    assert (steps > 0).mean() > 0.99


def test_waypoint_users_still_move_after_many_slots(waypoint_track):
    assert (waypoint_track[WAYPOINT_SLOTS + 1] != waypoint_track[WAYPOINT_SLOTS]).any(axis=1).all()


def test_waypoint_positions_stay_in_region(waypoint_track):
    assert (waypoint_track >= 0).all() and (waypoint_track <= 80.0).all()


def test_waypoint_same_seed_same_positions(waypoint_track):
    # One object called every slot and one that jumps between a few slots follow the same trajectory.
    g, mob = _waypoint_graph(), WaypointMobility(WAYPOINT_SPEED, seed=1)
    for t in (0, 1, 7, 5000, WAYPOINT_SLOTS + 1):
        assert np.array_equal(mob.positions(g, t), waypoint_track[t])
    other = WaypointMobility(WAYPOINT_SPEED, seed=2).positions(g, 100)
    assert not np.array_equal(other, waypoint_track[100])


def test_waypoint_mobility_moves_and_stays_in_region():
    g, mob = _waypoint_graph(), WaypointMobility(WAYPOINT_SPEED, seed=1)
    p0 = mob.positions(g, 0)
    assert np.array_equal(p0, g.users)
    p9 = mob.positions(g, 9)
    assert not np.allclose(p0, p9)
    assert np.array_equal(p9, mob.positions(g, 9))  # the same slot again returns the same positions
    assert (p9 >= 0).all() and (p9 <= 80.0).all()


def test_waypoint_earlier_slot_raises():
    g, mob = _waypoint_graph(), WaypointMobility(WAYPOINT_SPEED, seed=1)
    mob.positions(g, 9)
    with pytest.raises(ValueError):
        mob.positions(g, 8)
