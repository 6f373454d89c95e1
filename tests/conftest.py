import numpy as np
import pytest

from streamsched import topology as topo


def make_graph(gains, tx_powers=None, antennas=8, max_streams=None, adjacency=None):
    """Graph + state straight from a gain matrix; positions are dummies."""
    gains = np.asarray(gains, dtype=float)
    n_h, n_u = gains.shape
    if tx_powers is None:
        tx_powers = [20.0] * n_h
    helpers = tuple(
        topo.Helper(id=h, x=0.0, y=0.0, antennas=antennas,
                    max_streams=antennas if max_streams is None else max_streams,
                    tx_power=float(tx_powers[h]))
        for h in range(n_h)
    )
    users = tuple(topo.UserNode(id=u, x=0.0, y=0.0) for u in range(n_u))
    if adjacency is None:
        adjacency = np.ones((n_h, n_u), dtype=bool)
    graph = topo.NetworkGraph(helpers=helpers, users=users, side=100.0,
                              adjacency=np.asarray(adjacency, dtype=bool))
    state = topo.TopologyState(gains=gains, t=0)
    return graph, state


@pytest.fixture
def single_link():
    """One helper, one user, unit gain."""
    return make_graph([[1.0]])
