import numpy as np

from streamsched import topology as topo


def make_graph(gains, tx_powers=None, antennas=8, adjacency=None):
    """Graph + state straight from a gain matrix; positions are dummies."""
    gains = np.asarray(gains, dtype=float)
    n_h, n_u = gains.shape
    if tx_powers is None:
        tx_powers = [20.0] * n_h
    if adjacency is None:
        adjacency = np.ones((n_h, n_u), dtype=bool)
    graph = topo.NetworkGraph(helpers=np.zeros((n_h, 2)), users=np.zeros((n_u, 2)),
                              tx_power=np.asarray(tx_powers, dtype=float), antennas=antennas, side=100.0,
                              adjacency=np.asarray(adjacency, dtype=bool))
    return graph, topo.TopologyState(gains)
