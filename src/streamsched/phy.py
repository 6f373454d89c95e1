"""Deterministic MU-MIMO rate model under channel hardening.

With many antennas and zero-forcing beamforming, a scheduled user's rate
depends only on its large-scale SINR and on how many streams the helper
multiplexes, not on which other users share the slot:

    rate = log2(1 + ((M - S + 1) / S) * sinr)   bits per channel symbol

where M is the antenna count and S the active subset size. Power is split
equally across streams; interference is counted from all other helpers at
full power.

This module holds the SINR of the (H, N) gains from `topology.topology_state`,
the only channel state. The rate formula itself is evaluated in exactly one
place, `scheduler.helper_rate_rows`, and every slot's bit budgets come from the
tables `scheduler.helper_tables` builds from those rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .topology import NetworkGraph

# LTE-like slot: 84 symbols per resource block x 100 blocks x 20 per 10 ms frame.
DEFAULT_SYMBOLS_PER_SLOT = 84 * 100 * 20


@dataclass(frozen=True)
class MimoConfig:
    antennas: int = 40
    s_max: int = 10
    symbols_per_slot: int = DEFAULT_SYMBOLS_PER_SLOT

    def __post_init__(self) -> None:
        if self.antennas < 1:
            raise ConfigError("mimo.m: antennas must be positive")
        if not 1 <= self.s_max <= self.antennas:
            raise ConfigError("mimo.s_max must lie in [1, mimo.m]")
        # At most 2**40 symbols keep every budget of a rate under 1024 bits/symbol below 2**50,
        # exact as an int64 and as a float.
        if not 1 <= self.symbols_per_slot <= 2**40:
            raise ConfigError("mimo.symbols_per_slot must lie in [1, 2**40]")


def sinr_matrix(gains: np.ndarray, graph: NetworkGraph) -> np.ndarray:
    """All-pairs large-scale SINR [h, u] from the (H, N) gains; every other helper interferes at full power."""
    received = graph.tx_power[:, None] * gains
    total = received.sum(axis=0)
    return received / (1.0 + total - received)
