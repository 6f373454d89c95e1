"""Per-user pull congestion control.

Each user has a request queue Q (bits requested but not yet delivered) and a
virtual queue theta that steers the long-run requested quality. Both are
float vectors over all users owned by `engine.RunState` (`q` and `theta`):
the max-weight scheduler reads the whole backlog each slot and the result
averages both, so they are the only copy of that state. Chunk quality is
chosen by minimizing Q * bits - theta * quality over the mode ladder; the
auxiliary variable gamma maximizes V * utility(gamma) - theta * gamma over the
quality range. The functions here still act on one user at a time, taking
that user's Q and theta as scalars, because the benchmark tracer counts them
by name (ROADMAP item 1 re-keys it).

Users request in lockstep: at every chunk slot the engine asks each user for
its next chunk, so a request takes the catalog index and keeps no session
state here. Chunks are requested in session order and consumed head-of-line,
so the chunk ledger (`RequestQueueState`) keeps only the outstanding run
head .. requested_chunks - 1: a chunk completes once the consumed bits reach
its cumulative end, and leaves as a count (head) and a running quality sum,
so the state stays bounded.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .video import QualityRateProfile

@dataclass
class RequestQueueState:
    """One user's chunk ledger: the head-of-line cursor and cumulative bit counters.

    chunks holds (cumulative requested bits at its end, quality) per outstanding
    chunk; head is the first chunk not fully consumed, and delivered_quality
    sums the qualities of the chunks before head in order. The backlog Q and
    the virtual queue are not kept here but in `engine.RunState`'s vectors;
    the cumulative counters make the conservation identities, the backlog's
    included, checkable at any slot (see broken_identity).
    """

    chunks: deque[tuple[int, float]] = field(default_factory=deque)
    head: int = 0
    requested_chunks: int = 0
    requested_bits: int = 0
    consumed_bits: int = 0
    discarded_bits: int = 0
    delivered_bits: int = 0
    delivered_quality: float = 0.0

    def broken_identity(self, q: float) -> str | None:
        """The first conservation identity that does not hold with backlog q, or None if all do."""
        if self.requested_bits != (self.chunks[-1][0] if self.chunks else self.consumed_bits):
            return "requested != last chunk end"
        if (self.head + len(self.chunks) != self.requested_chunks
                or (self.chunks and self.chunks[0][0] <= self.consumed_bits)):
            return "head != first chunk not fully consumed"
        if self.requested_bits != self.consumed_bits + q:
            return "requested != consumed + residual"
        if self.delivered_bits != self.consumed_bits + self.discarded_bits:
            return "delivered != consumed + discarded"
        return None


@dataclass(frozen=True)
class UtilityConfig:
    alpha: float = 1.0
    v: float = 2e14

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ConfigError("utility.alpha must be nonnegative")
        if self.v <= 0:
            raise ConfigError("utility.v must be positive")


def utility(alpha: float, x: float) -> float:
    """Fairness utility: log for alpha=1, power form otherwise."""
    if x <= 0:
        raise ValueError(f"utility argument must be positive (got {x})")
    if alpha == 1.0:
        return math.log(x)
    return x ** (1.0 - alpha) / (1.0 - alpha)


def select_mode(q: float, theta: float, profile: QualityRateProfile, i: int) -> int:
    """Mode minimizing q * size - theta * quality over chunk i's ladder; ties to the lowest mode."""
    best_mode = 1
    best_score = math.inf
    for m, (size, quality) in enumerate(zip(profile.size_bits[i], profile.quality[i]), start=1):
        score = q * size - theta * quality
        if score < best_score:
            best_score = score
            best_mode = m
    return best_mode


def request_chunk(qs: RequestQueueState, q: float, theta: float, profile: QualityRateProfile, i: int) -> int:
    """Request catalog chunk i as the session's next chunk, chosen at backlog q and virtual queue theta.

    Returns the chosen mode. The chunk joins the ledger at once, and the
    caller adds its bits to the backlog; delivery happens over later drains.
    """
    m = select_mode(q, theta, profile, i)
    bits = profile.size_bits[i][m - 1]
    qs.requested_bits += bits
    qs.requested_chunks += 1
    qs.chunks.append((qs.requested_bits, profile.quality[i][m - 1]))
    return m


def drain_bits(qs: RequestQueueState, delivered_bits: int) -> list[int]:
    """Consume delivered bits head-of-line; returns the chunk ids completed now.

    Completed chunks leave, their qualities added to delivered_quality in order.
    Bits beyond the outstanding ones are discarded and accounted; the backlog
    itself drains through drain_backlog.
    """
    if delivered_bits < 0:
        raise ValueError("delivered bits must be nonnegative")
    qs.delivered_bits += delivered_bits
    eat = min(delivered_bits, qs.requested_bits - qs.consumed_bits)
    qs.consumed_bits += eat
    qs.discarded_bits += delivered_bits - eat
    first, chunks = qs.head, qs.chunks
    while chunks and chunks[0][0] <= qs.consumed_bits:
        qs.delivered_quality += chunks.popleft()[1]
        qs.head += 1
    return list(range(first, qs.head))


def drain_backlog(q: np.ndarray, users: np.ndarray, delivered_bits: np.ndarray) -> None:
    """Take each listed user's delivered bits off its backlog in q, in place; Q never goes negative.

    Backlogs and bits are integers below 2**53, so the float arithmetic is exact.
    """
    q[users] -= np.minimum(delivered_bits, q[users])


def optimize_gamma(theta: float, cfg: UtilityConfig, d_min: float, d_max: float) -> float:
    """Maximize v * utility(gamma) - theta * gamma over [d_min, d_max].

    The objective is concave, so for every alpha > 0 the maximizer is the
    stationary point (v / theta) ** (1 / alpha) clamped to the range; linear
    utility (alpha=0) takes an endpoint. theta >= 0 and 0 < d_min < d_max
    hold: update_virtual_queue and VideoSpec ensure them.
    """
    if theta == 0.0:
        return d_max
    if cfg.alpha == 0.0:
        return d_max if cfg.v > theta else d_min
    try:
        stationary = (cfg.v / theta) ** (1.0 / cfg.alpha)
    except OverflowError:  # a stationary point beyond the float range lies above d_max
        return d_max
    return min(max(stationary, d_min), d_max)


def update_virtual_queue(theta: float, gamma: float, requested_quality: float) -> float:
    """The next theta: theta plus gamma minus the quality requested this slot, floored at zero."""
    return max(theta + gamma - requested_quality, 0.0)
