"""Per-user pull congestion control.

Each user keeps a request queue Q (bits requested but not yet delivered) and
a virtual queue used to steer the long-run requested quality. Chunk quality is
chosen by minimizing Q * bits - theta * quality over the mode ladder; the
auxiliary variable gamma maximizes V * utility(gamma) - theta * gamma over the
quality range.

Users request in lockstep: at every chunk slot the engine asks each user for
its next chunk, so a request takes the catalog index and keeps no session
state here. Chunks are requested in session order and consumed head-of-line,
so the queue keeps only the outstanding run head .. requested_chunks - 1: a
chunk completes once the consumed bits reach its cumulative end, and leaves
as a count (head) and a running quality sum, so the state stays bounded.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigError
from .video import QualityRateProfile

GOLDEN_SECTION_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class RequestQueueState:
    """Request-queue backlog, virtual queue, and the head-of-line chunk cursor.

    chunks holds (cumulative requested bits at its end, quality) per outstanding
    chunk; head is the first chunk not fully consumed, and delivered_quality
    sums the qualities of the chunks before head in order. Cumulative counters make
    the conservation identities checkable at any slot (see broken_identity).
    """

    q: float = 0.0
    theta: float = 0.0
    chunks: deque[tuple[int, float]] = field(default_factory=deque)
    head: int = 0
    requested_chunks: int = 0
    requested_bits: int = 0
    consumed_bits: int = 0
    discarded_bits: int = 0
    delivered_bits: int = 0
    delivered_quality: float = 0.0

    def broken_identity(self) -> str | None:
        """The first conservation identity that does not hold, or None if all do."""
        if self.requested_bits != (self.chunks[-1][0] if self.chunks else self.consumed_bits):
            return "requested != last chunk end"
        if (self.head + len(self.chunks) != self.requested_chunks
                or (self.chunks and self.chunks[0][0] <= self.consumed_bits)):
            return "head != first chunk not fully consumed"
        if self.requested_bits != self.consumed_bits + self.q:
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
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 1.0:
        return math.log(x)
    return x ** (1.0 - alpha) / (1.0 - alpha)


def select_mode(qs: RequestQueueState, profile: QualityRateProfile, i: int) -> int:
    """Mode minimizing q * size - theta * quality over chunk i's ladder; ties to the lowest mode."""
    best_mode = 1
    best_score = math.inf
    for m, (size, quality) in enumerate(zip(profile.size_bits[i], profile.quality[i]), start=1):
        score = qs.q * size - qs.theta * quality
        if score < best_score:
            best_score = score
            best_mode = m
    return best_mode


def request_chunk(qs: RequestQueueState, profile: QualityRateProfile, i: int) -> int:
    """Request catalog chunk i as the session's next chunk; returns the chosen mode.

    The requested bits join the queue at once; delivery happens over later
    drain calls.
    """
    m = select_mode(qs, profile, i)
    bits = profile.size_bits[i][m - 1]
    qs.q += bits
    qs.requested_bits += bits
    qs.requested_chunks += 1
    qs.chunks.append((qs.requested_bits, profile.quality[i][m - 1]))
    return m


def drain_bits(qs: RequestQueueState, delivered_bits: int) -> list[int]:
    """Consume delivered bits head-of-line; returns the chunk ids completed now.

    Completed chunks leave, their qualities added to delivered_quality in order.
    Bits beyond the backlog are discarded (Q never goes negative) and accounted.
    """
    if delivered_bits < 0:
        raise ValueError("delivered bits must be nonnegative")
    qs.delivered_bits += delivered_bits
    eat = min(delivered_bits, qs.requested_bits - qs.consumed_bits)
    qs.q -= eat
    qs.consumed_bits += eat
    qs.discarded_bits += delivered_bits - eat
    first, chunks = qs.head, qs.chunks
    while chunks and chunks[0][0] <= qs.consumed_bits:
        qs.delivered_quality += chunks.popleft()[1]
        qs.head += 1
    return list(range(first, qs.head))


def optimize_gamma(theta: float, cfg: UtilityConfig, d_min: float, d_max: float) -> float:
    """Maximize v * utility(gamma) - theta * gamma over [d_min, d_max].

    alpha=1 admits the closed form clamp(v / theta); other alphas use a
    golden-section search (the objective is concave).
    """
    if not d_min < d_max:
        raise ConfigError("d_min must be < d_max")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0:
        return d_max
    if cfg.alpha == 1.0:
        return min(max(cfg.v / theta, d_min), d_max)

    def objective(g: float) -> float:
        return cfg.v * utility(cfg.alpha, g) - theta * g

    lo, hi = d_min, d_max
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > GOLDEN_SECTION_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = objective(x2)
    # Boundary optima are common (the clamp); snap to an endpoint when it wins.
    return max((0.5 * (lo + hi), d_min, d_max), key=objective)


def update_virtual_queue(qs: RequestQueueState, gamma: float, delivered_quality: float) -> float:
    """Advance theta by gamma minus the quality requested this slot, floored at zero."""
    qs.theta = max(qs.theta + gamma - delivered_quality, 0.0)
    return qs.theta
