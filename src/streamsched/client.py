"""Per-user pull congestion control.

Each user has a request queue Q (bits requested but not yet delivered) and a
virtual queue theta that steers the long-run requested quality. Both are
float vectors over all users owned by `engine.RunState` (`q` and `theta`):
the max-weight scheduler reads the whole backlog each slot and the result
averages both, so they are the only copy of that state. Chunk quality is
chosen by minimizing Q * bits - theta * quality over the mode ladder; the
auxiliary variable gamma maximizes V * utility(gamma) - theta * gamma over the
quality range.

The request side acts on the whole population at once: `select_mode`,
`request_chunk`, `optimize_gamma` and `update_virtual_queue` take the (N,)
vectors and return (N,) arrays, one numpy pass per chunk slot, with the bits
of the per-user float arithmetic (each multiply and subtract is one IEEE
operation, as in Python). The drain side, `drain_bits`, still takes one
user's ledger at a time (ROADMAP item 3).

Users request in lockstep: at every chunk slot the engine asks each user for
its next chunk, so a request takes the catalog indices, keeps no session state
here and returns the (modes, bits, qualities) it appended to the ledgers.
Chunks are requested in session order and consumed head-of-line, so the chunk
ledger (`RequestQueueState`) keeps only the outstanding run head ..
requested_chunks - 1: a chunk completes once the consumed bits reach its
cumulative end, and leaves as a count (head) and a running quality sum, so
the state stays bounded.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

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


def select_mode(q: np.ndarray, theta: np.ndarray, profile: QualityRateProfile, chunks: np.ndarray) -> np.ndarray:
    """Each user's mode (1-based) minimizing q * size - theta * quality over its chunk's ladder.

    User u scores catalog chunk chunks[u] at backlog q[u] and virtual queue
    theta[u]. Ties go to the lowest mode (argmin's first minimum). Padded
    cells score +inf, set after the arithmetic, so none is ever chosen and no
    0 * inf is formed.
    """
    sizes, quality, padding = profile.ladders
    scores = q[:, None] * sizes.take(chunks, axis=0) - theta[:, None] * quality.take(chunks, axis=0)
    np.putmask(scores, padding.take(chunks, axis=0), np.inf)
    return scores.argmin(axis=1) + 1


def request_chunk(
    ledgers: Sequence[RequestQueueState], q: np.ndarray, theta: np.ndarray, profile: QualityRateProfile,
    chunks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Request catalog chunk chunks[u] as user u's next chunk, chosen at q[u] and theta[u], for every user.

    Returns the (modes, bits, qualities) arrays, the rungs appended to the
    ledgers. Each chunk joins its ledger at once, and the caller adds the
    bits to the backlogs; delivery happens over later drains.
    """
    modes = select_mode(q, theta, profile, chunks)
    sizes, quality, _ = profile.ladders
    cells = chunks * sizes.shape[1] + modes - 1  # each user's (chunk, mode) cell, row-major
    bits, qualities = sizes.take(cells), quality.take(cells)
    for qs, b, d in zip(ledgers, bits.tolist(), qualities.tolist()):
        qs.requested_bits += b
        qs.requested_chunks += 1
        qs.chunks.append((qs.requested_bits, d))
    return modes, bits, qualities


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


def drain_backlog(q: np.ndarray, users: Sequence[int], delivered_bits: Sequence[int]) -> None:
    """Take each listed user's delivered bits off its backlog in q, in place; Q never goes negative.

    Backlogs and bits are integers below 2**53, so the float arithmetic is exact
    and `qu - b if b < qu else 0.0` is `qu - min(b, qu)` bit for bit. The engine
    drains the few users a slot serves, so the loop touches only those.
    """
    for u, b in zip(users, delivered_bits):
        qu = q[u]
        q[u] = qu - b if b < qu else 0.0


def optimize_gamma(theta: np.ndarray, cfg: UtilityConfig, d_min: float, d_max: float) -> np.ndarray:
    """Each user's gamma maximizing v * utility(gamma) - theta[u] * gamma over [d_min, d_max].

    The objective is concave, so for every alpha > 0 the maximizer is the
    stationary point (v / theta) ** (1 / alpha) clamped to the range, and
    d_max where theta is 0; linear utility (alpha=0) takes an endpoint.
    theta >= 0 and 0 < d_min < d_max hold: update_virtual_queue and VideoSpec
    ensure them. The engine passes one range; arrays of per-user bounds
    broadcast against theta. At alpha = 1 the stationary point is one vector
    division, v / 0 = inf included. Any other exponent is Python's `**` per
    user: numpy's `power` differs from it in the last bit on some values, and
    which values depends on the CPU's SIMD level.
    """
    alpha, v = cfg.alpha, cfg.v
    if alpha == 0.0:
        return np.where(v > theta, d_max, d_min)
    if alpha == 1.0:
        with np.errstate(divide="ignore", over="ignore"):
            stationary = v / theta
    else:
        exponent = 1.0 / alpha
        stationary = np.array([math.inf if th == 0.0 else _power(v / th, exponent) for th in theta.tolist()])
    return np.minimum(np.maximum(stationary, d_min), d_max)


def _power(base: float, exponent: float) -> float:
    """base ** exponent; a result beyond the float range is inf, which the clamp takes to d_max."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def update_virtual_queue(theta: np.ndarray, gamma: np.ndarray, requested_quality: np.ndarray) -> np.ndarray:
    """The next thetas: theta plus gamma minus the quality requested this slot, floored at zero."""
    return np.maximum(theta + gamma - requested_quality, 0.0)
