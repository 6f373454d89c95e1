"""Playback-buffer simulation at the video-slot time scale.

Chunks arrive at video-slot granularity (a chunk completed anywhere inside a
video slot counts at that slot's end), the buffer drains one chunk per slot
while playing, and playback starts once the buffer crosses rho times the
sliding-window maximum observed delivery delay. A stall re-arms the same
threshold rule with a freshly estimated delay. Chunks arrive in session
order, so a player keeps counts and a delay sum, not a per-chunk record.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

PREBUFFERING = "prebuffering"
PLAYING = "playing"
REBUFFERING = "rebuffering"
FINISHED = "finished"


@dataclass
class PlaybackState:
    """Per-user playback buffer, delay bookkeeping, and phase counters."""

    total_chunks: int
    window_size: int = 20
    rho: float = 3.0
    phase: str = PREBUFFERING
    arrived: int = 0
    delay_sum: int = 0
    t_start: int | None = None
    stall_count: int = 0
    stall_slots: int = 0
    prebuffer_slots: int = 0
    consumed_count: int = 0
    last_slot: int = 0
    e_last: float = 1.0
    recent: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.total_chunks < 1:
            raise ValueError("total_chunks must be positive")
        if self.window_size < 1:
            raise ValueError("window_size must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    @property
    def psi(self) -> int:
        return self.arrived - self.consumed_count  # chunks buffered


@dataclass(frozen=True)
class QoeMetrics:
    average_quality: float
    average_delay: float
    buffering_percent: float
    stall_count: int
    prebuffer_slots: int
    t_start: int | None
    delivered_chunks: int


def record_arrivals(ps: PlaybackState, completed_chunks: Sequence[int], i: int) -> None:
    """Credit chunks completed during video slot i, each the next id due, to the buffer and delay sum."""
    for k in completed_chunks:
        if k != ps.arrived:
            raise RuntimeError(f"chunk {k} arrived out of order; chunk {ps.arrived} is due")
        w = i - k
        if w < 1:
            raise RuntimeError(f"chunk {k} arrived at slot {i} before it could be requested")
        ps.arrived += 1
        ps.delay_sum += w
        ps.recent.append((i, w))


def window_max_delay(ps: PlaybackState, i: int) -> float:
    """Maximum delay among chunks that arrived in the last window_size video slots.

    An empty window carries the previous estimate forward (initially 1).
    """
    if i < 1:
        raise ValueError("video slots are 1-indexed")
    cutoff = i - ps.window_size + 1
    while ps.recent and ps.recent[0][0] < cutoff:
        ps.recent.popleft()
    in_window = [w for (a, w) in ps.recent if a <= i]
    if in_window:
        ps.e_last = float(max(in_window))
    return ps.e_last


def playback_step(ps: PlaybackState, i: int) -> list[str]:
    """Advance one video slot (after record_arrivals); returns event labels.

    Order within the slot: arrivals were applied first, then the start/resume
    threshold is checked, then one chunk is consumed if playing. The slot on
    which the threshold is crossed still counts as buffering; consumption
    begins the following slot.
    """
    if i != ps.last_slot + 1:
        raise RuntimeError(f"playback_step expects slot {ps.last_slot + 1}, got {i}")
    ps.last_slot = i
    if ps.phase == FINISHED:
        return []
    events: list[str] = []
    e_i = window_max_delay(ps, i)
    all_arrived = ps.arrived >= ps.total_chunks

    if ps.phase == PREBUFFERING:
        ps.prebuffer_slots += 1
        if ps.psi >= ps.rho * e_i or (all_arrived and ps.psi > 0):
            ps.t_start = i
            ps.phase = PLAYING
            events.append("start")
    elif ps.phase == REBUFFERING:
        ps.stall_slots += 1
        if ps.psi >= ps.rho * e_i or (all_arrived and ps.psi > 0):
            ps.phase = PLAYING
            events.append("resume")
    elif ps.phase == PLAYING:
        if ps.psi > 0:
            ps.consumed_count += 1
            if ps.consumed_count >= ps.total_chunks:
                ps.phase = FINISHED
                events.append("finished")
        else:
            ps.stall_count += 1
            ps.stall_slots += 1
            ps.phase = REBUFFERING
            events.append("stall")
    return events


def qoe_metrics(ps: PlaybackState, quality_sum: float) -> QoeMetrics:
    """Session summary from the delivered qualities' in-order sum: mean quality and delay, buffering share."""
    delivered = ps.arrived
    avg_quality = quality_sum / delivered if delivered else float("nan")
    avg_delay = ps.delay_sum / delivered if delivered else float("nan")
    total_slots = max(ps.last_slot, 1)
    buffering = 100.0 * (ps.prebuffer_slots + ps.stall_slots) / total_slots
    return QoeMetrics(
        average_quality=avg_quality,
        average_delay=avg_delay,
        buffering_percent=buffering,
        stall_count=ps.stall_count,
        prebuffer_slots=ps.prebuffer_slots,
        t_start=ps.t_start,
        delivered_chunks=delivered,
    )
