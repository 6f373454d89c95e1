"""VBR video catalogs: per-chunk quality/size ladders and a synthetic generator.

A catalog stores, for every chunk of a file, the ladder of encoding modes
(mode 1 = fewest bits) with a quality score and a size in bits per mode.
Profiles are immutable, and `synth_catalog` makes them valid by construction;
nothing checks a ladder again. Readers index the rows directly: chunk i at
mode m is quality[i][m-1] and size_bits[i][m-1]. A session has no object of
its own; the engine maps its k-th chunk to catalog index
(start + k) % num_chunks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Default experiment catalog: four segments of 200 chunks each,
# (chunks, modes, mean kbps of the top mode).
DEFAULT_SEGMENTS = (
    (200, 8, 631.0),
    (200, 4, 3908.0),
    (200, 4, 6679.0),
    (200, 8, 556.0),
)

DEFAULT_D_MIN = 0.3
DEFAULT_D_MAX = 1.0


@dataclass(frozen=True)
class QualityRateProfile:
    """Per-chunk, per-mode quality and size table for one video file.

    quality[i][m-1] and size_bits[i][m-1] hold the values for chunk i at
    mode m (modes are 1-indexed). `synth_catalog` builds every profile a run
    uses and guarantees what readers rely on: a chunk's two rows have the
    same length, its sizes are ints >= 1 that strictly increase with mode,
    and its qualities never decrease and lie in [d_min, d_max]. The profile
    itself checks nothing.
    """

    quality: tuple[tuple[float, ...], ...]
    size_bits: tuple[tuple[int, ...], ...]

    @property
    def num_chunks(self) -> int:
        return len(self.quality)


def synth_catalog(
    segments: Sequence[tuple[int, int, float]] = DEFAULT_SEGMENTS,
    seed: int = 0,
    *,
    d_min: float = DEFAULT_D_MIN,
    d_max: float = DEFAULT_D_MAX,
    sigma: float = 0.2,
    ladder_ratio: float = 0.67,
    t_gop_seconds: float = 0.5,
) -> QualityRateProfile:
    """Generate a VBR catalog from segment descriptors (chunks, modes, mean kbps).

    The mean bitrate of a segment is the target for its top (reference) mode;
    lower modes follow a geometric ladder with the given ratio. Per-chunk sizes
    jitter around the segment mean with a lognormal multiplier of unit mean
    (sigma on the log scale), and quality maps from size through a log-shaped
    concave curve spanning [d_min, d_max]. Deterministic for a fixed seed.
    The arguments must satisfy VideoSpec's rules; they are not checked again.

    Every chunk's ladder is valid by construction: both rows have the
    segment's mode count; sizes are ints >= 1 that strictly increase with
    mode (each rung is at least the one below plus 1); qualities never
    decrease and lie in [d_min, d_max] (they grow with log(size / mode 1's
    size) from d_min, and every rung is clamped at d_max).
    """
    rng = np.random.default_rng(seed)

    quality_rows: list[tuple[float, ...]] = []
    size_rows: list[tuple[int, ...]] = []
    for n_chunks, n_modes, mean_kbps in segments:
        mean_bits = mean_kbps * 1e3 * t_gop_seconds
        # Unit-mean lognormal multipliers model chunk-to-chunk VBR variation;
        # sigma = 0 draws only +-0.0, so every multiplier is exactly 1.
        mults = np.exp(rng.normal(-0.5 * sigma * sigma, sigma, size=n_chunks))
        factors = [ladder_ratio ** (n_modes - m) for m in range(1, n_modes + 1)]
        for mult in mults.tolist():
            ref = mean_bits * mult
            sizes: list[int] = []
            prev = 0
            for factor in factors:
                prev = max(int(round(ref * factor)), prev + 1)
                sizes.append(prev)
            size_rows.append(tuple(sizes))
            quality_rows.append(_quality_ladder(sizes, d_min, d_max))

    return QualityRateProfile(quality=tuple(quality_rows), size_bits=tuple(size_rows))


def _quality_ladder(sizes: Sequence[int], d_min: float, d_max: float) -> tuple[float, ...]:
    if len(sizes) == 1:
        return (d_max,)
    span = math.log(sizes[-1] / sizes[0])
    # Clamp every rung: the top mode's d_min + (d_max - d_min) * span / span can round one ulp above d_max.
    # A conditional, not min(): a builtin call per rung would cost a third of the ladder.
    return tuple([q if (q := d_min + (d_max - d_min) * math.log(s / sizes[0]) / span) < d_max else d_max
                  for s in sizes])

