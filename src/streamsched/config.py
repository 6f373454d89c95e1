"""Simulation configuration: defaults, flat key-value files, dotted overrides.

The dataclasses below declare every default; `SimConfig()` is the default
configuration. A config file and --set overrides give `key = value` settings,
and `build_config` parses the given keys into typed dataclasses and validates
them. The canonical form of a configuration is its full flat string map
(`flatten_config`), and hashing it gives a stable provenance tag for output
files.

Each key is the dotted path of a dataclass field (`topology.side_m` is
`SimConfig.topology.side_m`), with no exception, and its string codec
follows the field's type.
"""
from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field, is_dataclass
from typing import Callable, Iterable, NamedTuple, get_type_hints

from .client import UtilityConfig
from .errors import ConfigError
from .phy import MimoConfig
from .topology import DEFAULT_TX_POWER, PATHLOSS_EXPONENT, PATHLOSS_REF_DISTANCE_M
from .video import DEFAULT_D_MAX, DEFAULT_D_MIN, DEFAULT_SEGMENTS

POLICIES = ("dpp", "baseline")
RECEIVERS = ("advanced", "dumb")

Segments = tuple[tuple[int, int, float], ...]

# No larger population fits in memory or could be simulated; numpy refuses Poisson means above about 9.2e18.
MAX_MEAN_USERS = 10**7
# Every slot runs in Python: about 18 µs for one user on one helper and 0.5 ms at paper scale (2-core x86
# VM), so 10**7 slots take minutes to hours. Past that, a huge n or drain limit would hang, not exit; the
# paper default runs 60,000 slots.
MAX_RUN_SLOTS = 10**7
# topology.pathloss_gain's (d / d0) ** eta overflows a float past this distance, about 4.7e89 m. A torus
# distance is at most side_m / sqrt(2), so no side up to it makes a gain overflow.
MAX_SIDE_M = PATHLOSS_REF_DISTANCE_M * sys.float_info.max ** (1 / PATHLOSS_EXPONENT)
# A user's theta grows by less than video.d_max per chunk slot, so under this bound (about 1.3e147) it stays
# below sqrt(float max) over MAX_RUN_SLOTS slots: theta times a quality, theta and quality sums over every
# slot and user, and the quality ladders all stay finite.
MAX_D_MAX = math.sqrt(sys.float_info.max) / MAX_RUN_SLOTS


@dataclass(frozen=True)
class TopologySpec:
    side_m: float = 80.0
    helper_layout: str = "center+quarters"
    user_layout: str = "poisson"
    tx_power: float = DEFAULT_TX_POWER
    mean_users: float = 500.0
    hotspot_side_m: float = 80.0 / 3.0
    hotspot_ratio: float = 10.0
    edge_rule: str = "all"
    edge_threshold: float = 0.0
    mobility: str = "static"
    waypoint_speed: float = 0.0

    def __post_init__(self) -> None:
        # The Poisson intensities divide by the area, so side_m**2 must not underflow.
        if not (0 < self.side_m <= MAX_SIDE_M and self.side_m * self.side_m > 0):
            raise ConfigError(f"topology.side_m must lie in (0, {MAX_SIDE_M:.3g}], with a positive square")
        if not 0 < self.hotspot_side_m <= self.side_m:
            raise ConfigError("topology.hotspot_side_m must be positive and fit in the region")
        # The intensities divide by out_area + hotspot_ratio * hotspot_side_m**2, which must stay finite.
        if not (self.hotspot_ratio > 0 and self.side_m**2 + self.hotspot_ratio * self.hotspot_side_m**2 < math.inf):
            raise ConfigError("topology.hotspot_ratio must be positive, and its weighted hotspot area finite")
        if not 0 <= self.mean_users <= MAX_MEAN_USERS:
            raise ConfigError(f"topology.mean_users must lie in [0, {MAX_MEAN_USERS}]")
        if self.tx_power <= 0:
            raise ConfigError("topology.tx_power must be positive")
        if self.edge_rule not in ("all", "snr"):
            raise ConfigError("topology.edge_rule must be 'all' or 'snr'")
        if self.mobility not in ("static", "waypoint"):
            raise ConfigError("topology.mobility must be 'static' or 'waypoint'")
        if self.mobility == "waypoint" and self.waypoint_speed <= 0:
            raise ConfigError("topology.waypoint_speed must be positive under waypoint mobility")


@dataclass(frozen=True)
class VideoSpec:
    # d_min/d_max are placeholder quality bounds; the experiment's source clips
    # publish no per-mode quality scores, so only ordering and range matter.
    segments: Segments = DEFAULT_SEGMENTS
    d_min: float = DEFAULT_D_MIN
    d_max: float = DEFAULT_D_MAX
    sigma: float = 0.2
    ladder_ratio: float = 0.67

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigError("video.segments must not be empty")
        for seg in self.segments:
            chunks, modes, kbps = seg
            if chunks < 1 or modes < 1 or kbps <= 0:
                raise ConfigError(f"video.segments: invalid segment {seg}")
        if not 0 < self.d_min < self.d_max:
            raise ConfigError("video.d_min must be positive and < video.d_max")
        if self.d_max > MAX_D_MAX:
            raise ConfigError(f"video.d_max must not exceed {MAX_D_MAX:.3g}")
        if self.sigma < 0:
            raise ConfigError("video.sigma must be nonnegative")
        if not 0 < self.ladder_ratio < 1:
            raise ConfigError("video.ladder_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class PlaybackSpec:
    window_slots: int = 20
    rho: float = 3.0

    def __post_init__(self) -> None:
        if self.window_slots < 1:
            raise ConfigError("playback.window_slots must be positive")
        if self.rho <= 0:
            raise ConfigError("playback.rho must be positive")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    policy: str = "dpp"
    receiver: str = "advanced"
    n: int = 50
    session_chunks: int = 1000
    drain_limit_slots: int = 0  # 0 means the default of 200 * n
    t_gop_seconds: float = 0.5
    slot_seconds: float = 0.01
    scheduler_staleness: int = 0
    utility: UtilityConfig = field(default_factory=UtilityConfig)
    mimo: MimoConfig = field(default_factory=MimoConfig)
    topology: TopologySpec = field(default_factory=TopologySpec)
    video: VideoSpec = field(default_factory=VideoSpec)
    playback: PlaybackSpec = field(default_factory=PlaybackSpec)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}")
        if self.receiver not in RECEIVERS:
            raise ConfigError(f"receiver must be one of {RECEIVERS}")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.session_chunks < 1:
            raise ConfigError("session_chunks must be positive")
        if self.drain_limit_slots < 0:
            raise ConfigError("drain_limit_slots must be nonnegative")
        if self.t_gop_seconds <= 0 or self.slot_seconds <= 0:
            raise ConfigError("t_gop_seconds and slot_seconds must be positive")
        if not 0 <= self.scheduler_staleness < sys.maxsize:  # the engine's deque of staleness + 1 weights
            raise ConfigError(f"scheduler_staleness must lie in [0, {sys.maxsize})")
        if self.session_chunks * self.n + self.effective_drain_limit > MAX_RUN_SLOTS:
            raise ConfigError(f"session_chunks * n + drain_limit_slots (0 means 200 * n) must not exceed "
                              f"{MAX_RUN_SLOTS} slots")

    @property
    def effective_drain_limit(self) -> int:
        return self.drain_limit_slots if self.drain_limit_slots > 0 else 200 * self.n


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_segments(text: str) -> Segments:
    """Parse '200x8@631,200x4@3908,...' into (chunks, modes, kbps) triples."""
    segments = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            count_modes, kbps = part.split("@")
            count, modes = count_modes.lower().split("x")
            segments.append((int(count), int(modes), _finite_float(kbps)))
        except ValueError as exc:
            raise ConfigError(f"video.segments: cannot parse segment {part!r}") from exc
    if not segments:
        raise ConfigError("video.segments: empty segment list")
    return tuple(segments)


def _format_kbps(kbps: float) -> str:
    short = f"{kbps:g}"
    return short if float(short) == kbps else repr(kbps)


def _format_segments(segments: Segments) -> str:
    return ",".join(f"{c}x{m}@{_format_kbps(kbps)}" for c, m, kbps in segments)


# declared field type -> (parser from string, formatter to canonical string)
_CODECS = {
    int: (int, str),
    float: (_finite_float, repr),
    str: (str, str),
    Segments: (_parse_segments, _format_segments),
}


class _Key(NamedTuple):
    section: str | None
    name: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


def _key_table() -> tuple[dict[str, type], dict[str, _Key]]:
    """Sections (the dataclass-typed fields of SimConfig) and every key, in field order."""
    sections: dict[str, type] = {}
    keys: dict[str, _Key] = {}
    for top, top_type in get_type_hints(SimConfig).items():
        if not is_dataclass(top_type):
            keys[top] = _Key(None, top, *_CODECS[top_type])
            continue
        sections[top] = top_type
        for name, field_type in get_type_hints(top_type).items():
            keys[f"{top}.{name}"] = _Key(top, name, *_CODECS[field_type])
    return sections, keys


_SECTIONS, _KEYS = _key_table()


def flatten_config(cfg: SimConfig) -> dict[str, str]:
    flat = {}
    for key, spec in _KEYS.items():
        owner = cfg if spec.section is None else getattr(cfg, spec.section)
        flat[key] = spec.format(getattr(owner, spec.name))
    return flat


def build_config(flat: dict[str, str]) -> SimConfig:
    """Construct and validate a SimConfig from a flat string map.

    Only the given keys are parsed; every other field keeps its dataclass
    default. This is the one place an unknown key is rejected.
    """
    top: dict[str, object] = {}
    grouped: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    for key, raw in flat.items():
        spec = _KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown configuration key: {key!r}")
        try:
            value = spec.parse(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        (top if spec.section is None else grouped[spec.section])[spec.name] = value
    return SimConfig(**top, **{section: cls(**grouped[section]) for section, cls in _SECTIONS.items()})


def with_key(cfg: SimConfig, key: str, value: object) -> SimConfig:
    """cfg with one key set to str(value), rebuilt and validated."""
    return build_config({**flatten_config(cfg), key: str(value)})


def _pair(text: str, where: str) -> tuple[str, str]:
    """Split one 'key = value' setting; where (path:line or --set) names its source in an error."""
    key, sep, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not (sep and key and value):
        raise ConfigError(f"{where}: expected 'key = value', got {text.strip()!r}")
    return key, value


def parse_config_file(path: str) -> list[tuple[str, str]]:
    """Read UTF-8 'key = value' lines; '#' starts a comment, blank lines are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    settings = (line.split("#", 1)[0] for line in lines)
    return [_pair(text, f"{path}:{lineno}") for lineno, text in enumerate(settings, 1) if text.strip()]


def config_from_sources(
    config_path: str | None = None,
    overrides: Iterable[str] = (),
    seed: int | None = None,
) -> SimConfig:
    """Merge defaults <- config file <- --set overrides <- --seed; last one wins."""
    flat = dict(parse_config_file(config_path)) if config_path is not None else {}
    flat.update(_pair(text, "--set") for text in overrides)
    if seed is not None:
        flat["seed"] = str(seed)
    return build_config(flat)


def config_hash(cfg: SimConfig) -> str:
    """Stable 12-hex-digit digest of the canonical flat form."""
    flat = flatten_config(cfg)
    payload = "\n".join(f"{k}={flat[k]}" for k in sorted(flat))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
