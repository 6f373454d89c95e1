"""Span tracer that wraps streamsched's module functions from outside the package.

Each traced call records a span ``(id, name, parent, start_ns, end_ns)`` in an
in-memory integer array; the parent is the innermost traced call still open,
so self time (a span's duration minus its direct children's) is exact integer
arithmetic. A few boundaries also keep counts (users scheduled, bits drained,
chunks completed, stalls), measured where the work happens.

A function is patched wherever the package binds it: ``phy.sinr_matrix`` is
also imported by name into ``scheduler`` and ``engine``, so every module
attribute that *is* the original function gets the wrapper. Methods are
patched on their class. Nothing under ``src/`` is modified; ``uninstall``
restores every original binding.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "streamsched"
ROOT = "engine.run"

# The public calls the engine makes, grouped by the module (layer) that owns
# them. ``engine.run`` is the root span; its self time is the engine's own
# per-slot loop code.
TRACED = (
    "engine.run",
    "config.config_from_sources",
    "engine.build_network",
    "video.synth_catalog",
    "topology.topology_state",
    "topology.WaypointMobility.positions",
    "phy.sinr_matrix",
    "scheduler.helper_rate_rows",
    "scheduler.greedy_from_rates",
    "scheduler.RoundRobinState.next_user",
    "client.optimize_gamma",
    "client.request_chunk",
    "client.select_mode",
    "client.update_virtual_queue",
    "client.drain_bits",
    "playback.record_arrivals",
    "playback.playback_step",
    "engine.write_summary_csv",
    "engine.write_run_csv",
    "engine.write_trace_csvs",
)


def _count_subset(counts, args, out, token):
    counts["scheduler.users_scheduled"] += len(out[0])


def _count_round_robin(counts, args, out, token):
    if out is not None:
        counts["scheduler.users_scheduled"] += 1


def _consumed_before(args):
    return args[0].consumed_bits


def _count_drain(counts, args, out, consumed_before):
    counts["client.drain_bits.delivered_bits"] += args[1]
    counts["client.drain_bits.consumed_bits"] += args[0].consumed_bits - consumed_before
    counts["client.drain_bits.chunks_completed"] += len(out)


def _count_stalls(counts, args, out, token):
    counts["playback.stalls"] += out.count("stall")


# target -> (before hook returning a token, after hook); either may be None.
COUNTERS = {
    "scheduler.greedy_from_rates": (None, _count_subset),
    "scheduler.RoundRobinState.next_user": (None, _count_round_robin),
    "client.drain_bits": (_consumed_before, _count_drain),
    "playback.playback_step": (None, _count_stalls),
}

COUNT_NAMES = (
    "scheduler.users_scheduled",
    "client.drain_bits.delivered_bits",
    "client.drain_bits.consumed_bits",
    "client.drain_bits.chunks_completed",
    "playback.stalls",
)


class Tracer:
    """Context manager that traces ``targets`` while installed.

    It may be installed again after ``uninstall``; spans and counts keep
    accumulating, and ``summary(runs)`` reports per-run averages over all.
    """

    def __init__(self, targets=TRACED):
        if ROOT not in targets:
            raise ValueError(f"targets must include the root span {ROOT}")
        self.targets = tuple(targets)
        self.records = array("q")
        self.counts: Counter = Counter()
        self.warnings: list[str] = []
        self._missing: set[str] = set()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, target in enumerate(self.targets):
            owner, attr = self._resolve(target)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                if target not in self._missing:
                    self._missing.add(target)
                    self.warnings.append(f"{target} not found; reported as never called")
                continue
            wrapper = self._wrap(index, target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def summary(self, runs: int = 1) -> dict[str, float]:
        """Per-layer metrics averaged over ``runs`` traced runs.

        For each target other than the root: ``.calls``, ``.self_s``,
        ``.us_per_call`` and ``.share`` (self time over the root's wall time).
        The root reports ``engine.self_s`` and ``engine.self_share``. Targets
        never called report zeros and are named in ``self.warnings``.
        """
        spans = np.frombuffer(self.records, dtype=np.int64).reshape(-1, 5)
        order = np.argsort(spans[:, 0])
        spans = spans[order]
        names, parents = spans[:, 1], spans[:, 2]
        duration = spans[:, 4] - spans[:, 3]
        covered = np.zeros(len(spans), dtype=np.int64)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        self_ns = duration - covered
        width = len(self.targets)
        calls = np.bincount(names, minlength=width)
        self_total = np.bincount(names, weights=self_ns, minlength=width) / 1e9
        root = self.targets.index(ROOT)
        root_wall = float(duration[names == root].sum()) / 1e9

        def share(seconds: float) -> float:
            return seconds / root_wall if root_wall > 0 else 0.0

        metrics: dict[str, float] = {}
        for index, target in enumerate(self.targets):
            message = f"{target} was never called (calls=0)"
            if calls[index] == 0 and target not in self._missing and message not in self.warnings:
                self.warnings.append(message)
            if index == root:
                continue
            metrics[f"{target}.calls"] = int(calls[index]) // runs
            metrics[f"{target}.self_s"] = float(self_total[index]) / runs
            metrics[f"{target}.us_per_call"] = float(self_total[index]) / calls[index] * 1e6 if calls[index] else 0.0
            metrics[f"{target}.share"] = share(float(self_total[index]))
        metrics["engine.self_s"] = float(self_total[root]) / runs
        metrics["engine.self_share"] = share(float(self_total[root]))
        for name in COUNT_NAMES:
            metrics[name] = self.counts[name] // runs
        delivered = self.counts["client.drain_bits.delivered_bits"]
        consumed = self.counts["client.drain_bits.consumed_bits"]
        metrics["client.drain_bits.useful_ratio"] = consumed / delivered if delivered else 0.0
        return metrics

    def write(self, path: str) -> None:
        """Save every span as integer columns plus the name table (``.npz``)."""
        spans = np.frombuffer(self.records, dtype=np.int64).reshape(-1, 5)
        np.savez(path, id=spans[:, 0], name=spans[:, 1], parent=spans[:, 2],
                 start_ns=spans[:, 3], end_ns=spans[:, 4], names=np.array(self.targets))

    def _resolve(self, target: str):
        module_name, _, qualname = target.partition(".")
        owner: object | None = importlib.import_module(f"{PACKAGE}.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        return owner, attr

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _hook_failed(self, target: str, exc: Exception) -> None:
        message = f"{target}: counter failed ({type(exc).__name__}: {exc}); its counts are incomplete"
        if message not in self.warnings:
            self.warnings.append(message)

    def _wrap(self, index: int, target: str, fn):
        records, stack, ids, counts = self.records, self._stack, self._ids, self.counts
        before, after = COUNTERS.get(target, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None
            if before is not None:
                try:
                    token = before(args)
                except (AttributeError, TypeError, IndexError) as exc:
                    self._hook_failed(target, exc)
            span = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.extend((span, index, parent, start, end))
            if after is not None:
                try:
                    after(counts, args, out, token)
                except (AttributeError, TypeError, IndexError) as exc:
                    self._hook_failed(target, exc)
            return out

        return traced
