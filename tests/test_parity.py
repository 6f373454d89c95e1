"""Parity matrix: pinned digests of every result component over a spread of configs.

Each config is a base crossed with policy (dpp, baseline), receiver
(advanced, dumb) and mobility (static, waypoint), run with traces on and
every invariant checked. Each component of the result has its own pin:
the run-level fields, the per-user fields and each trace table. A change
that moves results shows which components of which configs moved.

A change that moves results on purpose re-pins only the entries it names.
`python tests/test_parity.py` prints the digests of the current code in the
layout of parity_digests.json.
"""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import streamsched
from streamsched.config import build_config
from streamsched.engine import run

PINS_PATH = os.path.join(os.path.dirname(__file__), "parity_digests.json")

BASES = {
    # Every user has an edge to every helper; max-weight reads weights three slots old.
    "u25": {"topology.mean_users": "25", "mimo.m": "10", "mimo.s_max": "4", "n": "7",
            "scheduler_staleness": "3"},
    # Overloaded: the drain limit stops the run with backlog left. A sigma = 0 catalog of three segments.
    "u80": {"topology.mean_users": "80", "mimo.m": "6", "mimo.s_max": "2", "drain_limit_slots": "100",
            "video.segments": "4x3@800,4x2@2000,4x4@300", "video.sigma": "0"},
    # snr edges: every neighbourhood (36 to 39 users) is smaller than s_max.
    "snr": {"topology.mean_users": "40", "topology.edge_rule": "snr", "topology.edge_threshold": "12",
            "mimo.m": "60", "mimo.s_max": "60"},
    # The helper at 40:2 has no edge.
    "edgeless": {"topology.helper_layout": "20:40;60:40;40:2",
                 "topology.user_layout": "15:40;25:38;55:40;65:42;35:42;45:40",
                 "topology.edge_rule": "snr", "topology.edge_threshold": "12", "mimo.m": "8", "mimo.s_max": "3"},
}
SHARED = {"n": "5", "session_chunks": "12"}
WAYPOINT = {"topology.mobility": "waypoint", "topology.waypoint_speed": "0.5"}


def matrix():
    """Config name -> flat settings, in a fixed order."""
    configs = {}
    for base, settings in BASES.items():
        for policy in ("dpp", "baseline"):
            for receiver in ("advanced", "dumb"):
                for mobility in ("static", "waypoint"):
                    flat = {**SHARED, **settings, "policy": policy, "receiver": receiver}
                    if mobility == "waypoint":
                        flat.update(WAYPOINT)
                    configs[f"{base}-{policy}-{receiver}-{mobility}"] = flat
    return configs


CONFIGS = matrix()


def component_digests(flat):
    """sha256 of the repr of each result component for one traced, checked run."""
    res = run(build_config(flat), collect_traces=True, check_invariants=True)
    parts = {"run": dataclasses.replace(res, users=(), traces=None), "users": res.users}
    parts.update((f"trace_{name}", rows) for name, rows in res.traces.items())
    return {name: hashlib.sha256(repr(part).encode()).hexdigest() for name, part in parts.items()}


@pytest.mark.parametrize("name", CONFIGS)
def test_result_components_match_pins(name):
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)[name]
    flat = CONFIGS[name]
    digests = component_digests(flat)
    moved = sorted(part for part in pinned.keys() | digests.keys() if pinned.get(part) != digests.get(part))
    assert not moved, f"{name} {flat}: moved components {moved}"


# numpy picks its contiguous loops by CPU feature: with AVX512, np.log2 in the rate tables differs from
# libm's log2 in the last bit on some entries. The pins must hold without those loops too; a CPU that lacks
# the features runs the same loops either way, and numpy ignores disabling a feature it was not built for.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_pins_hold_without_avx512_dispatch():
    package_root = os.path.dirname(os.path.dirname(streamsched.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(PINS_PATH) as fh:
        pinned = json.load(fh)
    digests = json.loads(proc.stdout)
    moved = sorted(name for name in pinned.keys() | digests.keys() if pinned.get(name) != digests.get(name))
    assert not moved, f"configs whose digests moved without AVX512 loops: {moved}"


if __name__ == "__main__":
    print(json.dumps({name: component_digests(flat) for name, flat in CONFIGS.items()}, indent=1))
