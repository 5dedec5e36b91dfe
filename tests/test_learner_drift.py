"""Numeric-drift guard for the per-session learners.

Pins, by content hash, the exact per-session ``EpisodeMetrics`` and the
loss and reward histories of a small Lotus + zTT fleet on the paper's
reference cell.  Any change to the learner numerics — the update rule, the
replay sampling order, the exploration draws, the kernels — changes the
hash, so a numeric change must be an explicit, reviewed update of the
pinned value, never a silent one.

The pinned digests were recorded with NumPy's bundled OpenBLAS on x86-64.
A BLAS whose GEMM kernels sum in a different order may legitimately need
a re-pin; the bit-identity suites (``test_fleet_equivalence``,
``test_rl_equivalence``, ``test_stacked_learner``) are host-independent.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

from repro.runtime.fleet import run_scenario
from repro.scenarios import FleetMember, FleetScenario, build_scenario

#: sha256 over every session's method, metrics, steady metrics, losses and
#: rewards (floats as ``float.hex``), in session order.
PINNED_DIGEST = "116b7af7fd342e8bcb0eb42fd75be35bc7c79fba1d49afa4b53ae1f8b6b1e416"


def _scenario(sessions: int = 6, frames: int = 120, seed: int = 0) -> FleetScenario:
    base = build_scenario("jetson-kitti-baseline").with_overrides(
        num_frames=frames, seed=seed
    )
    return FleetScenario(
        name="drift-lotus-ztt",
        members=(
            FleetMember(base.with_overrides(name="drift-lotus")),
            FleetMember(base.with_overrides(name="drift-ztt", method="ztt")),
        ),
        num_sessions=sessions,
    )


def _token(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def fleet_digest(result) -> str:
    """Content hash of every session's summaries and learner histories."""
    digest = hashlib.sha256()
    for assignment, session in zip(result.assignments, result.sessions):
        fields = (
            [assignment.spec.method]
            + list(astuple(session.metrics))
            + list(astuple(session.steady_metrics))
            + ["losses", len(session.losses)]
            + list(session.losses)
            + ["rewards", len(session.rewards)]
            + list(session.rewards)
        )
        digest.update(" ".join(_token(value) for value in fields).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_lotus_ztt_fleet_numerics_are_pinned():
    result = run_scenario(_scenario())
    methods = [assignment.spec.method for assignment in result.assignments]
    assert sorted(set(methods)) == ["lotus", "ztt"]
    assert all(len(session.losses) > 0 for session in result.sessions)
    assert fleet_digest(result) == PINNED_DIGEST
