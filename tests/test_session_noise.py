"""Per-session noise drawn in blocks: identical to scalar sampling.

:class:`~repro.workload.fleet.SessionNormals` takes ``K =
NOISE_BLOCK_FRAMES`` frames of normals from each session's generator at a
time.  These tests pin the contract that makes that invisible:

* every frame's draws equal one scalar ``rng.normal(0, std)`` per session,
  across block edges (frames K−1, K, K+1) and for a std = 0 session;
* the fleet stream's AR(1) innovations and the proposal noise equal the
  scalar stream and the scalar proposal model frame for frame;
* snapshots carry the drawn-ahead remainder, so a supervised run that
  checkpoints and crashes mid-block is byte-identical to an uninterrupted
  one, and a payload without the remainder (generator states only)
  restores bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentSetting
from repro.detection.fleet import propose_batch
from repro.detection.registry import build_detector
from repro.env.fleet import _FRAME_RESULT_ARRAY_FIELDS, BatchedInferenceEnvironment
from repro.errors import ConfigurationError, WorkloadError
from repro.faults import WorkerCrash
from repro.hardware.devices import build_device
from repro.runtime import run_supervised_scenario
from repro.runtime.fleet import make_fleet_environment, run_scenario
from repro.scenarios import build_scenario
from repro.workload.dataset import DatasetProfile, build_dataset
from repro.workload.fleet import NOISE_BLOCK_FRAMES, FleetFrameStream, SessionNormals
from repro.workload.generator import FrameStream

from tests.test_fleet_sharding import assert_traces_identical

K = NOISE_BLOCK_FRAMES
#: Enough frames to cross two block edges.
FRAMES = 2 * K + 2


def still_scene() -> DatasetProfile:
    """A dataset whose scene process has zero innovation std."""
    return DatasetProfile(
        name="still",
        image_scale=1.0,
        complexity_mean=40.0,
        complexity_std=0.0,
        complexity_min=0.0,
        complexity_max=100.0,
    )


def test_session_normals_equal_scalar_draws_across_block_edges():
    std = np.array([0.7, 0.0, 3.0, 1e-3])
    noise = SessionNormals([np.random.default_rng(10 + i) for i in range(4)], std)
    scalar = [np.random.default_rng(10 + i) for i in range(4)]
    for frame in range(FRAMES):
        row = noise.next()
        expected = [rng.normal(0.0, s) for rng, s in zip(scalar, std.tolist())]
        assert np.array_equal(row.view(np.int64), np.array(expected).view(np.int64)), frame
        if frame == K - 1:
            # One whole block consumed: the generators sit exactly where K
            # scalar calls leave them.
            for a, b in zip(noise.rngs, scalar):
                assert a.bit_generator.state == b.bit_generator.state


def test_session_normals_draw_nothing_until_asked():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    noise = SessionNormals([rng], 0.5)
    assert rng.bit_generator.state == before
    assert noise.state_dict()["pending"].shape == (0, 1)


def test_generators_must_be_distinct_objects():
    """Drawing ahead is invisible only if nothing else draws from a
    session's generator, so sharing one is refused."""
    rng = np.random.default_rng(0)
    with pytest.raises(WorkloadError):
        SessionNormals([rng, rng], 1.0)
    stream_rngs = [np.random.default_rng(i) for i in range(2)]
    stream = FleetFrameStream(build_dataset("kitti"), stream_rngs)
    device, detector = build_device("jetson-orin-nano"), build_detector("faster_rcnn")
    with pytest.raises(ConfigurationError):
        BatchedInferenceEnvironment(device, detector, stream, 400.0, rngs=stream_rngs[::-1])
    with pytest.raises(ConfigurationError):
        BatchedInferenceEnvironment(
            device, detector, [FrameStream(build_dataset("kitti"), rng) for rng in stream_rngs], 400.0
        )


def test_fleet_stream_matches_scalar_streams_across_block_edges():
    profiles = [build_dataset("kitti"), still_scene(), build_dataset("visdrone2019")]
    assert profiles[1].scene_process().innovation_std == 0.0
    fleet_stream = FleetFrameStream(
        profiles, [np.random.default_rng(70 + i) for i in range(3)]
    )
    scalar_streams = [
        FrameStream(profile, np.random.default_rng(70 + i))
        for i, profile in enumerate(profiles)
    ]
    for frame_index in range(FRAMES):
        batch = fleet_stream.next_frames()
        for i, stream in enumerate(scalar_streams):
            assert batch.scene_candidates[i] == stream.next_frame().scene_candidates, (
                frame_index,
                i,
            )


def test_propose_batch_matches_scalar_sampling_across_block_edges():
    detector = build_detector("faster_rcnn")
    assert detector.proposal_model.noise_std > 0
    candidates = np.random.default_rng(17).uniform(0.0, 500.0, size=5)
    noise = SessionNormals(
        [np.random.default_rng(100 + i) for i in range(5)],
        detector.proposal_model.noise_std,
    )
    scalar_rngs = [np.random.default_rng(100 + i) for i in range(5)]
    for frame in range(FRAMES):
        batch = propose_batch(detector, candidates, noise)
        for i in range(5):
            expected = detector.propose(float(candidates[i]), scalar_rngs[i])
            assert batch[i] == expected, (frame, i)


# ---------------------------------------------------------------------------
# Snapshots carry the remainder
# ---------------------------------------------------------------------------


def run_frames(environment, frames: int) -> list:
    results = []
    for _ in range(frames):
        environment.begin_frame()
        environment.run_first_stage()
        results.append(environment.run_second_stage())
    return results


def assert_results_identical(results_a, results_b) -> None:
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        for field in _FRAME_RESULT_ARRAY_FIELDS:
            left, right = np.asarray(getattr(a, field)), np.asarray(getattr(b, field))
            assert left.tobytes() == right.tobytes(), (a.index, field)


@pytest.mark.parametrize("split", [K - 1, K + 5])
def test_snapshot_mid_block_restores_bit_identically(split):
    setting = ExperimentSetting(seed=11, num_frames=FRAMES)
    reference = run_frames(make_fleet_environment(setting, 3), FRAMES)
    first = make_fleet_environment(setting, 3)
    head = run_frames(first, split)
    payload = first.state_dict()
    assert len(payload["pending_proposal_draws"]) == (-split) % K
    assert len(payload["stream"]["pending_innovations"]) == (-split) % K
    resumed = make_fleet_environment(setting, 3)
    resumed.load_state_dict(payload)
    assert_results_identical(head + run_frames(resumed, FRAMES - split), reference)


def test_payload_without_remainder_restores_bit_identically():
    """A snapshot holding only generator states — as taken before draws
    came in blocks — restores exactly: it has nothing drawn ahead."""
    setting = ExperimentSetting(seed=5, num_frames=FRAMES)
    n, split = 3, K + 7
    reference = run_frames(make_fleet_environment(setting, n), FRAMES)
    first = make_fleet_environment(setting, n)
    head = run_frames(first, split)
    payload = first.state_dict()

    # Generator states after exactly `split` scalar draws per session.
    process = build_dataset(setting.dataset).scene_process()
    noise_std = build_detector(setting.detector).proposal_model.noise_std
    stream_states, proposal_states = [], []
    for i in range(n):
        stream_rng = np.random.default_rng(setting.seed + i)
        stream_rng.normal(process.mean, process.stationary_std)
        proposal_rng = np.random.default_rng(setting.seed + i + 1)
        for _ in range(split):
            stream_rng.normal(0.0, process.innovation_std)
            proposal_rng.normal(0.0, noise_std)
        stream_states.append(stream_rng.bit_generator.state)
        proposal_states.append(proposal_rng.bit_generator.state)
    assert stream_states != payload["stream"]["rngs"]
    assert proposal_states != payload["rngs"]
    del payload["pending_proposal_draws"], payload["stream"]["pending_innovations"]
    payload["rngs"] = proposal_states
    payload["stream"]["rngs"] = stream_states

    resumed = make_fleet_environment(setting, n)
    resumed.load_state_dict(payload)
    assert_results_identical(head + run_frames(resumed, FRAMES - split), reference)


def test_supervised_crash_mid_block_is_byte_identical():
    """Checkpoints every 20 frames (not a multiple of K) and a crash at
    frame 45: the worker resumes from frame 40, 8 frames into a block.
    A two-stage detector, so both the scene innovations and the proposal
    noise reach the trace."""
    assert 20 % K and 40 % K and 40 // K == 45 // K
    spec = build_scenario("thermal-soak").with_overrides(num_frames=FRAMES, num_sessions=4)
    assert build_detector(spec.detector).is_two_stage
    reference = run_scenario(spec)
    recovered = run_supervised_scenario(
        spec, 2, checkpoint_every=20, crashes=(WorkerCrash(frame=45, shard=0),)
    )
    assert recovered.recovery.crashes_detected == 1
    assert_traces_identical(recovered.fleet_trace, reference.fleet_trace)
