"""Stacked learners train exactly as the same learners do alone.

A fleet member's Lotus/zTT agents run as one stacked
:class:`~repro.rl.dqn.DqnLearner` (:class:`~repro.core.stacked.StackedAgents`).
Row ``i`` must stay bit-identical to the scalar agent of session ``i`` —
also when rows train on different frames (cool-down-forced actions skip
the training cadence), when a gradient clip fires on some rows only, when
target syncs are crossed, and with the C kernels switched off — and one
row's checkpoint must keep the scalar payload format and continue
bit-identically in a fresh one-row agent.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.rl.fused as fused
from repro.analysis.experiments import ExperimentSetting, make_environment
from repro.core.agent import LotusAgent
from repro.core.config import LotusConfig
from repro.core.stacked import StackedAgents
from repro.detection.fleet import proposal_scale
from repro.env.episode import run_episode
from repro.env.fleet import run_fleet_episode
from repro.perf.legacy import use_legacy_rl_path
from repro.rl.dqn import DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer
from repro.rl.slimmable import SlimmableMLP
from repro.runtime.fleet import make_fleet_environment

SESSIONS = 4
FRAMES = 90
SETTING = ExperimentSetting(num_frames=FRAMES, seed=7)


def _config(seed: int) -> LotusConfig:
    return LotusConfig(
        seed=seed + 100,
        batch_size=16,
        learning_starts=16,
        train_interval=2,
        target_sync_interval=5,
        # Below the temperatures the device reaches, so the cool-down
        # forces actions, which skip the decision count — with
        # train_interval=2 the rows then train on different frames.
        temperature_threshold_c=33.0,
    ).for_episode_length(FRAMES)


def _agent(environment, seed: int, max_grad_norm: float | None) -> LotusAgent:
    agent = LotusAgent(
        cpu_levels=environment.device.cpu.num_levels,
        gpu_levels=environment.device.gpu.num_levels,
        temperature_threshold_c=environment.throttle_threshold_c,
        proposal_scale=proposal_scale(environment.detector),
        config=_config(seed),
        rng=np.random.default_rng(seed + 100),
    )
    if max_grad_norm is not None:
        agent.learner.config = replace(agent.learner.config, max_grad_norm=max_grad_norm)
    return agent


def _scalar_sessions(max_grad_norm, legacy=False, frames=FRAMES):
    sessions = []
    for i in range(SESSIONS):
        seed = SETTING.seed + i
        environment = make_environment(SETTING.with_overrides(seed=seed))
        agent = _agent(environment, seed, max_grad_norm)
        if legacy:
            use_legacy_rl_path(agent)
        trace = run_episode(environment, agent, frames)
        sessions.append((agent, trace))
    return sessions


def _stacked_fleet(max_grad_norm, frames=FRAMES):
    environment = make_fleet_environment(SETTING, SESSIONS)
    agents = [
        _agent(environment, SETTING.seed + i, max_grad_norm) for i in range(SESSIONS)
    ]
    policy = StackedAgents(agents)
    trace = run_fleet_episode(environment, policy, frames)
    return policy, trace


def _assert_identical(policy, fleet_trace, sessions):
    for i, (agent, trace) in enumerate(sessions):
        stacked = policy.policies[i]
        assert stacked.loss_history == agent.loss_history, f"session {i} losses"
        assert stacked.reward_history == agent.reward_history, f"session {i} rewards"
        assert fleet_trace.session_trace(i).records == trace.records, f"session {i}"


@pytest.fixture
def kernels(monkeypatch):
    """Switch the C kernels on or off for one test (re-resolved after)."""

    def select(enabled: bool) -> None:
        monkeypatch.setattr(fused, "_resolved", False)
        monkeypatch.setattr(fused, "_kernel", None)
        monkeypatch.setenv("REPRO_FUSED", "1" if enabled else "0")

    yield select
    monkeypatch.setattr(fused, "_resolved", False)
    monkeypatch.setattr(fused, "_kernel", None)


@pytest.mark.parametrize("enabled", [True, False], ids=["fused", "numpy"])
def test_stacked_rows_match_scalar_sessions_with_clips_and_skewed_training(
    kernels, monkeypatch, enabled
):
    kernels(enabled)
    limit = 0.5
    clipped = []
    original_clip = DqnLearner._clip

    def spy(self, grads, *args):
        norms = np.sqrt(np.einsum("ij,ij->i", grads, grads))
        clipped.append(int(np.sum(norms > limit)))
        original_clip(self, grads, *args)

    monkeypatch.setattr(DqnLearner, "_clip", spy)
    policy, fleet_trace = _stacked_fleet(limit)
    stacked_clips = list(clipped)
    sessions = _scalar_sessions(limit)
    _assert_identical(policy, fleet_trace, sessions)

    # The run exercised what it claims to: clips fired (on some rows, not
    # all), cool-down forced actions, rows that trained on different
    # frames, and several target syncs per row.
    assert any(0 < count < SESSIONS for count in stacked_clips)
    assert all(agent.cooldown.trigger_count > 0 for agent, _ in sessions)
    steps = [agent.learner.train_steps for agent, _ in sessions]
    assert len(set(steps)) > 1
    assert min(steps) > 3 * _config(0).target_sync_interval
    assert policy.learner.num_rows == SESSIONS


def test_stacked_rows_match_the_legacy_oracle(kernels):
    """The frozen seed implementation agrees bit for bit while no clip fires
    (its norm is summed in another order, so a firing clip may differ in
    the last ulp — see ``test_rl_equivalence``); the limit is raised far
    above the gradient norms this run reaches."""
    kernels(True)
    policy, fleet_trace = _stacked_fleet(max_grad_norm=1e3)
    _assert_identical(policy, fleet_trace, _scalar_sessions(1e3, legacy=True))


def _assert_payload_equal(ours, theirs, path="state"):
    if isinstance(ours, dict):
        assert isinstance(theirs, dict) and ours.keys() == theirs.keys(), path
        for key in ours:
            _assert_payload_equal(ours[key], theirs[key], f"{path}.{key}")
    elif isinstance(ours, np.ndarray):
        assert np.array_equal(ours, theirs), path
    elif isinstance(ours, (list, tuple)):
        assert len(ours) == len(theirs), path
        for index, (a, b) in enumerate(zip(ours, theirs)):
            _assert_payload_equal(a, b, f"{path}[{index}]")
    else:
        assert ours == theirs, path


def test_row_checkpoint_restores_into_a_fresh_one_row_agent(kernels):
    kernels(True)
    first, rest = 50, 40
    policy, _ = _stacked_fleet(max_grad_norm=0.5, frames=first)
    row = 2
    payload = policy.policies[row].state_dict()
    assert set(payload["learner"]) == {
        "train_steps",
        "online_parameters",
        "target_parameters",
        "optimizer",
    }
    assert payload["learner"]["optimizer"]["kind"] == "adam"

    # The stacked row's snapshot is the scalar agent's snapshot.
    seed = SETTING.seed + row
    reference_env = make_environment(SETTING.with_overrides(seed=seed))
    reference = _agent(reference_env, seed, 0.5)
    run_episode(reference_env, reference, first)
    _assert_payload_equal(payload, reference.state_dict())

    # Restored into a fresh one-row agent, it continues exactly like the
    # uninterrupted scalar agent.
    fresh = _agent(reference_env, seed, 0.5)
    assert fresh.learner.num_rows == 1
    fresh.load_state_dict(payload)
    resumed_env = make_environment(SETTING.with_overrides(seed=seed))
    run_episode(resumed_env, _agent(resumed_env, seed, 0.5), first)
    resumed = run_episode(resumed_env, fresh, rest, reset_environment=False, reset_policy=False)
    uninterrupted = run_episode(
        reference_env, reference, rest, reset_environment=False, reset_policy=False
    )
    assert resumed.records == uninterrupted.records
    assert fresh.loss_history == reference.loss_history


def test_subset_and_full_stack_updates_equal_single_learners():
    """Direct learner check: a stack updated on a row subset, then on all
    rows, matches independent one-row learners step for step."""

    def learners():
        return [
            DqnLearner(
                SlimmableMLP(5, (16, 16), 6, rng=np.random.default_rng(seed)),
                optimizer=Adam(learning_rate=0.01),
            )
            for seed in range(3)
        ]

    alone = learners()
    stack = DqnLearner.stack(learners())
    buffers = []
    fill = np.random.default_rng(1)
    for _ in range(3):
        buffer = ReplayBuffer(128)
        for _ in range(128):
            buffer.append(
                fill.normal(size=5), int(fill.integers(6)), float(fill.normal()),
                fill.normal(size=5), 0.75 if fill.random() < 0.5 else 1.0,
            )
        buffers.append(buffer)
    for step, rows in enumerate([(0, 2), (1,), (0, 1, 2), (2,), (0, 1, 2)] * 6):
        width = 0.75 if step % 2 else 1.0
        batches = [buffers[r].sample(32, np.random.default_rng(step * 10 + r)) for r in rows]
        expected = [alone[r].train_batch(b, width=width) for r, b in zip(rows, batches)]
        assert stack.train_batch(batches, width=width, rows=rows) == expected
    for row, learner in enumerate(alone):
        assert np.array_equal(
            stack.networks[row].flat_parameters, learner.network.flat_parameters
        )
        assert np.array_equal(
            stack.target_networks[row].flat_parameters,
            learner.target_network.flat_parameters,
        )
    states = [np.random.default_rng(9).normal(size=5)] * 3
    assert stack.select_action(
        states, [0.0] * 3, [np.random.default_rng(0) for _ in range(3)], rows=(0, 1, 2)
    ) == [learner.greedy_action(state) for learner, state in zip(alone, states)]
