"""Fleet-trained Lotus agent: one Q-network, N concurrent sessions.

The scalar :class:`~repro.core.agent.LotusAgent` learns from a single
device.  :class:`FleetLotusAgent` is the vectorized-RL variant enabled by
the fleet engine: one shared slimmable Q-network selects actions for the
whole fleet with a single batched forward pass per decision point (reusing
:meth:`repro.rl.slimmable.SlimmableMLP.predict` on ``(N, state)`` batches),
and the replay buffers collect transitions from *every* session, so the
agent sees N times more experience per simulated frame.

This is deliberately a different training regime from N independent scalar
agents (shared weights, shared replay) — per-session scalar semantics
remain available through :class:`repro.core.stacked.StackedAgents`.  Exploration, the dual-buffer
reduced/full-width update scheme, the reward and the epsilon_t cool-down
follow the scalar agent's design, applied per session.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import AgentError
from repro.core.action import JointActionSpace
from repro.core.config import LotusConfig
from repro.core.cooldown import CooldownSelector
from repro.core.reward import RewardCalculator
from repro.env.fleet import (
    FleetDecision,
    FleetFrameResult,
    FleetMidObservation,
    FleetPolicy,
    FleetStartObservation,
)
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer
from repro.rl.schedule import CosineDecaySchedule, LinearDecaySchedule
from repro.rl.slimmable import SlimmableMLP


class FleetLotusAgent(FleetPolicy):
    """Online thermal/latency management of a whole fleet with one network.

    Args:
        cpu_levels / gpu_levels: Frequency-table sizes of the fleet's device.
        temperature_threshold_c: Control threshold for reward and cool-down.
        proposal_scale: Proposal count normalising to 1.0 in the state.
        num_sessions: Fleet size N.
        config: Hyper-parameters; defaults to :class:`LotusConfig`.
        rng: Random generator (exploration, replay sampling, cool-down).
    """

    name = "lotus-fleet"

    def __init__(
        self,
        cpu_levels: int,
        gpu_levels: int,
        temperature_threshold_c: float,
        proposal_scale: float,
        num_sessions: int,
        config: LotusConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config if config is not None else LotusConfig()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.num_sessions = num_sessions
        self.action_space = JointActionSpace(cpu_levels, gpu_levels)
        self.gpu_levels = gpu_levels
        self.temperature_threshold_c = (
            self.config.temperature_threshold_c
            if self.config.temperature_threshold_c is not None
            else temperature_threshold_c
        )
        self.temperature_scale_c = self.temperature_threshold_c
        self.proposal_scale = proposal_scale
        self.cpu_level_scale = max(cpu_levels - 1, 1)
        self.gpu_level_scale = max(gpu_levels - 1, 1)

        widths = (1.0,) if self.config.single_decision else self.config.widths
        self._start_width = 1.0 if self.config.single_decision else self.config.widths[0]
        self.network = SlimmableMLP(
            input_dim=7,
            hidden_dims=self.config.hidden_dims,
            output_dim=self.action_space.size,
            widths=widths,
            rng=self.rng,
        )
        self.learner = DqnLearner(
            network=self.network,
            config=DqnConfig(
                discount=self.config.discount,
                batch_size=self.config.batch_size,
                target_sync_interval=self.config.target_sync_interval,
            ),
            optimizer=Adam(
                learning_rate=self.config.learning_rate,
                beta1=self.config.adam_beta1,
                beta2=self.config.adam_beta2,
            ),
            learning_rate_schedule=CosineDecaySchedule(
                initial=self.config.learning_rate,
                decay_steps=self.config.lr_decay_steps,
                final=self.config.learning_rate * 0.01,
            ),
        )
        self._epsilon_schedule = LinearDecaySchedule(
            initial=self.config.epsilon_start,
            final=self.config.epsilon_end,
            decay_steps=self.config.epsilon_decay_steps,
        )
        self.cooldown = CooldownSelector(
            initial_epsilon=self.config.cooldown_epsilon,
            decay_triggers=self.config.cooldown_decay_triggers,
            final_epsilon=self.config.cooldown_epsilon_final,
            always=self.config.always_cooldown,
        )
        self.reward_calculators = [
            RewardCalculator(self.config.reward) for _ in range(num_sessions)
        ]

        self.start_buffer = ReplayBuffer(self.config.replay_capacity)
        self.mid_buffer = (
            self.start_buffer
            if self.config.shared_buffer
            else ReplayBuffer(self.config.replay_capacity)
        )

        self.training = True
        self._decision_count = 0
        self._decision_points = 0
        self._loss_history: List[float] = []
        self._reward_history: List[float] = []

        self._start_states: np.ndarray | None = None
        self._start_actions: np.ndarray | None = None
        self._mid_states: np.ndarray | None = None
        self._mid_actions: np.ndarray | None = None
        self._pending: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- public knobs -------------------------------------------------------------------

    def set_training(self, training: bool) -> None:
        """Enable/disable exploration and learning (evaluation mode)."""
        self.training = training

    @property
    def epsilon(self) -> float:
        """Current exploration epsilon (0 in evaluation mode).

        The schedule is indexed by *per-session* decisions so that a fleet
        of any size anneals over the same number of frames as a scalar run.
        """
        if not self.training:
            return 0.0
        return self._epsilon_schedule.value(self._decision_count // self.num_sessions)

    @property
    def loss_history(self) -> List[float]:
        """TD losses of every training step performed so far."""
        return list(self._loss_history)

    @property
    def reward_history(self) -> List[float]:
        """Mean per-frame reward across the fleet, per frame."""
        return list(self._reward_history)

    def reset(self) -> None:
        """Reset per-episode bookkeeping (keeps learned weights and replay)."""
        for calculator in self.reward_calculators:
            calculator.reset()
        self._start_states = None
        self._start_actions = None
        self._mid_states = None
        self._mid_actions = None
        self._pending = None

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete snapshot of the fleet agent's training state.

        The fleet analogue of :meth:`repro.core.agent.LotusAgent.state_dict`:
        everything a decision or training step reads or mutates is captured —
        the shared network and target parameters, optimizer moments, both
        replay rings, the exploration/cool-down counters, one reward
        calculator per session, the RNG state and the in-flight per-session
        transition arrays — so that save → load → continue is bit-identical
        to an uninterrupted fleet run, even mid-episode.
        """
        pending = None
        if self._pending is not None:
            states, actions, rewards = self._pending
            pending = {
                "states": states.copy(),
                "actions": actions.copy(),
                "rewards": rewards.copy(),
            }
        return {
            "num_sessions": int(self.num_sessions),
            "training": bool(self.training),
            "decision_count": int(self._decision_count),
            "decision_points": int(self._decision_points),
            "loss_history": [float(v) for v in self._loss_history],
            "reward_history": [float(v) for v in self._reward_history],
            "rng": self.rng.bit_generator.state,
            "cooldown": self.cooldown.state_dict(),
            "reward_calculators": [
                calculator.state_dict() for calculator in self.reward_calculators
            ],
            "learner": self.learner.state_dict(),
            "start_buffer": self.start_buffer.state_dict(),
            "mid_buffer": (
                None
                if self.mid_buffer is self.start_buffer
                else self.mid_buffer.state_dict()
            ),
            "start_states": (
                None if self._start_states is None else self._start_states.copy()
            ),
            "start_actions": (
                None if self._start_actions is None else self._start_actions.copy()
            ),
            "mid_states": None if self._mid_states is None else self._mid_states.copy(),
            "mid_actions": (
                None if self._mid_actions is None else self._mid_actions.copy()
            ),
            "pending": pending,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this agent in place.

        The agent must have been constructed with the same configuration,
        geometry and fleet size as the one that produced the snapshot (the
        checkpoint layer guarantees this by rebuilding from the stored
        config and geometry).
        """
        if int(payload["num_sessions"]) != self.num_sessions:
            raise AgentError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"fleet but this agent drives {self.num_sessions} sessions"
            )
        shared = payload["mid_buffer"] is None
        if shared != (self.mid_buffer is self.start_buffer):
            raise AgentError(
                "snapshot and agent disagree on the shared-buffer ablation"
            )
        calculators = payload["reward_calculators"]
        if len(calculators) != len(self.reward_calculators):
            raise AgentError(
                f"snapshot carries {len(calculators)} reward calculators for "
                f"{len(self.reward_calculators)} sessions"
            )
        self.learner.load_state_dict(payload["learner"])
        self.start_buffer.load_state_dict(payload["start_buffer"])
        if not shared:
            self.mid_buffer.load_state_dict(payload["mid_buffer"])
        self.cooldown.load_state_dict(payload["cooldown"])
        for calculator, snapshot in zip(self.reward_calculators, calculators):
            calculator.load_state_dict(snapshot)
        self.rng.bit_generator.state = payload["rng"]
        self.training = bool(payload["training"])
        self._decision_count = int(payload["decision_count"])
        self._decision_points = int(payload["decision_points"])
        self._loss_history = [float(v) for v in payload["loss_history"]]
        self._reward_history = [float(v) for v in payload["reward_history"]]
        self._start_states = (
            None
            if payload["start_states"] is None
            else np.asarray(payload["start_states"], dtype=float)
        )
        self._start_actions = (
            None
            if payload["start_actions"] is None
            else np.asarray(payload["start_actions"], dtype=np.int64)
        )
        self._mid_states = (
            None
            if payload["mid_states"] is None
            else np.asarray(payload["mid_states"], dtype=float)
        )
        self._mid_actions = (
            None
            if payload["mid_actions"] is None
            else np.asarray(payload["mid_actions"], dtype=np.int64)
        )
        pending = payload["pending"]
        self._pending = (
            None
            if pending is None
            else (
                np.asarray(pending["states"], dtype=float),
                np.asarray(pending["actions"], dtype=np.int64),
                np.asarray(pending["rewards"], dtype=float),
            )
        )

    # -- encoding -----------------------------------------------------------------------

    def _level_fractions(self, levels: np.ndarray, scale: int) -> np.ndarray:
        return levels / scale

    def encode_start(self, observation: FleetStartObservation) -> np.ndarray:
        """Vectorized :meth:`repro.core.state.StateEncoder.encode_start`."""
        budget = np.clip(
            observation.remaining_budget_ms / observation.latency_constraint_ms,
            -1.0,
            1.0,
        )
        states = np.zeros((observation.num_sessions, 7))
        states[:, 1] = observation.cpu_temperature_c / self.temperature_scale_c
        states[:, 2] = observation.gpu_temperature_c / self.temperature_scale_c
        states[:, 3] = self._level_fractions(observation.cpu_level, self.cpu_level_scale)
        states[:, 4] = self._level_fractions(observation.gpu_level, self.gpu_level_scale)
        states[:, 5] = budget
        return states

    def encode_mid(self, observation: FleetMidObservation) -> np.ndarray:
        """Vectorized :meth:`repro.core.state.StateEncoder.encode_mid`."""
        budget = np.clip(
            observation.remaining_budget_ms / observation.latency_constraint_ms,
            -1.0,
            1.0,
        )
        states = np.zeros((observation.num_sessions, 7))
        states[:, 0] = 1.0
        states[:, 1] = observation.cpu_temperature_c / self.temperature_scale_c
        states[:, 2] = observation.gpu_temperature_c / self.temperature_scale_c
        states[:, 3] = self._level_fractions(observation.cpu_level, self.cpu_level_scale)
        states[:, 4] = self._level_fractions(observation.gpu_level, self.gpu_level_scale)
        states[:, 5] = budget
        states[:, 6] = np.minimum(
            observation.num_proposals / self.proposal_scale, 2.0
        )
        return states

    # -- helpers ------------------------------------------------------------------------

    def _select_actions(self, states: np.ndarray, width: float, observation) -> np.ndarray:
        """Batched cool-down-aware epsilon-greedy selection, one forward pass."""
        n = len(states)
        q_values = self.network.predict(states, width)
        actions = np.argmax(q_values, axis=1).astype(np.int64)
        if self.training:
            explore = self.rng.random(n) < self.epsilon
            if explore.any():
                actions[explore] = self.rng.integers(
                    self.action_space.size, size=int(explore.sum())
                )
            overheated = (
                observation.cpu_temperature_c > self.temperature_threshold_c
            ) | (observation.gpu_temperature_c > self.temperature_threshold_c)
            for i in np.nonzero(overheated)[0]:
                forced = self.cooldown.maybe_cooldown_action(
                    self.action_space,
                    int(observation.cpu_level[i]),
                    int(observation.gpu_level[i]),
                    float(observation.cpu_temperature_c[i]),
                    float(observation.gpu_temperature_c[i]),
                    self.temperature_threshold_c,
                    self.rng,
                )
                if forced is not None:
                    actions[i] = forced
        self._decision_count += n
        return actions

    def _append_batch(
        self,
        buffer: ReplayBuffer,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        next_width: float,
    ) -> None:
        for i in range(len(states)):
            buffer.append(
                state=states[i],
                action=int(actions[i]),
                reward=float(rewards[i]),
                next_state=next_states[i],
                next_width=next_width,
            )

    def _maybe_train(self, buffer: ReplayBuffer, width: float) -> None:
        """Train once per ``train_interval`` lock-step decision points.

        One gradient step per batch of N fresh transitions — the standard
        vectorized-RL trade: the fleet agent takes the *same* number of
        training steps per simulated frame as the scalar agent while seeing
        N times more experience per step, rather than multiplying the step
        count by the fleet size.
        """
        if not self.training:
            return
        if len(buffer) < max(self.config.learning_starts, self.config.batch_size):
            return
        self._decision_points += 1
        if self._decision_points % self.config.train_interval != 0:
            return
        batch = buffer.sample(self.config.batch_size, self.rng)
        loss = self.learner.train_batch(batch, width=width)
        self._loss_history.append(loss)

    def _decision(self, actions: np.ndarray) -> FleetDecision:
        cpu_levels, gpu_levels = np.divmod(actions, self.gpu_levels)
        return FleetDecision(cpu_levels=cpu_levels, gpu_levels=gpu_levels)

    # -- fleet policy protocol ------------------------------------------------------------

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision:
        states = self.encode_start(observation)
        if self._pending is not None and self.training:
            prev_states, prev_actions, prev_rewards = self._pending
            buffer = (
                self.start_buffer if self.config.single_decision else self.mid_buffer
            )
            self._append_batch(
                buffer, prev_states, prev_actions, prev_rewards, states,
                self._start_width,
            )
        self._pending = None
        self._maybe_train(self.start_buffer, self._start_width)
        actions = self._select_actions(states, self._start_width, observation)
        self._start_states = states
        self._start_actions = actions
        return self._decision(actions)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision | None:
        if self.config.single_decision:
            return None
        states = self.encode_mid(observation)
        self._maybe_train(self.mid_buffer, 1.0)
        actions = self._select_actions(states, 1.0, observation)
        self._mid_states = states
        self._mid_actions = actions
        return self._decision(actions)

    def end_frame(self, result: FleetFrameResult) -> None:
        rewards = np.array(
            [
                self.reward_calculators[i]
                .frame_reward(
                    latency_ms=float(result.total_latency_ms[i]),
                    constraint_ms=float(result.latency_constraint_ms[i]),
                    cpu_temperature_c=float(result.cpu_temperature_c[i]),
                    gpu_temperature_c=float(result.gpu_temperature_c[i]),
                    threshold_c=self.temperature_threshold_c,
                )
                .total
                for i in range(result.num_sessions)
            ]
        )
        self._reward_history.append(float(rewards.mean()))
        if self.config.single_decision:
            if self._start_states is not None and self._start_actions is not None:
                self._pending = (self._start_states, self._start_actions, rewards)
        else:
            if (
                self.training
                and self._start_states is not None
                and self._start_actions is not None
                and self._mid_states is not None
            ):
                self._append_batch(
                    self.start_buffer,
                    self._start_states,
                    self._start_actions,
                    rewards,
                    self._mid_states,
                    1.0,
                )
            if self._mid_states is not None and self._mid_actions is not None:
                self._pending = (self._mid_states, self._mid_actions, rewards)
        self._start_states = None
        self._start_actions = None
        self._mid_states = None
        self._mid_actions = None
