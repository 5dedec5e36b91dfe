"""zTT baseline (Kim et al., "zTT: Learning-based DVFS with zero thermal
throttling for mobile devices", MobiSys 2021).

zTT is the strongest baseline of the paper: like Lotus it scales CPU and GPU
frequency jointly with a DQN and tries to avoid thermal throttling.  The
differences — and the reasons it underperforms on two-stage detectors — are:

* **one decision per frame**: zTT scales frequency only at the start of an
  image inference, so it cannot react to the proposal count and the
  second-stage latency variation goes uncorrected;
* **no proposal awareness**: its state contains temperatures, frequencies
  and the achieved performance (previous frame latency) but nothing about
  the current frame's work;
* **no variation term in the reward**: zTT rewards high performance and
  penalises overheating but does not explicitly reward a small latency
  variance;
* **unconditional cool-down**: whenever the device is overheated it always
  takes a random lower frequency pair, so it never learns how to act in hot
  states.

This implementation reuses the same DQN substrate as Lotus so that the
comparison isolates exactly those design differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.core.action import JointActionSpace
from repro.core.cooldown import CooldownSelector
from repro.core.stacked import DqnAgent, decide
from repro.env.environment import (
    FrameResult,
    FrameStartObservation,
    MidFrameObservation,
)
from repro.env.policy import FrequencyDecision
from repro.rl.dqn import DqnConfig, DqnLearner
from repro.rl.optimizer import Adam
from repro.rl.replay import ReplayBuffer, TransitionBatch
from repro.rl.schedule import CosineDecaySchedule, LinearDecaySchedule
from repro.rl.slimmable import SlimmableMLP

#: zTT state: CPU temperature, GPU temperature, CPU level, GPU level,
#: previous frame latency (normalised by the constraint) and the previous
#: frame's latency slack.
ZTT_STATE_DIMENSION = 6


@dataclass(frozen=True)
class ZttConfig:
    """Hyper-parameters of the zTT baseline agent.

    Attributes:
        hidden_dims: Hidden-layer sizes of the Q-network.
        discount: DQN discount factor.
        learning_rate: Adam learning rate.
        lr_decay_steps: Cosine learning-rate decay horizon.
        batch_size: Replay mini-batch size.
        replay_capacity: Replay buffer capacity.
        learning_starts: Transitions required before training begins.
        target_sync_interval: Training steps between target syncs.
        epsilon_start / epsilon_end / epsilon_decay_steps: Exploration
            schedule.
        temperature_weight: Weight of the temperature reward term.
        penalty: Penalty multiplier for violations and overheating.
        tanh_scale: Slope of the performance reward.
        temperature_soft_margin_c: Width of the graded zone below the
            threshold (kept identical to the Lotus reward so the comparison
            isolates the algorithmic differences, not the reward shaping).
        temperature_threshold_c: Override of the throttling threshold used by
            the reward/cool-down (``None`` = use the environment's).
        seed: Seed for the agent's random generator.
    """

    hidden_dims: tuple[int, ...] = (64, 64, 64)
    discount: float = 0.5
    learning_rate: float = 0.005
    lr_decay_steps: int = 10_000
    batch_size: int = 64
    replay_capacity: int = 4_096
    learning_starts: int = 64
    target_sync_interval: int = 100
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_decay_steps: int = 600
    temperature_weight: float = 0.5
    penalty: float = 2.0
    tanh_scale: float = 2.0
    temperature_soft_margin_c: float = 4.0
    temperature_threshold_c: float | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ConfigurationError("hidden_dims must not be empty")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigurationError("discount must lie in [0, 1)")
        if self.batch_size <= 0 or self.replay_capacity < self.batch_size:
            raise ConfigurationError("replay_capacity must be at least batch_size")
        if self.learning_starts < self.batch_size:
            raise ConfigurationError("learning_starts must be at least batch_size")

    def for_episode_length(self, num_frames: int) -> "ZttConfig":
        """Scale the exploration/decay horizons to an episode length."""
        if num_frames <= 0:
            raise ConfigurationError("num_frames must be positive")
        return ZttConfig(
            hidden_dims=self.hidden_dims,
            discount=self.discount,
            learning_rate=self.learning_rate,
            lr_decay_steps=max(200, num_frames),
            batch_size=self.batch_size,
            replay_capacity=self.replay_capacity,
            learning_starts=self.learning_starts,
            target_sync_interval=self.target_sync_interval,
            epsilon_start=self.epsilon_start,
            epsilon_end=self.epsilon_end,
            epsilon_decay_steps=max(50, int(0.4 * num_frames)),
            temperature_weight=self.temperature_weight,
            penalty=self.penalty,
            tanh_scale=self.tanh_scale,
            temperature_soft_margin_c=self.temperature_soft_margin_c,
            temperature_threshold_c=self.temperature_threshold_c,
            seed=self.seed,
        )


class ZttPolicy(DqnAgent):
    """The zTT joint CPU/GPU DQN governor (single decision per frame)."""

    name = "ztt"

    def __init__(
        self,
        cpu_levels: int,
        gpu_levels: int,
        temperature_threshold_c: float,
        config: ZttConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config if config is not None else ZttConfig()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.action_space = JointActionSpace(cpu_levels, gpu_levels)
        self.temperature_threshold_c = (
            self.config.temperature_threshold_c
            if self.config.temperature_threshold_c is not None
            else temperature_threshold_c
        )
        self._cpu_levels = cpu_levels
        self._gpu_levels = gpu_levels
        self.network = SlimmableMLP(
            input_dim=ZTT_STATE_DIMENSION,
            hidden_dims=self.config.hidden_dims,
            output_dim=self.action_space.size,
            widths=(1.0,),
            rng=self.rng,
        )
        self.learner = DqnLearner(
            network=self.network,
            config=DqnConfig(
                discount=self.config.discount,
                batch_size=self.config.batch_size,
                target_sync_interval=self.config.target_sync_interval,
            ),
            optimizer=Adam(learning_rate=self.config.learning_rate),
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
        # zTT's cool-down is unconditional: always pick a cooler pair when hot.
        self.cooldown = CooldownSelector(initial_epsilon=1.0, decay_triggers=1, always=True)
        self.buffer = ReplayBuffer(self.config.replay_capacity)

        self.training = True
        self._step_count = 0
        self._loss_history: List[float] = []
        self._reward_history: List[float] = []
        self._last_state: np.ndarray | None = None
        self._last_action: int | None = None
        self._pending_reward: float | None = None
        self._decision_state: np.ndarray | None = None

    # -- public knobs -------------------------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Current exploration epsilon (0 in evaluation mode)."""
        if not self.training:
            return 0.0
        return self._epsilon_schedule.value(self._step_count)

    def reset(self) -> None:
        """Reset per-episode bookkeeping (keeps learned weights and replay)."""
        self._last_state = None
        self._last_action = None
        self._pending_reward = None

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete snapshot of the agent's training state (see
        :meth:`repro.core.agent.LotusAgent.state_dict` for the contract)."""
        return {
            "training": bool(self.training),
            "step_count": int(self._step_count),
            "loss_history": [float(v) for v in self._loss_history],
            "reward_history": [float(v) for v in self._reward_history],
            "rng": self.rng.bit_generator.state,
            "cooldown": self.cooldown.state_dict(),
            "learner": self.learner.state_dict(),
            "buffer": self.buffer.state_dict(),
            "last_state": None if self._last_state is None else self._last_state.copy(),
            "last_action": None if self._last_action is None else int(self._last_action),
            "pending_reward": (
                None if self._pending_reward is None else float(self._pending_reward)
            ),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this agent in place."""
        self.learner.load_state_dict(payload["learner"])
        self.buffer.load_state_dict(payload["buffer"])
        self.cooldown.load_state_dict(payload["cooldown"])
        self.rng.bit_generator.state = payload["rng"]
        self.training = bool(payload["training"])
        self._step_count = int(payload["step_count"])
        self._loss_history = [float(v) for v in payload["loss_history"]]
        self._reward_history = [float(v) for v in payload["reward_history"]]
        self._last_state = (
            None
            if payload["last_state"] is None
            else np.asarray(payload["last_state"], dtype=float)
        )
        self._last_action = (
            None if payload["last_action"] is None else int(payload["last_action"])
        )
        self._pending_reward = (
            None if payload["pending_reward"] is None else float(payload["pending_reward"])
        )

    # -- state / reward --------------------------------------------------------------------

    def _encode(self, observation: FrameStartObservation) -> np.ndarray:
        previous_latency = (
            observation.previous_latency_ms
            if observation.previous_latency_ms is not None
            else observation.latency_constraint_ms
        )
        latency_fraction = previous_latency / observation.latency_constraint_ms
        slack_fraction = 1.0 - latency_fraction
        return np.array(
            [
                observation.cpu_temperature_c / self.temperature_threshold_c,
                observation.gpu_temperature_c / self.temperature_threshold_c,
                observation.cpu_level / max(1, self._cpu_levels - 1),
                observation.gpu_level / max(1, self._gpu_levels - 1),
                float(np.clip(latency_fraction, 0.0, 2.0)),
                float(np.clip(slack_fraction, -1.0, 1.0)),
            ],
            dtype=float,
        )

    def _reward(self, result: FrameResult) -> float:
        slack_fraction = result.latency_slack_ms / result.latency_constraint_ms
        if slack_fraction > 0:
            time_reward = float(np.tanh(self.config.tanh_scale * slack_fraction))
        else:
            time_reward = self.config.penalty * slack_fraction
        hottest = max(result.cpu_temperature_c, result.gpu_temperature_c)
        margin = self.config.temperature_soft_margin_c
        if hottest > self.temperature_threshold_c:
            temperature_reward = -self.config.penalty
        elif margin <= 0 or hottest <= self.temperature_threshold_c - margin:
            temperature_reward = 1.0
        else:
            temperature_reward = (self.temperature_threshold_c - hottest) / margin
        return time_reward + self.config.temperature_weight * temperature_reward

    # -- decision phases (see repro.core.stacked) ---------------------------------------

    def _acts_at(self, mid: bool) -> bool:
        return not mid

    def _width(self, mid: bool) -> float:
        return 1.0

    def _prepare(self, observation, mid: bool) -> TransitionBatch | None:
        state = self._encode(observation)
        if (
            self.training
            and self._last_state is not None
            and self._last_action is not None
            and self._pending_reward is not None
        ):
            self.buffer.append(
                state=self._last_state,
                action=self._last_action,
                reward=self._pending_reward,
                next_state=state,
                next_width=1.0,
            )
        self._pending_reward = None
        self._decision_state = state
        if self.training and len(self.buffer) >= max(
            self.config.learning_starts, self.config.batch_size
        ):
            return self.buffer.sample(self.config.batch_size, self.rng)
        return None

    def _commit(self, action: int, forced: bool, mid: bool) -> FrequencyDecision:
        self._step_count += 1
        self._last_state = self._decision_state
        self._last_action = action
        return self._decision(action)

    # -- policy protocol -----------------------------------------------------------------

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        return decide((self,), (observation,), mid=False)[0]

    def mid_frame(self, observation: MidFrameObservation) -> None:
        # zTT only acts once per frame: the mid-frame decision point is the
        # Lotus contribution it lacks.
        return None

    def end_frame(self, result: FrameResult) -> None:
        reward = self._reward(result)
        self._reward_history.append(reward)
        self._pending_reward = reward
