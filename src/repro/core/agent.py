"""The Lotus DRL agent.

One slimmable Q-network provides two frequency-scaling decisions per image
frame (paper §4.3.4):

* at the **start of the frame** the state has no proposal count, and the
  Q-values are computed with only the first ``alpha x`` channels of every
  hidden layer;
* **after the RPN** the proposal count is appended to the state and the
  Q-values use the full network width.

Transitions from the two decision points are stored in two separate replay
buffers; batches sampled from the first buffer update only the reduced-width
slice of the network, batches from the second buffer update the full
network.  Exploration is epsilon-greedy, overridden by the epsilon_t-greedy
cool-down selection whenever the device is overheated.

The agent implements the generic :class:`~repro.env.policy.Policy`
interface, so the same episode runner that drives the default governors and
zTT drives Lotus; its decision points run the three phases of
:func:`repro.core.stacked.decide`, alone or stacked with a fleet's other
Lotus sessions.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import AgentError
from repro.core.action import JointActionSpace
from repro.core.config import LotusConfig
from repro.core.cooldown import CooldownSelector
from repro.core.reward import RewardCalculator
from repro.core.stacked import DqnAgent, decide
from repro.core.state import StateEncoder
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


class LotusAgent(DqnAgent):
    """Online thermal and latency variation management agent.

    Args:
        cpu_levels: Number of CPU frequency levels of the target device (M).
        gpu_levels: Number of GPU frequency levels (N).
        temperature_threshold_c: Throttling temperature used for state
            normalisation, the reward and the cool-down trigger.
        proposal_scale: Proposal count that normalises to 1.0 in the state
            (typically the detector's post-NMS cap).
        config: Hyper-parameters; defaults to :class:`LotusConfig`.
        rng: Random generator (exploration, replay sampling, cool-down).
    """

    name = "lotus"

    def __init__(
        self,
        cpu_levels: int,
        gpu_levels: int,
        temperature_threshold_c: float,
        proposal_scale: float,
        config: LotusConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.config = config if config is not None else LotusConfig()
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.action_space = JointActionSpace(cpu_levels, gpu_levels)
        self.temperature_threshold_c = (
            self.config.temperature_threshold_c
            if self.config.temperature_threshold_c is not None
            else temperature_threshold_c
        )
        self.encoder = StateEncoder(
            cpu_levels=cpu_levels,
            gpu_levels=gpu_levels,
            temperature_scale_c=self.temperature_threshold_c,
            proposal_scale=proposal_scale,
        )
        widths = (1.0,) if self.config.single_decision else self.config.widths
        self._start_width = 1.0 if self.config.single_decision else self.config.widths[0]
        self.network = SlimmableMLP(
            input_dim=self.encoder.dimension,
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
        self.reward_calculator = RewardCalculator(self.config.reward)

        self.start_buffer = ReplayBuffer(self.config.replay_capacity)
        self.mid_buffer = (
            self.start_buffer if self.config.shared_buffer else ReplayBuffer(self.config.replay_capacity)
        )

        self.training = True
        self._decision_count = 0
        self._loss_history: List[float] = []
        self._reward_history: List[float] = []

        self._start_state: np.ndarray | None = None
        self._start_action: int | None = None
        self._mid_state: np.ndarray | None = None
        self._mid_action: int | None = None
        self._pending_transition: tuple[np.ndarray, int, float] | None = None
        self._decision_state: np.ndarray | None = None

    # -- public knobs -------------------------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Current exploration epsilon (0 in evaluation mode)."""
        if not self.training:
            return 0.0
        return self._epsilon_schedule.value(self._decision_count)

    def reset(self) -> None:
        """Reset per-episode bookkeeping (keeps learned weights and replay)."""
        self.reward_calculator.reset()
        self._start_state = None
        self._start_action = None
        self._mid_state = None
        self._mid_action = None
        self._pending_transition = None

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete snapshot of the agent's training state.

        Everything a decision or training step reads or mutates is captured
        — network and target parameters, optimizer moments, both replay
        rings, the exploration/cool-down counters, the reward window, the
        RNG state and the in-flight transition bookkeeping — so that
        save → load → continue is bit-identical to an uninterrupted run,
        even mid-episode (the pending cross-frame transition survives).
        """
        pending = None
        if self._pending_transition is not None:
            state, action, reward = self._pending_transition
            pending = {
                "state": state.copy(),
                "action": int(action),
                "reward": float(reward),
            }
        return {
            "training": bool(self.training),
            "decision_count": int(self._decision_count),
            "loss_history": [float(v) for v in self._loss_history],
            "reward_history": [float(v) for v in self._reward_history],
            "rng": self.rng.bit_generator.state,
            "cooldown": self.cooldown.state_dict(),
            "reward_calculator": self.reward_calculator.state_dict(),
            "learner": self.learner.state_dict(),
            "start_buffer": self.start_buffer.state_dict(),
            "mid_buffer": (
                None
                if self.mid_buffer is self.start_buffer
                else self.mid_buffer.state_dict()
            ),
            "start_state": None if self._start_state is None else self._start_state.copy(),
            "start_action": None if self._start_action is None else int(self._start_action),
            "mid_state": None if self._mid_state is None else self._mid_state.copy(),
            "mid_action": None if self._mid_action is None else int(self._mid_action),
            "pending_transition": pending,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this agent in place.

        The agent must have been constructed with the same configuration
        and geometry as the one that produced the snapshot (the checkpoint
        layer guarantees this by rebuilding from the stored config).
        """
        shared = payload["mid_buffer"] is None
        if shared != (self.mid_buffer is self.start_buffer):
            raise AgentError(
                "snapshot and agent disagree on the shared-buffer ablation"
            )
        self.learner.load_state_dict(payload["learner"])
        self.start_buffer.load_state_dict(payload["start_buffer"])
        if not shared:
            self.mid_buffer.load_state_dict(payload["mid_buffer"])
        self.cooldown.load_state_dict(payload["cooldown"])
        self.reward_calculator.load_state_dict(payload["reward_calculator"])
        self.rng.bit_generator.state = payload["rng"]
        self.training = bool(payload["training"])
        self._decision_count = int(payload["decision_count"])
        self._loss_history = [float(v) for v in payload["loss_history"]]
        self._reward_history = [float(v) for v in payload["reward_history"]]
        self._start_state = (
            None
            if payload["start_state"] is None
            else np.asarray(payload["start_state"], dtype=float)
        )
        self._start_action = (
            None if payload["start_action"] is None else int(payload["start_action"])
        )
        self._mid_state = (
            None
            if payload["mid_state"] is None
            else np.asarray(payload["mid_state"], dtype=float)
        )
        self._mid_action = (
            None if payload["mid_action"] is None else int(payload["mid_action"])
        )
        pending = payload["pending_transition"]
        self._pending_transition = (
            None
            if pending is None
            else (
                np.asarray(pending["state"], dtype=float),
                int(pending["action"]),
                float(pending["reward"]),
            )
        )

    # -- decision phases (see repro.core.stacked) ---------------------------------------

    def _acts_at(self, mid: bool) -> bool:
        return not (mid and self.config.single_decision)

    def _width(self, mid: bool) -> float:
        return 1.0 if mid else self._start_width

    def _prepare(self, observation, mid: bool) -> TransitionBatch | None:
        if mid:
            if self._start_state is None or self._start_action is None:
                raise AgentError("mid_frame called before begin_frame")
            self._decision_state = self.encoder.encode_mid(observation)
            return self._sample(self.mid_buffer)
        state = self.encoder.encode_start(observation)
        # Complete the transition whose next state is this frame's start state:
        # <s_{2i+1}, a_{2i+1}, r_{2i+1}, s_{2i+2}> in the two-decision setting,
        # or the whole-frame transition in the single-decision ablation.
        if self._pending_transition is not None and self.training:
            prev_state, prev_action, prev_reward = self._pending_transition
            # In the single-decision ablation there is only one kind of
            # transition, stored in (and trained from) the start buffer.
            buffer = self.start_buffer if self.config.single_decision else self.mid_buffer
            buffer.append(
                state=prev_state,
                action=prev_action,
                reward=prev_reward,
                next_state=state,
                next_width=self._start_width,
            )
        self._pending_transition = None
        self._decision_state = state
        return self._sample(self.start_buffer)

    def _sample(self, buffer: ReplayBuffer) -> TransitionBatch | None:
        """The replay batch of a due training step, or ``None``."""
        if not self.training:
            return None
        if len(buffer) < max(self.config.learning_starts, self.config.batch_size):
            return None
        if self._decision_count % self.config.train_interval != 0:
            return None
        return buffer.sample(self.config.batch_size, self.rng)

    def _commit(self, action: int, forced: bool, mid: bool) -> FrequencyDecision:
        # Cool-down-forced actions are not exploration decisions: they do
        # not advance the epsilon schedule or the training cadence.
        if not forced:
            self._decision_count += 1
        if mid:
            self._mid_state = self._decision_state
            self._mid_action = action
        else:
            self._start_state = self._decision_state
            self._start_action = action
        return self._decision(action)

    # -- policy protocol -----------------------------------------------------------------

    def begin_frame(self, observation: FrameStartObservation) -> FrequencyDecision:
        return decide((self,), (observation,), mid=False)[0]

    def mid_frame(self, observation: MidFrameObservation) -> FrequencyDecision | None:
        return decide((self,), (observation,), mid=True)[0]

    def end_frame(self, result: FrameResult) -> None:
        frame_reward = self.reward_calculator.frame_reward(
            latency_ms=result.total_latency_ms,
            constraint_ms=result.latency_constraint_ms,
            cpu_temperature_c=result.cpu_temperature_c,
            gpu_temperature_c=result.gpu_temperature_c,
            threshold_c=self.temperature_threshold_c,
        )
        self._reward_history.append(frame_reward.total)
        if self.config.single_decision:
            if self._start_state is not None and self._start_action is not None:
                self._pending_transition = (
                    self._start_state,
                    self._start_action,
                    frame_reward.total,
                )
        else:
            # Both per-frame decisions are credited with the frame reward
            # (the paper's dL_i is defined per image): the first transition
            # <s_2i, a_2i, r_i, s_{2i+1}> can be stored now, the second one
            # needs the next frame's start state and is therefore deferred.
            if (
                self.training
                and self._start_state is not None
                and self._start_action is not None
                and self._mid_state is not None
            ):
                self.start_buffer.append(
                    state=self._start_state,
                    action=self._start_action,
                    reward=frame_reward.total,
                    next_state=self._mid_state,
                    next_width=1.0,
                )
            if self._mid_state is not None and self._mid_action is not None:
                self._pending_transition = (
                    self._mid_state,
                    self._mid_action,
                    frame_reward.total,
                )
        self._start_state = None
        self._start_action = None
        self._mid_state = None
        self._mid_action = None
