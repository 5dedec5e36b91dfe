"""One decision path for the DQN agents, alone or stacked across a fleet.

The Lotus agent and the zTT baseline make each decision in three phases:

1. per agent: encode the state, store pending transitions and, when a
   training step is due, sample a replay batch from the agent's own ring
   with its own generator;
2. one :meth:`~repro.rl.dqn.DqnLearner.train_batch` call over every agent
   that trains at that decision point;
3. per agent: the cool-down and epsilon draws on the same generator, then
   one :meth:`~repro.rl.dqn.DqnLearner.select_action` forward for the
   agents that chose greedily.

:func:`decide` runs those phases for one agent with its own learner (the
scalar :class:`~repro.env.policy.Policy` protocol) or for a fleet member's
agents with one stacked learner (:class:`StackedAgents`).  Each agent's
random draws happen in the same order either way, so session ``i`` of a
stacked fleet is bit-identical to the scalar run of its seed.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.action import JointActionSpace
from repro.core.cooldown import CooldownSelector
from repro.env.fleet import (
    FleetDecision,
    FleetMidObservation,
    FleetStartObservation,
    SessionPolicies,
)
from repro.env.policy import FrequencyDecision, Policy
from repro.rl.dqn import DqnLearner
from repro.rl.replay import TransitionBatch


class DqnAgent(Policy):
    """Shared state and phase hooks of the DQN agents.

    Subclasses set ``learner``, ``rng``, ``action_space``, ``cooldown``,
    ``temperature_threshold_c``, ``training``, ``_loss_history`` and
    ``_reward_history``, expose ``epsilon``, and implement
    :meth:`_acts_at`, :meth:`_width`, :meth:`_prepare` and :meth:`_commit`.
    """

    learner: DqnLearner
    rng: np.random.Generator
    action_space: JointActionSpace
    cooldown: CooldownSelector
    temperature_threshold_c: float
    training: bool
    _loss_history: List[float]
    _reward_history: List[float]

    def set_training(self, training: bool) -> None:
        """Enable/disable exploration and learning (evaluation mode)."""
        self.training = training

    @property
    def loss_history(self) -> List[float]:
        """TD losses of every training step performed so far."""
        return list(self._loss_history)

    @property
    def reward_history(self) -> List[float]:
        """Per-frame rewards observed so far."""
        return list(self._reward_history)

    def _acts_at(self, mid: bool) -> bool:
        """Whether the agent decides at this decision point."""
        raise NotImplementedError

    def _width(self, mid: bool) -> float:
        """Q-network width of this decision point."""
        raise NotImplementedError

    def _prepare(self, observation, mid: bool) -> TransitionBatch | None:
        """Phase 1: encode ``observation`` into ``self._decision_state``,
        store pending transitions, and sample a batch if a step is due."""
        raise NotImplementedError

    def _commit(self, action: int, forced: bool, mid: bool) -> FrequencyDecision:
        """Record the chosen action and return the frequency request."""
        raise NotImplementedError

    def _forced_action(self, observation) -> int | None:
        """Phase 3, first draw: the cool-down action when overheated."""
        if not self.training:
            return None
        return self.cooldown.maybe_cooldown_action(
            self.action_space,
            observation.cpu_level,
            observation.gpu_level,
            observation.cpu_temperature_c,
            observation.gpu_temperature_c,
            self.temperature_threshold_c,
            self.rng,
        )

    def _decision(self, action: int) -> FrequencyDecision:
        cpu_level, gpu_level = self.action_space.decode(action)
        return FrequencyDecision(cpu_level=cpu_level, gpu_level=gpu_level)


def decide(
    agents: Sequence[DqnAgent],
    observations: Sequence,
    mid: bool,
    learner: DqnLearner | None = None,
) -> List[FrequencyDecision | None]:
    """Run one decision point for ``agents`` (see the module docstring).

    Without ``learner`` there is one agent, trained and queried through its
    own learner; with it, agent ``i`` is row ``i`` of that stack.
    """
    lead = agents[0]
    if not lead._acts_at(mid):
        return [None] * len(agents)
    width = lead._width(mid)
    batches = [agent._prepare(obs, mid) for agent, obs in zip(agents, observations)]
    if learner is None:
        if batches[0] is not None:
            lead._loss_history.append(lead.learner.train_batch(batches[0], width=width))
    else:
        rows = [i for i, batch in enumerate(batches) if batch is not None]
        if rows:
            losses = learner.train_batch(
                [batches[i] for i in rows], width=width, rows=rows
            )
            for i, loss in zip(rows, losses):
                agents[i]._loss_history.append(loss)
    actions = [agent._forced_action(obs) for agent, obs in zip(agents, observations)]
    forced = [action is not None for action in actions]
    free = [i for i, is_forced in enumerate(forced) if not is_forced]
    if free and learner is None:
        actions[0] = lead.learner.select_action(
            lead._decision_state, lead.epsilon, lead.rng, width=width
        )
    elif free:
        chosen = learner.select_action(
            [agents[i]._decision_state for i in free],
            [agents[i].epsilon for i in free],
            [agents[i].rng for i in free],
            width=width,
            rows=free,
        )
        for i, action in zip(free, chosen):
            actions[i] = action
    return [
        agent._commit(action, is_forced, mid)
        for agent, action, is_forced in zip(agents, actions, forced)
    ]


class StackedAgents(SessionPolicies):
    """One fleet member's DQN agents driven through one stacked learner.

    Session ``i`` is agent ``i`` and row ``i`` of
    ``DqnLearner.stack([agent.learner for agent in agents])``: every
    decision point runs :func:`decide` over all sessions, so the sessions
    that train update in one stacked call and the greedy ones share one
    forward pass.  Each agent keeps its learner as a one-row view of its
    row, so per-session histories and checkpoints are those of the scalar
    agent.
    """

    def __init__(self, agents: Sequence[DqnAgent]):
        super().__init__(agents)
        lead = self.policies[0]
        for agent in self.policies:
            if not isinstance(agent, DqnAgent) or type(agent) is not type(lead):
                raise ConfigurationError("stacked agents must share one agent type")
            if any(
                agent._acts_at(mid) != lead._acts_at(mid)
                or (lead._acts_at(mid) and agent._width(mid) != lead._width(mid))
                for mid in (False, True)
            ):
                raise ConfigurationError("stacked agents must share their decision widths")
        self.learner = DqnLearner.stack([agent.learner for agent in self.policies])
        self.name = f"stacked({lead.name})"

    def begin_frame(self, observation: FleetStartObservation) -> FleetDecision | None:
        return self._decide(observation, mid=False)

    def mid_frame(self, observation: FleetMidObservation) -> FleetDecision | None:
        return self._decide(observation, mid=True)

    def _decide(self, observation, mid: bool) -> FleetDecision | None:
        if not self.policies[0]._acts_at(mid):
            return None
        sessions = [observation.session(i) for i in range(len(self.policies))]
        decisions = decide(self.policies, sessions, mid, learner=self.learner)
        return self._gather(decisions, observation)
