"""Lotus core: the paper's primary contribution.

The Lotus framework is an online DVFS controller tailored to two-stage
detectors.  Its pieces map one-to-one onto the paper's §4:

* :mod:`repro.core.action` — the joint CPU x GPU frequency action space
  (§4.3.1).
* :mod:`repro.core.state` — the two per-frame state encodings, with and
  without the proposal count (§4.3.2).
* :mod:`repro.core.reward` — the latency + temperature reward (§4.3.3,
  Eq. 2-3) including the latency-variation term.
* :mod:`repro.core.cooldown` — epsilon_t-greedy cool-down action selection
  (§4.3.5).
* :mod:`repro.core.agent` — the Lotus DRL agent: a slimmable Q-network
  acting twice per frame with two replay buffers (§4.3.4).
* :mod:`repro.core.controller` — a convenience facade that builds the agent
  for a device/detector pair and runs the online management loop.
* :mod:`repro.core.config` — all hyper-parameters in one dataclass.
* :mod:`repro.core.training` — online training session utilities.
* :mod:`repro.core.stacked` — the three-phase DQN decision path shared by
  the Lotus and zTT agents, alone or stacked across a fleet member.
"""

from repro.core.action import JointActionSpace
from repro.core.agent import LotusAgent
from repro.core.config import LotusConfig
from repro.core.controller import LotusController
from repro.core.cooldown import CooldownSelector
from repro.core.fleet import FleetLotusAgent
from repro.core.reward import RewardBreakdown, RewardCalculator, RewardConfig
from repro.core.stacked import StackedAgents
from repro.core.state import StateEncoder
from repro.core.training import OnlineSession, SessionResult

__all__ = [
    "CooldownSelector",
    "FleetLotusAgent",
    "JointActionSpace",
    "LotusAgent",
    "LotusConfig",
    "LotusController",
    "OnlineSession",
    "RewardBreakdown",
    "RewardCalculator",
    "RewardConfig",
    "SessionResult",
    "StackedAgents",
    "StateEncoder",
]
