"""Generic DQN learner, stacked across independent learners.

A :class:`DqnLearner` holds S independent online/target Q-network pairs —
one per *row* — and applies the DQN update rule to any set of rows in one
call.  A scalar agent owns a one-row learner; a fleet member folds its
sessions' learners into one stack with :meth:`DqnLearner.stack`, so every
session that trains at a decision point is updated by one stacked pass
(one batched matmul per layer, one fused kernel per elementwise tail, one
Adam kernel for all rows) instead of one Python-level update each.  Rows
share nothing but buffers: each keeps its own parameters, target network,
optimizer moments and step counter, learning-rate schedule position and
target-sync cadence, so row ``i`` trains exactly — bit for bit — as the
same learner would alone.

Both the Lotus agent (which calls it with alternating widths and two replay
buffers) and the zTT baseline (single width, single buffer) drive this
class; it contains no Lotus-specific logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import AgentError, ConfigurationError
from repro.rl.fused import fused_adam
from repro.rl.optimizer import Adam, Optimizer
from repro.rl.replay import Transition, TransitionBatch
from repro.rl.schedule import Schedule
from repro.rl.slimmable import SlimmableMLP

#: A row whose cheaply screened gradient norm comes within this relative
#: distance of ``max_grad_norm`` gets its norm recomputed exactly.
CLIP_SCREEN_MARGIN = 1e-9

Batch = Union[TransitionBatch, Sequence[Transition]]


@dataclass(frozen=True)
class DqnConfig:
    """Hyper-parameters of the DQN update rule.

    Attributes:
        discount: Discount factor gamma for TD targets.
        batch_size: Mini-batch size sampled from the replay buffer.
        target_sync_interval: Number of training steps between target-network
            synchronisations.
        huber_delta: Transition point of the Huber loss.
        max_grad_norm: Global gradient-norm clip (0 disables clipping).
        double_dqn: Use Double-DQN targets (argmax from the online network,
            value from the target network) to curb Q-value overestimation —
            particularly helpful when bootstrapping across the two widths of
            the slimmable Lotus Q-network.
    """

    discount: float = 0.9
    batch_size: int = 32
    target_sync_interval: int = 100
    huber_delta: float = 1.0
    max_grad_norm: float = 5.0
    double_dqn: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.discount < 1.0:
            raise AgentError("discount must lie in [0, 1)")
        if self.batch_size <= 0:
            raise AgentError("batch_size must be positive")
        if self.target_sync_interval <= 0:
            raise AgentError("target_sync_interval must be positive")
        if self.huber_delta <= 0:
            raise AgentError("huber_delta must be positive")
        if self.max_grad_norm < 0:
            raise AgentError("max_grad_norm must be non-negative")


class _Layer:
    """Stacked views of one layer's active slice over a ``(n, 2P)`` buffer.

    ``pair_w``/``pair_b`` address the online and target halves together
    (``(n, 2, in, out)`` / ``(n, 2, 1, out)``), ``w``/``b``/``w_t`` the
    online half only; ``b_addr`` is the first row's online bias address.
    """

    __slots__ = ("pair_w", "pair_b", "w", "b", "w_t", "b_addr", "units")

    def __init__(self, buffer: np.ndarray, half: int, offsets, active_in, active_out):
        w_off, b_off, fan_out = offsets
        item = buffer.itemsize
        row = buffer.strides[0]
        strided = np.lib.stride_tricks.as_strided
        weights = buffer[:, w_off:]
        biases = buffer[:, b_off:]
        n = buffer.shape[0]
        self.pair_w = strided(
            weights,
            shape=(n, 2, active_in, active_out),
            strides=(row, half * item, fan_out * item, item),
        )
        self.pair_b = strided(
            biases, shape=(n, 2, 1, active_out), strides=(row, half * item, 0, item)
        )
        self.w = self.pair_w[:, 0]
        self.b = self.pair_b[:, 0]
        self.w_t = self.w.transpose(0, 2, 1)
        self.b_addr = biases.ctypes.data
        self.units = active_out


class _Pass:
    """Reusable buffers of one stacked update: ``n`` rows, batch ``B``,
    trained at one width (with raw addresses for the fused kernels)."""

    def __init__(self, n: int, batch: int, active: List[int], grad_size: int):
        layers = len(active) - 1
        self.states = np.empty((n, batch, active[0]))
        self.next_states = np.empty((n, 1, batch, active[0]))
        self.actions = np.empty((n, batch), dtype=np.intp)
        self.rewards = np.empty((n, batch))
        self.targets = np.empty((n, batch))
        self.losses = np.empty((n, batch))
        self.pre = [np.empty((n, batch, units)) for units in active[1:]]
        self.act = [np.empty((n, batch, units)) for units in active[1:-1]]
        self.prop = [np.empty((n, batch, units)) for units in active[1:-1]]
        self.grad_outputs = self.pre[-1].copy()
        # Each layer's input, transposed per row, for the weight gradients.
        self.upstream_t = [
            a.transpose(0, 2, 1) for a in [self.states, *self.act]
        ]
        self.row_offsets = np.arange(n * batch) * active[-1]
        self.flat_index = np.empty(n * batch, dtype=np.intp)
        self.grads = np.zeros((n, grad_size))
        # Per-layer (weights, biases) gradient views, interleaved in the
        # network's flat parameter order ([w0, b0, w1, b1, ...]).
        self.weight_grads: List[np.ndarray] = []
        self.bias_grads: List[np.ndarray] = []
        offset = 0
        for layer in range(layers):
            a_in, a_out = active[layer], active[layer + 1]
            self.weight_grads.append(
                self.grads[:, offset : offset + a_in * a_out].reshape(n, a_in, a_out)
            )
            offset += a_in * a_out
            self.bias_grads.append(self.grads[:, offset : offset + a_out])
            offset += a_out
        self.addr = {
            "pre": [a.ctypes.data for a in self.pre],
            "act": [a.ctypes.data for a in self.act],
            "prop": [a.ctypes.data for a in self.prop],
            "grad_outputs": self.grad_outputs.ctypes.data,
            "flat_index": self.flat_index.ctypes.data,
            "targets": self.targets.ctypes.data,
            "rewards": self.rewards.ctypes.data,
            "losses": self.losses.ctypes.data,
            "grads": self.grads.ctypes.data,
        }
        self.target_z: Dict[float, Tuple[List[np.ndarray], List[int]]] = {}
        self.huber = (np.empty(n * batch), np.empty(n * batch), np.empty(n * batch))


class DqnLearner:
    """A stack of S online/target Q-network pairs with the DQN update rule.

    Built from one network it is a one-row learner (S = 1), the scalar
    agent's learner; :meth:`stack` folds several one-row learners into one
    S-row stack.  Row ``r`` keeps ``networks[r]`` / ``target_networks[r]``
    (both rebased into row ``r`` of one ``(S, 2P)`` pair buffer, online half
    first), ``optimizers[r]`` (its moments and step count) and
    ``schedules[r]``.  The single-row attributes ``network``,
    ``target_network``, ``optimizer``, ``learning_rate_schedule`` and
    ``train_steps`` exist on one-row learners only.
    """

    def __init__(
        self,
        network: SlimmableMLP,
        config: DqnConfig | None = None,
        optimizer: Optimizer | None = None,
        learning_rate_schedule: Schedule | None = None,
    ):
        # Rebasing captures raw buffer addresses in this learner's views and
        # kernel plans, so a network may belong to exactly one learner; a
        # second rebase would leave the first learner's plans dangling on
        # the abandoned buffer.
        if getattr(network, "_pair_owner", None) is not None:
            raise AgentError(
                "network is already owned by another DqnLearner; build a "
                "fresh network (or clone()) per learner"
            )
        self.config = config if config is not None else DqnConfig()
        self.networks = [network]
        self.target_networks = [network.clone()]
        self.optimizers = [optimizer if optimizer is not None else Adam()]
        self.schedules = [learning_rate_schedule]
        total = network.flat_parameters.size
        self._pair = np.zeros((1, 2 * total))
        network.rebase(self._pair[0, :total])
        self.target_networks[0].rebase(self._pair[0, total:])
        network._pair_owner = self
        self._steps = np.zeros(1, dtype=np.int64)
        self._stack: DqnLearner | None = None
        self._reset_caches()

    @classmethod
    def stack(cls, learners: Sequence["DqnLearner"]) -> "DqnLearner":
        """Fold one-row learners into one stack; row ``i`` is ``learners[i]``.

        The learners must share the configuration and network geometry.
        Their parameters and step counters move into the stack's buffers,
        and each learner stays usable as a one-row view of its row
        (``state_dict``, ``load_state_dict``, scalar ``train_batch`` and
        ``select_action`` act on the shared row).
        """
        if not learners:
            raise AgentError("need at least one learner to stack")
        first = learners[0]
        geometry = _geometry(first.networks[0])
        for learner in learners:
            if learner.num_rows != 1 or learner._stack is not None:
                raise AgentError("only unstacked one-row learners can be stacked")
            if learner.config != first.config:
                raise AgentError("stacked learners must share one DqnConfig")
            if _geometry(learner.networks[0]) != geometry:
                raise AgentError("stacked learners must share one network geometry")
        stacked = object.__new__(cls)
        stacked.config = first.config
        stacked.networks = [learner.networks[0] for learner in learners]
        stacked.target_networks = [learner.target_networks[0] for learner in learners]
        stacked.optimizers = [learner.optimizers[0] for learner in learners]
        stacked.schedules = [learner.schedules[0] for learner in learners]
        stacked._pair = np.concatenate([learner._pair for learner in learners])
        stacked._steps = np.concatenate([learner._steps for learner in learners])
        stacked._stack = None
        total = first._half
        for row, learner in enumerate(learners):
            learner.networks[0].rebase(stacked._pair[row, :total])
            learner.target_networks[0].rebase(stacked._pair[row, total:])
            learner._pair = stacked._pair[row : row + 1]
            learner._steps = stacked._steps[row : row + 1]
            learner._stack = stacked
            learner._reset_caches()
        stacked._reset_caches()
        return stacked

    def _reset_caches(self) -> None:
        network = self.networks[0]
        dims = [network.input_dim, *network.hidden_dims, network.output_dim]
        self._offsets = []
        offset = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self._offsets.append((offset, offset + fan_in * fan_out, fan_out))
            offset += fan_in * fan_out + fan_out
        self._half = offset
        self._widths = frozenset(network.widths)
        self._all_rows = tuple(range(len(self.networks)))
        self._kernel = fused_adam()
        # Everything below is a pure function of the geometry and buffer
        # addresses, built on first use: gathered copies of row subsets,
        # stacked layer views per (buffer, width), update buffers per (row
        # count, batch, width), Adam pointer tables per (rows, batch, width),
        # the greedy forward's buffers per width and the clip screen's.
        self._gathers: Dict[int, np.ndarray] = {}
        self._layers: Dict[Tuple[int, float], List[_Layer]] = {}
        self._passes: Dict[Tuple[int, int, float], _Pass] = {}
        self._plans: Dict[Tuple[Tuple[int, ...], int, float], tuple] = {}
        self._greedy: Dict[float, tuple] = {}
        self._screen: Dict[int, Tuple[np.ndarray, int]] = {}
        self._regions_cache: Dict[float, List[Tuple[slice, ...]]] = {}
        self._params = [net.parameters() for net in self.networks]

    # -- rows ----------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Number of independent learners S in this stack."""
        return len(self.networks)

    def _single(self, items: list):
        if len(items) != 1:
            raise AgentError(
                f"this learner stacks {len(items)} rows; address them by row"
            )
        return items[0]

    @property
    def network(self) -> SlimmableMLP:
        """The online network of a one-row learner."""
        return self._single(self.networks)

    @property
    def target_network(self) -> SlimmableMLP:
        """The target network of a one-row learner."""
        return self._single(self.target_networks)

    @property
    def optimizer(self) -> Optimizer:
        """The optimizer of a one-row learner."""
        return self._single(self.optimizers)

    @property
    def learning_rate_schedule(self) -> Schedule | None:
        """The learning-rate schedule of a one-row learner."""
        return self._single(self.schedules)

    @property
    def train_steps(self) -> int:
        """Training steps taken by a one-row learner."""
        return int(self._single(list(self._steps)))

    @train_steps.setter
    def train_steps(self, value: int) -> None:
        self._single(list(self._steps))
        self._steps[0] = int(value)

    # -- action selection ----------------------------------------------------------

    def q_values(self, state: np.ndarray, width: float = 1.0) -> np.ndarray:
        """Q-values of all actions in ``state`` at the given width."""
        outputs = self.network.predict(np.asarray(state, dtype=float), width)
        return outputs[0]

    def greedy_action(self, state: np.ndarray, width: float = 1.0) -> int:
        """Index of the highest-valued action in ``state``."""
        return int(np.argmax(self.q_values(state, width)))

    def select_action(
        self,
        state,
        epsilon,
        rng,
        width: float = 1.0,
        rows: Sequence[int] | None = None,
    ):
        """Epsilon-greedy action selection.

        Without ``rows``: one state, epsilon and generator for a one-row
        learner; returns one action.  With ``rows``: sequences of states,
        epsilons and generators, one per row; returns one action per row.
        Each row draws its exploration coin (and, when exploring, its random
        action) from its own generator, then every row that chose greedily
        is evaluated in one stacked forward pass.
        """
        if rows is None:
            self._single(self.networks)
            return self._select([state], [epsilon], [rng], width, (0,))[0]
        return self._select(state, epsilon, rng, width, tuple(rows))

    def _select(self, states, epsilons, rngs, width, rows) -> List[int]:
        if not len(states) == len(epsilons) == len(rngs) == len(rows):
            raise AgentError("need one state, epsilon and generator per row")
        num_actions = self.networks[0].output_dim
        actions: List[int] = [0] * len(rows)
        greedy: List[int] = []
        for i, (epsilon, rng) in enumerate(zip(epsilons, rngs)):
            if not 0.0 <= epsilon <= 1.0:
                raise AgentError("epsilon must lie in [0, 1]")
            if rng.random() < epsilon:
                actions[i] = int(rng.integers(num_actions))
            else:
                greedy.append(i)
        if greedy:
            best = self._greedy_forward(
                [rows[i] for i in greedy], [states[i] for i in greedy], width
            )
            for i, action in zip(greedy, best):
                actions[i] = action
        return actions

    def _greedy_forward(self, rows, states, width: float) -> List[int]:
        """Greedy actions of ``rows`` in ``states``: one forward over all S
        rows (rows not asked for evaluate stale inputs; a gemv per row is
        cheaper than gathering their weights)."""
        width = self._canonical_width(width)
        scratch = self._greedy.get(width)
        layers = self._layer_views(self._pair, width)
        if scratch is None:
            active = self.networks[0].active_units_for_width(width)
            n = self.num_rows
            outs = [np.empty((n, 1, units)) for units in active[1:]]
            scratch = (np.zeros((n, 1, active[0])), outs, [o.ctypes.data for o in outs])
            self._greedy[width] = scratch
        x, outs, addrs = scratch
        dim = x.shape[2]
        for row, state in zip(rows, states):
            state = np.asarray(state, dtype=float)
            if state.shape != (dim,):
                raise ConfigurationError(
                    f"expected input dimension {dim}, got shape {state.shape}"
                )
            x[row, 0] = state
        kernel = self._kernel
        last = len(layers) - 1
        current = x
        for index, layer in enumerate(layers):
            z = outs[index]
            np.matmul(current, layer.w, out=z)
            if index < last and kernel is not None:
                kernel.bias_relu_raw(
                    z.shape[0], 1, layer.units, addrs[index], layer.b_addr,
                    self._pair.shape[1], addrs[index],
                )
            else:
                z += layer.b
                if index < last:
                    np.maximum(z, 0.0, out=z)
            current = z
        best = current[:, 0].argmax(axis=1)
        return [int(best[row]) for row in rows]

    # -- learning ----------------------------------------------------------------------

    def train_batch(
        self,
        transitions,
        width: float = 1.0,
        rows: Sequence[int] | None = None,
    ):
        """One DQN update per row.

        Args:
            transitions: Without ``rows``, one batch for a one-row learner —
                a :class:`~repro.rl.replay.TransitionBatch` of column arrays
                (the hot path; what :meth:`ReplayBuffer.sample` returns) or
                a sequence of :class:`Transition` objects (converted on
                entry).  With ``rows``, a sequence of such batches, one per
                row, all of one size.  Transitions may carry different
                ``next_width`` values (e.g. when a shared buffer mixes both
                Lotus decision points); the TD targets are then computed per
                width group.
            width: Width at which the *current* states' Q-values are computed
                and trained.
            rows: The stack rows to update, ascending.

        Returns:
            The Huber TD loss of the batch, or with ``rows`` a list of the
            per-row losses.
        """
        if rows is None:
            self._single(self.networks)
            return self._train([transitions], width, (0,))[0]
        rows = tuple(int(row) for row in rows)
        if len(transitions) != len(rows):
            raise AgentError(f"got {len(transitions)} batches for {len(rows)} rows")
        return self._train(list(transitions), width, rows)

    def _train(self, batches: List[Batch], width: float, rows: Tuple[int, ...]) -> List[float]:
        batches = [_as_batch(batch) for batch in batches]
        n = len(rows)
        if n == 0:
            return []
        full = rows == self._all_rows
        if not full and (
            list(rows) != sorted(set(rows)) or rows[0] < 0 or rows[-1] >= self.num_rows
        ):
            raise AgentError(f"rows {rows} must be distinct, ascending stack rows")
        batch_size = len(batches[0])
        if any(len(batch) != batch_size for batch in batches):
            raise AgentError("stacked batches must share one batch size")
        width = self._canonical_width(width)
        if full:
            buffer = self._pair
        else:
            # A subset trains: gather its parameter rows so every layer is
            # still one stacked matmul (the Adam step writes the real rows).
            buffer = self._gathers.get(n)
            if buffer is None:
                buffer = self._gathers[n] = np.empty((n, self._pair.shape[1]))
            np.take(self._pair, rows, axis=0, out=buffer)
        scratch = self._pass(n, batch_size, width)
        for i, batch in enumerate(batches):
            scratch.states[i] = batch.states
            scratch.next_states[i, 0] = batch.next_states
            scratch.actions[i] = batch.actions
            scratch.rewards[i] = batch.rewards

        uniform = _uniform_next_width(batches)
        if uniform is not None and self.config.double_dqn:
            self._pair_targets(buffer, scratch, self._canonical_width(uniform))
        else:
            for i, (row, batch) in enumerate(zip(rows, batches)):
                self._row_bootstrap(row, batch, scratch.targets[i])
            scratch.targets *= self.config.discount
            scratch.targets += scratch.rewards

        layers = self._layer_views(buffer, width)
        outputs = self._forward(layers, scratch, buffer.shape[1])
        self._huber(outputs, scratch, batch_size)
        self._backward(layers, scratch)
        self._clip(scratch.grads, scratch.addr["grads"])
        self._step(rows, width, scratch)

        steps = self._steps
        if full:
            steps += 1
            due = np.flatnonzero(steps % self.config.target_sync_interval == 0)
        else:
            steps[list(rows)] += 1
            due = [row for row in rows if steps[row] % self.config.target_sync_interval == 0]
        for row in due:
            self._sync_row(row)
        return (np.add.reduce(scratch.losses, axis=1) / batch_size).tolist()

    def _canonical_width(self, width: float) -> float:
        """``width`` as one of the networks' configured widths."""
        if width in self._widths:
            return width
        return self.networks[0]._validate_width(width)

    def _pass(self, n: int, batch_size: int, width: float) -> _Pass:
        key = (n, batch_size, width)
        scratch = self._passes.get(key)
        if scratch is None:
            active = self.networks[0].active_units_for_width(width)
            grad_size = sum(
                active[i] * active[i + 1] + active[i + 1] for i in range(len(active) - 1)
            )
            scratch = self._passes[key] = _Pass(n, batch_size, active, grad_size)
        return scratch

    def _layer_views(self, buffer: np.ndarray, width: float) -> List[_Layer]:
        key = (id(buffer), width)
        layers = self._layers.get(key)
        if layers is None:
            active = self.networks[0].active_units_for_width(width)
            layers = [
                _Layer(buffer, self._half, offsets, active[i], active[i + 1])
                for i, offsets in enumerate(self._offsets)
            ]
            self._layers[key] = layers
        return layers

    def _pair_targets(self, buffer: np.ndarray, scratch: _Pass, width: float) -> None:
        """Double-DQN TD targets of every row, online and target networks
        evaluated together: one stacked matmul per layer over the
        ``(n, 2, ...)`` pair views, then (with the C kernels) a fused bias +
        ReLU per hidden layer and a fused argmax/gather/discount/reward tail
        straight off the last matmul — the operand pairings of the NumPy
        sequence below, in one pass."""
        layers = self._layer_views(buffer, width)
        n, _, batch, _ = scratch.next_states.shape
        cached = scratch.target_z.get(width)
        if cached is None:
            outs = [np.empty((n, 2, batch, layer.units)) for layer in layers]
            cached = scratch.target_z[width] = (outs, [z.ctypes.data for z in outs])
        outs, addrs = cached
        kernel = self._kernel
        last = len(layers) - 1
        row_stride = buffer.shape[1]
        current = scratch.next_states
        for index, layer in enumerate(layers):
            z = outs[index]
            np.matmul(current, layer.pair_w, out=z)
            if kernel is not None:
                if index == last:
                    kernel.pair_q_targets_raw(
                        n, batch, layer.units, addrs[index], layer.b_addr, row_stride,
                        self._half, self.config.discount,
                        scratch.addr["rewards"], scratch.addr["targets"],
                    )
                    return
                kernel.pair_bias_relu_raw(
                    n, batch, layer.units, addrs[index], layer.b_addr, row_stride,
                    self._half, True,
                )
            else:
                z += layer.pair_b
                if index < last:
                    np.maximum(z, 0.0, out=z)
            current = z
        best = current[:, 0].argmax(axis=2)
        targets = scratch.targets
        targets[...] = np.take_along_axis(current[:, 1], best[..., None], axis=2)[..., 0]
        targets *= self.config.discount
        targets += scratch.rewards

    def _row_bootstrap(self, row: int, batch: TransitionBatch, out: np.ndarray) -> None:
        """Bootstrapped next-state values of one row's batch, per next-width
        group (mixed-width batches, or plain DQN targets)."""
        online = self.networks[row]
        target = self.target_networks[row]
        next_widths = batch.next_widths
        for next_width in np.unique(next_widths):
            group = next_widths == next_width
            target_q = target.predict(batch.next_states[group], float(next_width))
            if self.config.double_dqn:
                online_q = online.predict(batch.next_states[group], float(next_width))
                best_actions = np.argmax(online_q, axis=1)
                out[group] = target_q[np.arange(len(best_actions)), best_actions]
            else:
                out[group] = np.max(target_q, axis=1)

    def _forward(self, layers: List[_Layer], scratch: _Pass, row_stride: int) -> np.ndarray:
        """Online forward of the current states into the pass buffers."""
        kernel = self._kernel
        last = len(layers) - 1
        current = scratch.states
        n, batch, _ = current.shape
        for index, layer in enumerate(layers):
            z = scratch.pre[index]
            np.matmul(current, layer.w, out=z)
            if index == last:
                z += layer.b
            elif kernel is not None:
                kernel.bias_relu_raw(
                    n, batch, layer.units, scratch.addr["pre"][index], layer.b_addr,
                    row_stride, scratch.addr["act"][index],
                )
                current = scratch.act[index]
            else:
                z += layer.b
                current = np.maximum(z, 0.0, out=scratch.act[index])
        return scratch.pre[last]

    def _huber(self, outputs: np.ndarray, scratch: _Pass, batch_size: int) -> None:
        """Per-sample Huber losses into ``scratch.losses`` and the
        taken-action gradient into ``scratch.grad_outputs``."""
        n, _, actions = outputs.shape
        delta = self.config.huber_delta
        flat_index = scratch.flat_index
        np.add(scratch.row_offsets, scratch.actions.reshape(-1), out=flat_index)
        if self._kernel is not None:
            self._kernel.q_huber_scatter_raw(
                n * batch_size, actions, scratch.addr["pre"][-1],
                scratch.addr["flat_index"], scratch.addr["targets"], delta,
                float(batch_size), scratch.addr["losses"], scratch.addr["grad_outputs"],
            )
            return
        error, abs_error, quadratic = scratch.huber
        np.subtract(outputs.reshape(-1)[flat_index], scratch.targets.reshape(-1), out=error)
        np.abs(error, out=abs_error)
        np.minimum(abs_error, delta, out=quadratic)
        abs_error -= quadratic  # now the linear part
        losses = scratch.losses.reshape(-1)
        np.multiply(quadratic, quadratic, out=losses)
        losses *= 0.5
        abs_error *= delta
        losses += abs_error
        # clip == minimum(maximum(x, lo), hi): pure selection, no rounding.
        np.maximum(error, -delta, out=error)
        np.minimum(error, delta, out=error)
        error /= batch_size
        scratch.grad_outputs.fill(0.0)
        scratch.grad_outputs.reshape(-1)[flat_index] = error

    def _backward(self, layers: List[_Layer], scratch: _Pass) -> None:
        """Back-propagate ``scratch.grad_outputs`` into ``scratch.grads``."""
        kernel = self._kernel
        last = len(layers) - 1
        grad = scratch.grad_outputs
        for index in range(last, -1, -1):
            if index < last:
                # ``grad`` is this pass's propagate buffer; multiplying by the
                # boolean mask equals multiplying by relu_grad, and the C
                # kernel applies the identical multiply.
                if kernel is not None:
                    kernel.relu_mask_raw(
                        grad.size, scratch.addr["prop"][index], scratch.addr["pre"][index]
                    )
                else:
                    grad *= scratch.pre[index] > 0.0
            np.matmul(scratch.upstream_t[index], grad, out=scratch.weight_grads[index])
            np.add.reduce(grad, axis=1, out=scratch.bias_grads[index])
            if index > 0:
                np.matmul(grad, layers[index].w_t, out=scratch.prop[index - 1])
                grad = scratch.prop[index - 1]

    def _clip(self, grads: np.ndarray, grads_addr: int | None = None) -> None:
        """Global-norm clipping of each row's flat gradient.

        The flat gradients hold ~12k doubles, just above OpenBLAS's
        threading threshold for ``ddot``, so a ``np.dot`` norm would wake a
        second BLAS thread on every update.  Each row is screened with a
        single-threaded sum of squares instead; only a row whose screened
        norm reaches within :data:`CLIP_SCREEN_MARGIN` of the limit (far
        beyond any summation-order difference) gets the exact ``np.dot``
        norm, so whether and by how much a row is rescaled is unchanged.
        """
        limit = self.config.max_grad_norm
        if limit <= 0:
            return
        threshold = (limit * (1.0 - CLIP_SCREEN_MARGIN)) ** 2
        if self._kernel is not None:
            rows, size = grads.shape
            cached = self._screen.get(rows)
            if cached is None:
                screen = np.empty(rows)
                cached = self._screen[rows] = (screen, screen.ctypes.data)
            screen, screen_addr = cached
            self._kernel.row_sumsq_raw(
                rows, size, grads.ctypes.data if grads_addr is None else grads_addr,
                screen_addr,
            )
        else:
            screen = np.einsum("ij,ij->i", grads, grads)
        for i, screened in enumerate(screen.tolist()):
            if screened >= threshold:
                row = grads[i]
                total = float(np.sqrt(np.dot(row, row)))
                if total > limit and total > 0:
                    row *= limit / total

    def _regions_for(self, width: float) -> List[Tuple[slice, ...]]:
        """Active-slice index regions per parameter (weights/biases interleaved)."""
        regions = self._regions_cache.get(width)
        if regions is None:
            active = self.networks[0].active_units_for_width(width)
            regions = []
            for layer in range(len(active) - 1):
                in_active, out_active = active[layer], active[layer + 1]
                regions.append((slice(0, in_active), slice(0, out_active)))
                regions.append((slice(0, out_active),))
            self._regions_cache[width] = regions
        return regions

    def _rows_plan(self, rows: Tuple[int, ...], width: float, scratch: _Pass):
        """Fused Adam tables for ``rows`` at ``width`` (``None`` if the rows'
        optimizers do not qualify): parameter regions in the real pair
        buffer, gradient regions in the pass buffer, moment regions in each
        row's optimizer — addresses taken once per rows, batch size and
        width."""
        key = (rows, scratch.states.shape[1], width)
        if key in self._plans:
            return self._plans[key]
        plan = None
        optimizers = [self.optimizers[row] for row in rows]
        kernel = self._kernel
        if (
            kernel is not None
            and all(hasattr(opt, "moment_regions") for opt in optimizers)
            and len({(opt.beta1, opt.beta2, opt.epsilon) for opt in optimizers}) == 1
        ):
            regions = self._regions_for(width)
            grad_views = [
                view
                for pair in zip(scratch.weight_grads, scratch.bias_grads)
                for view in pair
            ]
            shapes = []
            for param, region in zip(self._params[rows[0]], regions):
                view = param[region]
                shapes.append(
                    (view.shape[0], view.shape[1], view.strides[0] // view.itemsize)
                    if view.ndim == 2
                    else (1, view.shape[0], view.shape[0])
                )
            ps, gs, ms, vs = [], [], [], []
            for i, row in enumerate(rows):
                first, second = self.optimizers[row].moment_regions(self._params[row], regions)
                ps.extend(p[r].ctypes.data for p, r in zip(self._params[row], regions))
                gs.extend(g[i].ctypes.data for g in grad_views)
                ms.extend(m.ctypes.data for m in first)
                vs.extend(v.ctypes.data for v in second)
            scalars = np.empty((3, len(rows)))
            plan = (
                kernel.make_rows_plan(shapes, ps, gs, ms, vs),
                scalars,
                [a.ctypes.data for a in scalars],
                optimizers,
            )
        self._plans[key] = plan
        return plan

    def _step(self, rows: Tuple[int, ...], width: float, scratch: _Pass) -> None:
        """Apply every row's optimizer step (one fused call when possible)."""
        for row in rows:
            schedule = self.schedules[row]
            if schedule is not None:
                self.optimizers[row].set_learning_rate(
                    max(1e-6, schedule.value(int(self._steps[row])))
                )
        plan = self._rows_plan(rows, width, scratch)
        if plan is not None:
            tables, scalars, addrs, optimizers = plan
            for i, opt in enumerate(optimizers):
                scalars[:, i] = opt.advance()
            first = optimizers[0]
            self._kernel.step_rows(
                tables, addrs[0], addrs[1], addrs[2], first.beta1, first.beta2, first.epsilon
            )
            return
        regions = self._regions_for(width)
        full_width = scratch.grads.shape[1] == self._half
        for i, row in enumerate(rows):
            optimizer = self.optimizers[row]
            params = self._params[row]
            gradients = [
                view[i]
                for pair in zip(scratch.weight_grads, scratch.bias_grads)
                for view in pair
            ]
            if type(optimizer).step_sliced is Optimizer.step_sliced:
                # Compatibility for optimizers that only implement the
                # masked step(): pad the sliced gradients back to full shape.
                full_grads: List[np.ndarray] = []
                masks: List[np.ndarray] = []
                for param, grad, region in zip(params, gradients, regions):
                    padded = np.zeros_like(param)
                    padded[region] = grad
                    mask = np.zeros(param.shape, dtype=bool)
                    mask[region] = True
                    full_grads.append(padded)
                    masks.append(mask)
                optimizer.step(params, full_grads, masks)
            elif full_width:
                # Gradient layout coincides with the flat parameter buffer:
                # update everything with whole-buffer ufuncs (consumes the
                # gradient row).
                optimizer.step_flat(
                    params, self.networks[row].flat_parameters, scratch.grads[i]
                )
            else:
                optimizer.step_sliced(params, gradients, regions)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of everything a training step mutates (one-row learners).

        Captures the online and target parameter buffers, the optimizer's
        moments/step counter and the learner's own step counter — the same
        payload whether the row trains alone or inside a stack.  The scratch
        caches (views, update buffers, kernel plans) are pure functions of
        the configuration and are rebuilt lazily, so a restored learner
        continues bit-identically.
        """
        return {
            "train_steps": self.train_steps,
            "online_parameters": self.network.flat_parameters.copy(),
            "target_parameters": self.target_network.flat_parameters.copy(),
            "optimizer": self.optimizer.state_dict(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place (same geometry)."""
        online = np.asarray(payload["online_parameters"], dtype=float)
        target = np.asarray(payload["target_parameters"], dtype=float)
        flat = self.network.flat_parameters
        if online.shape != flat.shape or target.shape != flat.shape:
            raise AgentError(
                f"parameter snapshot shapes {online.shape}/{target.shape} do "
                f"not match the network's flat buffer {flat.shape}"
            )
        flat[...] = online
        self.target_network.flat_parameters[...] = target
        self.train_steps = int(payload["train_steps"])
        self.optimizer.load_state_dict(self._params[0], payload["optimizer"])

    def sync_target(self) -> None:
        """Copy every row's online parameters into its target network."""
        for row in range(self.num_rows):
            self._sync_row(row)

    def _sync_row(self, row: int) -> None:
        # Online and target halves share one row: one contiguous copy.
        self._pair[row, self._half :] = self._pair[row, : self._half]


def _geometry(network: SlimmableMLP) -> tuple:
    return (network.input_dim, network.hidden_dims, network.output_dim, network.widths)


def _as_batch(transitions: Batch) -> TransitionBatch:
    if not isinstance(transitions, TransitionBatch):
        if not transitions:
            raise AgentError("cannot train on an empty batch")
        transitions = TransitionBatch.from_transitions(transitions)
    if len(transitions) == 0:
        raise AgentError("cannot train on an empty batch")
    return transitions


def _uniform_next_width(batches: List[TransitionBatch]) -> float | None:
    """The next width every transition of every batch shares, if any."""
    common = None
    for batch in batches:
        uniform = batch.uniform_next_width
        if uniform is None:
            first = float(batch.next_widths[0])
            if not np.all(batch.next_widths == first):
                return None
            uniform = first
        if common is None:
            common = uniform
        elif uniform != common:
            return None
    return common
