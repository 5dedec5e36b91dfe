"""Batched frame streams for the fleet engine.

:class:`FleetFrameStream` advances N per-session scene-complexity processes
in one array step: the per-frame normal innovation is drawn from each
session's own generator (so every session's random stream is consumed
exactly as the scalar :class:`~repro.workload.generator.FrameStream`
consumes it), and the AR(1) update plus clipping run as array operations.
Session ``i`` of a fleet stream seeded with ``rngs[i]`` therefore emits the
bit-identical frame sequence of ``FrameStream(dataset, rngs[i])``.

Per-session draws come through :class:`SessionNormals`, which takes
:data:`NOISE_BLOCK_FRAMES` frames of normals from each generator in one
call: ``rng.normal(0, std, size=K)`` yields exactly the values (and leaves
exactly the generator state) of ``K`` scalar ``rng.normal(0, std)`` calls,
so drawing ahead changes only the cost, not a single value.  The
unconsumed draws travel with every snapshot.

The stream may be *heterogeneous*: passing one
:class:`~repro.workload.dataset.DatasetProfile` per session gives every
session its own AR(1) parameters (mean, innovation std, correlation,
clipping range), image scale and dataset name, while the update still runs
as one array step — the per-session random draw uses that session's own
mean/std exactly as its scalar stream would, so heterogeneity does not
disturb the bit-exactness contract.  Per-session latency-constraint
overrides follow the same pattern: a sequence with ``None`` entries marks
sessions that use the experiment default (encoded internally as NaN, which
the fleet environment resolves back to its default constraint).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import WorkloadError
from repro.workload.dataset import DatasetProfile

#: Frames of normal draws :class:`SessionNormals` takes from each session's
#: generator at a time.
NOISE_BLOCK_FRAMES = 32


class SessionNormals:
    """Per-session normal draws, one per session per frame, drawn in blocks.

    Owns one generator per session and hands out ``N(0, std[i])`` draws
    frame by frame, bit-identical to calling ``rngs[i].normal(0.0,
    std[i])`` once per frame, but with one generator call per session every
    :data:`NOISE_BLOCK_FRAMES` frames.  Nothing is drawn before the first
    :meth:`next`, so a consumer that never asks leaves its generators
    untouched.  Drawing ahead is only invisible if nothing else draws from
    these generators, so every session needs a generator object of its
    own.

    Args:
        rngs: One distinct generator per session.
        std: Standard deviation — a scalar shared by every session, or one
            per session.
    """

    def __init__(self, rngs: Sequence[np.random.Generator], std):
        self.rngs = tuple(rngs)
        n = len(self.rngs)
        if len({id(rng) for rng in self.rngs}) != n:
            raise WorkloadError("every session needs its own generator object")
        self._std = np.broadcast_to(np.asarray(std, dtype=float), (n,)).tolist()
        self._block = np.empty((0, n))
        self._cursor = 0

    def next(self) -> np.ndarray:
        """This frame's draws, one per session (a read-only view)."""
        if self._cursor == len(self._block):
            block = np.empty((NOISE_BLOCK_FRAMES, len(self.rngs)))
            for i, (rng, std) in enumerate(zip(self.rngs, self._std)):
                block[:, i] = rng.normal(0.0, std, size=NOISE_BLOCK_FRAMES)
            block.flags.writeable = False
            self._block = block
            self._cursor = 0
        row = self._block[self._cursor]
        self._cursor += 1
        return row

    def state_dict(self) -> dict:
        """Generator states plus the drawn but unconsumed ``(frames, N)``
        block, so a restored helper hands out the same next draws."""
        return {
            "rngs": [rng.bit_generator.state for rng in self.rngs],
            "pending": self._block[self._cursor :].copy(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.  A payload without
        ``pending`` (generator states only, taken with nothing drawn
        ahead) restores as an empty block, which is exact."""
        for rng, state in zip(self.rngs, payload["rngs"]):
            rng.bit_generator.state = state
        pending = payload.get("pending")
        self._block = (
            np.empty((0, len(self.rngs)))
            if pending is None
            else np.array(pending, dtype=float).reshape(-1, len(self.rngs))
        )
        self._block.flags.writeable = False
        self._cursor = 0


@dataclass(frozen=True)
class FleetFrameBatch:
    """One lock-step frame across N sessions.

    Attributes:
        index: Zero-based frame index within the stream.
        datasets: Dataset name per session.
        image_scale: Stage-1 work multiplier per session.
        scene_candidates: Candidate-object count per session.
        latency_constraint_ms: Per-session constraint overrides, or ``None``
            when every session uses the experiment default.  Individual NaN
            entries mark sessions without an override (the environment
            substitutes its default constraint for them).
    """

    index: int
    datasets: tuple
    image_scale: np.ndarray
    scene_candidates: np.ndarray
    latency_constraint_ms: np.ndarray | None = None


class FleetFrameStream:
    """N lock-step frame streams, homogeneous or per-session heterogeneous.

    Args:
        dataset: Either one dataset profile shared by every session, or a
            sequence of one profile per session (per-session AR(1)
            parameters, image scales and dataset names).
        rngs: One distinct generator per session; defines the fleet size.
        latency_constraint_ms: Optional constraint override — a single float
            shared by every session (mirroring the scalar stream's
            per-frame override field), or a sequence with one entry per
            session where ``None`` means "use the experiment default".
    """

    def __init__(
        self,
        dataset: Union[DatasetProfile, Sequence[DatasetProfile]],
        rngs: Sequence[np.random.Generator],
        latency_constraint_ms: Union[float, Sequence[float | None], None] = None,
    ):
        if not rngs:
            raise WorkloadError("need at least one generator (one per session)")
        self.num_sessions = len(rngs)
        if isinstance(dataset, DatasetProfile):
            profiles = [dataset] * self.num_sessions
        else:
            profiles = list(dataset)
            if len(profiles) != self.num_sessions:
                raise WorkloadError(
                    f"got {len(profiles)} dataset profiles for "
                    f"{self.num_sessions} sessions"
                )
            if not all(isinstance(p, DatasetProfile) for p in profiles):
                raise WorkloadError("dataset entries must be DatasetProfile objects")
        self.datasets = tuple(profiles)
        self.dataset = profiles[0]
        self._constraint = self._normalise_constraint(latency_constraint_ms)
        self._index = 0

        processes = [profile.scene_process() for profile in profiles]
        self._mean = np.array([p.mean for p in processes], dtype=float)
        self._innovation_std = np.array(
            [p.innovation_std for p in processes], dtype=float
        )
        self._correlation = np.array([p.correlation for p in processes], dtype=float)
        self._minimum = np.array([p.minimum for p in processes], dtype=float)
        self._maximum = np.array([p.maximum for p in processes], dtype=float)
        self._image_scale = np.array(
            [profile.image_scale for profile in profiles], dtype=float
        )
        self._names = tuple(profile.name for profile in profiles)
        # Mirror SceneComplexityProcess.reset(rng): one stationary draw per
        # session from its own generator (with that session's own mean and
        # stationary std), clipped into that session's range.
        initial = np.array(
            [
                rng.normal(process.mean, process.stationary_std)
                for rng, process in zip(rngs, processes)
            ]
        )
        self._current = np.clip(initial, self._minimum, self._maximum)
        self._innovations = SessionNormals(rngs, self._innovation_std)

    def _normalise_constraint(
        self, latency_constraint_ms: Union[float, Sequence[float | None], None]
    ) -> np.ndarray | None:
        if latency_constraint_ms is None:
            return None
        if np.isscalar(latency_constraint_ms):
            return np.full(self.num_sessions, float(latency_constraint_ms))
        values = list(latency_constraint_ms)
        if len(values) != self.num_sessions:
            raise WorkloadError(
                f"got {len(values)} constraint overrides for "
                f"{self.num_sessions} sessions"
            )
        return np.array(
            [float("nan") if value is None else float(value) for value in values]
        )

    @property
    def rngs(self) -> tuple:
        """The per-session generators the stream draws from."""
        return self._innovations.rngs

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the sessions draw from more than one dataset profile."""
        return len(set(self._names)) > 1

    @property
    def frames_emitted(self) -> int:
        """Number of lock-step frames generated so far."""
        return self._index

    # -- checkpointing -------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the stream's mutable cursor state.

        Captures each session's generator state, the innovations drawn
        but not yet used, the current AR(1) scene values and the frame
        index — everything :meth:`next_frames` reads or advances — so a
        restored stream emits the bit-identical frame sequence an
        uninterrupted one would.
        """
        innovations = self._innovations.state_dict()
        return {
            "num_sessions": int(self.num_sessions),
            "rngs": innovations["rngs"],
            "pending_innovations": innovations["pending"],
            "current": self._current.copy(),
            "index": int(self._index),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this stream in place."""
        if int(payload["num_sessions"]) != self.num_sessions:
            raise WorkloadError(
                f"snapshot was captured from a {payload['num_sessions']}-session "
                f"stream but this stream drives {self.num_sessions} sessions"
            )
        self._innovations.load_state_dict(
            {"rngs": payload["rngs"], "pending": payload.get("pending_innovations")}
        )
        self._current = np.array(payload["current"], dtype=float)
        self._index = int(payload["index"])

    def next_frames(self) -> FleetFrameBatch:
        """Generate the next frame for every session in one array step."""
        value = (
            self._mean
            + self._correlation * (self._current - self._mean)
            + self._innovations.next()
        )
        self._current = np.clip(value, self._minimum, self._maximum)
        batch = FleetFrameBatch(
            index=self._index,
            datasets=self._names,
            image_scale=self._image_scale.copy(),
            scene_candidates=self._current.copy(),
            latency_constraint_ms=(
                None if self._constraint is None else self._constraint.copy()
            ),
        )
        self._index += 1
        return batch
