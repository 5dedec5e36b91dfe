"""Sharded multi-core fleet execution: one fleet, many worker processes.

The fleet engine (:mod:`repro.runtime.fleet`) advances every session of a
scenario inside one NumPy program; this module splits that program across
the process-pool runtime.  A scenario's session assignments are partitioned
into contiguous *shards*, each shard runs as an independent grouped fleet
episode in its own worker process, and the per-shard columnar traces are
re-interleaved (via the grouped-partition machinery of
:mod:`repro.env.fleet`) into a single :class:`~repro.env.fleet.FleetTrace`
in global session order.

Because sessions never interact inside the engine — every session's
streams, proposal noise, device column and policy state are its own — the
re-interleaved trace is **byte-identical** to the unsharded run, for any
shard count (``tests/test_fleet_sharding.py`` enforces this against every
registered scenario).

The one coupling in the whole system is the fleet-trained
``lotus-fleet`` agent: one shared Q-network learns from *all* of its
member's sessions, so splitting such a member would change its batch
composition and replay contents.  The shard planner therefore treats each
maximal run of consecutive same-member ``lotus-fleet`` sessions as an
*atom* that is never divided: scenarios containing fleet-trained members
still shard bit-exactly (whole atoms move between workers), while a fleet
that is one big ``lotus-fleet`` member degrades to a single shard.  The
homogeneous cell entry point (:func:`run_sharded_fleet`) refuses
``lotus-fleet`` with more than one shard outright, with a typed
:class:`~repro.errors.ShardError`.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FaultError, ShardError
from repro.obs import bus as _obs
from repro.core.training import SessionResult, session_result_from_trace
from repro.env.fleet import (
    FleetSessionGroup,
    FleetTrace,
    advance_groups,
    run_fleet_episode,
    run_grouped_fleet_episode,
    validate_session_partition,
)
from repro.env.trace import COLUMN_DTYPES, DATASET_CODE_COLUMN
from repro.store import FleetTraceWriter, MappedFleetTrace, write_fleet_trace
from repro.faults.plan import WorkerCrash
from repro.runtime.pool import (
    PoolTask,
    acquire_pool,
    fleet_shard_fingerprint,
    scenario_shard_fingerprint,
)
from repro.runtime.fleet import (
    FleetRunResult,
    _group_policy,
    _session_histories,
    _session_policy_names,
    collect_degraded,
    make_fleet_environment,
    make_fleet_policy,
    make_group_environment,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.analysis.experiments import ExperimentSetting
    from repro.env.ambient import AmbientProfile
    from repro.scenarios import FleetScenario, ScenarioSpec, SessionAssignment


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """One shard of a fleet run: a contiguous block of global sessions.

    Attributes:
        index: Shard number (``0..num_shards-1`` after empty shards are
            dropped).
        start: First global session index of the block (inclusive).
        stop: One past the last global session index (exclusive).
    """

    index: int
    start: int
    stop: int

    @property
    def num_sessions(self) -> int:
        """Sessions in this shard."""
        return self.stop - self.start

    @property
    def session_indices(self) -> np.ndarray:
        """Global session indices of the shard, in order."""
        return np.arange(self.start, self.stop, dtype=np.int64)


def _forbidden_cuts(assignments: Sequence["SessionAssignment"]) -> List[bool]:
    """Which inter-session boundaries must not be cut by a shard edge.

    ``result[i]`` forbids a cut between global sessions ``i`` and ``i+1``.
    A maximal run of consecutive same-member ``lotus-fleet`` assignments
    (consecutive in their device/detector group's local order, which is the
    global order filtered to the group) trains one shared agent over the
    whole run; every global boundary the run spans is pinned so the run
    lands in one shard intact.
    """
    n = len(assignments)
    forbidden = [False] * max(n - 1, 0)
    last_in_group: Dict[Tuple[str, str], Tuple[int, int, str]] = {}
    for i, assignment in enumerate(assignments):
        key = (assignment.spec.device, assignment.spec.detector)
        previous = last_in_group.get(key)
        if previous is not None:
            prev_index, prev_member, prev_method = previous
            if (
                prev_method == "lotus-fleet"
                and assignment.spec.method == "lotus-fleet"
                and prev_member == assignment.member_index
            ):
                for j in range(prev_index, i):
                    forbidden[j] = True
        last_in_group[key] = (i, assignment.member_index, assignment.spec.method)
    return forbidden


def plan_shards(
    assignments: Sequence["SessionAssignment"], num_shards: int
) -> List[ShardPlan]:
    """Split session assignments into at most ``num_shards`` contiguous shards.

    The split is deterministic and balanced by session count; indivisible
    ``lotus-fleet`` atoms (see :func:`_forbidden_cuts`) are never cut, and
    when there are fewer divisible segments (or sessions) than requested
    shards, fewer shards are returned instead of empty ones — asking for
    more shards than sessions is not an error.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    n = len(assignments)
    if n == 0:
        raise ShardError("cannot shard an empty fleet")
    forbidden = _forbidden_cuts(assignments)
    bounds = [0] + [i + 1 for i in range(n - 1) if not forbidden[i]] + [n]
    segments = list(zip(bounds[:-1], bounds[1:]))

    shards: List[ShardPlan] = []
    i = 0
    for k in range(num_shards):
        if i >= len(segments):
            break
        remaining_shards = num_shards - k
        remaining_sessions = n - segments[i][0]
        target = math.ceil(remaining_sessions / remaining_shards)
        start, stop = segments[i]
        i += 1
        while i < len(segments) and stop - start < target:
            stop = segments[i][1]
            i += 1
        shards.append(ShardPlan(index=k, start=start, stop=stop))
    if i < len(segments):
        # Rounding left a tail of segments; fold it into the last shard.
        last = shards[-1]
        shards[-1] = ShardPlan(index=last.index, start=last.start, stop=n)
    return shards


# ---------------------------------------------------------------------------
# Worker entry points (module-level so the process pool can pickle them)
# ---------------------------------------------------------------------------


def _shard_session_groups(
    shard_assignments: Sequence["SessionAssignment"],
    num_frames: int,
    base: int,
) -> Tuple[List[FleetSessionGroup], List[Tuple[Tuple[str, str], list]]]:
    """Build the grouped sub-fleets of one shard, with shard-local indices.

    Mirrors the grouping of :func:`repro.runtime.fleet.run_fleet_scenario`
    restricted to the shard's assignment slice: same (device, detector)
    keying in first-appearance order, same per-group environment and policy
    construction — so each session's behaviour is exactly its behaviour in
    the unsharded run (``base`` rebases global indices onto the shard).
    """
    grouped: Dict[Tuple[str, str], list] = {}
    for assignment in shard_assignments:
        key = (assignment.spec.device, assignment.spec.detector)
        grouped.setdefault(key, []).append(assignment)
    session_groups: List[FleetSessionGroup] = []
    for (device_name, detector_name), group_assignments in grouped.items():
        environment = make_group_environment(
            device_name, detector_name, group_assignments
        )
        policy = _group_policy(environment, group_assignments, num_frames)
        session_groups.append(
            FleetSessionGroup(
                environment=environment,
                policy=policy,
                session_indices=tuple(a.index - base for a in group_assignments),
            )
        )
    return session_groups, list(grouped.items())


def _spool_store_path(spool_dir: str, start: int, stop: int) -> Path:
    return Path(spool_dir) / f"shard-{start:06d}-{stop:06d}"


def _collect_shard_histories(
    session_groups: Sequence[FleetSessionGroup],
    grouped: Sequence[Tuple[Tuple[str, str], list]],
    start: int,
    count: int,
) -> Tuple[List[List[float]], List[List[float]], List[str]]:
    """Per-session loss/reward histories and policy names of one shard."""
    losses: List[List[float]] = [[] for _ in range(count)]
    rewards: List[List[float]] = [[] for _ in range(count)]
    names: List[str] = [""] * count
    for group, (_, group_assignments) in zip(session_groups, grouped):
        group_losses, group_rewards = _session_histories(
            group.policy, group.environment.num_sessions
        )
        group_names = _session_policy_names(
            group.policy, group.environment.num_sessions
        )
        for local, assignment in enumerate(group_assignments):
            losses[assignment.index - start] = group_losses[local]
            rewards[assignment.index - start] = group_rewards[local]
            names[assignment.index - start] = group_names[local]
    return losses, rewards, names


def _build_scenario_shard(
    scenario: "FleetScenario", num_sessions: int, start: int, stop: int
):
    """Construct one scenario shard's grouped sub-fleets (no episode run).

    The build half of :func:`_run_scenario_shard`, split out so the
    persistent pool (:mod:`repro.runtime.pool`) can pin the constructed
    groups and skip this step on a warm fingerprint hit.
    """
    with _obs.span("shard.build", kind="scenario", start=start, stop=stop):
        assignments = scenario.session_assignments(num_sessions)[start:stop]
        frames = scenario.num_frames
        session_groups, grouped = _shard_session_groups(assignments, frames, start)
    return session_groups, grouped, frames


def _execute_scenario_shard(
    session_groups,
    grouped,
    frames: int,
    start: int,
    stop: int,
    spool_dir: Optional[str],
):
    """Run one (pre-built) scenario shard's episode and collect histories.

    With ``spool_dir`` set (the pooled path) the shard sinks its frames
    incrementally into a columnar chunk store under that directory and
    returns only the manifest path, so traces cross the process boundary
    through ``mmap``-able files instead of pickled frame objects.  Without
    it (inline single-shard runs) the in-memory :class:`FleetTrace` is
    returned directly.
    """
    count = stop - start
    with _obs.span("shard.run", kind="scenario", start=start, stop=stop):
        if spool_dir is None:
            payload = run_grouped_fleet_episode(session_groups, frames)
        else:
            writer = FleetTraceWriter(_spool_store_path(spool_dir, start, stop), count)
            run_grouped_fleet_episode(session_groups, frames, sink=writer)
            payload = str(writer.close())
        losses, rewards, names = _collect_shard_histories(
            session_groups, grouped, start, count
        )
    return payload, losses, rewards, names


def _run_scenario_shard(
    scenario: "FleetScenario",
    num_sessions: int,
    start: int,
    stop: int,
    spool_dir: Optional[str] = None,
):
    """Run one scenario shard; returns its trace and per-session histories.

    Executed inside a worker process (or inline for single-shard runs).
    The scenario is re-resolved in the worker — assignment resolution is
    deterministic — and the shard runs the global sessions ``start..stop-1``
    as its own grouped fleet episode.
    """
    session_groups, grouped, frames = _build_scenario_shard(
        scenario, num_sessions, start, stop
    )
    return _execute_scenario_shard(
        session_groups, grouped, frames, start, stop, spool_dir
    )


def _build_fleet_shard(
    setting: "ExperimentSetting",
    method: str,
    offset: int,
    count: int,
    ambient: "AmbientProfile | None",
):
    """Construct one homogeneous-cell shard's environment and policy.

    The shard environment is the fleet environment of the base setting with
    its seed advanced by ``offset``: session ``i`` of the shard gets stream
    generator ``default_rng(seed + offset + i)`` and proposal generator
    ``default_rng(seed + offset + i + 1)`` — exactly sessions
    ``offset..offset+count-1`` of the full fleet (and of the scalar runs).
    """
    with _obs.span("shard.build", kind="fleet", offset=offset, count=count):
        shard_setting = setting.with_overrides(seed=setting.seed + offset)
        environment = make_fleet_environment(shard_setting, count, ambient=ambient)
        policy = make_fleet_policy(
            method, environment, setting.num_frames, seed=shard_setting.seed
        )
    return environment, policy


def _execute_fleet_shard(
    environment,
    policy,
    num_frames: int,
    offset: int,
    count: int,
    spool_dir: Optional[str],
):
    """Run one (pre-built) homogeneous-cell shard's episode.

    As with :func:`_execute_scenario_shard`, ``spool_dir`` switches the
    return payload from an in-memory trace to the manifest path of a
    spooled columnar chunk store.
    """
    with _obs.span("shard.run", kind="fleet", offset=offset, count=count):
        if spool_dir is None:
            payload = run_fleet_episode(environment, policy, num_frames)
        else:
            writer = FleetTraceWriter(
                _spool_store_path(spool_dir, offset, offset + count), count
            )
            run_fleet_episode(environment, policy, num_frames, sink=writer)
            payload = str(writer.close())
        losses, rewards = _session_histories(policy, count)
        names = _session_policy_names(policy, count)
    return payload, losses, rewards, names, policy.name


def _run_fleet_shard(
    setting: "ExperimentSetting",
    method: str,
    offset: int,
    count: int,
    ambient: "AmbientProfile | None",
    spool_dir: Optional[str] = None,
):
    """Run one homogeneous-cell shard: sessions ``offset..offset+count-1``."""
    environment, policy = _build_fleet_shard(setting, method, offset, count, ambient)
    return _execute_fleet_shard(
        environment, policy, setting.num_frames, offset, count, spool_dir
    )


# ---------------------------------------------------------------------------
# Re-interleave
# ---------------------------------------------------------------------------


def _interleave_shard_traces(
    shard_traces: Sequence[object],
    shards: Sequence[ShardPlan],
    num_sessions: int,
) -> FleetTrace:
    """Merge per-shard traces into one trace in global session order.

    Shard payloads are column-window trace-likes (``FleetTrace`` or an open
    mapped trace) or — in practice — the manifest paths of spooled chunk
    stores, opened here as memory-mapped column views.  The shard partition
    is validated once, then each shard's column chunks are scattered
    straight into the merged ``(frames, sessions)`` columns at the shard's
    session indices, with its dataset codes remapped onto the merged
    dataset table: no shard trace is unpickled or rebuilt frame by frame,
    so a sharded trace is bitwise equal to a single-process one.
    """
    merge_span = _obs.span("shard.merge", shards=len(shards))
    merge_span.__enter__()
    targets = validate_session_partition(
        [shard.session_indices for shard in shards], num_sessions
    )
    normalised = [
        (MappedFleetTrace(entry), True)
        if isinstance(entry, (str, Path))
        else (entry, False)
        for entry in shard_traces
    ]
    traces = [trace for trace, _ in normalised]
    try:
        lengths = {len(trace) for trace in traces}
        if len(lengths) != 1:
            raise ShardError(
                f"shards returned unequal frame counts: {sorted(lengths)}"
            )
        num_frames = lengths.pop()
        starts = {trace.start_index for trace in traces}
        if len(starts) != 1:
            raise ShardError(
                f"shard frame indices diverged: starts {sorted(starts)}"
            )
        columns = {
            name: np.empty((num_frames, num_sessions), dtype=dtype)
            for name, dtype in COLUMN_DTYPES.items()
        }
        codes: Dict[str, int] = {}
        for trace, target in zip(traces, targets):
            remap = np.array(
                [codes.setdefault(name, len(codes)) for name in trace.dataset_table],
                dtype=np.int32,
            )
            for name, merged in columns.items():
                for lo, block in trace.iter_column_chunks(name):
                    if block.dtype != merged.dtype:
                        raise ShardError(
                            f"shard column {name!r} has dtype {block.dtype}, "
                            f"expected {merged.dtype}"
                        )
                    if name == DATASET_CODE_COLUMN:
                        block = remap[block]
                    merged[lo : lo + len(block), target] = block
        return FleetTrace.from_columns(columns, list(codes), starts.pop())
    finally:
        for trace, opened in normalised:
            if opened:
                trace.close()
        merge_span.__exit__(None, None, None)


def _shard_sessions(
    shards: Sequence[ShardPlan], shard_results: Sequence[tuple], fleet_trace
) -> Tuple[SessionResult, ...]:
    """Every session's result in global order from the merged trace.

    Shard ``k``'s result is ``(payload, losses, rewards, names, ...)`` for
    its sessions; the shards cover the fleet in ascending order.
    """
    return tuple(
        session_result_from_trace(
            names[local],
            fleet_trace.session_trace(shard.start + local),
            losses=losses[local],
            rewards=rewards[local],
        )
        for shard, (_, losses, rewards, names, *_) in zip(shards, shard_results)
        for local in range(shard.num_sessions)
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedScenarioResult:
    """Outcome of one sharded scenario run.

    Attributes:
        scenario: The (possibly overridden) fleet scenario that ran.
        assignments: Per-session resolution to specs and seeds, global order.
        shards: The contiguous session blocks the fleet was split into.
        sessions: Per-session :class:`SessionResult` records, global order.
        fleet_trace: The re-interleaved columnar trace — byte-identical to
            the unsharded :func:`repro.runtime.fleet.run_fleet_scenario`
            trace of the same scenario.
        elapsed_s: Wall-clock seconds spent running and merging the shards.
    """

    scenario: "FleetScenario"
    assignments: tuple
    shards: Tuple[ShardPlan, ...]
    sessions: Tuple[SessionResult, ...]
    fleet_trace: FleetTrace
    elapsed_s: float

    @property
    def num_shards(self) -> int:
        """Number of (non-empty) shards that actually ran."""
        return len(self.shards)

    @property
    def num_sessions(self) -> int:
        """Total fleet size."""
        return self.fleet_trace.num_sessions

    @property
    def aggregate_frames_per_second(self) -> float:
        """Total frames processed across the fleet per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.fleet_trace.total_frames / self.elapsed_s


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _resolve_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_frames: int | None = None,
) -> "FleetScenario":
    """Normalise a scenario argument into a (possibly overridden) fleet."""
    from repro.scenarios import FleetMember, FleetScenario, ScenarioSpec, build_scenario

    if isinstance(scenario, str):
        scenario = build_scenario(scenario)
    if isinstance(scenario, ScenarioSpec):
        scenario = FleetScenario(
            name=scenario.name,
            members=(FleetMember(scenario),),
            description=scenario.description,
        )
    if num_frames is not None and num_frames != scenario.num_frames:
        scenario = scenario.with_overrides(
            members=tuple(
                FleetMember(
                    member.spec.with_overrides(num_frames=num_frames), member.weight
                )
                for member in scenario.members
            )
        )
    return scenario


def run_sharded_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_shards: int,
    num_sessions: int | None = None,
    num_frames: int | None = None,
) -> ShardedScenarioResult:
    """Run a scenario's fleet split across ``num_shards`` worker processes.

    The sharded counterpart of :func:`repro.runtime.fleet.run_scenario`:
    sessions are planned into contiguous shards (:func:`plan_shards`), each
    shard executes the scenario's grouped fleet episode over its own block
    in a separate process, and the results re-interleave into one trace in
    global session order — byte-identical to the unsharded run.  A single
    (planned) shard runs inline with no pool.

    Args:
        scenario: A :class:`~repro.scenarios.FleetScenario`, a single
            :class:`~repro.scenarios.ScenarioSpec`, or a registered name.
        num_shards: Requested shard count (>= 1).  The planner may return
            fewer shards than requested (small fleets, indivisible
            ``lotus-fleet`` atoms); never more.
        num_sessions: Total population override (default: the scenario's).
        num_frames: Episode-length override applied to every member.
    """
    scenario = _resolve_scenario(scenario, num_frames)
    assignments = scenario.session_assignments(num_sessions)
    total = len(assignments)
    shards = tuple(plan_shards(assignments, num_shards))

    run_span = _obs.span(
        "runtime.run_sharded_scenario", shards=len(shards), sessions=total
    )
    run_span.__enter__()
    start_time = time.perf_counter()
    if len(shards) == 1:
        # A single planned shard runs inline and already covers every
        # session in global order: its trace is the fleet trace.
        shard_results = [
            _run_scenario_shard(scenario, total, shards[0].start, shards[0].stop)
        ]
        fleet_trace = shard_results[0][0]
    else:
        spool = tempfile.mkdtemp(prefix="repro-shards-")
        pool, owned = acquire_pool(len(shards))
        try:
            tasks = [
                PoolTask(
                    kind="scenario-shard",
                    args=(scenario, total, shard.start, shard.stop, spool),
                    fingerprint=scenario_shard_fingerprint(
                        scenario, total, shard.start, shard.stop
                    ),
                    shard_index=shard.index,
                )
                for shard in shards
            ]
            shard_results = pool.run_tasks(tasks).results
            fleet_trace = _interleave_shard_traces(
                [payload for payload, _, _, _ in shard_results], shards, total
            )
        finally:
            if owned:
                pool.shutdown()
            shutil.rmtree(spool, ignore_errors=True)
    elapsed_s = time.perf_counter() - start_time
    run_span.__exit__(None, None, None)

    sessions = _shard_sessions(shards, shard_results, fleet_trace)
    return ShardedScenarioResult(
        scenario=scenario,
        assignments=assignments,
        shards=shards,
        sessions=sessions,
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
    )


def run_sharded_fleet(
    setting: "ExperimentSetting",
    method: str,
    num_sessions: int,
    num_shards: int,
    ambient: "AmbientProfile | None" = None,
) -> FleetRunResult:
    """Run one homogeneous (setting, method) fleet cell across shards.

    The sharded counterpart of :func:`repro.runtime.fleet.run_fleet`,
    returning the same :class:`~repro.runtime.fleet.FleetRunResult` with a
    byte-identical ``fleet_trace``.  Shard ``k`` owns a contiguous block of
    sessions and rebuilds exactly their environments and policies from the
    block's seed offset; ``lotus-fleet`` (one shared network across the
    whole fleet) cannot be divided and is refused for ``num_shards > 1``.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_sessions <= 0:
        raise ShardError("num_sessions must be positive")
    if method == "lotus-fleet" and num_shards > 1:
        raise ShardError(
            "lotus-fleet trains one shared network across the whole fleet and "
            "cannot be split across shards; run with --shards 1, or shard a "
            "scenario whose lotus-fleet members are smaller than the fleet"
        )
    blocks = [
        block
        for block in np.array_split(
            np.arange(num_sessions, dtype=np.int64), min(num_shards, num_sessions)
        )
        if block.size
    ]

    run_span = _obs.span(
        "runtime.run_sharded_fleet", shards=len(blocks), sessions=num_sessions
    )
    run_span.__enter__()
    start_time = time.perf_counter()
    shards = tuple(
        ShardPlan(index=k, start=int(block[0]), stop=int(block[-1]) + 1)
        for k, block in enumerate(blocks)
    )
    if len(blocks) == 1:
        shard_results = [
            _run_fleet_shard(setting, method, 0, num_sessions, ambient)
        ]
        fleet_trace = shard_results[0][0]
    else:
        spool = tempfile.mkdtemp(prefix="repro-shards-")
        pool, owned = acquire_pool(len(blocks))
        try:
            tasks = [
                PoolTask(
                    kind="fleet-shard",
                    args=(
                        setting,
                        method,
                        int(block[0]),
                        int(block.size),
                        ambient,
                        spool,
                    ),
                    fingerprint=fleet_shard_fingerprint(
                        setting, method, int(block[0]), int(block.size), ambient
                    ),
                    shard_index=k,
                )
                for k, block in enumerate(blocks)
            ]
            shard_results = pool.run_tasks(tasks).results
            fleet_trace = _interleave_shard_traces(
                [payload for payload, _, _, _, _ in shard_results],
                shards,
                num_sessions,
            )
        finally:
            if owned:
                pool.shutdown()
            shutil.rmtree(spool, ignore_errors=True)
    elapsed_s = time.perf_counter() - start_time
    run_span.__exit__(None, None, None)

    sessions = _shard_sessions(shards, shard_results, fleet_trace)
    return FleetRunResult(
        setting=setting,
        method=method,
        num_sessions=num_sessions,
        policy_name=shard_results[0][4],
        sessions=sessions,
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
    )


# ---------------------------------------------------------------------------
# Supervised execution: crash detection and checkpoint recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """What the supervisor observed and did about worker deaths.

    Attributes:
        crashes_detected: Worker deaths the supervisor observed (injected
            crashes and real ones look identical: an EOF on the worker's
            pipe).
        restarts: Shard executions that were resubmitted after a death.
        recovered_shards: Indices of shards that completed only after at
            least one restart.
        checkpoint_every: The periodic checkpoint interval (frames) the
            workers spooled at.
        recovery_s: Wall-clock seconds spent re-running shards after the
            first detected death (zero for a clean run).
    """

    crashes_detected: int
    restarts: int
    recovered_shards: Tuple[int, ...]
    checkpoint_every: int
    recovery_s: float


@dataclass(frozen=True)
class SupervisedScenarioResult:
    """Outcome of one supervised (fault-tolerant) sharded scenario run.

    Carries everything :class:`ShardedScenarioResult` does, plus the
    supervisor's :class:`RecoveryReport` and the per-(frame, session)
    degraded mask recorded by fault-injection wrappers (``None`` when the
    scenario carries no fault plan).
    """

    scenario: "FleetScenario"
    assignments: tuple
    shards: Tuple[ShardPlan, ...]
    sessions: Tuple[SessionResult, ...]
    fleet_trace: FleetTrace
    elapsed_s: float
    recovery: RecoveryReport
    degraded: Optional[np.ndarray] = None

    @property
    def num_shards(self) -> int:
        """Number of (non-empty) shards that actually ran."""
        return len(self.shards)

    @property
    def num_sessions(self) -> int:
        """Total fleet size."""
        return self.fleet_trace.num_sessions

    @property
    def aggregate_frames_per_second(self) -> float:
        """Total frames processed across the fleet per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("inf")
        return self.fleet_trace.total_frames / self.elapsed_s


def _checkpoint_write(path: Path, payload: dict) -> None:
    """Atomically pickle a shard checkpoint (write-then-rename)."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def _run_supervised_shard(
    scenario: "FleetScenario",
    num_sessions: int,
    start: int,
    stop: int,
    shard_index: int,
    spool_dir: str,
    checkpoint_every: int,
    crash_frame: Optional[int],
):
    """Run one scenario shard with periodic checkpoints and crash injection.

    The frame loop advances the groups like
    :func:`repro.env.fleet.run_grouped_fleet_episode`, but pauses at frame
    boundaries to spool a checkpoint (the environments' and policies'
    ``state_dict`` snapshots plus the trace columns recorded so far) every
    ``checkpoint_every`` frames.  When a checkpoint for this shard already
    exists in the spool, the worker resumes from it instead of frame 0 —
    because every state a frame reads is captured, the resumed run's
    remaining frames are bit-identical to an uninterrupted one.

    ``crash_frame`` injects a worker death: the process calls ``os._exit``
    at the start of that frame, once — a marker file in the spool keeps the
    restarted worker from crashing again.

    The completed trace is spooled as a columnar chunk store next to the
    checkpoints and only its manifest path is returned, so the supervisor
    merges memory-mapped columns instead of unpickling frame lists.
    """
    run_span = _obs.span("shard.run", kind="supervised", shard=shard_index)
    run_span.__enter__()
    with _obs.span("shard.build", kind="supervised", shard=shard_index):
        assignments = scenario.session_assignments(num_sessions)[start:stop]
        num_frames = scenario.num_frames
        session_groups, grouped = _shard_session_groups(assignments, num_frames, start)
    count = stop - start
    targets = validate_session_partition(
        [group.session_indices for group in session_groups], count
    )
    for group in session_groups:
        group.environment.reset()
        group.policy.reset()

    spool = Path(spool_dir)
    checkpoint_path = spool / f"shard-{shard_index}.ckpt"
    crash_marker = spool / f"shard-{shard_index}.crashed"
    trace = FleetTrace(count)
    first_frame = 0
    if checkpoint_path.exists():
        with open(checkpoint_path, "rb") as handle:
            payload = pickle.load(handle)
        for group, environment_state, policy_state in zip(
            session_groups, payload["environments"], payload["policies"]
        ):
            group.environment.load_state_dict(environment_state)
            if policy_state is not None:
                group.policy.load_state_dict(policy_state)
        trace = payload["trace"]
        first_frame = payload["frame"]
        _obs.event("checkpoint.restore", shard=shard_index, frame=first_frame)
        _obs.inc("checkpoint.restores")

    trace.reserve(num_frames - first_frame)
    for frame in range(first_frame, num_frames):
        if (
            crash_frame is not None
            and frame == crash_frame
            and not crash_marker.exists()
        ):
            crash_marker.write_text(str(frame))
            os._exit(43)
        trace.append_groups(advance_groups(session_groups), targets)
        completed = frame + 1
        if (
            checkpoint_every > 0
            and completed % checkpoint_every == 0
            and completed < num_frames
        ):
            _checkpoint_write(
                checkpoint_path,
                {
                    "frame": completed,
                    "environments": [
                        group.environment.state_dict() for group in session_groups
                    ],
                    "policies": [
                        group.policy.state_dict()
                        if hasattr(group.policy, "state_dict")
                        else None
                        for group in session_groups
                    ],
                    "trace": trace,
                },
            )
            _obs.event("checkpoint.write", shard=shard_index, frame=completed)
            _obs.inc("checkpoint.writes")

    losses, rewards, names = _collect_shard_histories(
        session_groups, grouped, start, count
    )
    degraded = collect_degraded(session_groups, num_frames, count)

    # Spool the completed trace as a chunk store.  A stale store can exist
    # if this worker's previous incarnation finished but its result was
    # lost when another worker broke the pool; rebuild it from scratch.
    store_dir = spool / f"shard-{shard_index}-trace"
    if store_dir.exists():
        shutil.rmtree(store_dir)
    manifest = write_fleet_trace(trace, store_dir)
    run_span.__exit__(None, None, None)
    return str(manifest), losses, rewards, names, degraded


def run_supervised_scenario(
    scenario: Union["FleetScenario", "ScenarioSpec", str],
    num_shards: int,
    num_sessions: int | None = None,
    num_frames: int | None = None,
    checkpoint_every: int = 25,
    spool_dir: "str | Path | None" = None,
    crashes: Sequence[WorkerCrash] = (),
    max_restarts: int = 3,
) -> SupervisedScenarioResult:
    """Run a sharded scenario under a crash-recovering supervisor.

    The fault-tolerant counterpart of :func:`run_sharded_scenario`: every
    shard always runs in a worker process and spools a checkpoint every
    ``checkpoint_every`` frames.  When a worker dies — injected through a
    :class:`~repro.faults.WorkerCrash` event (on the scenario's fault plans
    or passed via ``crashes``) or for real — the supervisor observes the
    dead pipe, respawns a fresh worker into the same pool slot, and
    resubmits the unfinished shard, which resumes from its latest
    checkpoint while the other shards keep running.  Because the
    checkpoints capture every bit of state the frame loop reads, the
    recovered trace is byte-identical to an uninterrupted run of the same
    scenario.

    Args:
        scenario: A fleet scenario, single spec, or registered name.
        num_shards: Requested shard count (the planner may return fewer).
        num_sessions: Total population override (default: the scenario's).
        num_frames: Episode-length override applied to every member.
        checkpoint_every: Frames between spooled checkpoints (``0``
            disables periodic checkpoints; a crashed shard then restarts
            from frame 0, still bit-identically).
        spool_dir: Directory for checkpoints and crash markers; a
            temporary directory (cleaned up on success) by default.
        crashes: Extra injected worker crashes, merged with the crash
            events of the scenario's fault plans.
        max_restarts: Restart budget per shard; exceeding it raises
            :class:`~repro.errors.ShardError`.
    """
    if checkpoint_every < 0:
        raise ShardError("checkpoint_every must be non-negative")
    scenario = _resolve_scenario(scenario, num_frames)
    assignments = scenario.session_assignments(num_sessions)
    total = len(assignments)
    shards = tuple(plan_shards(assignments, num_shards))

    all_crashes = list(crashes)
    for member in scenario.members:
        plan = getattr(member.spec, "faults", None)
        if plan is not None:
            all_crashes.extend(plan.crashes)
    crash_by_shard: Dict[int, int] = {}
    for crash in all_crashes:
        if crash.shard >= len(shards):
            raise FaultError(
                f"worker crash targets shard {crash.shard} but the plan "
                f"produced only {len(shards)} shard(s)"
            )
        frame = crash_by_shard.get(crash.shard)
        crash_by_shard[crash.shard] = (
            crash.frame if frame is None else min(frame, crash.frame)
        )

    own_spool = spool_dir is None
    spool = Path(tempfile.mkdtemp(prefix="repro-spool-")) if own_spool else Path(spool_dir)
    spool.mkdir(parents=True, exist_ok=True)

    run_span = _obs.span(
        "runtime.run_supervised_scenario", shards=len(shards), sessions=total
    )
    run_span.__enter__()
    start_time = time.perf_counter()
    tasks = [
        PoolTask(
            kind="supervised-shard",
            args=(
                scenario,
                total,
                shard.start,
                shard.stop,
                shard.index,
                str(spool),
                checkpoint_every,
                crash_by_shard.get(shard.index),
            ),
            shard_index=shard.index,
        )
        for shard in shards
    ]
    pool, owned = acquire_pool(len(shards))
    try:
        # A dying worker (injected ``os._exit`` or a real fault) shows up
        # as an EOF on its pipe; the pool respawns a fresh process into the
        # same slot and resubmits the shard, which resumes from its latest
        # spooled checkpoint.  Other shards keep running undisturbed.
        run_report = pool.run_tasks(tasks, max_restarts=max_restarts)
    finally:
        if owned:
            pool.shutdown()
    ordered = run_report.results
    fleet_trace = _interleave_shard_traces(
        [payload for payload, _, _, _, _ in ordered], shards, total
    )
    elapsed_s = time.perf_counter() - start_time
    run_span.__exit__(None, None, None)
    recovery_s = (
        0.0
        if run_report.first_death is None
        else time.perf_counter() - run_report.first_death
    )
    crashes_detected = run_report.crashes_detected
    restarts = run_report.restarts
    recovered = set(run_report.recovered)

    degraded: Optional[np.ndarray] = None
    if any(shard_degraded is not None for _, _, _, _, shard_degraded in ordered):
        degraded = np.zeros((scenario.num_frames, total), dtype=bool)
        for shard, (_, _, _, _, shard_degraded) in zip(shards, ordered):
            if shard_degraded is not None:
                degraded[:, shard.start : shard.stop] = shard_degraded

    sessions = _shard_sessions(shards, ordered, fleet_trace)

    if own_spool:
        # The spool now holds directories (spooled trace stores) alongside
        # checkpoint and marker files.
        shutil.rmtree(spool, ignore_errors=True)

    recovery = RecoveryReport(
        crashes_detected=crashes_detected,
        restarts=restarts,
        recovered_shards=tuple(sorted(recovered)),
        checkpoint_every=checkpoint_every,
        recovery_s=recovery_s,
    )
    _obs.record_report("recovery.report", recovery)
    return SupervisedScenarioResult(
        scenario=scenario,
        assignments=assignments,
        shards=shards,
        sessions=sessions,
        fleet_trace=fleet_trace,
        elapsed_s=elapsed_s,
        recovery=recovery,
        degraded=degraded,
    )
