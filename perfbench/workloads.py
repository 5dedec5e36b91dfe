"""The benchmark's four workloads, each one closed-loop batch call per run.

Every workload is built from registry specs (or paper settings) in this
file; the workload seed reaches the library only through
``with_overrides(seed=...)``.  A run calls one public entry point and
returns the per-session ``SessionResult`` summaries, which
:func:`check_outcome` validates.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import (
    ExperimentJob,
    ExperimentRuntime,
    ExperimentSetting,
    FleetMember,
    FleetScenario,
    build_scenario,
    run_scenario,
    run_supervised_scenario,
)

#: Methods of the paper's Table 1, in table order.
PAPER_METHODS = ("default", "ztt", "lotus")

#: Methods that run the online-training warm-up before evaluation.
LEARNING_METHODS = frozenset({"ztt", "lotus"})

#: Workers (and shards) of the pooled workload.
POOL_WORKERS = 2

#: Per-size knobs: sessions, frames per session, training frames and
#: checkpoint interval.  ``full`` is what the benchmark measures; ``tiny``
#: is the self-test's size.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "lotus-ztt": {
        "full": {"sessions": 16, "frames": 150},
        "tiny": {"sessions": 2, "frames": 12},
    },
    "governor-fleet": {
        "full": {"sessions": 256, "frames": 120},
        "tiny": {"sessions": 8, "frames": 12},
    },
    "mixed-supervised": {
        "full": {"sessions": 64, "frames": 100, "checkpoint_every": 25},
        "tiny": {"sessions": 8, "frames": 12, "checkpoint_every": 5},
    },
    "paper-table": {
        "full": {"frames": 300, "training_frames": 100},
        "tiny": {"frames": 12, "training_frames": 8},
    },
}


@dataclass
class Outcome:
    """What one run produced, reduced to what the benchmark checks.

    Attributes:
        metrics: Whole-episode ``EpisodeMetrics`` of every session, in
            session order.
        steady: Second-half ``EpisodeMetrics`` of every session.
        methods: Method name of every session.
        session_frames: Simulated session-frames the run processed,
            training warm-up frames included.
        learner_frames: The share of ``session_frames`` run by learning
            methods.
        spool_bytes: ``{"checkpoint": ..., "store": ...}`` bytes left in the
            spool directory (supervised runs only).
        job_done_s: Seconds from the entry call to each job's completion
            (job-runtime runs only, filled in traced runs).
    """

    metrics: list
    steady: list
    methods: List[str]
    session_frames: int
    learner_frames: int
    spool_bytes: Dict[str, int] = field(default_factory=dict)
    job_done_s: List[float] = field(default_factory=list)

    def signature(self) -> Tuple[tuple, tuple]:
        """Everything a repeat of the same inputs must reproduce exactly."""
        return tuple(self.metrics), tuple(self.steady)


def _sessions_outcome(
    sessions, methods, frames: int, training_frames: int = 0
) -> Outcome:
    """Reduce ``SessionResult``s; learners also ran ``training_frames``."""
    learners = sum(method in LEARNING_METHODS for method in methods)
    return Outcome(
        metrics=[session.metrics for session in sessions],
        steady=[session.steady_metrics for session in sessions],
        methods=list(methods),
        session_frames=len(methods) * frames + learners * training_frames,
        learner_frames=learners * (frames + training_frames),
    )


def _scenario_methods(result) -> List[str]:
    return [assignment.spec.method for assignment in result.assignments]


class Workload:
    """Base class: one named workload at one seed and size."""

    name = ""
    pooled = False

    def __init__(self, seed: int, size: str = "full"):
        self.seed = int(seed)
        self.size = SIZES[self.name][size]

    @property
    def expected_sessions(self) -> int:
        return self.size["sessions"]

    @property
    def expected_frames(self) -> int:
        return self.size["frames"]

    def run(self, work_dir: Path, traced: bool = False) -> Outcome:
        """One closed-loop batch call; ``traced`` may add bookkeeping."""
        return self.run_in_process()

    def run_in_process(self) -> Outcome:
        """``self.scenario`` through ``run_scenario``, in this process."""
        result = run_scenario(self.scenario)
        return _sessions_outcome(
            result.sessions, _scenario_methods(result), self.expected_frames
        )

    def reference(self) -> Optional[Tuple[tuple, tuple]]:
        """Outcome signature of an independent reference path, if any."""
        return None


class LotusZtt(Workload):
    """The paper's learners: half Lotus, half zTT, on the reference cell."""

    name = "lotus-ztt"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        base = build_scenario("jetson-kitti-baseline").with_overrides(
            num_frames=self.size["frames"], seed=self.seed
        )
        self.scenario = FleetScenario(
            name="perfbench-lotus-ztt",
            members=(
                FleetMember(base.with_overrides(name="jetson-kitti-lotus")),
                FleetMember(base.with_overrides(name="jetson-kitti-ztt", method="ztt")),
            ),
            num_sessions=self.size["sessions"],
        )


class GovernorFleet(Workload):
    """A learner-free fleet: three devices, both detector kinds, four ambients."""

    name = "governor-fleet"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)

        def spec(name: str, **overrides):
            return build_scenario(name).with_overrides(
                num_frames=self.size["frames"], seed=self.seed, **overrides
            )

        self.scenario = FleetScenario(
            name="perfbench-governor-fleet",
            members=(
                FleetMember(spec("phone-diurnal"), weight=3.0),
                FleetMember(spec("cctv-burst"), weight=2.0),
                FleetMember(spec("thermal-soak"), weight=1.0),
                FleetMember(spec("drone-climb", method="default"), weight=1.0),
            ),
            num_sessions=self.size["sessions"],
        )


def _tree_bytes(paths) -> int:
    return sum(
        entry.stat().st_size
        for path in paths
        for entry in ([path] if path.is_file() else path.rglob("*"))
        if entry.is_file()
    )


class MixedSupervised(Workload):
    """``mixed-edge-fleet`` on two supervised shards with periodic checkpoints."""

    name = "mixed-supervised"
    pooled = True

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        fleet = build_scenario("mixed-edge-fleet")
        self.scenario = fleet.with_overrides(
            members=tuple(
                FleetMember(
                    member.spec.with_overrides(
                        num_frames=self.size["frames"], seed=self.seed
                    ),
                    member.weight,
                )
                for member in fleet.members
            ),
            num_sessions=self.size["sessions"],
        )

    def run(self, work_dir: Path, traced: bool = False) -> Outcome:
        # An empty spool per run: a leftover checkpoint would be resumed.
        spool = work_dir / self.name
        shutil.rmtree(spool, ignore_errors=True)
        try:
            result = run_supervised_scenario(
                self.scenario,
                num_shards=POOL_WORKERS,
                checkpoint_every=self.size["checkpoint_every"],
                spool_dir=spool,
            )
            outcome = _sessions_outcome(
                result.sessions, _scenario_methods(result), self.expected_frames
            )
            outcome.spool_bytes = {
                "checkpoint": _tree_bytes(spool.glob("*.ckpt")),
                "store": _tree_bytes(spool.glob("*-trace")),
            }
            return outcome
        finally:
            shutil.rmtree(spool, ignore_errors=True)

    def reference(self) -> Tuple[tuple, tuple]:
        """Signature of the same scenario run in-process by ``run_scenario``."""
        return self.run_in_process().signature()


class PaperTable(Workload):
    """Table 1's Jetson FasterRCNN cells through the job runtime, serially.

    Serial on purpose: on a 2-CPU host, two pool workers whose BLAS each
    starts 2 threads are slower than one process, and their run-to-run
    throughput swings far beyond any bound this benchmark could hold.  The
    pooled path is measured by ``mixed-supervised``.
    """

    name = "paper-table"
    datasets = ("kitti", "visdrone2019")

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        settings = [
            ExperimentSetting(
                device="jetson-orin-nano",
                detector="faster_rcnn",
                dataset=dataset,
                num_frames=self.size["frames"],
                training_frames=self.size["training_frames"],
            ).with_overrides(seed=self.seed)
            for dataset in self.datasets
        ]
        # The jobs run_comparison_batch builds: every setting x method.
        self.jobs = [
            ExperimentJob(setting=setting, method=method)
            for setting in settings
            for method in PAPER_METHODS
        ]
        self.runtime = ExperimentRuntime(max_workers=1)

    @property
    def expected_sessions(self) -> int:
        return len(self.jobs)

    def run(self, work_dir: Path, traced: bool = False) -> Outcome:
        done_s: List[float] = []
        hook = None
        if traced:
            start = time.perf_counter()

            def hook(done, total, job, cached):
                done_s.append(time.perf_counter() - start)

        sessions = self.runtime.run_jobs(self.jobs, progress=hook)
        outcome = _sessions_outcome(
            sessions,
            [job.method for job in self.jobs],
            self.size["frames"],
            self.size["training_frames"],
        )
        outcome.job_done_s = done_s
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (LotusZtt, GovernorFleet, MixedSupervised, PaperTable)
}

#: ``EpisodeMetrics`` fields behind the end-to-end ``sim_*`` metrics.
SIM_FIELDS = {
    "sim_lat_mean_ms": "mean_latency_ms",
    "sim_lat_std_ms": "latency_std_ms",
    "sim_satisfaction": "satisfaction_rate",
    "sim_temp_mean_c": "mean_temperature_c",
}


def session_mean(metrics: list, attribute: str) -> float:
    """Mean of one ``EpisodeMetrics`` field over sessions (0.0 when empty)."""
    if not metrics:
        return 0.0
    return math.fsum(getattr(m, attribute) for m in metrics) / len(metrics)


def check_outcome(workload: Workload, outcome: Outcome) -> Optional[str]:
    """``None`` when the run's summaries are well formed, else the reason."""
    if len(outcome.metrics) != workload.expected_sessions:
        return (
            f"expected {workload.expected_sessions} sessions, "
            f"got {len(outcome.metrics)}"
        )
    for index, metrics in enumerate(outcome.metrics):
        if metrics.num_frames != workload.expected_frames:
            return (
                f"session {index} summarised {metrics.num_frames} frames, "
                f"expected {workload.expected_frames}"
            )
        for attribute in SIM_FIELDS.values():
            if not math.isfinite(getattr(metrics, attribute)):
                return f"session {index} has a non-finite {attribute}"
    return None
