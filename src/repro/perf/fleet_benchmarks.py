"""Microbenchmarks of the vectorized fleet engine.

Second entry of the repository's perf trajectory: every benchmark times the
batched fleet kernel next to the equivalent loop over scalar objects in the
same process on the same seeds, so the ``BENCH_PR3.json`` speedups are
apples-to-apples.  Covered:

* ``fleet_session`` — the headline: a full default-governor episode on the
  fleet engine vs. the same N sessions run one at a time through the scalar
  environment (aggregate frames/sec ratio; acceptance floor 5x at N=64),
* ``fleet_thermal`` — one executed device segment (power, RC integration,
  throttle update) batched vs. a loop over scalar devices,
* ``fleet_governor`` — one schedutil + simple_ondemand decision batched vs.
  the scalar governor loop,
* ``fleet_proposals`` — proposal sampling batched vs. the scalar loop,
* ``fleet_heterogeneous`` — a mixed-device, mixed-ambient
  ``mixed-edge-fleet`` scenario on the grouped sub-fleet engine vs. the
  same sessions run one at a time as scalar scenario references.

Run via ``python -m repro bench --suite fleet``; the report lands in
``BENCH_PR3.json`` by default.

The module also carries the *shard-scaling* suite (``--suite shards``,
``BENCH_PR6.json``): one homogeneous default-governor fleet cell run
through :func:`repro.runtime.shards.run_sharded_fleet` at increasing shard
counts, recording aggregate frames/second per count next to the host's
core count and the documented multi-core throughput target
(:data:`SHARD_THROUGHPUT_TARGET_FPS`).  Shard results are byte-identical
to the unsharded run (``tests/test_fleet_sharding.py``), so the suite
measures pure engine scaling, not a relaxed variant.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.analysis.experiments import ExperimentSetting, make_environment, make_policy
from repro.detection.fleet import propose_batch
from repro.detection.registry import build_detector
from repro.env.episode import run_episode
from repro.env.fleet import run_fleet_episode
from repro.governors.fleet import build_batched_default_governor
from repro.governors.registry import build_default_governor
from repro.hardware.devices.registry import build_device
from repro.hardware.fleet import DeviceFleet
from repro.perf.timer import BenchReport, measure
from repro.runtime.fleet import make_fleet_environment, make_fleet_policy
from repro.workload.fleet import SessionNormals

#: Default report filename; the label tracks the PR that recorded it.
BENCH_LABEL = "PR3"
DEFAULT_FLEET_OUTPUT = f"BENCH_{BENCH_LABEL}.json"

#: Fleet size of the headline benchmark (the acceptance floor is defined
#: at N=64; quick mode shrinks the episode, not the fleet).
FLEET_SIZE = 64

#: Acceptance floors recorded into the report for context (the benchmark
#: itself does not gate on them; tests/test_fleet_perf.py does).
FLEET_SPEEDUP_TARGETS = {"fleet_session": 5.0}

#: Label and default output of the shard-scaling suite.
SHARD_BENCH_LABEL = "PR6"
DEFAULT_SHARD_OUTPUT = f"BENCH_{SHARD_BENCH_LABEL}.json"

#: Shard counts the scaling suite sweeps by default.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)

#: Documented multi-core throughput target: 1M+ aggregate frames/second.
#: A single core sustains roughly 40-100k frames/s on the default-governor
#: cell depending on hardware, so the target needs >= 10-16 physical cores
#: with near-linear shard scaling; the report records the host's measured
#: per-shard-count throughput and core count next to this constant so a
#: single-core CI record is never mistaken for a target miss.
SHARD_THROUGHPUT_TARGET_FPS = 1_000_000.0


def bench_fleet_session(
    report: BenchReport, fleet_size: int, frames: int, repeats: int
) -> None:
    """Full default-governor episode: fleet engine vs. N scalar sessions."""
    setting = ExperimentSetting(num_frames=frames, seed=0)
    fleet_env = make_fleet_environment(setting, fleet_size)
    fleet_policy = make_fleet_policy("default", fleet_env, frames, seed=0)
    scalar_envs = [
        make_environment(setting.with_overrides(seed=i)) for i in range(fleet_size)
    ]
    scalar_policies = [
        make_policy("default", env, frames, seed=i)
        for i, env in enumerate(scalar_envs)
    ]

    def run_fleet_side() -> None:
        run_fleet_episode(fleet_env, fleet_policy, frames)

    def run_scalar_side() -> None:
        for env, policy in zip(scalar_envs, scalar_policies):
            run_episode(env, policy, frames)

    name = f"fleet_session_{fleet_size}x{frames}f"
    current = measure(name, run_fleet_side, iterations=1, repeats=repeats)
    legacy = measure(f"{name}_scalar", run_scalar_side, iterations=1, repeats=repeats)
    report.add_pair("fleet_session", current, legacy)


def bench_fleet_thermal(
    report: BenchReport, fleet_size: int, iterations: int, repeats: int
) -> None:
    """One executed 150 ms segment: batched device kernel vs. scalar loop."""
    fleet = DeviceFleet(build_device("jetson-orin-nano"), fleet_size)
    devices = [build_device("jetson-orin-nano") for _ in range(fleet_size)]
    duration = np.full(fleet_size, 150.0)

    current = measure(
        f"fleet_thermal_{fleet_size}",
        lambda: fleet.execute(duration, 0.4, 0.85),
        iterations=iterations,
        repeats=repeats,
        setup=fleet.reset,
    )

    def scalar_segment() -> None:
        for device in devices:
            device.execute(150.0, 0.4, 0.85)

    def scalar_reset() -> None:
        for device in devices:
            device.reset()

    legacy = measure(
        f"fleet_thermal_{fleet_size}_scalar",
        scalar_segment,
        iterations=iterations,
        repeats=repeats,
        setup=scalar_reset,
    )
    report.add_pair("fleet_thermal", current, legacy)


def bench_fleet_governor(
    report: BenchReport, fleet_size: int, iterations: int, repeats: int
) -> None:
    """One joint governor decision: batched kernels vs. the scalar loop."""
    rng = np.random.default_rng(5)
    cpu_util = rng.uniform(0.1, 1.0, size=fleet_size)
    gpu_util = rng.uniform(0.1, 1.0, size=fleet_size)
    cpu_levels = rng.integers(0, 10, size=fleet_size)
    gpu_levels = rng.integers(0, 5, size=fleet_size)
    batched = build_batched_default_governor("jetson-orin-nano")
    scalar = build_default_governor("jetson-orin-nano")

    def batched_decide() -> None:
        batched.cpu_governor.select_levels(cpu_util, cpu_levels, 10)
        batched.gpu_governor.select_levels(gpu_util, gpu_levels, 5)

    def scalar_decide() -> None:
        for i in range(fleet_size):
            scalar.cpu_governor.select_level(cpu_util[i], int(cpu_levels[i]), 10)
            scalar.gpu_governor.select_level(gpu_util[i], int(gpu_levels[i]), 5)

    current = measure(
        f"fleet_governor_{fleet_size}", batched_decide,
        iterations=iterations, repeats=repeats,
    )
    legacy = measure(
        f"fleet_governor_{fleet_size}_scalar", scalar_decide,
        iterations=iterations, repeats=repeats,
    )
    report.add_pair("fleet_governor", current, legacy)


def bench_fleet_proposals(
    report: BenchReport, fleet_size: int, iterations: int, repeats: int
) -> None:
    """Proposal sampling: batched exp/clip tail vs. the scalar loop."""
    detector = build_detector("faster_rcnn")
    candidates = np.random.default_rng(6).uniform(20.0, 400.0, size=fleet_size)
    noise = SessionNormals(
        [np.random.default_rng(i) for i in range(fleet_size)],
        detector.proposal_model.noise_std,
    )
    scalar_rngs = [np.random.default_rng(i) for i in range(fleet_size)]

    current = measure(
        f"fleet_proposals_{fleet_size}",
        lambda: propose_batch(detector, candidates, noise),
        iterations=iterations,
        repeats=repeats,
    )

    def scalar_propose() -> None:
        for i in range(fleet_size):
            detector.propose(float(candidates[i]), scalar_rngs[i])

    legacy = measure(
        f"fleet_proposals_{fleet_size}_scalar", scalar_propose,
        iterations=iterations, repeats=repeats,
    )
    report.add_pair("fleet_proposals", current, legacy)


def bench_fleet_heterogeneous(
    report: BenchReport, num_sessions: int, frames: int, repeats: int
) -> None:
    """Mixed-device/ambient scenario: grouped fleet engine vs. scalar loop.

    Uses the governor-driven members of the built-in ``mixed-edge-fleet``
    (the learning member is dropped so the comparison times the engine, not
    DQN training); the scalar side runs each session's own spec + seed
    through the scalar environment, exactly like the equivalence oracle.
    """
    from repro.runtime.fleet import run_fleet_scenario, scalar_reference_session
    from repro.scenarios import FleetScenario, build_scenario

    base = build_scenario("mixed-edge-fleet")
    scenario = FleetScenario(
        name="mixed-edge-fleet-bench",
        members=tuple(
            member
            for member in base.members
            if member.spec.method in ("default", "performance", "powersave", "fixed")
        ),
        description="governor-only members of mixed-edge-fleet",
    )
    assignments = scenario.session_assignments(num_sessions)

    def run_grouped_side() -> None:
        run_fleet_scenario(scenario, num_sessions=num_sessions, num_frames=frames)

    def run_scalar_side() -> None:
        for assignment in assignments:
            scalar_reference_session(
                assignment.spec, seed=assignment.seed, num_frames=frames
            )

    name = f"fleet_hetero_{num_sessions}x{frames}f"
    current = measure(name, run_grouped_side, iterations=1, repeats=repeats)
    legacy = measure(f"{name}_scalar", run_scalar_side, iterations=1, repeats=repeats)
    report.add_pair("fleet_heterogeneous", current, legacy)


def bench_shard_scaling(
    report: BenchReport,
    fleet_size: int,
    frames: int,
    shard_counts: tuple[int, ...],
    repeats: int,
) -> None:
    """One default-governor fleet cell at every shard count in the sweep.

    Records one result per count (``fleet_shards_{k}of{N}x{F}f``) plus a
    ``fleet_shards_{k}`` speedup relative to the single-shard run for every
    ``k > 1``.  On a single-core host those ratios fall below 1 (process
    overhead with no parallel hardware) — that is signal, not failure.
    """
    from repro.runtime.shards import run_sharded_fleet

    setting = ExperimentSetting(num_frames=frames, seed=0)
    results: dict[int, object] = {}
    for shards in shard_counts:
        name = f"fleet_shards_{shards}of{fleet_size}x{frames}f"
        results[shards] = report.add(
            measure(
                name,
                lambda shards=shards: run_sharded_fleet(
                    setting, "default", fleet_size, shards
                ),
                iterations=1,
                repeats=repeats,
            )
        )
    base = results.get(1)
    if base is not None:
        for shards, result in results.items():
            if shards != 1:
                report.speedups[f"fleet_shards_{shards}"] = (
                    base.best_s / result.best_s
                )


def run_shard_bench_suite(
    quick: bool = False,
    fleet_size: int | None = None,
    shard_counts: tuple[int, ...] | None = None,
) -> BenchReport:
    """Run the shard-scaling sweep and return the populated report.

    Args:
        quick: CI-smoke mode — a small fleet, short episode and the
            ``(1, 2)`` counts only, to prove execution health.
        fleet_size: Sessions in the benchmarked cell (default 32 quick /
            256 full).
        shard_counts: Shard counts to sweep (default ``(1, 2)`` quick /
            :data:`DEFAULT_SHARD_COUNTS` full).
    """
    report = BenchReport(label=SHARD_BENCH_LABEL, quick=quick)
    size = fleet_size if fleet_size is not None else (32 if quick else 256)
    frames = 20 if quick else 50
    repeats = 1 if quick else 3
    counts = shard_counts if shard_counts is not None else (
        (1, 2) if quick else DEFAULT_SHARD_COUNTS
    )
    bench_shard_scaling(report, size, frames, tuple(counts), repeats)
    return report


def annotate_shard_speedups(
    speedups: "dict[str, float]", host_cpu_count: int
) -> dict[str, str]:
    """Label each shard speedup honestly, gated on the host's core count.

    A sub-1× shard "speedup" is *expected* when the host cannot actually
    run the shards in parallel — one core, or more shards than cores —
    because the sweep is then measuring pure process/serialisation
    overhead.  Only a sub-1× result with genuine parallel headroom is
    flagged as a regression; anything at or above 1× is ``"ok"``.
    """
    notes: dict[str, str] = {}
    for family, ratio in speedups.items():
        if not family.startswith("fleet_shards_"):
            continue
        try:
            shards = int(family.removeprefix("fleet_shards_"))
        except ValueError:
            continue
        if ratio >= 1.0:
            notes[family] = "ok"
        elif host_cpu_count < 2 or shards > host_cpu_count:
            notes[family] = (
                f"expected single-core overhead: {shards} shards on "
                f"{host_cpu_count} core(s) cannot run in parallel"
            )
        else:
            notes[family] = (
                f"regression: {ratio:.2f}x with {shards} shards on "
                f"{host_cpu_count} cores (parallel hardware available)"
            )
    return notes


def write_shard_report(report: BenchReport, output: str | Path) -> Path:
    """Serialise a shard-scaling report plus throughput metadata.

    Adds the per-shard-count aggregate frames/second table, the host core
    count the sweep actually had, and the documented multi-core target so
    the record is self-describing — including per-speedup honesty notes
    (:func:`annotate_shard_speedups`) that mark sub-1× entries as expected
    single-core overhead when the host could not parallelise them.
    """
    path = Path(output)
    payload = report.to_dict()
    host_cpu_count = os.cpu_count() or 1
    payload["host_cpu_count"] = host_cpu_count
    payload["parallel_hardware_available"] = host_cpu_count > 1
    payload["speedup_notes"] = annotate_shard_speedups(
        report.speedups, host_cpu_count
    )
    payload["throughput_target_frames_per_second"] = SHARD_THROUGHPUT_TARGET_FPS
    throughput: dict[str, float] = {}
    for result in report.results:
        if not result.name.startswith("fleet_shards_"):
            continue
        shards, _, rest = result.name.removeprefix("fleet_shards_").partition("of")
        sessions, _, frames = rest.partition("x")
        total_frames = int(sessions) * int(frames.removesuffix("f"))
        throughput[shards] = total_frames / result.best_s
    payload["shard_throughput_frames_per_second"] = throughput
    if throughput:
        payload["best_observed_frames_per_second"] = max(throughput.values())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_fleet_bench_suite(quick: bool = False, fleet_size: int = FLEET_SIZE) -> BenchReport:
    """Run every fleet microbenchmark and return the populated report.

    Args:
        quick: CI-smoke mode — shorter episodes and fewer repeats, to prove
            execution health rather than produce stable numbers.
        fleet_size: Fleet size N used by every benchmark.
    """
    report = BenchReport(label=BENCH_LABEL, quick=quick)
    session_frames = 60 if quick else 150
    session_repeats = 1 if quick else 3
    micro_iters = 50 if quick else 400
    repeats = 2 if quick else 3

    # The heterogeneous case splits the population into (device, detector)
    # groups, so it needs a fleet-scale population before the batched
    # kernels amortise; benchmark it at realistic sizes.
    hetero_sessions = 48 if quick else 96

    bench_fleet_session(report, fleet_size, session_frames, session_repeats)
    bench_fleet_thermal(report, fleet_size, micro_iters, repeats)
    bench_fleet_governor(report, fleet_size, micro_iters, repeats)
    bench_fleet_proposals(report, fleet_size, micro_iters, repeats)
    bench_fleet_heterogeneous(
        report, hetero_sessions, session_frames, session_repeats
    )
    return report


def write_fleet_report(report: BenchReport, output: str | Path) -> Path:
    """Serialise ``report`` plus fleet metadata and targets to ``output``."""
    path = Path(output)
    payload = report.to_dict()
    payload["speedup_targets"] = dict(FLEET_SPEEDUP_TARGETS)
    session = next(
        (r for r in report.results if r.name.startswith("fleet_session_")
         and not r.name.endswith("_scalar")),
        None,
    )
    if session is not None:
        sessions, _, frames = session.name.removeprefix("fleet_session_").partition("x")
        payload["fleet_size"] = int(sessions)
        total_frames = int(sessions) * int(frames.removesuffix("f"))
        payload["aggregate_frames_per_second"] = total_frames / session.best_s
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
