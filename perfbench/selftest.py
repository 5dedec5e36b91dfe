#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny size.

Runs ``perfbench/run.py`` from the command line, once untraced
and once traced per workload, and checks the result line: every metric
named below is emitted with the unit ``BENCHMARK.json`` declares, the
outputs passed their check, and a tree without the library sources exits
non-zero without printing a result.

    python3 perfbench/selftest.py              # or
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("lotus-ztt", "governor-fleet", "mixed-supervised", "paper-table")

END_TO_END = (
    "frames_per_s",
    "setup_s",
    "peak_rss_mb",
    "sim_lat_mean_ms",
    "sim_lat_std_ms",
    "sim_satisfaction",
    "sim_temp_mean_c",
)

PER_LAYER = (
    "rl.train_batch.calls",
    "rl.train_batch.busy_s",
    "rl.train_batch.mean_us",
    "rl.select_action.calls",
    "rl.select_action.busy_s",
    "rl.train_per_frame",
    "core.lotus.decide.self_s",
    "core.lotus.end_frame.self_s",
    "baselines.ztt.decide.self_s",
    "baselines.ztt.end_frame.self_s",
    "core.lotus.sim_lat_std_ms",
    "baselines.ztt.sim_lat_std_ms",
    "core.lotus.sim_satisfaction",
    "baselines.ztt.sim_satisfaction",
    "env.session_trace.busy_s",
    "core.session_result.busy_s",
    "env.trace_append.busy_s",
    "env.begin_frame.self_s",
    "env.run_first_stage.self_s",
    "env.run_second_stage.self_s",
    "workload.next_frames.busy_s",
    "hardware.execute.busy_s",
    "hardware.execute.calls",
    "hardware.idle.busy_s",
    "hardware.request_levels.busy_s",
    "detection.execute.busy_s",
    "detection.propose_batch.busy_s",
    "detection.cost_arrays.busy_s",
    "governors.decide.busy_s",
    "hardware.sim_throttled_frac",
    "detection.sim_proposals_mean",
    "detection.sim_stage2_std_ms",
    "runtime.build.busy_s",
    "runtime.pool.run_tasks.busy_s",
    "runtime.pool.warm_hits",
    "runtime.pool.rebuilds",
    "runtime.pool.respawns",
    "runtime.pool.warm_hit_ratio",
    "runtime.shards.build.busy_s",
    "runtime.shards.run.max_s",
    "runtime.shards.imbalance",
    "runtime.shards.merge.busy_s",
    "runtime.checkpoint.writes",
    "runtime.checkpoint.bytes",
    "store.spool_bytes",
    "runtime.engine.run_jobs.busy_s",
    "runtime.engine.job_s.p50",
    "runtime.engine.job_s.max",
    "rss.parent_peak_mb",
    "rss.worker_peak_mb",
    "failed_frac",
    "trace_overhead_pct",
)

#: Per-layer metrics that must be non-zero on the workload where their
#: layer does the work.
LIVE_ON = {
    "lotus-ztt": ("rl.select_action.calls", "core.lotus.decide.self_s"),
    "governor-fleet": ("governors.decide.busy_s", "env.session_trace.busy_s"),
    "mixed-supervised": ("runtime.checkpoint.writes", "store.spool_bytes"),
    "paper-table": ("runtime.engine.run_jobs.busy_s", "runtime.engine.job_s.max"),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        1: {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    }


def check_workload(workload: str) -> None:
    units = _declared_units()
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        completed = _run(ROOT, workload, trace)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, completed.stdout
        assert result["attempted"] >= 1 and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == set(expected) == set(units[trace]), sorted(
            set(metrics) ^ set(expected)
        )
        for name, entry in metrics.items():
            assert entry["unit"] == units[trace][name], name
            assert isinstance(entry["value"], float), name
        if trace == 0:
            for name in END_TO_END:
                assert metrics[name]["value"] > 0, name
        else:
            for name in LIVE_ON[workload]:
                assert metrics[name]["value"] > 0, (workload, name)


def test_every_workload_emits_every_metric() -> None:
    for workload in WORKLOADS:
        check_workload(workload)


def test_without_library_sources_exits_non_zero() -> None:
    bare = ROOT / ".perfbench-work" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        completed = _run(bare, "lotus-ztt", 0)
        assert completed.returncode != 0
        assert '"metrics"' not in completed.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_without_library_sources_exits_non_zero()
    for name in WORKLOADS:
        check_workload(name)
        print(f"ok {name}")
    print("ok")
