"""Columnar trace-store benchmark suite (``BENCH_PR8.json``).

Three questions the zero-copy store must answer with numbers:

* **What does spooling cost at write time?**  Chunked columnar writes
  (:func:`repro.store.write_fleet_trace`) are timed against pickling the
  same trace's frame list — the serialisation path the shard workers used
  before the store existed — and both on-disk footprints are recorded.
* **What does the memory-mapped merge buy?**  Re-interleaving per-shard
  traces through :class:`~repro.store.MappedFleetTrace` manifests (the
  blocked columnar scatter) is timed against unpickling the shard frame
  lists and merging them frame-object by frame-object (the pre-store
  protocol).
* **Can a 10k-session report run in bounded memory?**  The headline
  experiment runs the full paper table sweep plus a whole-fleet report in
  two child processes: the *object* path materialises the in-memory trace
  and dense ``(frames, sessions)`` matrices; the *streaming* path sinks the
  episode straight into a chunk writer and renders the same report from
  memory-mapped column windows — under an enforced ``RLIMIT_DATA`` heap
  ceiling.  Both children record peak RSS (``ru_maxrss``) and wall time,
  and the parent cross-checks that the two reports agree.

Run via ``python -m repro bench --suite store``.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.perf.timer import BenchReport, BenchResult, measure_pair

#: Default report filename; the label tracks the PR that recorded it.
STORE_BENCH_LABEL = "PR8"
DEFAULT_STORE_OUTPUT = f"BENCH_{STORE_BENCH_LABEL}.json"

#: Shape of the synthetic trace the write/merge microbenchmarks use.
WRITE_BENCH_SESSIONS = 256
WRITE_BENCH_FRAMES = 64
MERGE_BENCH_SHARDS = 4

#: The bounded-memory report: a 10k-session fleet episode rendered without
#: ever materialising the trace.
BOUNDED_REPORT_SESSIONS = 10_000
BOUNDED_REPORT_FRAMES = 128

#: Chunk geometry of the report's spooled store: small chunks keep both the
#: writer's buffer and the reader's mapped window proportional to
#: ``chunk_frames * num_sessions``, not to the episode.
BOUNDED_REPORT_CHUNK_FRAMES = 16

#: Heap ceiling (``RLIMIT_DATA``) enforced on the streaming child, MiB.
#: Calibrated well below the object path's measured peak RSS at the default
#: report shape (the object child must hold the full trace plus dense
#: matrices) and comfortably above interpreter + numpy + one chunk buffer.
DEFAULT_RSS_CEILING_MB = 192

#: The paper table sweep both report children render (Tables 1/2 grid).
PAPER_SWEEP_DETECTORS = ("faster_rcnn", "mask_rcnn", "yolo_v5")
PAPER_SWEEP_DATASETS = ("kitti", "visdrone2019")
PAPER_SWEEP_METHODS = ("default", "ztt", "lotus")
PAPER_SWEEP_FRAMES = 64


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


def _synthetic_trace(num_sessions: int, num_frames: int, seed: int = 0,
                     start_index: int = 0):
    """A deterministic random :class:`~repro.env.fleet.FleetTrace`.

    Field dtypes match what the fleet engine emits, so serialisation
    benchmarks move byte-for-byte realistic payloads without paying for a
    simulation.
    """
    from repro.env.fleet import FleetTrace
    from repro.env.trace import COLUMN_DTYPES

    rng = np.random.default_rng(seed)
    shape = (num_frames, num_sessions)
    columns = {}
    for name, dtype in COLUMN_DTYPES.items():
        if dtype == np.bool_:
            columns[name] = rng.random(shape) < 0.9
        elif dtype == np.float64:
            columns[name] = rng.random(shape) * 100.0
        else:
            columns[name] = rng.integers(0, 300, shape).astype(dtype)
    columns["dataset_code"][:] = 0
    return FleetTrace.from_columns(columns, ("kitti",), start_index)


def _tree_bytes(path: Path) -> int:
    return sum(
        p.stat().st_size for p in Path(path).rglob("*") if p.is_file()
    )


# ---------------------------------------------------------------------------
# Write-path microbenchmark
# ---------------------------------------------------------------------------


def bench_chunk_write(
    report: BenchReport, num_sessions: int, num_frames: int, repeats: int
) -> dict:
    """Chunked columnar spool vs pickling the frame list, same trace."""
    from repro.store import write_fleet_trace

    trace = _synthetic_trace(num_sessions, num_frames, seed=11)
    frames = list(trace)
    workdir = Path(tempfile.mkdtemp(prefix="repro-store-bench-"))
    store_dir = workdir / "store"
    pickle_path = workdir / "trace.pkl"
    try:

        def write_store() -> None:
            if store_dir.exists():
                shutil.rmtree(store_dir)
            write_fleet_trace(trace, store_dir)

        def write_pickle() -> None:
            with open(pickle_path, "wb") as handle:
                pickle.dump(frames, handle, protocol=pickle.HIGHEST_PROTOCOL)

        name = f"store_write_{num_sessions}x{num_frames}f"
        current, legacy = measure_pair(
            name,
            write_store,
            f"{name}_pickle",
            write_pickle,
            iterations=1,
            repeats=repeats,
        )
        report.add_pair("store_write", current, legacy)
        return {
            "sessions": num_sessions,
            "frames": num_frames,
            "store_bytes": _tree_bytes(store_dir),
            "pickle_bytes": pickle_path.stat().st_size,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Merge-path microbenchmark
# ---------------------------------------------------------------------------


def bench_mmap_merge(
    report: BenchReport,
    num_sessions: int,
    num_frames: int,
    num_shards: int,
    repeats: int,
) -> dict:
    """Memory-mapped columnar merge vs unpickle + per-frame object merge."""
    from repro.env.fleet import FleetTrace, validate_session_partition
    from repro.runtime.shards import ShardPlan, _interleave_shard_traces
    from repro.store import write_fleet_trace

    bounds = np.linspace(0, num_sessions, num_shards + 1).astype(int)
    shards = [
        ShardPlan(index=k, start=int(bounds[k]), stop=int(bounds[k + 1]))
        for k in range(num_shards)
    ]
    workdir = Path(tempfile.mkdtemp(prefix="repro-merge-bench-"))
    try:
        manifest_paths = []
        pickle_paths = []
        for shard in shards:
            shard_trace = _synthetic_trace(
                shard.num_sessions, num_frames, seed=100 + shard.index
            )
            store_dir = workdir / f"shard-{shard.index}"
            write_fleet_trace(shard_trace, store_dir)
            manifest_paths.append(str(store_dir))
            pkl = workdir / f"shard-{shard.index}.pkl"
            with open(pkl, "wb") as handle:
                pickle.dump(
                    list(shard_trace), handle, protocol=pickle.HIGHEST_PROTOCOL
                )
            pickle_paths.append(pkl)
        targets = validate_session_partition(
            [shard.session_indices for shard in shards], num_sessions
        )

        def merge_mapped() -> None:
            _interleave_shard_traces(list(manifest_paths), shards, num_sessions)

        def merge_objects() -> None:
            shard_frames = []
            for pkl in pickle_paths:
                with open(pkl, "rb") as handle:
                    shard_frames.append(pickle.load(handle))
            merged = FleetTrace(num_sessions)
            for frame_index in range(num_frames):
                merged.append_groups(
                    [frames[frame_index] for frames in shard_frames], targets
                )

        name = f"mmap_merge_{num_shards}x{num_sessions // num_shards}x{num_frames}f"
        current, legacy = measure_pair(
            name,
            merge_mapped,
            f"{name}_objects",
            merge_objects,
            iterations=1,
            repeats=repeats,
        )
        report.add_pair("mmap_merge", current, legacy)
        return {
            "sessions": num_sessions,
            "frames": num_frames,
            "shards": num_shards,
            "spooled_bytes": sum(
                _tree_bytes(Path(p)) for p in manifest_paths
            ),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Bounded-memory report (child process)
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """High-water resident set of this process in MiB (Linux: KB units)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _apply_heap_ceiling(limit_mb: int) -> bool:
    """Enforce an ``RLIMIT_DATA`` heap ceiling; returns True if it stuck."""
    try:
        import resource

        limit = int(limit_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))
        return True
    except (ImportError, AttributeError, ValueError, OSError):
        return False


def _paper_table_sweep(num_frames: int) -> str:
    """Render the full Tables 1/2 grid (detectors × datasets × methods)."""
    from repro.analysis.tables import comparison_table
    from repro.runtime.engine import ExperimentRuntime
    from repro.runtime.sweep import SweepSpec, sweep_metrics_map

    spec = SweepSpec(
        detectors=PAPER_SWEEP_DETECTORS,
        datasets=PAPER_SWEEP_DATASETS,
        methods=PAPER_SWEEP_METHODS,
        num_frames=num_frames,
    )
    jobs = spec.expand()
    results = ExperimentRuntime(max_workers=1).run_jobs(jobs)
    table = sweep_metrics_map(jobs, results, device=spec.devices[0])
    return comparison_table(
        table,
        datasets=list(spec.datasets),
        title=f"paper table sweep ({num_frames} frames/cell)",
    )


def _dense_summary(trace) -> dict:
    """The object-path report: whole ``(frames, sessions)`` matrices."""
    fields = (
        "total_latency_ms",
        "met_constraint",
        "cpu_temperature_c",
        "gpu_temperature_c",
        "cpu_throttled",
        "gpu_throttled",
        "energy_j",
        "num_proposals",
    )
    dense = {name: trace.column_window(name) for name in fields}
    latencies = dense["total_latency_ms"]
    throttled = dense["cpu_throttled"] | dense["gpu_throttled"]
    return {
        "num_sessions": trace.num_sessions,
        "num_frames": len(trace),
        "total_frames": int(latencies.size),
        "mean_latency_ms": float(latencies.mean()),
        "p99_latency_ms": float(np.percentile(latencies, 99.0)),
        "min_latency_ms": float(latencies.min()),
        "max_latency_ms": float(latencies.max()),
        "constraint_met_fraction": float(dense["met_constraint"].mean()),
        "throttled_fraction": float(throttled.mean()),
        "mean_cpu_temperature_c": float(dense["cpu_temperature_c"].mean()),
        "mean_gpu_temperature_c": float(dense["gpu_temperature_c"].mean()),
        "max_temperature_c": float(
            max(dense["cpu_temperature_c"].max(), dense["gpu_temperature_c"].max())
        ),
        "total_energy_j": float(dense["energy_j"].sum(dtype=np.float64)),
        "mean_proposals": float(dense["num_proposals"].mean()),
    }


def _report_child(
    mode: str,
    num_sessions: int,
    num_frames: int,
    sweep_frames: int,
    rss_limit_mb: int,
    workdir: str,
) -> dict:
    """Body of one report child; prints nothing, returns the result dict."""
    from repro.analysis.experiments import ExperimentSetting
    from repro.runtime.fleet import make_fleet_environment, make_fleet_policy

    enforced = False
    if mode == "streaming" and rss_limit_mb > 0:
        enforced = _apply_heap_ceiling(rss_limit_mb)

    start_total = time.perf_counter()
    start = time.perf_counter()
    sweep_table = _paper_table_sweep(sweep_frames)
    wall_sweep = time.perf_counter() - start

    setting = ExperimentSetting(num_frames=num_frames, seed=0)
    environment = make_fleet_environment(setting, num_sessions)
    policy = make_fleet_policy("default", environment, num_frames, seed=0)

    start = time.perf_counter()
    if mode == "object":
        from repro.env.fleet import run_fleet_episode

        trace = run_fleet_episode(environment, policy, num_frames)
        summary = _dense_summary(trace)
        from repro.analysis.streaming import FleetSummary
        from repro.analysis.tables import fleet_summary_table

        fleet_table = fleet_summary_table(
            FleetSummary(**summary), title="fleet report (object path)"
        )
        store_bytes = 0
    elif mode == "streaming":
        from repro.analysis.tables import fleet_summary_table
        from repro.analysis.streaming import summarize_fleet
        from repro.env.fleet import run_fleet_episode
        from repro.store import FleetTraceWriter, MappedFleetTrace

        store_dir = Path(workdir) / "fleet-store"
        writer = FleetTraceWriter(
            store_dir, num_sessions, chunk_frames=BOUNDED_REPORT_CHUNK_FRAMES
        )
        run_fleet_episode(environment, policy, num_frames, sink=writer)
        writer.close()
        mapped = MappedFleetTrace(store_dir, map_cache_chunks=2)
        summary = summarize_fleet(mapped).to_dict()
        fleet_table = fleet_summary_table(
            summarize_fleet(mapped), title="fleet report (streaming path)"
        )
        store_bytes = _tree_bytes(store_dir)
        mapped.close()
    else:  # pragma: no cover - guarded by the argument parser
        raise ValueError(f"unknown report child mode {mode!r}")
    wall_fleet = time.perf_counter() - start

    return {
        "mode": mode,
        "sessions": num_sessions,
        "frames": num_frames,
        "sweep_frames": sweep_frames,
        "sweep_cells": len(PAPER_SWEEP_DETECTORS)
        * len(PAPER_SWEEP_DATASETS)
        * len(PAPER_SWEEP_METHODS),
        "rss_limit_mb": rss_limit_mb if mode == "streaming" else 0,
        "rss_limit_enforced": enforced,
        "peak_rss_mb": _peak_rss_mb(),
        "wall_s_sweep": wall_sweep,
        "wall_s_fleet": wall_fleet,
        "wall_s_total": time.perf_counter() - start_total,
        "store_bytes": store_bytes,
        "summary": summary,
        "sweep_table_lines": sweep_table.count("\n") + 1,
        "fleet_table_lines": fleet_table.count("\n") + 1,
    }


def _run_report_child(
    mode: str,
    num_sessions: int,
    num_frames: int,
    sweep_frames: int,
    rss_limit_mb: int,
) -> dict:
    """Launch one report child as a subprocess and parse its JSON result."""
    import repro

    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    workdir = tempfile.mkdtemp(prefix="repro-report-bench-")
    try:
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.perf.store_benchmarks",
                "--report-child",
                mode,
                "--sessions",
                str(num_sessions),
                "--frames",
                str(num_frames),
                "--sweep-frames",
                str(sweep_frames),
                "--rss-limit-mb",
                str(rss_limit_mb),
                "--workdir",
                workdir,
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"report child ({mode}) failed with code "
                f"{completed.returncode}:\n{completed.stderr[-2000:]}"
            )
        return json.loads(completed.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_bounded_report(
    report: BenchReport,
    num_sessions: int,
    num_frames: int,
    sweep_frames: int,
    rss_limit_mb: int,
) -> dict:
    """The headline experiment: object vs streaming report children."""
    object_result = _run_report_child(
        "object", num_sessions, num_frames, sweep_frames, 0
    )
    streaming_result = _run_report_child(
        "streaming", num_sessions, num_frames, sweep_frames, rss_limit_mb
    )
    for result in (object_result, streaming_result):
        report.add(
            BenchResult(
                name=f"report_{num_sessions}x{num_frames}f_{result['mode']}",
                iterations=1,
                repeats=1,
                best_s=result["wall_s_total"],
                mean_s=result["wall_s_total"],
            )
        )
    # The win is memory, not time: record the peak-RSS ratio as the family
    # "speedup" (legacy / current, consistent with the wall-time families).
    report.speedups["report_peak_rss"] = (
        object_result["peak_rss_mb"] / streaming_result["peak_rss_mb"]
    )
    deltas = []
    for key, object_value in object_result["summary"].items():
        streaming_value = streaming_result["summary"][key]
        scale = max(abs(object_value), abs(streaming_value), 1e-12)
        deltas.append(abs(object_value - streaming_value) / scale)
    return {
        "object": object_result,
        "streaming": streaming_result,
        "peak_rss_ratio": report.speedups["report_peak_rss"],
        "summary_max_rel_delta": max(deltas),
    }


# ---------------------------------------------------------------------------
# Suite entry points
# ---------------------------------------------------------------------------


def run_store_bench_suite(quick: bool = False) -> tuple[BenchReport, dict]:
    """Run the trace-store suite; returns (report, extra metadata).

    Args:
        quick: CI-smoke mode — smaller traces, one repeat and a reduced
            report fleet, to prove execution health.
    """
    report = BenchReport(label=STORE_BENCH_LABEL, quick=quick)
    repeats = 1 if quick else 3
    write_sessions = 64 if quick else WRITE_BENCH_SESSIONS
    write_frames = 16 if quick else WRITE_BENCH_FRAMES
    report_sessions = 1_000 if quick else BOUNDED_REPORT_SESSIONS
    report_frames = 16 if quick else BOUNDED_REPORT_FRAMES
    sweep_frames = 8 if quick else PAPER_SWEEP_FRAMES
    extra = {
        "write_bench": bench_chunk_write(
            report, write_sessions, write_frames, repeats
        ),
        "merge_bench": bench_mmap_merge(
            report, write_sessions, write_frames, MERGE_BENCH_SHARDS, repeats
        ),
        "bounded_report": bench_bounded_report(
            report,
            report_sessions,
            report_frames,
            sweep_frames,
            DEFAULT_RSS_CEILING_MB,
        ),
    }
    return report, extra


def write_store_report(
    report: BenchReport, extra: dict, output: str | Path
) -> Path:
    """Serialise the store suite's report plus its report-child metadata."""
    path = Path(output)
    payload = report.to_dict()
    payload["host_cpu_count"] = os.cpu_count()
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    """Module entry point: only the report-child protocol lives here."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.perf.store_benchmarks")
    parser.add_argument(
        "--report-child", choices=("object", "streaming"), required=True
    )
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--sweep-frames", type=int, required=True)
    parser.add_argument("--rss-limit-mb", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    result = _report_child(
        args.report_child,
        args.sessions,
        args.frames,
        args.sweep_frames,
        args.rss_limit_mb,
        args.workdir,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
