#!/usr/bin/env python3
"""The repository's end-to-end benchmark: from spec to session summaries.

Run from the repository root::

    python3 perfbench/run.py --workload lotus-ztt --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``lotus-ztt``,
``governor-fleet``, ``mixed-supervised`` and ``paper-table``.  Each run is
one closed-loop batch call through a public entry point; two warm-up runs
are discarded, then runs repeat for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` alternates untraced and traced runs and reports
the per-layer metrics, including the tracing overhead.  Every run's
summaries are checked; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the benchmark writes (the compiled-kernel cache, checkpoint
spools, spans and a result record with the host description) goes under
``.perfbench-work/`` in the repository root.  Every process the benchmark
starts, including the pool workers' grandchildren, has ended before it exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Untimed runs before measuring (the first runs pay lazy set-up).
WARMUP_RUNS = 2
#: Timed runs of each kind made even when ``--seconds`` runs out first.
MIN_SAMPLES = 3
#: Timed fresh-process set-ups per run (after one untimed one).
SETUP_PROBES = 5


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library() -> None:
    """Make ``src/`` importable and keep the kernel compile cache in the tree.

    Raises ``ImportError`` when the library sources are not there.
    """
    os.environ["XDG_CACHE_HOME"] = str(WORK / "xdg-cache")
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import repro  # noqa: F401
    import workloads  # noqa: F401


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def _blas_threads() -> object:
    """OpenBLAS's thread count as this process sees it, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return "unknown"


def host_record() -> Dict[str, object]:
    """CPU count, interpreter, NumPy/BLAS and the library's kill switches."""
    import numpy

    from repro.rl.fused import kernel_status

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    env_names = (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "REPRO_FUSED",
        "REPRO_POOL",
        "REPRO_OBS",
        "REPRO_WORKERS",
    )
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "env": {name: os.environ.get(name) for name in env_names},
        "fused_kernels": kernel_status(),
        "start_method": multiprocessing.get_start_method(),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

#: Seconds to wait for children to end on their own before killing them.
CHILD_GRACE_S = 10.0


def adopt_descendants() -> None:
    """Become the reaper of orphaned descendants and share one tracker.

    Pool workers fork from this process.  Started here first, the
    ``multiprocessing`` resource tracker is inherited by every worker
    instead of each worker launching its own, which would outlive it.  As a
    child subreaper (Linux), this process also inherits any descendant whose
    parent ends first, so :func:`stop_children` can wait for it.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    """Live or unreaped children of this process, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the parent pid follows it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Shut the pool and resource tracker down and wait for every child."""
    import repro
    from multiprocessing import resource_tracker

    repro.shutdown_shared_pool()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closing its pipe ends it; then it is waited for
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


# ---------------------------------------------------------------------------
# Set-up time, from a fresh process
# ---------------------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> int:
    """Child side: import, build the workload, load kernels, spawn the pool."""
    import repro
    from repro.rl.fused import fused_adam
    from workloads import POOL_WORKERS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    fused_adam()
    if workload.pooled:
        repro.shared_pool().ensure_workers(POOL_WORKERS)
    print("ready", flush=True)
    repro.shutdown_shared_pool()
    return 0


def time_setup(args: argparse.Namespace) -> List[float]:
    """Seconds from process launch to ready, for several fresh processes."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--size",
        args.size,
        "--setup-probe",
    ]
    samples = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT
        ) as process:
            line = process.stdout.readline().strip()
            ready_s = time.perf_counter() - start
            process.stdout.read()
            code = process.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} before reporting ready")
        if probe:  # the first one fills the page and bytecode caches
            samples.append(ready_s)
    return samples


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _reset_peak_rss(pids: List[int]) -> None:
    """Restart the peak-RSS count of each process at its current RSS."""
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def _peak_rss_mb(pid: int) -> float:
    """Peak RSS of a process since its last reset (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Runner:
    """Runs one workload repeatedly and keeps what the metrics need."""

    def __init__(self, workload, work_dir: Path):
        from tracing import Tracer

        self.workload = workload
        self.work_dir = work_dir
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: List[str] = []
        self.first = None
        self.fps: Dict[bool, List[float]] = {False: [], True: []}
        self.traced_runs = 0
        self.layer: Dict[str, List[float]] = {}

    def _note(self, key: str, value: float) -> None:
        self.layer.setdefault(key, []).append(float(value))

    def attempt(self, traced: bool = False, timed: bool = True) -> None:
        from repro import obs
        from workloads import check_outcome

        self.attempted += 1
        gc.collect()
        # Each run's own peak: garbage of earlier runs is collected first.
        children = multiprocessing.active_children()
        _reset_peak_rss([os.getpid()] + [child.pid for child in children])
        if traced:
            self.tracer.install()
            obs.enable(fresh=True)
        registry = None
        try:
            start = time.perf_counter()
            outcome = self.workload.run(self.work_dir, traced=traced)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed run is a data point
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return
        finally:
            if traced:
                registry = obs.registry()
                obs.disable()
                self.tracer.remove()
        reason = check_outcome(self.workload, outcome)
        if reason is None and self.first is not None:
            if outcome.signature() != self.first.signature():
                reason = "outputs differ from the first run of the same inputs"
        if reason is not None:
            self.failures.append(reason)
            return
        if self.first is None:
            self.first = outcome
        for kind, size in outcome.spool_bytes.items():
            self._note(f"spool.{kind}", size)
        if not timed:
            return
        self.fps[traced].append(outcome.session_frames / elapsed)
        if traced:
            self.traced_runs += 1
            self._note_obs(registry, outcome)
        else:
            parent = _peak_rss_mb(os.getpid())
            children = multiprocessing.active_children()
            workers = [_peak_rss_mb(child.pid) for child in children]
            self._note("rss.parent", parent)
            self._note("rss.worker", max(workers, default=0.0))
            self._note("rss.peak", max([parent] + workers))

    def _note_obs(self, registry, outcome) -> None:
        from tracing import obs_span_durations_s, obs_total

        gauges, counters = registry.gauges, registry.counters
        self._note("pool.warm_hits", obs_total(gauges, "pool.report.warm_hits"))
        self._note("pool.rebuilds", obs_total(gauges, "pool.report.rebuilds"))
        self._note("pool.respawns", obs_total(counters, "pool.respawns"))
        self._note("checkpoint.writes", obs_total(counters, "checkpoint.writes"))
        for name in ("shard.build", "shard.merge"):
            self._note(name, sum(s for _, s in obs_span_durations_s(registry, name)))
        shard_runs = [s for _, s in obs_span_durations_s(registry, "shard.run")]
        if shard_runs:
            self._note("shard.run.max", max(shard_runs))
            imbalance = max(shard_runs) / statistics.fmean(shard_runs)
            self._note("shard.imbalance", imbalance)
        if outcome.job_done_s:
            self._note("job.p50", statistics.median(outcome.job_done_s))
            self._note("job.max", max(outcome.job_done_s))

    def mean(self, key: str) -> float:
        values = self.layer.get(key)
        return statistics.fmean(values) if values else 0.0

    def median(self, key: str) -> float:
        values = self.layer.get(key)
        return statistics.median(values) if values else 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(runner: Runner, setup_samples):
    """Untraced throughput, set-up time, peak memory and the simulated means.

    ``peak_rss_mb`` is the median over untraced runs of each run's peak, the
    larger of the parent's and the largest worker's.
    """
    from workloads import SIM_FIELDS, session_mean

    metrics = runner.first.metrics if runner.first else []
    values = {
        "frames_per_s": _median(runner.fps[False]),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": runner.median("rss.peak"),
    }
    for name, attribute in SIM_FIELDS.items():
        values[name] = session_mean(metrics, attribute)
    return values


def per_layer_metrics(runner: Runner):
    """Layer numbers per traced run: means over the traced runs, medians for
    spool sizes, job times and the untraced runs' peak memory.

    ``runtime.engine.job_s.*`` are seconds from the ``run_jobs`` call to each
    job's completion; ``trace_overhead_pct`` compares the median untraced
    and traced throughput of the same process.
    """
    from tracing import TARGETS
    from workloads import session_mean

    tracer = runner.tracer
    runs = max(1, runner.traced_runs)
    values: Dict[str, float] = {}
    for name in {target[0] for target in TARGETS}:
        values[f"{name}.calls"] = tracer.calls(name) / runs
        values[f"{name}.busy_s"] = tracer.busy_s(name) / runs
        values[f"{name}.self_s"] = tracer.self_s(name) / runs

    train_calls = tracer.calls("rl.train_batch")
    values["rl.train_batch.mean_us"] = (
        tracer.busy_s("rl.train_batch") / train_calls * 1e6 if train_calls else 0.0
    )
    first = runner.first
    metrics = first.metrics if first else []
    methods = first.methods if first else []
    learner_frames = first.learner_frames if first else 0
    values["rl.train_per_frame"] = (
        values["rl.train_batch.calls"] / learner_frames if learner_frames else 0.0
    )
    for prefix, method in (("core.lotus", "lotus"), ("baselines.ztt", "ztt")):
        chosen = [m for m, name in zip(metrics, methods) if name == method]
        values[f"{prefix}.sim_lat_std_ms"] = session_mean(chosen, "latency_std_ms")
        values[f"{prefix}.sim_satisfaction"] = session_mean(chosen, "satisfaction_rate")
    for name, attribute in (
        ("hardware.sim_throttled_frac", "throttled_fraction"),
        ("detection.sim_proposals_mean", "mean_proposals"),
        ("detection.sim_stage2_std_ms", "stage2_latency_std_ms"),
    ):
        values[name] = session_mean(metrics, attribute)

    hits = runner.mean("pool.warm_hits")
    rebuilds = runner.mean("pool.rebuilds")
    values.update(
        {
            "runtime.pool.warm_hits": hits,
            "runtime.pool.rebuilds": rebuilds,
            "runtime.pool.respawns": runner.mean("pool.respawns"),
            "runtime.pool.warm_hit_ratio": hits / (hits + rebuilds)
            if hits + rebuilds
            else 0.0,
            "runtime.shards.build.busy_s": runner.mean("shard.build"),
            "runtime.shards.run.max_s": runner.mean("shard.run.max"),
            "runtime.shards.imbalance": runner.mean("shard.imbalance"),
            "runtime.shards.merge.busy_s": runner.mean("shard.merge"),
            "runtime.checkpoint.writes": runner.mean("checkpoint.writes"),
            "runtime.checkpoint.bytes": runner.median("spool.checkpoint"),
            "store.spool_bytes": runner.median("spool.store"),
            "runtime.engine.job_s.p50": runner.median("job.p50"),
            "runtime.engine.job_s.max": runner.median("job.max"),
            "rss.parent_peak_mb": runner.median("rss.parent"),
            "rss.worker_peak_mb": runner.median("rss.worker"),
            "failed_frac": runner.failed / max(1, runner.attempted),
        }
    )
    untraced = _median(runner.fps[False])
    traced = _median(runner.fps[True])
    values["trace_overhead_pct"] = (untraced / traced - 1.0) * 100.0 if traced else 0.0
    return values


def _select(values: Dict[str, float], declared) -> Dict[str, dict]:
    """Keep exactly the declared metrics, each with its declared unit."""
    return {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in declared
    }


def benchmark(args: argparse.Namespace, spec: dict) -> dict:
    import repro
    from repro.rl.fused import fused_adam
    from workloads import POOL_WORKERS, WORKLOADS

    fused_adam()  # compile once, so set-up below loads from a filled cache
    setup_samples = [] if args.trace else time_setup(args)
    workload = WORKLOADS[args.workload](args.seed, args.size)
    work_dir = WORK / "spool"
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, work_dir)
    try:
        if workload.pooled:
            repro.shared_pool().ensure_workers(POOL_WORKERS)
        for _ in range(WARMUP_RUNS):
            runner.attempt(timed=False)
        kinds = (False, True) if args.trace else (False,)
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or (
            min(len(runner.fps[kind]) for kind in kinds) < MIN_SAMPLES
            and runner.attempted < WARMUP_RUNS + 4 * MIN_SAMPLES
        ):
            # Traced and untraced runs alternate, so drift hits both alike.
            runner.attempt(traced=kinds[runner.attempted % len(kinds)])
    finally:
        repro.shutdown_shared_pool()

    if runner.first is not None:
        reference = workload.reference()
        if reference is not None and reference != runner.first.signature():
            # Every run either matched the first or already failed.
            runner.failures.extend(
                ["in-process reference differs"] * (runner.attempted - runner.failed)
            )

    if args.trace:
        values = per_layer_metrics(runner)
        declared = spec["per_layer"]
        runner.tracer.write(WORK / "spans" / f"{args.workload}.jsonl")
    else:
        values = end_to_end_metrics(runner, setup_samples)
        declared = spec["end_to_end"]
    result = {
        "correct": runner.first is not None and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": _select(values, declared),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_record(),
        "setup_s_samples": setup_samples,
        "frames_per_s_samples": runner.fps[False],
        "traced_frames_per_s_samples": runner.fps[True],
        "failures": runner.failures,
        "untraced_targets": runner.tracer.missing,
        "result": result,
    }
    out = WORK / "results" / f"{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(
        f"{args.workload}: {len(runner.fps[False])} untraced and "
        f"{len(runner.fps[True])} traced timed runs, "
        f"{runner.failed}/{runner.attempted} failed; record in {out.relative_to(ROOT)}"
    )
    return result


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_library()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: cannot load the benchmark or library: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"available: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        return setup_probe(args)
    # A terminated benchmark still stops its children on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    adopt_descendants()
    try:
        result = benchmark(args, spec)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
