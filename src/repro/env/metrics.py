"""Episode metrics.

The quantitative results of the paper (Tables 1 and 2) report, per
(detector, dataset, method) combination: the mean latency ``l``, the latency
standard deviation ``sigma_l`` and the satisfaction rate ``R_L`` (fraction
of frames meeting the latency constraint).  :func:`summarize_trace` computes
these plus the thermal and energy metrics used in the discussion sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping

import numpy as np

from repro.errors import ExperimentError
from repro.env.trace import Trace


@dataclass(frozen=True)
class EpisodeMetrics:
    """Summary statistics of one episode trace.

    Attributes:
        num_frames: Number of frames summarised.
        mean_latency_ms: Mean end-to-end latency (``l`` in the tables).
        latency_std_ms: Standard deviation of latency (``sigma_l``).
        min_latency_ms / max_latency_ms: Latency extremes.
        p95_latency_ms: 95th-percentile latency.
        satisfaction_rate: Fraction of frames meeting the constraint (``R_L``).
        mean_stage1_latency_ms / mean_stage2_latency_ms: Per-stage means.
        stage2_latency_std_ms: Standard deviation of the second-stage latency.
        mean_temperature_c: Mean of the per-frame mean (CPU, GPU) temperature.
        max_temperature_c: Hottest per-frame mean temperature observed.
        max_cpu_temperature_c / max_gpu_temperature_c: Per-die maxima.
        throttled_fraction: Fraction of frames with hardware throttling active.
        total_energy_j: Total energy consumed over the episode.
        mean_proposals: Mean RPN proposal count.
    """

    num_frames: int
    mean_latency_ms: float
    latency_std_ms: float
    min_latency_ms: float
    max_latency_ms: float
    p95_latency_ms: float
    satisfaction_rate: float
    mean_stage1_latency_ms: float
    mean_stage2_latency_ms: float
    stage2_latency_std_ms: float
    mean_temperature_c: float
    max_temperature_c: float
    max_cpu_temperature_c: float
    max_gpu_temperature_c: float
    throttled_fraction: float
    total_energy_j: float
    mean_proposals: float

    @property
    def stage1_latency_share(self) -> float:
        """Fraction of mean latency spent in stage 1 (≈0.8 per paper §4.2)."""
        total = self.mean_stage1_latency_ms + self.mean_stage2_latency_ms
        if total <= 0:
            return 0.0
        return self.mean_stage1_latency_ms / total


def summarize_rows(columns: Mapping[str, np.ndarray]) -> List[EpisodeMetrics]:
    """Compute :class:`EpisodeMetrics` for every row of ``(rows, frames)`` columns.

    One NumPy reduction per metric along the frame axis; row ``r`` equals
    the summary of a trace holding row ``r`` alone, bit for bit.

    Raises:
        ExperimentError: If there are no frames.
    """
    latencies = columns["total_latency_ms"]
    if latencies.shape[-1] == 0:
        raise ExperimentError("cannot summarise an empty trace")
    stage2 = columns["stage2_latency_ms"]
    mean_temps = 0.5 * (columns["cpu_temperature_c"] + columns["gpu_temperature_c"])
    throttled = columns["cpu_throttled"] | columns["gpu_throttled"]
    values = {
        "mean_latency_ms": np.mean(latencies, axis=-1),
        "latency_std_ms": np.std(latencies, axis=-1),
        "min_latency_ms": np.min(latencies, axis=-1),
        "max_latency_ms": np.max(latencies, axis=-1),
        "p95_latency_ms": np.percentile(latencies, 95, axis=-1),
        "satisfaction_rate": np.mean(columns["met_constraint"], axis=-1),
        "mean_stage1_latency_ms": np.mean(columns["stage1_latency_ms"], axis=-1),
        "mean_stage2_latency_ms": np.mean(stage2, axis=-1),
        "stage2_latency_std_ms": np.std(stage2, axis=-1),
        "mean_temperature_c": np.mean(mean_temps, axis=-1),
        "max_temperature_c": np.max(mean_temps, axis=-1),
        "max_cpu_temperature_c": np.max(columns["cpu_temperature_c"], axis=-1),
        "max_gpu_temperature_c": np.max(columns["gpu_temperature_c"], axis=-1),
        "throttled_fraction": np.mean(throttled, axis=-1),
        "total_energy_j": np.sum(columns["energy_j"], axis=-1),
        "mean_proposals": np.mean(columns["num_proposals"], axis=-1),
    }
    num_frames = latencies.shape[-1]
    return [
        EpisodeMetrics(num_frames=num_frames, **dict(zip(values, row)))
        for row in zip(*(value.tolist() for value in values.values()))
    ]


def summarize_trace(trace: Trace) -> EpisodeMetrics:
    """Compute :class:`EpisodeMetrics` for a trace.

    A trace is a row of a :class:`~repro.env.trace.TraceBlock` (a
    standalone trace owns a one-row block).  The whole block is summarised
    once per starting frame and memoised on it, and the trace reads its
    row, so the sessions of a fleet are summarised in one pass.

    Raises:
        ExperimentError: If the trace is empty.
    """
    if len(trace) == 0:
        raise ExperimentError("cannot summarise an empty trace")
    block, row, first = trace.block_origin
    if first not in block.memo:
        block.memo[first] = summarize_rows(
            {name: column[:, first:] for name, column in block.columns.items()}
        )
    return block.memo[first][row]


def downsample_series(values: np.ndarray, max_points: int = 100) -> np.ndarray:
    """Average ``values`` into at most ``max_points`` buckets.

    Figure benches print latency/temperature series; averaging into a fixed
    number of buckets keeps the printed output readable regardless of the
    episode length.
    """
    if max_points <= 0:
        raise ExperimentError("max_points must be positive")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return values
    if values.size <= max_points:
        return values.copy()
    edges = np.linspace(0, values.size, max_points + 1, dtype=int)
    return np.array(
        [np.mean(values[start:end]) for start, end in zip(edges[:-1], edges[1:]) if end > start]
    )
