"""Columnar traces: block summaries, typed empty windows, compact pickles.

The oracle below is the record-by-record :func:`summarize_trace` the trace
used before it became columnar: every column rebuilt from Python values,
one 1-D reduction per metric.  The block summary must reproduce it bit for
bit — for whole traces, for the steady second half, and for any row subset
of a larger block.
"""

from __future__ import annotations

import pickle
from dataclasses import astuple

import numpy as np
import pytest

from repro.core.training import session_result_from_trace
from repro.env.fleet import FleetTrace
from repro.env.metrics import EpisodeMetrics, summarize_rows, summarize_trace
from repro.env.trace import COLUMN_DTYPES, DATASET_CODE_COLUMN, FIELD_DTYPES, Trace
from repro.store import MappedFleetTrace, write_fleet_trace

FRAME_COUNTS = (1, 2, 3, 4, 5, 127, 128, 129, 150, 257, 300)


def oracle_summary(records) -> EpisodeMetrics:
    """The 1-D, record-based summary formulas, frozen as the reference."""
    latencies = np.array([r.total_latency_ms for r in records], dtype=float)
    stage1 = np.array([r.stage1_latency_ms for r in records], dtype=float)
    stage2 = np.array([r.stage2_latency_ms for r in records], dtype=float)
    mean_temps = np.array([r.mean_temperature_c for r in records], dtype=float)
    return EpisodeMetrics(
        num_frames=len(records),
        mean_latency_ms=float(np.mean(latencies)),
        latency_std_ms=float(np.std(latencies)),
        min_latency_ms=float(np.min(latencies)),
        max_latency_ms=float(np.max(latencies)),
        p95_latency_ms=float(np.percentile(latencies, 95)),
        satisfaction_rate=float(
            np.mean(np.array([r.met_constraint for r in records], dtype=bool))
        ),
        mean_stage1_latency_ms=float(np.mean(stage1)),
        mean_stage2_latency_ms=float(np.mean(stage2)),
        stage2_latency_std_ms=float(np.std(stage2)),
        mean_temperature_c=float(np.mean(mean_temps)),
        max_temperature_c=float(np.max(mean_temps)),
        max_cpu_temperature_c=float(
            np.max(np.array([r.cpu_temperature_c for r in records], dtype=float))
        ),
        max_gpu_temperature_c=float(
            np.max(np.array([r.gpu_temperature_c for r in records], dtype=float))
        ),
        throttled_fraction=float(
            np.mean(np.array([r.any_throttled for r in records], dtype=bool))
        ),
        total_energy_j=float(
            np.sum(np.array([r.energy_j for r in records], dtype=float))
        ),
        mean_proposals=float(
            np.mean(np.array([r.num_proposals for r in records], dtype=int))
        ),
    )


def bits(metrics: EpisodeMetrics) -> tuple:
    """Field values with floats as their exact hex form."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(metrics))


def random_fleet(num_sessions: int, num_frames: int, seed: int) -> FleetTrace:
    """A fleet trace of random columns (float64, int64 and bool fields)."""
    rng = np.random.default_rng(seed)
    shape = (num_frames, num_sessions)
    columns = {}
    for name, dtype in FIELD_DTYPES.items():
        if dtype == np.bool_:
            columns[name] = rng.random(shape) < 0.7
        elif dtype == np.int64:
            columns[name] = rng.integers(0, 300, shape, dtype=np.int64)
        else:
            columns[name] = rng.lognormal(4.0, 1.0, shape)
    columns[DATASET_CODE_COLUMN] = rng.integers(0, 2, shape, dtype=np.int32)
    return FleetTrace.from_columns(columns, ("kitti", "visdrone2019"), start_index=7)


@pytest.mark.parametrize("num_frames", FRAME_COUNTS)
def test_block_summary_matches_record_oracle(num_frames):
    fleet = random_fleet(5, num_frames, seed=num_frames)
    for i in range(fleet.num_sessions):
        view = fleet.session_trace(i)
        records = view.records
        result = session_result_from_trace("p", view)
        assert bits(result.metrics) == bits(oracle_summary(records))
        steady = records[num_frames // 2 :] if num_frames >= 4 else records
        assert bits(result.steady_metrics) == bits(oracle_summary(steady))
        # The same frames as a standalone (one-row) trace.
        standalone = Trace(records)
        assert standalone.block_origin[0].columns["energy_j"].shape == (1, num_frames)
        assert bits(summarize_trace(standalone)) == bits(oracle_summary(records))


@pytest.mark.parametrize("num_frames", (1, 4, 129, 300))
def test_row_subset_of_a_block_matches_the_whole_block(num_frames):
    fleet = random_fleet(7, num_frames, seed=100 + num_frames)
    block = {name: fleet.column_window(name).T.copy() for name in FIELD_DTYPES}
    whole = summarize_rows(block)
    subset = summarize_rows({name: column[2:5] for name, column in block.items()})
    assert [bits(m) for m in subset] == [bits(m) for m in whole[2:5]]
    for row, metrics in zip(range(2, 5), subset):
        assert bits(metrics) == bits(oracle_summary(fleet.session_trace(row).records))


def test_session_views_summarise_the_block_once():
    fleet = random_fleet(4, 20, seed=3)
    first = session_result_from_trace("p", fleet.session_trace(0))
    block = fleet.session_trace(1).block_origin[0]
    assert set(block.memo) == {0, 10}
    second = session_result_from_trace("p", fleet.session_trace(1))
    assert second.metrics == block.memo[0][1]
    assert first.metrics == block.memo[0][0]
    assert second.steady_metrics == block.memo[10][1]


def test_session_view_pickles_its_own_frames_only():
    frames = 200
    sizes = {}
    for sessions in (4, 64):
        fleet = random_fleet(sessions, frames, seed=sessions)
        result = session_result_from_trace("p", fleet.session_trace(2))
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        sizes[sessions] = len(payload)
        loaded = pickle.loads(payload)
        assert loaded.trace.block_origin[0].columns["energy_j"].shape == (1, frames)
        assert loaded.trace.records == result.trace.records
        assert loaded.metrics == result.metrics
    # One session's 19 columns are under 160 bytes a frame; the fleet's
    # size must not show.
    assert sizes[64] - sizes[4] < 512
    assert sizes[64] < 160 * frames + 4096


def test_fleet_trace_entry_points_are_its_own_attributes():
    # perfbench/tracing.py patches these by class attribute; an inherited
    # method would escape it.
    assert {"append", "session_trace"} <= set(vars(FleetTrace))


def test_empty_windows_carry_the_column_dtype(tmp_path):
    empty = FleetTrace(3)
    stored = MappedFleetTrace(write_fleet_trace(random_fleet(3, 2, seed=1), tmp_path / "s"))
    for name, dtype in COLUMN_DTYPES.items():
        window = empty.column_window(name)
        assert window.shape == (0, 3)
        assert window.dtype == dtype
        assert stored.column_window(name, 1, 1).dtype == window.dtype
    assert empty.column_window("met_constraint").dtype == np.bool_
    assert empty.column_window("num_proposals").dtype == np.int64


def test_scalar_trace_columns_and_records_round_trip():
    fleet = random_fleet(2, 9, seed=5)
    view = fleet.session_trace(1)
    appended = Trace()
    for record in view:
        appended.append(record)
    assert appended.records == view.records
    assert appended.skip(3).records == view.skip(3).records
    assert appended.tail(2).records == view.tail(2).records
    assert [r.index for r in view.for_dataset("kitti")] == [
        r.index for r in view if r.dataset == "kitti"
    ]
    # Accessors hand out read-only views of the columns.
    with pytest.raises(ValueError):
        view.latencies_ms()[0] = 0.0
