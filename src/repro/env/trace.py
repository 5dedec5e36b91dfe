"""Frame-level execution traces.

A :class:`Trace` is the primary experiment artefact: one frame per
processed image, carrying everything needed to regenerate the paper's
figures (latency and temperature series) and tables (latency mean/std and
satisfaction rate).

Traces are columnar: a :class:`Trace` is one row of a :class:`TraceBlock`
(one ``(rows, frames)`` array per field), and :class:`FrameRecord` objects
are built only when a caller iterates or indexes it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ExperimentError


@dataclass(frozen=True)
class FrameRecord:
    """Everything recorded about the inference of one image frame.

    Attributes:
        index: Frame index within the episode.
        dataset: Dataset the frame came from.
        num_proposals: RPN proposal count (0 for one-stage detectors).
        stage1_latency_ms: Latency of pre-processing + backbone + RPN.
        stage2_latency_ms: Latency of RoI pooling + heads + post-processing.
        total_latency_ms: End-to-end frame latency.
        latency_constraint_ms: Constraint in force for this frame.
        met_constraint: Whether ``total_latency_ms <= latency_constraint_ms``.
        cpu_temperature_c / gpu_temperature_c: Die temperatures at frame end.
        cpu_level_stage1 / gpu_level_stage1: Effective levels during stage 1.
        cpu_level_stage2 / gpu_level_stage2: Effective levels during stage 2.
        cpu_throttled / gpu_throttled: Whether hardware throttling was active
            at any point during the frame.
        ambient_temperature_c: Ambient temperature while processing the frame.
        energy_j: Energy consumed by the frame.
    """

    index: int
    dataset: str
    num_proposals: int
    stage1_latency_ms: float
    stage2_latency_ms: float
    total_latency_ms: float
    latency_constraint_ms: float
    met_constraint: bool
    cpu_temperature_c: float
    gpu_temperature_c: float
    cpu_level_stage1: int
    gpu_level_stage1: int
    cpu_level_stage2: int
    gpu_level_stage2: int
    cpu_throttled: bool
    gpu_throttled: bool
    ambient_temperature_c: float
    energy_j: float

    @property
    def mean_temperature_c(self) -> float:
        """Average of CPU and GPU temperature (the quantity the paper plots)."""
        return 0.5 * (self.cpu_temperature_c + self.gpu_temperature_c)

    @property
    def any_throttled(self) -> bool:
        """Whether either processor throttled during the frame."""
        return self.cpu_throttled or self.gpu_throttled


#: The numeric per-frame fields (every :class:`FrameRecord` field but
#: ``index`` and ``dataset``) with their column dtypes, in record order.
FIELD_DTYPES = {field.name: np.dtype(field.type) for field in fields(FrameRecord)[2:]}

#: Column holding each frame's dataset as an index into the dataset table.
DATASET_CODE_COLUMN = "dataset_code"

#: Every per-frame column: the layout of the ``repro-store/v1`` chunk store.
COLUMN_DTYPES = {**FIELD_DTYPES, DATASET_CODE_COLUMN: np.dtype(np.int32)}

_record_values = attrgetter("index", "dataset", *FIELD_DTYPES)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class TraceBlock:
    """Frames of one or more sessions as read-only ``(rows, frames)`` columns.

    Rows share the frame ``index`` and the dataset table; ``memo`` keeps
    whole-block summaries (see :func:`repro.env.metrics.summarize_trace`).
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        dataset_table: Sequence[str],
        index: Sequence[int],
    ):
        self.columns = {
            name: _frozen(np.ascontiguousarray(columns[name], dtype=dtype))
            for name, dtype in COLUMN_DTYPES.items()
        }
        self.dataset_table = tuple(dataset_table)
        self.index = _frozen(np.asarray(index, dtype=np.int64))
        if {column.shape[1] for column in self.columns.values()} != {len(self.index)}:
            raise ExperimentError("trace columns and frame index disagree in length")
        self.memo: dict = {}


_EMPTY_BLOCK = TraceBlock({name: np.empty((1, 0)) for name in COLUMN_DTYPES}, (), ())


class Trace:
    """Ordered frames of one session: a row of a :class:`TraceBlock`.

    Appended records are buffered and folded into a new one-row block on
    the next read, so a frame loop pays one list append per frame.  Array
    accessors return read-only views of the columns.
    """

    def __init__(self, records: Sequence[FrameRecord] | None = None):
        self._pending = list(records) if records else []
        self._origin = (_EMPTY_BLOCK, 0, 0)

    @classmethod
    def of_row(cls, block: TraceBlock, row: int, first: int = 0) -> "Trace":
        """Row ``row`` of ``block``, from frame offset ``first`` on."""
        trace = cls()
        trace._origin = (block, row, first)
        return trace

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, np.ndarray], dataset_table: Sequence[str]
    ) -> "Trace":
        """A trace over 1-D columns: ``index``, the dataset codes and every field."""
        block = TraceBlock(
            {name: np.asarray(columns[name])[np.newaxis] for name in COLUMN_DTYPES},
            dataset_table,
            columns["index"],
        )
        return cls.of_row(block, 0)

    @property
    def block_origin(self) -> tuple:
        """``(block, row, first frame)``: where this trace's frames live."""
        if self._pending:
            pending, self._pending = self._pending, []
            columns = self.columns()
            codes = {name: code for code, name in enumerate(self.dataset_table)}
            index, datasets, *values = zip(*map(_record_values, pending))
            datasets = [codes.setdefault(name, len(codes)) for name in datasets]
            names = ("index", DATASET_CODE_COLUMN, *FIELD_DTYPES)
            for name, appended in zip(names, (index, datasets, *values)):
                appended = np.array(appended, dtype=columns[name].dtype)
                columns[name] = np.concatenate([columns[name], appended])
            self._origin = Trace.from_columns(columns, codes)._origin
        return self._origin

    def _column(self, name: str) -> np.ndarray:
        block, row, first = self.block_origin
        return block.columns[name][row, first:]

    def columns(self) -> Dict[str, np.ndarray]:
        """``index``, the dataset codes and every field as read-only 1-D arrays."""
        block, _, first = self.block_origin
        columns = {name: self._column(name) for name in COLUMN_DTYPES}
        columns["index"] = block.index[first:]
        return columns

    @property
    def dataset_table(self) -> tuple:
        """Dataset names indexed by the dataset-code column."""
        return self.block_origin[0].dataset_table

    def __getstate__(self) -> dict:
        # A row pickles its own frames only, never the block behind it, and
        # as raw bytes, so equal traces always pickle to equal bytes.
        columns = {name: column.tobytes() for name, column in self.columns().items()}
        return {"columns": columns, "datasets": self.dataset_table}

    def __setstate__(self, state: dict) -> None:
        dtypes = {"index": np.dtype(np.int64), **COLUMN_DTYPES}
        columns = {
            name: np.frombuffer(raw, dtype=dtypes[name])
            for name, raw in state["columns"].items()
        }
        self.__dict__.update(Trace.from_columns(columns, state["datasets"]).__dict__)

    # -- container protocol -------------------------------------------------------

    def append(self, record: FrameRecord) -> None:
        """Append a record to the trace."""
        self._pending.append(record)

    def __len__(self) -> int:
        block, _, first = self._origin
        return len(block.index) - first + len(self._pending)

    def _records(self, start: int = 0, stop: int | None = None) -> Iterator:
        table = self.dataset_table
        columns = self.columns()
        index, codes, *values = (
            columns[name][start:stop].tolist()
            for name in ("index", DATASET_CODE_COLUMN, *FIELD_DTYPES)
        )
        for frame, code, *row in zip(index, codes, *values):
            yield FrameRecord(frame, table[code], *row)

    def __iter__(self) -> Iterator[FrameRecord]:
        return self._records()

    def __getitem__(self, index: int) -> FrameRecord:
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("trace index out of range")
        return next(self._records(index, index + 1))

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        """All records as an immutable tuple."""
        return tuple(self)

    # -- slicing helpers -------------------------------------------------------------

    def tail(self, count: int) -> "Trace":
        """The last ``count`` records as a new trace."""
        if count < 0:
            raise ExperimentError("count must be non-negative")
        return self.skip(max(len(self) - count, 0)) if count else Trace()

    def skip(self, count: int) -> "Trace":
        """Drop the first ``count`` records (e.g. a warm-up / learning prefix)."""
        if count < 0:
            raise ExperimentError("count must be non-negative")
        block, row, first = self.block_origin
        return Trace.of_row(block, row, first + min(count, len(self)))

    def for_dataset(self, dataset: str) -> "Trace":
        """Records belonging to one dataset (useful after domain switches)."""
        table = self.dataset_table
        columns = self.columns()
        code = table.index(dataset) if dataset in table else -1
        keep = columns[DATASET_CODE_COLUMN] == code
        return Trace.from_columns(
            {name: column[keep] for name, column in columns.items()}, table
        )

    # -- array accessors ---------------------------------------------------------------

    def latencies_ms(self) -> np.ndarray:
        """Total latency of every frame as a NumPy array."""
        return self._column("total_latency_ms")

    def stage1_latencies_ms(self) -> np.ndarray:
        """Stage-1 latency of every frame."""
        return self._column("stage1_latency_ms")

    def stage2_latencies_ms(self) -> np.ndarray:
        """Stage-2 latency of every frame."""
        return self._column("stage2_latency_ms")

    def proposals(self) -> np.ndarray:
        """Proposal count of every frame."""
        return self._column("num_proposals")

    def mean_temperatures_c(self) -> np.ndarray:
        """Mean (CPU, GPU) temperature of every frame."""
        return 0.5 * (self.cpu_temperatures_c() + self.gpu_temperatures_c())

    def cpu_temperatures_c(self) -> np.ndarray:
        """CPU temperature of every frame."""
        return self._column("cpu_temperature_c")

    def gpu_temperatures_c(self) -> np.ndarray:
        """GPU temperature of every frame."""
        return self._column("gpu_temperature_c")

    def constraint_met(self) -> np.ndarray:
        """Boolean array of constraint satisfaction per frame."""
        return self._column("met_constraint")

    def throttled(self) -> np.ndarray:
        """Boolean array: whether either processor throttled per frame."""
        return self._column("cpu_throttled") | self._column("gpu_throttled")

    def energies_j(self) -> np.ndarray:
        """Per-frame energy consumption."""
        return self._column("energy_j")
