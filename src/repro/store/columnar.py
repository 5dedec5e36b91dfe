"""Chunked on-disk columnar trace store with zero-copy memory-mapped reads.

A trace store is a directory holding fixed-dtype column blocks of ``N``
frames each plus a JSON manifest:

``manifest.json``
    Format tag and version, fleet geometry, column schema (names and numpy
    dtype strings), the dataset string table, and the chunk index with one
    per-chunk SHA-256 digest.

``chunk-000000.bin``, ``chunk-000001.bin``, ...
    One binary blob per chunk of up to ``chunk_frames`` frames.  Inside a
    chunk every column is a contiguous C-order ``(frames, num_sessions)``
    block; columns are laid out in descending itemsize order (8-byte
    numerics, then the ``int32`` dataset codes, then booleans) so every
    block starts naturally aligned for its dtype.

Both files are written via atomic spool-rename (temp file + ``os.replace``)
and the manifest is written *last*, so a crashed writer never leaves a
readable-but-wrong store: either the manifest exists and every chunk it
indexes is complete, or the directory is not a store at all.

:class:`MappedFleetTrace` serves frames and column windows from
``numpy.memmap`` views without loading chunk files into memory (session
traces are rows of one copy, as for the in-memory trace), and round-trips
byte-identical to the in-memory :class:`~repro.env.fleet.FleetTrace` it was
written from.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.env.fleet import (
    _FRAME_RESULT_ARRAY_FIELDS,
    ColumnWindowTrace,
    FleetFrameResult,
    FleetTrace,
)
from repro.env.trace import COLUMN_DTYPES, DATASET_CODE_COLUMN, Trace
from repro.errors import StoreError

STORE_FORMAT = "repro-store/v1"
STORE_FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_CHUNK_FRAMES = 256

_CHUNK_NAME = "chunk-{:06d}.bin"

# Dtypes the on-disk format accepts.  Everything the simulator emits is
# float64 / int64 / bool; the dataset dictionary codes are int32.
_ALLOWED_DTYPES = frozenset({"<f8", "<i8", "|b1", "<i4"})


#: Schema column order: descending itemsize, stable in field order.  With
#: the chunk laid out largest-itemsize first, every column block's byte
#: offset is a multiple of its own itemsize (chunk files start page-aligned
#: under ``mmap``), so memmap views never straddle alignment.
_COLUMN_ORDER = sorted(
    COLUMN_DTYPES, key=lambda name: -COLUMN_DTYPES[name].itemsize
)


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class FleetTraceWriter:
    """Incremental chunked writer for fleet traces.

    Frames are appended one at a time (the episode loops use the writer
    directly as a trace *sink*), copied into a one-chunk
    :class:`~repro.env.fleet.FleetTrace` buffer, and flushed to disk every
    ``chunk_frames`` frames, so peak writer memory is one chunk regardless
    of episode length.  ``close()`` flushes the tail chunk and writes the
    manifest; until then the directory is not a readable store.
    """

    def __init__(
        self,
        path: Union[str, Path],
        num_sessions: int,
        chunk_frames: int = DEFAULT_CHUNK_FRAMES,
        start_index: Optional[int] = None,
    ):
        if num_sessions <= 0:
            raise StoreError("num_sessions must be positive")
        if chunk_frames <= 0:
            raise StoreError("chunk_frames must be positive")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise StoreError(f"{self.path} already contains a trace store")
        self.num_sessions = num_sessions
        self.chunk_frames = chunk_frames
        self._start_index = start_index
        self._frames_written = 0
        self._buffer = FleetTrace(num_sessions)
        self._chunks: List[dict] = []
        self._dataset_codes: Dict[str, int] = {}
        self._closed = False

    # -- appending ---------------------------------------------------------

    @property
    def frames_buffered(self) -> int:
        return len(self._buffer)

    @property
    def frames_written(self) -> int:
        """Frames accepted so far (buffered plus flushed)."""
        return self._frames_written

    @property
    def start_index(self) -> int:
        return 0 if self._start_index is None else self._start_index

    def append(self, frame: FleetFrameResult) -> None:
        """Append one completed fleet frame; flush a chunk when full."""
        if self._closed:
            raise StoreError("writer is closed")
        if frame.num_sessions != self.num_sessions:
            raise StoreError(
                f"frame has {frame.num_sessions} sessions, store expects "
                f"{self.num_sessions}"
            )
        if self._start_index is None:
            self._start_index = int(frame.index)
        expected = self._start_index + self._frames_written
        if int(frame.index) != expected:
            raise StoreError(
                f"non-contiguous frame index {frame.index} (expected {expected})"
            )
        if not len(self._buffer):
            self._buffer.reserve(self.chunk_frames)
        self._buffer.append(frame)
        self._frames_written += 1
        if len(self._buffer) >= self.chunk_frames:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        buffer = self._buffer
        frames = len(buffer)
        if frames == 0:
            return
        codes = self._dataset_codes
        remap = np.array(
            [codes.setdefault(name, len(codes)) for name in buffer.dataset_table],
            dtype=np.int32,
        )
        digest = hashlib.sha256()
        parts: List[bytes] = []
        for name in _COLUMN_ORDER:
            block = buffer.column_window(name)
            if name == DATASET_CODE_COLUMN:
                block = remap[block]
            raw = block.tobytes()
            digest.update(raw)
            parts.append(raw)
        payload = b"".join(parts)
        start = self.start_index + self._frames_written - frames
        filename = _CHUNK_NAME.format(len(self._chunks))
        _atomic_write_bytes(self.path / filename, payload)
        self._chunks.append(
            {
                "file": filename,
                "start": start,
                "frames": frames,
                "bytes": len(payload),
                "sha256": digest.hexdigest(),
            }
        )
        self._buffer = FleetTrace(self.num_sessions)

    # -- finalising --------------------------------------------------------

    def close(self) -> Path:
        """Flush the tail chunk, write the manifest, and seal the store."""
        if self._closed:
            return self.path / MANIFEST_NAME
        if self._frames_written == 0:
            raise StoreError("cannot seal an empty trace store (no frames appended)")
        self._flush_chunk()
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_FORMAT_VERSION,
            "num_sessions": self.num_sessions,
            "num_frames": self._frames_written,
            "chunk_frames": self.chunk_frames,
            "start_index": self.start_index,
            "columns": [
                {"name": name, "dtype": COLUMN_DTYPES[name].str}
                for name in _COLUMN_ORDER
            ],
            "datasets": list(self._dataset_codes),
            "chunks": self._chunks,
        }
        _atomic_write_bytes(
            self.path / MANIFEST_NAME,
            json.dumps(manifest, indent=1).encode("utf-8"),
        )
        self._closed = True
        return self.path / MANIFEST_NAME

    def __enter__(self) -> "FleetTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        # On error, deliberately leave the store unsealed (no manifest):
        # readers reject it instead of serving a partial trace.


class MappedFleetTrace(ColumnWindowTrace):
    """Zero-copy reader over a sealed trace store.

    Chunk files are memory-mapped lazily and served as dtype views; frames,
    session slices and column windows are all constructed from those views
    without reading whole files.  Construction validates the manifest and
    every chunk's size eagerly (truncation is a :class:`StoreError` at open
    time); content hashes are checked on :meth:`verify` (or ``verify=True``).

    At most ``map_cache_chunks`` chunk maps are held at once (LRU): once a
    streaming pass moves past a chunk its mapping is dropped, so the
    reader's resident set stays bounded by a few chunks regardless of store
    size.  Views handed out earlier stay valid — they keep their backing
    map alive through numpy's base-reference chain.
    """

    def __init__(
        self,
        path: Union[str, Path],
        verify: bool = False,
        map_cache_chunks: int = 8,
    ):
        if map_cache_chunks < 1:
            raise StoreError("map_cache_chunks must be at least 1")
        self._map_cache_chunks = int(map_cache_chunks)
        path = Path(path)
        self.path = path.parent if path.name == MANIFEST_NAME else path
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"{self.path} is not a trace store: no {MANIFEST_NAME}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt store manifest {manifest_path}: {exc}") from exc
        self._manifest = self._validate_manifest(manifest)
        self.num_sessions: int = manifest["num_sessions"]
        self.num_frames: int = manifest["num_frames"]
        self.chunk_frames: int = manifest["chunk_frames"]
        self._start_index: int = manifest["start_index"]
        self._datasets: Tuple[str, ...] = tuple(manifest["datasets"])
        self._dtypes: Dict[str, np.dtype] = {
            column["name"]: np.dtype(column["dtype"]) for column in manifest["columns"]
        }
        self._order: List[str] = [column["name"] for column in manifest["columns"]]
        self._chunks: List[dict] = manifest["chunks"]
        self._offsets: List[Dict[str, int]] = []
        self._validate_chunks()
        self._maps: "OrderedDict[int, np.memmap]" = OrderedDict()
        if verify:
            self.verify()

    # -- validation --------------------------------------------------------

    def _validate_manifest(self, manifest: object) -> dict:
        if not isinstance(manifest, dict):
            raise StoreError(f"{self.path}: manifest is not a JSON object")
        fmt = manifest.get("format")
        if fmt != STORE_FORMAT:
            raise StoreError(
                f"{self.path}: unknown store format {fmt!r} "
                f"(expected {STORE_FORMAT!r})"
            )
        version = manifest.get("version")
        if version != STORE_FORMAT_VERSION:
            raise StoreError(
                f"{self.path}: store version {version!r} is not supported "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        required = (
            "num_sessions",
            "num_frames",
            "chunk_frames",
            "start_index",
            "columns",
            "datasets",
            "chunks",
        )
        for key in required:
            if key not in manifest:
                raise StoreError(f"{self.path}: manifest is missing {key!r}")
        names = [column.get("name") for column in manifest["columns"]]
        expected = set(COLUMN_DTYPES)
        if set(names) != expected or len(names) != len(expected):
            raise StoreError(
                f"{self.path}: manifest column schema does not match "
                f"{len(expected)} expected trace columns"
            )
        for column in manifest["columns"]:
            if column.get("dtype") not in _ALLOWED_DTYPES:
                raise StoreError(
                    f"{self.path}: column {column.get('name')!r} has "
                    f"unsupported dtype {column.get('dtype')!r}"
                )
        return manifest

    def _validate_chunks(self) -> None:
        frame_bytes = sum(
            self._dtypes[name].itemsize * self.num_sessions for name in self._order
        )
        expected_start = self._start_index
        total = 0
        for entry in self._chunks:
            frames = int(entry["frames"])
            if frames <= 0:
                raise StoreError(f"{self.path}: chunk {entry['file']} has no frames")
            if int(entry["start"]) != expected_start:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} starts at frame "
                    f"{entry['start']}, expected {expected_start}"
                )
            expected_bytes = frames * frame_bytes
            if int(entry["bytes"]) != expected_bytes:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} declares "
                    f"{entry['bytes']} bytes, layout requires {expected_bytes}"
                )
            chunk_path = self.path / entry["file"]
            try:
                actual = chunk_path.stat().st_size
            except OSError as exc:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} is missing"
                ) from exc
            if actual != expected_bytes:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} is truncated "
                    f"({actual} bytes on disk, {expected_bytes} expected)"
                )
            offsets: Dict[str, int] = {}
            cursor = 0
            for name in self._order:
                offsets[name] = cursor
                cursor += self._dtypes[name].itemsize * self.num_sessions * frames
            self._offsets.append(offsets)
            expected_start += frames
            total += frames
        if total != self.num_frames:
            raise StoreError(
                f"{self.path}: chunk index covers {total} frames, manifest "
                f"declares {self.num_frames}"
            )

    def verify(self) -> None:
        """Re-hash every chunk and raise :class:`StoreError` on tampering."""
        for entry in self._chunks:
            digest = hashlib.sha256()
            with open(self.path / entry["file"], "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
            if digest.hexdigest() != entry["sha256"]:
                raise StoreError(
                    f"{self.path}: chunk {entry['file']} failed its SHA-256 "
                    f"integrity check"
                )

    # -- low-level views ---------------------------------------------------

    def _chunk_map(self, chunk: int) -> np.memmap:
        mapped = self._maps.get(chunk)
        if mapped is None:
            mapped = np.memmap(
                self.path / self._chunks[chunk]["file"], dtype=np.uint8, mode="r"
            )
            self._maps[chunk] = mapped
            while len(self._maps) > self._map_cache_chunks:
                self._maps.popitem(last=False)
        else:
            self._maps.move_to_end(chunk)
        return mapped

    def _column_block(self, chunk: int, name: str) -> np.ndarray:
        """Column ``name`` of chunk ``chunk`` as a ``(frames, N)`` view."""
        frames = self._chunks[chunk]["frames"]
        dtype = self._dtypes[name]
        offset = self._offsets[chunk][name]
        nbytes = dtype.itemsize * self.num_sessions * frames
        raw = self._chunk_map(chunk)[offset : offset + nbytes]
        return raw.view(dtype).reshape(frames, self.num_sessions)

    # -- public read API ---------------------------------------------------

    @property
    def start_index(self) -> int:
        """Global index of the first stored frame."""
        return self._start_index

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def __len__(self) -> int:
        return self.num_frames

    def iter_column_chunks(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(frame_offset, block)`` zero-copy views of one column.

        Blocks are at most one chunk long; iterating a column touches one
        chunk's pages at a time, which is what keeps streaming reports in
        bounded memory.
        """
        if name not in self._dtypes:
            raise StoreError(f"unknown column {name!r}")
        stop = self.num_frames if stop is None else min(stop, self.num_frames)
        cursor = 0
        for chunk, entry in enumerate(self._chunks):
            frames = entry["frames"]
            lo = max(start, cursor)
            hi = min(stop, cursor + frames)
            if lo < hi:
                block = self._column_block(chunk, name)[lo - cursor : hi - cursor]
                yield lo, block
            cursor += frames
            if cursor >= stop:
                break

    def column_window(
        self, name: str, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Frames ``[start, stop)`` of one column as a ``(frames, N)`` array.

        A window inside a single chunk is a zero-copy memmap view; a window
        spanning chunks is assembled into one freshly allocated array.
        """
        stop = self.num_frames if stop is None else min(stop, self.num_frames)
        blocks = list(self.iter_column_chunks(name, start, stop))
        if len(blocks) == 1 and blocks[0][1].shape[0] == stop - start:
            return blocks[0][1]
        out = np.empty((max(stop - start, 0), self.num_sessions), dtype=self._dtypes[name])
        for offset, block in blocks:
            out[offset - start : offset - start + block.shape[0]] = block
        return out

    @property
    def dataset_table(self) -> Tuple[str, ...]:
        """Dataset names indexed by the dataset-code column."""
        return self._datasets

    def close(self) -> None:
        """Drop the chunk memmaps (views handed out become invalid lazily)."""
        self._maps.clear()


# ---------------------------------------------------------------------------
# Convenience round-trip helpers
# ---------------------------------------------------------------------------


def write_fleet_trace(
    trace: FleetTrace,
    path: Union[str, Path],
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
) -> Path:
    """Write an in-memory fleet trace to ``path``; returns the manifest path."""
    with FleetTraceWriter(path, trace.num_sessions, chunk_frames=chunk_frames) as writer:
        for frame in trace:
            writer.append(frame)
    return writer.close()


def write_scalar_trace(
    trace: Trace,
    path: Union[str, Path],
    chunk_frames: int = DEFAULT_CHUNK_FRAMES,
) -> Path:
    """Write a scalar :class:`Trace` as a one-session store.

    Requires contiguous frame indices (every episode trace has them); raises
    :class:`StoreError` otherwise so callers can fall back to row formats.
    """
    columns = trace.columns()
    index = columns.pop("index")
    if not len(index):
        raise StoreError("cannot store an empty trace")
    if not np.array_equal(index, index[0] + np.arange(len(index))):
        raise StoreError("scalar trace frame indices are not contiguous")
    fleet = FleetTrace.from_columns(
        {name: column[:, np.newaxis] for name, column in columns.items()},
        trace.dataset_table,
        int(index[0]),
    )
    return write_fleet_trace(fleet, path, chunk_frames=chunk_frames)


def read_scalar_trace(path: Union[str, Path]) -> Trace:
    """Read a one-session store written by :func:`write_scalar_trace`."""
    mapped = MappedFleetTrace(path)
    try:
        if mapped.num_sessions != 1:
            raise StoreError(
                f"{mapped.path} holds {mapped.num_sessions} sessions, expected "
                f"a scalar (1-session) store"
            )
        return mapped.session_trace(0)
    finally:
        mapped.close()


def fleet_traces_bitwise_equal(a, b, block_frames: int = 256) -> bool:
    """True iff two trace-likes are byte-identical, compared columnwise.

    Accepts any pairing of :class:`~repro.env.fleet.FleetTrace` and
    :class:`MappedFleetTrace`.  Floats are compared through int64 bit views,
    so even a flipped sign of zero or a differing NaN payload fails; the
    comparison streams ``block_frames`` frames at a time and never
    materialises either trace.
    """
    if a.num_sessions != b.num_sessions or len(a) != len(b):
        return False
    if a.start_index != b.start_index:
        return False
    length = len(a)
    for lo in range(0, length, block_frames):
        hi = min(lo + block_frames, length)
        for name in _FRAME_RESULT_ARRAY_FIELDS:
            block_a = np.ascontiguousarray(a.column_window(name, lo, hi))
            block_b = np.ascontiguousarray(b.column_window(name, lo, hi))
            if block_a.dtype != block_b.dtype:
                return False
            if block_a.dtype.itemsize == 8:
                if not np.array_equal(
                    block_a.view(np.int64), block_b.view(np.int64)
                ):
                    return False
            elif not np.array_equal(block_a, block_b):
                return False
        if a.datasets_window(lo, hi) != b.datasets_window(lo, hi):
            return False
    return True
