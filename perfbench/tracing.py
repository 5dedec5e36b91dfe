"""Tracing from the benchmark's side: wrap layer entry points from outside.

The library is not edited.  For a traced run the benchmark replaces the
class attributes and module references listed in :data:`TARGETS` with
wrappers that record one span per call (name, start, end, parent span) in
memory, and restores the originals afterwards.  A span's self time is its
duration minus the time its direct child spans cover.

Worker processes cannot be wrapped from here; their shard, checkpoint and
pool numbers come from the library's own ``repro.obs`` registry, which the
benchmark turns on for traced runs only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: (span name, module, owner path inside the module, attribute).  An empty
#: owner wraps a module-level reference in that module's namespace (the
#: name the calling code resolves at call time).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("rl.train_batch", "repro.rl.dqn", "DqnLearner", "train_batch"),
    ("rl.select_action", "repro.rl.dqn", "DqnLearner", "select_action"),
    ("core.lotus.decide", "repro.core.agent", "LotusAgent", "begin_frame"),
    ("core.lotus.decide", "repro.core.agent", "LotusAgent", "mid_frame"),
    ("core.lotus.end_frame", "repro.core.agent", "LotusAgent", "end_frame"),
    ("baselines.ztt.decide", "repro.baselines.ztt", "ZttPolicy", "begin_frame"),
    ("baselines.ztt.decide", "repro.baselines.ztt", "ZttPolicy", "mid_frame"),
    ("baselines.ztt.end_frame", "repro.baselines.ztt", "ZttPolicy", "end_frame"),
    ("env.session_trace", "repro.env.fleet", "FleetTrace", "session_trace"),
    ("env.trace_append", "repro.env.fleet", "FleetTrace", "append"),
    ("core.session_result", "repro.runtime.fleet", "", "session_result_from_trace"),
    ("core.session_result", "repro.runtime.shards", "", "session_result_from_trace"),
    ("env.begin_frame", "repro.env.fleet", "BatchedInferenceEnvironment", "begin_frame"),
    ("env.run_first_stage", "repro.env.fleet", "BatchedInferenceEnvironment", "run_first_stage"),
    ("env.run_second_stage", "repro.env.fleet", "BatchedInferenceEnvironment", "run_second_stage"),
    ("workload.next_frames", "repro.workload.fleet", "FleetFrameStream", "next_frames"),
    ("hardware.execute", "repro.hardware.fleet", "DeviceFleet", "execute"),
    ("hardware.idle", "repro.hardware.fleet", "DeviceFleet", "idle"),
    ("hardware.request_levels", "repro.hardware.fleet", "DeviceFleet", "request_levels"),
    ("detection.execute", "repro.detection.fleet", "BatchedExecutionModel", "execute"),
    ("detection.propose_batch", "repro.env.fleet", "", "propose_batch"),
    ("detection.cost_arrays", "repro.env.fleet", "", "stage1_cost_arrays"),
    ("detection.cost_arrays", "repro.env.fleet", "", "stage2_cost_arrays"),
    ("governors.decide", "repro.governors.fleet", "BatchedDefaultGovernorPolicy", "begin_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedDefaultGovernorPolicy", "mid_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedUserspacePolicy", "begin_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedUserspacePolicy", "mid_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedPerformancePolicy", "begin_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedPerformancePolicy", "mid_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedPowersavePolicy", "begin_frame"),
    ("governors.decide", "repro.governors.fleet", "BatchedPowersavePolicy", "mid_frame"),
    ("runtime.build", "repro.runtime.fleet", "", "make_group_environment"),
    ("runtime.build", "repro.runtime.fleet", "", "make_member_policy"),
    ("runtime.pool.run_tasks", "repro.runtime.pool", "FleetWorkerPool", "run_tasks"),
    ("runtime.engine.run_jobs", "repro.runtime.engine", "ExperimentRuntime", "run_jobs"),
)


class Tracer:
    """Collects spans from wrapped callables; one instance per benchmark run.

    ``stats[name]`` is ``[calls, busy_ns, self_ns]`` summed over every
    traced run; ``spans`` holds ``(name, start_ns, end_ns, parent)`` tuples,
    ``parent`` being the index of the enclosing span or ``-1``.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.stats: Dict[str, List[int]] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._child_ns: List[int] = []
        self._patches: List[tuple] = []

    def _wrap(self, name: str, original):
        spans = self.spans
        stack = self._stack
        child_ns = self._child_ns
        stat = self.stats.setdefault(name, [0, 0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                spans[index] = (name, start, end, parent)
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - inner

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for name, module_name, owner_path, attribute in TARGETS:
            label = f"{module_name}:{owner_path or '<module>'}.{attribute}"
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                namespace = vars(owner)
                original = namespace[attribute]
            except (ImportError, AttributeError, KeyError):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            setattr(owner, attribute, self._wrap(name, original))
            self._patches.append((owner, attribute, original))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def busy_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines ``[name, start_ns, end_ns, parent]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def obs_span_durations_s(registry, name: str) -> List[Tuple[str, float]]:
    """``(origin, seconds)`` of every ended ``repro.obs`` span called ``name``."""
    return [
        (event.get("origin", "parent"), event["duration_ms"] / 1e3)
        for event in registry.events
        if event.get("type") == "span"
        and event.get("phase") == "end"
        and event.get("name") == name
    ]


def obs_total(table: Dict[tuple, float], name: str) -> float:
    """A ``repro.obs`` counter or gauge summed over its label sets (0.0 if unset)."""
    return sum(value for (key, _), value in table.items() if key == name)
