"""Layer tracing from outside the program: wrapped module attributes.

The traced run replaces public functions and methods of each layer with
wrappers that record a span (name, start, end, parent) per call.  Spans
stay in memory until the run ends; self times are derived from them
(a span's duration minus the time its child spans cover).  A call made
directly inside a span of the same layer (``encode`` recursing, or
``plan_from_wire`` calling ``decode``) opens no span of its own: its time
is already the enclosing span's self time.  Nothing under
``src/`` is edited: functions are swapped by identity in every loaded
``repro`` module that holds a reference (``from x import f`` copies
included), methods on their class.

Wrapping is installed after set-up, around the measured operation only.
The service's worker processes fork during set-up, so they run the
unwrapped code; spans cover the benchmark process (clients, the asyncio
server and the scheduler threads).
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Layer name -> wrapped targets (``module:attr`` or ``module:Class.attr``).
#: Each layer's ``<name>_s`` metric is the summed self time of its spans.
LAYERS = {
    "geometry.deploy": ("repro.experiments.plans:DeploymentSpec.build",),
    "geometry.distances": ("repro.geometry.points:pairwise_distances",),
    "sinr.gains": ("repro.sinr.physics:gain_matrix",),
    "sinr.batch": ("repro.sinr.physics:successful_receptions_batch",),
    "sinr.graphs": (
        "repro.sinr.graphs:strong_connectivity_graph",
        "repro.sinr.graphs:approx_connectivity_graph",
    ),
    "analysis.metrics": (
        "repro.analysis.metrics:metrics_from_graphs",
        "repro.analysis.metrics:compute_metrics",
    ),
    "analysis.diameter": ("repro.sinr.graphs:graph_diameter",),
    "sinr.sparse_build": ("repro.sinr.sparse:SparseResolver.__init__",),
    "sinr.finalize": ("repro.sinr.channel:Channel.finalize_slot",),
    "vectorized.advance": (
        "repro.vectorized.runtime:VectorRuntime.advance_slots",
    ),
    "native.advance": ("repro.native.stepper:NativeStepper.advance",),
    "simulation.collect": (
        "repro.simulation.runtime:Runtime.collect_transmissions",
    ),
    "simulation.deliver": ("repro.simulation.runtime:Runtime.deliver_outcome",),
    "engine.build_stack": ("repro.experiments.engine:build_stack",),
    "engine.result": ("repro.experiments.engine:_result",),
    "core.assembly": (
        "repro.core.spec:broadcast_intervals",
        "repro.core.spec:measure_acknowledgments",
        "repro.core.spec:measure_approximate_progress",
    ),
    # The tagged dataclass serde and the JSON framing around it.
    "service.wire": tuple(
        f"repro.service.wire:{name}"
        for name in (
            "encode",
            "decode",
            "plan_to_wire",
            "plan_from_wire",
            "policy_to_wire",
            "policy_from_wire",
            "result_to_wire",
            "result_from_wire",
            "dumps",
            "loads",
        )
    ),
}

ADVANCE_TARGET = "repro.vectorized.runtime:VectorRuntime.advance_slots"
STREAM_TARGET = "repro.service.client:ServiceClient.submit_stream"


def _count_distance_bytes(counts, args, result) -> None:
    counts["geometry.distances_bytes"] += result.nbytes


def _count_edges(counts, args, result) -> None:
    counts["sinr.graph_edges"] += result.number_of_edges()


def _count_calls(name):
    def count(counts, args, result) -> None:
        counts[name] += 1

    return count


def _count_wire_bytes(counts, args, result) -> None:
    text = result if isinstance(result, str) else args[0]
    counts["service.wire_bytes"] += len(text)


#: Counters recorded at the same boundaries as the spans.
COUNTERS = {
    "repro.geometry.points:pairwise_distances": _count_distance_bytes,
    "repro.sinr.graphs:strong_connectivity_graph": _count_edges,
    "repro.sinr.graphs:approx_connectivity_graph": _count_edges,
    "repro.sinr.graphs:graph_diameter": _count_calls("analysis.diameter_calls"),
    "repro.sinr.physics:successful_receptions_batch": _count_calls(
        "sinr.batch_calls"
    ),
    "repro.native.stepper:NativeStepper.advance": _count_calls("native.calls"),
    "repro.service.wire:dumps": _count_wire_bytes,
    "repro.service.wire:loads": _count_wire_bytes,
}


def _resolve(target: str):
    """(owner, attribute name, original) of a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


class _Patches:
    """Swapped attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def swap(self, target: str, make_wrapper) -> None:
        owner, attr, original = _resolve(target)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A function: replace every module-level reference to it.
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class NativeShare:
    """Counts ``VectorRuntime.advance_slots`` trial-slots and the share
    the native kernel advanced (``native_slots`` grows by the slots one
    kernel call completed for all of its rows)."""

    def __init__(self) -> None:
        self.trial_slots = 0
        self.native_trial_slots = 0

    def wrap(self, original):
        def advance_slots(runtime, k, rows=None):
            width = runtime.trials if rows is None else len(rows)
            before = runtime.native_slots
            try:
                return original(runtime, k, rows)
            finally:
                self.trial_slots += int(k) * width
                self.native_trial_slots += (runtime.native_slots - before) * width

        return advance_slots

    @property
    def share(self) -> float:
        if not self.trial_slots:
            return 0.0
        return self.native_trial_slots / self.trial_slots


def count_native_share() -> tuple[NativeShare, _Patches]:
    """Install the trial-slot counter alone (no spans, no clocks)."""
    counter = NativeShare()
    patches = _Patches()
    patches.swap(ADVANCE_TARGET, counter.wrap)
    return counter, patches


class Tracer:
    """In-memory span recorder over the wrapped layer boundaries."""

    def __init__(self) -> None:
        # [name, start, end, parent record or None, child time, thread]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.accept_ms: list[float] = []
        self.first_result_ms: list[float] = []
        self.native = NativeShare()
        self._local = threading.local()
        self._patches = _Patches()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original, count=None):
        spans = self.spans
        counts = self.counts
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][0] == name:
                result = original(*args, **kwargs)
                if count is not None:
                    count(counts, args, result)
                return result
            record = [name, clock(), 0.0, stack[-1] if stack else None, 0.0, 0]
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[2] = end
                if record[3] is not None:
                    record[3][4] += end - record[1]
                record[5] = threading.get_ident()
                spans.append(record)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def _wrap_stream(self, original):
        accept_ms = self.accept_ms
        first_result_ms = self.first_result_ms
        clock = time.perf_counter

        def submit_stream(*args, **kwargs):
            start = clock()
            first = True
            for event in original(*args, **kwargs):
                if event[0] == "accepted":
                    accept_ms.append((clock() - start) * 1000.0)
                elif event[0] == "result" and first:
                    first = False
                    first_result_ms.append((clock() - start) * 1000.0)
                yield event

        return submit_stream

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                count = COUNTERS.get(target)

                def make(original, layer=layer, count=count, target=target):
                    if target == ADVANCE_TARGET:
                        original = self.native.wrap(original)
                    return self._wrap(layer, original, count)

                self._patches.swap(target, make)
        self._patches.swap(STREAM_TARGET, self._wrap_stream)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- derived numbers ------------------------------------------------

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, child, _thread in self.spans:
            totals[name] += (end - start) - child
        return totals

    def covered_seconds(self) -> float:
        """Wall time during which at least one top-level span was open."""
        intervals = sorted(
            (span[1], span[2]) for span in self.spans if span[3] is None
        )
        covered = 0.0
        current_start = current_end = None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced interval (service counters,
        cache stats and the overhead are added by the caller)."""
        metrics: dict[str, float] = {}
        selfs = self.self_times()
        for layer in LAYERS:
            metrics[f"{layer}_s"] = selfs.get(layer, 0.0)
        for name in (
            "geometry.distances_bytes",
            "sinr.graph_edges",
            "analysis.diameter_calls",
            "sinr.batch_calls",
            "native.calls",
            "service.wire_bytes",
        ):
            metrics[name] = self.counts.get(name, 0.0)
        metrics["vectorized.trial_slots"] = float(self.native.trial_slots)
        metrics["vectorized.native_share"] = self.native.share
        metrics["service.accept_ms"] = _median(self.accept_ms)
        metrics["service.first_result_ms"] = _median(self.first_result_ms)
        metrics["trace.coverage"] = (
            self.covered_seconds() / wall_s if wall_s > 0 else 0.0
        )
        return metrics

    def dump(self, path) -> None:
        """Write every span as (id, name, start, end, parent id, thread)."""
        ids = {id(record): index for index, record in enumerate(self.spans)}
        rows = [
            [
                ids[id(record)],
                record[0],
                record[1],
                record[2],
                None if record[3] is None else ids.get(id(record[3])),
                record[5],
            ]
            for record in self.spans
        ]
        fields = ["id", "name", "start", "end", "parent", "thread"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": rows}, handle)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
