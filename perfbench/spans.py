"""Outside-in span tracing of the library's layers.

The benchmark never edits ``src/``: it wraps the public entry points of
each layer (class attributes, patched for the duration of a traced phase
and restored afterwards) and records one span per call.  A span carries a
name, start, end, parent span and request id; spans are kept in memory and
written out when the run ends.

A layer's *self time* is its spans' durations minus the time covered by
their child spans.  Only calls on the thread that installed the tracer are
recorded: every serving path the benchmark drives runs its stages on the
calling thread.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Phase an entry point is traced in.  ``core`` spans are wanted only while
#: the index is being set up: during serving, ``embed_many`` is the embed
#: stage's work and must count there.
SETUP = "setup"
SERVE = "serve"
BOTH = (SETUP, SERVE)


def _pairs(args: tuple, kwargs: dict, result: Any) -> int:
    """Pairs in one ``compute_many(x, ys)`` kernel call."""
    ys = args[2] if len(args) > 2 else kwargs["ys"]
    return len(ys)


def _rows(args: tuple, kwargs: dict, result: Any) -> int:
    """Database rows one ``FilterStage.cut`` scans."""
    return int(args[0].database_vectors.shape[0])


def _hit(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result is not None)


#: (module, class, attribute, span name, layer, phases, counter).  Layer
#: names follow the modules; the span name is ``<layer>.<attribute>``
#: unless two entry points of one layer need telling apart.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str, tuple, Optional[Callable]], ...] = (
    ("repro.core.trainer", "BoostMapTrainer", "train", "core.train", "core", (SETUP,), None),
    ("repro.core.model", "QuerySensitiveModel", "embed_many", "core.embed_many", "core", (SETUP,), None),
    ("repro.index.embedding_index", "EmbeddingIndex", "build", "index.build", "index", (SETUP,), None),
    ("repro.index.embedding_index", "EmbeddingIndex", "query", "index.query", "index", (SERVE,), None),
    ("repro.index.embedding_index", "EmbeddingIndex", "query_many", "index.query_many", "index", (SERVE,), None),
    ("repro.distances.context", "DistanceContext", "register", "index.register", "index.register", BOTH, None),
    ("repro.core.model", "QuerySensitiveModel", "embed", "embed.embed", "embed", (SERVE,), None),
    ("repro.retrieval.engine", "EmbedStage", "run", "embed.run", "embed", (SERVE,), None),
    ("repro.retrieval.engine", "FilterStage", "run", "filter.run", "filter", (SERVE,), None),
    ("repro.retrieval.engine", "FilterStage", "cut", "filter.cut", "filter", (SERVE,), _rows),
    ("repro.retrieval.engine", "RefineStage", "run", "refine.run", "refine", (SERVE,), None),
    ("repro.retrieval.engine", "MergeStage", "run", "merge.run", "merge", (SERVE,), None),
    ("repro.retrieval.planner", "PlannedRetriever", "calibrate", "planner.calibrate", "planner", (SETUP,), None),
    ("repro.retrieval.planner", "PlannedRetriever", "query", "planner.query", "planner", (SERVE,), None),
    ("repro.retrieval.planner", "PlannedRetriever", "query_many", "planner.query_many", "planner", (SERVE,), None),
    ("repro.distances.context", "DistanceContext", "distances_to", "context.distances_to", "context", BOTH, None),
    ("repro.distances.context", "DistanceContext", "distances_to_many", "context.distances_to_many", "context", BOTH, None),
    ("repro.distances.context", "DistanceContext", "resolve_distances", "context.resolve_distances", "context", BOTH, None),
    ("repro.distances.context", "DistanceContext", "complete_distances", "context.complete_distances", "context", BOTH, None),
    ("repro.distances.context", "DistanceContext", "compute", "context.compute", "context", BOTH, None),
    ("repro.distances.context", "DistanceContext", "compute_many", "context.compute_many", "context", BOTH, None),
    ("repro.distances.context", "DistanceContext", "compute_pairs", "context.compute_pairs", "context", BOTH, None),
    ("repro.distances.context", "DistanceStore", "get", "store.get", "store", BOTH, _hit),
    ("repro.distances.context", "DistanceStore", "put", "store.put", "store", BOTH, None),
    ("repro.distances.dtw", "ConstrainedDTW", "compute_many", "kernel.dtw", "kernel", BOTH, _pairs),
    ("repro.distances.edit", "EditDistance", "compute_many", "kernel.edit", "kernel", BOTH, _pairs),
)

#: Layers whose spans re-attribute the kernel calls made beneath them
#: (``embed.kernel_calls_per_query``, ``planner.kernel_calls_per_query``).
STAGE_LAYERS = frozenset(
    {"embed", "filter", "refine", "merge", "planner"}
)

REQUEST = "request"


class Tracer:
    """In-memory span recorder plus per-name aggregates.

    Self time is accumulated as spans close (a closing span adds its
    duration to its parent's child time), so aggregates need no second pass
    over the spans.
    """

    def __init__(self) -> None:
        self.main_thread = threading.get_ident()
        self.request_id = -1
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.layer_of: Dict[str, str] = {REQUEST: REQUEST}
        # One entry per span, appended when the span opens.
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.span_request: List[int] = []
        # Open spans: [span index, name, child time, enclosing stage layer].
        self._stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counted: Dict[str, int] = defaultdict(int)
        #: (stage layer, kernel layer) -> [calls, pairs] for kernel spans.
        self.kernel_by_stage: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        self.offthread_calls = 0
        self._installed: List[Tuple[type, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> list:
        """Open a span on the current thread's stack; returns its frame."""
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.span_start)
        layer = self.layer_of[name]
        if layer in STAGE_LAYERS:
            stage = layer
        else:
            stage = parent[3] if parent is not None else None
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_request.append(self.request_id)
        self.span_end.append(0.0)
        frame = [index, name, 0.0, stage]
        stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def close(self, frame: list, count: int = 0) -> None:
        """Close the innermost span (``frame``) and fold it into the aggregates."""
        end = perf_counter()
        stack = self._stack
        stack.pop()
        index, name, child, stage = frame
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if stack:
            stack[-1][2] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if count:
            self.counted[name] += count
        if self.layer_of[name] == "kernel":
            bucket = self.kernel_by_stage[stage]
            bucket[0] += 1
            bucket[1] += count

    def request(self, request_id: int) -> list:
        """Open the root span of one benchmark request."""
        self.request_id = request_id
        return self.open(REQUEST)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, function: Callable, name: str, counter: Optional[Callable]) -> Callable:
        tracer = self
        main = self.main_thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != main:
                tracer.offthread_calls += 1
                return function(*args, **kwargs)
            frame = tracer.open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                tracer.close(
                    frame, counter(args, kwargs, result) if counter is not None else 0
                )

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self, phase: str) -> None:
        """Patch every entry point traced in ``phase`` (``SETUP`` or ``SERVE``)."""
        if self._installed:
            raise RuntimeError("tracer already installed; uninstall first")
        for module_name, class_name, attribute, name, layer, phases, counter in ENTRY_POINTS:
            if phase not in phases:
                continue
            cls = getattr(importlib.import_module(module_name), class_name)
            raw = cls.__dict__[attribute]
            self.layer_of[name] = layer
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                patched = self._wrap(raw, name, counter)
            setattr(cls, attribute, patched)
            self._installed.append((cls, attribute, raw))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._installed:
            cls, attribute, raw = self._installed.pop()
            setattr(cls, attribute, raw)

    # -- reading -----------------------------------------------------------

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed per layer (the request root counts as ``request``)."""
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[self.layer_of[name]] += seconds
        return dict(out)

    def kernel_stage(self, stage: Optional[str]) -> Tuple[int, int]:
        """(calls, pairs) of kernel spans whose innermost stage is ``stage``."""
        calls, pairs = self.kernel_by_stage.get(stage, (0, 0))
        return calls, pairs

    def reset_aggregates(self) -> None:
        """Forget aggregates (spans are kept) before a new phase is measured."""
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counted.clear()
        self.kernel_by_stage.clear()

    def save(self, path: Path) -> None:
        """Write every recorded span to ``path`` (compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start, dtype=np.float64),
            end=np.asarray(self.span_end, dtype=np.float64),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            request=np.asarray(self.span_request, dtype=np.int64),
        )
