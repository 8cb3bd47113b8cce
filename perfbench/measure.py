"""Set up, serve and score one workload, and assemble its metrics.

End-to-end metrics always come from untraced runs.  A traced run serves one
segment untraced and one traced, so the tracing overhead is measured in the
same process on the same amount of work.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.index.embedding_index import EmbeddingIndex, IndexConfig

from oracle import Oracle, count_failures
from spans import SERVE, SETUP, Tracer
from workloads import TARGET_ACCURACY, Inputs, Workload, raw_measure, send

#: Fewest set-ups (segments) per run; ``setup_s`` is their median.
SETUPS = 3

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Served:
    """What one or more serving segments sent and got back."""

    pairs: List[Tuple[Any, Optional[Any]]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def results(self) -> List[Any]:
        return [result for _, result in self.pairs if result is not None]

    @property
    def throughput(self) -> float:
        return len(self.pairs) / self.seconds


@dataclass
class Outcome:
    """A finished run: its metrics and the correctness tally."""

    metrics: Metrics
    attempted: int
    failed: int
    details: Dict[str, Any]


def build(workload: Workload, inputs: Inputs) -> EmbeddingIndex:
    """Train an index for ``workload`` (and calibrate its planner)."""
    config = IndexConfig(training=workload.training)
    index = EmbeddingIndex.build(raw_measure(workload.measure), inputs.database, config)
    if workload.n_probes:
        index.enable_planner(target_accuracy=TARGET_ACCURACY)
        index.calibrate_planner(inputs.probes)
    return index


def set_up(
    workload: Workload, inputs: Inputs, tracer: Optional[Tracer] = None
) -> Tuple[EmbeddingIndex, float]:
    """One timed set-up; the tracer, when given, records it."""
    gc.collect()
    if tracer is not None:
        tracer.install(SETUP)
    try:
        started = perf_counter()
        index = build(workload, inputs)
        return index, perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()


def serve(
    index: EmbeddingIndex,
    workload: Workload,
    inputs: Inputs,
    served: Served,
    tracer: Optional[Tracer] = None,
) -> Served:
    """Closed loop: send requests until ``workload.queries_per_setup`` queries were served.

    Results and request times are appended to ``served``.  Drawing the
    next request happens outside the request's clock.
    """
    began = perf_counter()
    for _ in range(workload.queries_per_setup // workload.batch):
        queries = inputs.next_request()
        frame = tracer.request(len(served.latencies)) if tracer is not None else None
        started = perf_counter()
        try:
            results = send(index, workload, queries)
        except Exception:  # a failed request is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            results = [None] * len(queries)
        finished = perf_counter()
        if frame is not None:
            tracer.close(frame)
        served.latencies.append(finished - started)
        served.pairs.extend(zip(queries, results))
    served.seconds += perf_counter() - began
    return served


def peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _score(oracle: Oracle, workload: Workload, served: Served) -> Tuple[float, float]:
    """(accuracy, evals_per_query) over the evaluation set, so both repeat exactly."""
    scored = served.pairs[: workload.n_scored]
    rows = oracle.ground_truth([query for query, _ in scored])
    accuracy = float(
        np.mean([oracle.exact_hit(result, row) for (_, result), row in zip(scored, rows)])
    )
    costs = [result.total_distance_computations for _, result in scored if result is not None]
    return accuracy, float(np.mean(costs)) if costs else float("nan")


def run_end_to_end(workload: Workload, inputs: Inputs, workdir: Path, seconds: float) -> Outcome:
    """The timed run: every end-to-end metric, no instrumentation.

    Segments of one set-up and ``queries_per_setup`` requests on the fresh
    index repeat until ``seconds`` of wall-clock have passed (at least
    ``SETUPS`` of them).  Every index serves the same amount of work, so
    the store each request meets grows the same way in every run, however
    fast the program or the host.
    """
    served = Served()
    setup_seconds: List[float] = []
    rss_mb = 0.0
    began = perf_counter()
    while len(setup_seconds) < SETUPS or perf_counter() - began < seconds:
        index, took = set_up(workload, inputs)
        setup_seconds.append(took)
        try:
            serve(index, workload, inputs, served)
        finally:
            index.close()
        rss_mb = rss_mb or peak_rss_mb()
    oracle = Oracle(workload.measure, inputs.database, cache=workdir / "truth")
    failed = count_failures(oracle, served.pairs)
    accuracy, evals = _score(oracle, workload, served)
    latency_ms = np.asarray(served.latencies) * 1e3
    metrics: Metrics = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "latency_p50_ms": (float(np.percentile(latency_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(latency_ms, 90)), "ms"),
        "throughput_qps": (served.throughput, "queries/s"),
        "accuracy": (accuracy, "fraction"),
        "evals_per_query": (evals, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - failed / len(served.pairs), "fraction"),
    }
    details = {
        "latencies_ms": latency_ms.tolist(),
        "requests": len(served.latencies),
        "queries": len(served.pairs),
        "serving_seconds": served.seconds,
        "setup_seconds": setup_seconds,
    }
    return Outcome(metrics, len(served.pairs), failed, details)


def _total_under(tracer: Tracer, name: str, parent: str) -> float:
    """Summed duration of ``name`` spans whose direct parent is a ``parent`` span."""
    name_id = tracer.names.index(name) if name in tracer.names else -1
    parent_id = tracer.names.index(parent) if parent in tracer.names else -1
    total = 0.0
    for index, nid in enumerate(tracer.span_name):
        up = tracer.span_parent[index]
        if nid == name_id and up >= 0 and tracer.span_name[up] == parent_id:
            total += tracer.span_end[index] - tracer.span_start[index]
    return total


def run_traced(workload: Workload, inputs: Inputs, workdir: Path) -> Outcome:
    """The traced run: every per-layer metric, plus the tracing overhead.

    Two segments: a traced set-up whose index serves untraced, then an
    untraced set-up whose index serves traced.  Both serve the same amount
    of work, so their throughputs give the tracing overhead.
    """
    tracer = Tracer()
    index, _ = set_up(workload, inputs, tracer=tracer)
    setup = {
        "core.train_s": tracer.total.get("core.train", 0.0),
        "core.embed_database_s": _total_under(tracer, "core.embed_many", "index.build"),
        "planner.calibrate_s": tracer.total.get("planner.calibrate", 0.0),
    }
    tracer.reset_aggregates()
    try:
        plain = serve(index, workload, inputs, Served())
    finally:
        index.close()
    index, _ = set_up(workload, inputs)
    try:
        evals_before = index.distance_evaluations
        tracer.install(SERVE)
        try:
            traced = serve(index, workload, inputs, Served(), tracer=tracer)
        finally:
            tracer.uninstall()
        context_evals = index.distance_evaluations - evals_before
        store = index.context.store
        store_state = (store.n_sparse_entries, store.sparse_evictions)
    finally:
        index.close()
    tracer.save(workdir / "traces" / f"{workload.name}-seed{inputs.seed}.npz")

    served_all = plain.pairs + traced.pairs
    oracle = Oracle(workload.measure, inputs.database, cache=workdir / "truth")
    failed = count_failures(oracle, served_all)
    accuracy, _ = _score(oracle, workload, plain)

    n = len(traced.pairs)
    ms = 1e3 / n
    layer = tracer.layer_self_seconds()
    calls, total, counted = tracer.calls, tracer.total, tracer.counted
    results = traced.results
    planned = [r.stats for r in results if r.stats and r.stats.get("planned")]
    kernel_calls = sum(c for c, _ in tracer.kernel_by_stage.values())
    kernel_pairs = sum(p for _, p in tracer.kernel_by_stage.values())
    kernel_seconds = total.get("kernel.dtw", 0.0) + total.get("kernel.edit", 0.0)
    result_evals = sum(r.total_distance_computations for r in results)
    gets = calls.get("store.get", 0)
    values: Dict[str, Tuple[float, str]] = {
        "core.train_s": (setup["core.train_s"], "s"),
        "core.embed_database_s": (setup["core.embed_database_s"], "s"),
        "index.self_ms_per_query": (layer.get("index", 0.0) * ms, "ms"),
        "index.register_ms_per_query": (layer.get("index.register", 0.0) * ms, "ms"),
        "embed.ms_per_query": (layer.get("embed", 0.0) * ms, "ms"),
        "embed.kernel_calls_per_query": (tracer.kernel_stage("embed")[0] / n, "count"),
        "filter.ms_per_query": (layer.get("filter", 0.0) * ms, "ms"),
        "filter.rows_per_query": (counted.get("filter.cut", 0) / n, "count"),
        "refine.ms_per_query": (layer.get("refine", 0.0) * ms, "ms"),
        "refine.evals_per_query": (
            float(np.mean([r.refine_distance_computations for r in results])),
            "count",
        ),
        "merge.ms_per_query": (layer.get("merge", 0.0) * ms, "ms"),
        "planner.calibrate_s": (setup["planner.calibrate_s"], "s"),
        "planner.self_ms_per_query": (layer.get("planner", 0.0) * ms, "ms"),
        "planner.p_mean": (
            float(np.mean([s["planned_p"] for s in planned])) if planned else 0.0,
            "count",
        ),
        "planner.early_exit_rate": (
            float(np.mean([bool(s.get("early_exit")) for s in planned])) if planned else 0.0,
            "fraction",
        ),
        "planner.kernel_calls_per_query": (tracer.kernel_stage("planner")[0] / n, "count"),
        "planner.accuracy_gap": (
            TARGET_ACCURACY - accuracy if workload.n_probes else 0.0,
            "fraction",
        ),
        "context.self_ms_per_query": (layer.get("context", 0.0) * ms, "ms"),
        "context.hit_rate": (counted.get("store.get", 0) / gets if gets else 0.0, "fraction"),
        "store.ms_per_query": (layer.get("store", 0.0) * ms, "ms"),
        "store.get_calls_per_query": (gets / n, "count"),
        "store.get_us_per_call": (total.get("store.get", 0.0) / gets * 1e6 if gets else 0.0, "us"),
        "store.put_calls_per_query": (calls.get("store.put", 0) / n, "count"),
        "store.sparse_entries": (float(store_state[0]), "count"),
        "store.evictions": (float(store_state[1]), "count"),
        "kernel.ms_per_query": (layer.get("kernel", 0.0) * ms, "ms"),
        "kernel.calls_per_query": (kernel_calls / n, "count"),
        "kernel.pairs_per_call": (kernel_pairs / kernel_calls if kernel_calls else 0.0, "count"),
        "kernel.us_per_pair": (
            kernel_seconds / kernel_pairs * 1e6 if kernel_pairs else 0.0,
            "us",
        ),
        "trace.overhead_ratio": (plain.throughput / traced.throughput, "ratio"),
        "trace.unattributed_ms_per_query": (layer.get("request", 0.0) * ms, "ms"),
        "trace.request_ms_per_query": (total.get("request", 0.0) * ms, "ms"),
        "accounting.kernel_pairs_per_query": (kernel_pairs / n, "count"),
        "accounting.context_evals_per_query": (context_evals / n, "count"),
        "accounting.result_evals_per_query": (result_evals / n, "count"),
        "accounting.mismatched_evals": (
            float(
                max(kernel_pairs, context_evals, result_evals)
                - min(kernel_pairs, context_evals, result_evals)
            ),
            "count",
        ),
    }
    details = {
        "traced_requests": len(traced.latencies),
        "traced_queries": n,
        "layer_self_ms_per_query": {name: s * ms for name, s in sorted(layer.items())},
        "offthread_calls": tracer.offthread_calls,
        "spans": len(tracer.span_start),
    }
    return Outcome(values, len(served_all), failed, details)
