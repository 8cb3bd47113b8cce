"""Timing: distance throughput and per-query processing time (Sec. 9).

The paper reports that, on its 2005 hardware, Shape Context distances are
evaluated at ~15 per second and constrained DTW distances at ~60 per second,
and notes that per-query retrieval time is dominated by exact distance
computations — to convert any distance count into seconds, divide by the
throughput.  It also quotes a 51.2x speed-up on the original 50-query
time-series test set versus roughly 5x for the indexing method of [32].

:func:`run_timing` measures the throughput of both distance measures (and of
L1 distances between embedded vectors, to substantiate the claim that the
filter step is negligible) on the current machine, and derives per-query
times and speed-up factors for a supplied comparison result.

:func:`run_serving_timing` measures the serving shape: one
:class:`~repro.index.embedding_index.EmbeddingIndex` answering the same
query batch through the blocking ``query_many`` path and through the
pipelined ``stream`` path (parent-side embed/filter of query ``i+1``
overlapping the pooled refine of query ``i``), asserting bit-identical
results before reporting wall-clock throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.digits import DigitImageGenerator
from repro.datasets.timeseries import TimeSeriesGenerator, make_timeseries_dataset
from repro.distances.dtw import ConstrainedDTW
from repro.distances.shape_context import ShapeContextDistance
from repro.embeddings.lipschitz import build_lipschitz_embedding
from repro.exceptions import ExperimentError
from repro.experiments.runner import ComparisonResult
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.timing import ThroughputMeter


@dataclass
class TimingResult:
    """Measured throughputs (calls per second) and derived per-query times."""

    shape_context_per_second: float
    dtw_per_second: float
    vector_l1_per_second: float
    paper_shape_context_per_second: float = 15.0
    paper_dtw_per_second: float = 60.0

    def per_query_seconds(self, n_distances: int, measure: str) -> float:
        """Seconds per query given a distance count, for ``"shape_context"``
        or ``"dtw"``."""
        rates = {
            "shape_context": self.shape_context_per_second,
            "dtw": self.dtw_per_second,
        }
        if measure not in rates:
            raise ExperimentError(f"unknown measure {measure!r}")
        rate = rates[measure]
        if rate <= 0:
            raise ExperimentError("throughput was not measured")
        return n_distances / rate

    def summary(self) -> str:
        return "\n".join(
            [
                "Distance throughput on this machine (paper's 2005 hardware in parentheses):",
                f"  shape context: {self.shape_context_per_second:8.1f}/s "
                f"(paper: {self.paper_shape_context_per_second:.0f}/s)",
                f"  constrained DTW: {self.dtw_per_second:7.1f}/s "
                f"(paper: {self.paper_dtw_per_second:.0f}/s)",
                f"  L1 on embedded vectors: {self.vector_l1_per_second:,.0f}/s "
                "(filter step is negligible, as the paper observes)",
            ]
        )


def run_timing(
    n_pairs: int = 60,
    image_size: int = 28,
    shape_context_points: int = 20,
    series_length: int = 64,
    vector_dim: int = 100,
    seed: RngLike = 0,
) -> TimingResult:
    """Measure distance throughputs on the current machine."""
    if n_pairs < 2:
        raise ExperimentError("n_pairs must be at least 2")
    rng = ensure_rng(seed)

    digit_gen = DigitImageGenerator(image_size=image_size)
    images = [digit_gen.render(int(i % 10), rng=rng) for i in range(2 * n_pairs)]
    shape_context = ShapeContextDistance(
        n_points=shape_context_points, cache_features=False
    )
    sc_meter = ThroughputMeter(name="shape_context")
    pair_index = {"i": 0}

    def sc_call() -> float:
        i = pair_index["i"] % n_pairs
        pair_index["i"] += 1
        return shape_context(images[i], images[i + n_pairs])

    sc_meter.measure(sc_call, repetitions=n_pairs)

    ts_gen = TimeSeriesGenerator(length=series_length, n_dims=2)
    series = ts_gen.generate(2 * n_pairs, seed=rng).objects
    dtw = ConstrainedDTW()
    dtw_meter = ThroughputMeter(name="dtw")
    pair_index["i"] = 0

    def dtw_call() -> float:
        i = pair_index["i"] % n_pairs
        pair_index["i"] += 1
        return dtw(series[i], series[i + n_pairs])

    dtw_meter.measure(dtw_call, repetitions=n_pairs)

    vectors = rng.normal(size=(2 * n_pairs, vector_dim))
    l1_meter = ThroughputMeter(name="vector_l1")
    pair_index["i"] = 0

    def l1_call() -> float:
        i = pair_index["i"] % n_pairs
        pair_index["i"] += 1
        return float(np.abs(vectors[i] - vectors[i + n_pairs]).sum())

    l1_meter.measure(l1_call, repetitions=max(n_pairs * 50, 1000))

    return TimingResult(
        shape_context_per_second=sc_meter.per_second,
        dtw_per_second=dtw_meter.per_second,
        vector_l1_per_second=l1_meter.per_second,
    )


@dataclass
class ServingTimingResult:
    """Measured index serving throughput, blocking vs. pipelined stream.

    Attributes
    ----------
    n_database, n_queries, k, p:
        Workload shape.
    n_jobs:
        Pool width of the index the batch was served from.
    blocking_seconds, stream_seconds:
        Wall-clock time of the whole batch on each path.
    """

    n_database: int
    n_queries: int
    k: int
    p: int
    n_jobs: Optional[int]
    blocking_seconds: float
    stream_seconds: float

    @property
    def blocking_queries_per_second(self) -> float:
        return self.n_queries / self.blocking_seconds

    @property
    def stream_queries_per_second(self) -> float:
        return self.n_queries / self.stream_seconds

    @property
    def speedup(self) -> float:
        """Stream speedup over the blocking batch path (>1 = faster)."""
        return self.blocking_seconds / self.stream_seconds

    def summary(self) -> str:
        return "\n".join(
            [
                f"index serving throughput ({self.n_queries} queries, "
                f"database={self.n_database}, k={self.k}, p={self.p}, "
                f"n_jobs={self.n_jobs}):",
                f"  blocking query_many: {self.blocking_queries_per_second:8.1f} queries/s",
                f"  pipelined stream:    {self.stream_queries_per_second:8.1f} queries/s",
                f"  speedup: {self.speedup:.2f}x",
            ]
        )


def run_serving_timing(
    n_database: int = 200,
    n_queries: int = 24,
    k: int = 5,
    p: int = 25,
    n_jobs: Optional[int] = 2,
    series_length: int = 50,
    seed: RngLike = 0,
) -> ServingTimingResult:
    """Time blocking ``query_many`` vs. pipelined ``stream`` on one index.

    Builds an :class:`~repro.index.embedding_index.EmbeddingIndex` over a
    synthetic DTW workload (a prebuilt Lipschitz embedding, so the
    measurement isolates serving, not training), serves one half of the
    query set each way *cold*, and verifies the other half is bit-identical
    across paths before reporting throughput.
    """
    from repro.index.embedding_index import EmbeddingIndex, IndexConfig

    if n_queries < 2:
        raise ExperimentError("n_queries must be at least 2")
    database, queries = make_timeseries_dataset(
        n_database=n_database,
        n_queries=2 * n_queries,
        n_seeds=8,
        length=series_length,
        n_dims=1,
        seed=seed,
    )
    distance = ConstrainedDTW()
    embedding = build_lipschitz_embedding(
        distance, database, dim=8, set_size=1, seed=seed
    )
    query_objects = list(queries)
    blocking_batch = query_objects[:n_queries]
    stream_batch = query_objects[n_queries:]

    index = EmbeddingIndex.build(
        distance, database, IndexConfig(n_jobs=n_jobs), embedder=embedding
    )
    try:
        start = time.perf_counter()
        index.query_many(blocking_batch, k=k, p=p)
        blocking_seconds = time.perf_counter() - start

        start = time.perf_counter()
        streamed = [None] * len(stream_batch)
        for position, result in index.stream(stream_batch, k=k, p=p):
            streamed[position] = result
        stream_seconds = time.perf_counter() - start

        reference = index.query_many(stream_batch, k=k, p=p)
        for lhs, rhs in zip(streamed, reference):
            if not np.array_equal(lhs.neighbor_indices, rhs.neighbor_indices):
                raise ExperimentError(
                    "streamed serving disagreed with the blocking pipeline"
                )
    finally:
        index.close()

    return ServingTimingResult(
        n_database=n_database,
        n_queries=n_queries,
        k=k,
        p=p,
        n_jobs=n_jobs,
        blocking_seconds=blocking_seconds,
        stream_seconds=stream_seconds,
    )


def speedup_report(
    comparison: ComparisonResult,
    accuracy: float,
    k: int,
    timing: Optional[TimingResult] = None,
    measure: str = "dtw",
) -> str:
    """Speed-up factors over brute force (and optional wall-clock estimates).

    This reproduces the kind of statement made in Sec. 9 ("a speed-up factor
    of 51.2 ... the indexing method in [32] reports a speed-up of
    approximately a factor of 5"): speed-up = brute-force distance count /
    per-query distance count of the method at the chosen operating point.
    """
    lines = [
        f"Speed-up over brute force ({comparison.brute_force_cost} distances) "
        f"at k={k}, accuracy={int(round(accuracy * 100))}%:"
    ]
    for tag, result in comparison.methods.items():
        cost = result.cost(k, accuracy)
        speedup = comparison.brute_force_cost / cost
        line = f"  {tag:<8} {cost:>8} distances  ({speedup:5.1f}x)"
        if timing is not None:
            seconds = timing.per_query_seconds(cost, measure)
            line += f"  ~{seconds:.2f}s per query on this machine"
        lines.append(line)
    return "\n".join(lines)
