"""Micro-benchmarks of the retrieval pipelines.

Compares, on the same database, the per-query cost of brute-force retrieval
and filter-and-refine retrieval through a trained query-sensitive embedding.
"""

from __future__ import annotations

import pytest

from repro import BruteForceRetriever, FilterRefineRetriever, L2Distance


def test_brute_force_query(benchmark, gaussian_split_bench):
    """Exact 5-NN by scanning the database (the paper's cost reference)."""
    retriever = BruteForceRetriever(L2Distance(), gaussian_split_bench.database)
    query = gaussian_split_bench.queries[0]
    indices, _ = benchmark(retriever.query, query, 5)
    assert indices.shape == (5,)


def test_filter_refine_query(benchmark, trained_model_bench, gaussian_split_bench):
    """Approximate 5-NN through the trained Se-QS embedding."""
    retriever = FilterRefineRetriever(
        L2Distance(), gaussian_split_bench.database, trained_model_bench.model
    )
    query = gaussian_split_bench.queries[0]
    result = benchmark(retriever.query, query, 5, 20)
    assert result.total_distance_computations < len(gaussian_split_bench.database)


def test_dynamic_insertion(benchmark, trained_model_bench, gaussian_split_bench):
    """Adding one object to a dynamic database (Sec. 7.1: at most 2d distances)."""
    from repro import DynamicDatabase

    dynamic = DynamicDatabase(
        L2Distance(),
        trained_model_bench.model,
        initial_objects=list(gaussian_split_bench.database)[:50],
    )
    new_object = gaussian_split_bench.queries[1]
    benchmark(dynamic.add, new_object)
    assert len(dynamic) > 50
