#!/usr/bin/env python
"""Async serving: open a warm artifact, then submit / stream / aquery_many.

``EmbeddingIndex.query_many`` blocks on the whole batch.  A serving layer
wants the pipelined shape instead: embed and filter query ``i+1`` on the
parent CPU *while* the persistent pool refines query ``i``, and hand each
result out as soon as it lands.  This walkthrough, on DTW time-series data:

1. builds an index once and saves it (the preprocessing paid up front),
2. reopens the artifact — zero retraining, warm distance store —
3. serves fresh queries three ways and checks they agree bit for bit:
   * ``submit`` → :class:`~repro.index.serving.QueryTicket` (non-blocking;
     ``result()`` collects, ``cancel()`` abandons unstarted work),
   * ``stream`` → results yielded in completion order with bounded
     look-ahead (``max_in_flight`` backpressure),
   * ``aquery_many`` → the ``asyncio``-friendly batch call,
4. re-streams the same batch to show warm serving: zero exact distance
   evaluations, every pair answered by the store (step 3 served each
   query at least twice, and a query's second sighting stores its pairs),
5. puts a deadline on a deliberately slowed pool: without
   ``allow_partial`` the ticket resolves to a typed ``ServingError``
   instead of hanging; with it, whatever refine work finished in time is
   ranked and returned with ``result.partial`` set.

Run with:  PYTHONPATH=src python examples/async_serving.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ConstrainedDTW,
    EmbeddingIndex,
    IndexConfig,
    PersistentPool,
    ServingError,
    TrainingConfig,
    make_timeseries_dataset,
)
from repro.testing import FaultPlan


def main() -> None:
    database, queries = make_timeseries_dataset(
        n_database=120, n_queries=12, n_seeds=8, length=40, n_dims=1, seed=0
    )
    query_objects = list(queries)
    config = IndexConfig(
        training=TrainingConfig(
            n_candidates=30,
            n_training_objects=30,
            n_triples=600,
            n_rounds=10,
            classifiers_per_round=20,
            kmax=5,
            seed=7,
        ),
        backend="filter_refine",
        n_jobs=2,  # the persistent pool the refine batches run on
    )

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "index"

        # -- 1. preprocessing, paid once -------------------------------
        index = EmbeddingIndex.build(ConstrainedDTW(), database, config)
        blocking = index.query_many(query_objects, k=3, p=15)
        index.save(artifact)
        index.close()
        print(f"built and saved: {artifact.name}/ "
              f"({sum(1 for _ in artifact.iterdir())} files)")

        # -- 2. reopen warm --------------------------------------------
        with EmbeddingIndex.open(artifact, database) as served:
            print(f"reopened with {served.distance_evaluations} exact "
                  "evaluations (training and embeddings came from the artifact)")

            # -- 3a. submit: non-blocking tickets ----------------------
            tickets = [served.submit(q, k=3, p=15) for q in query_objects[:3]]
            spare = served.submit(query_objects[3], k=3, p=15)
            print(f"cancelled a pending ticket: {spare.cancel()}")
            for ticket, reference in zip(tickets, blocking):
                result = ticket.result()
                assert np.array_equal(
                    result.neighbor_indices, reference.neighbor_indices
                )
            print("3 tickets served, identical to the blocking batch")

            # -- 3b. stream: completion order, bounded look-ahead ------
            stream = served.stream(
                query_objects, k=3, p=15, max_in_flight=4, order="completion"
            )
            streamed = [None] * len(query_objects)
            for position, result in stream:
                streamed[position] = result
            assert all(
                np.array_equal(a.neighbor_indices, b.neighbor_indices)
                for a, b in zip(streamed, blocking)
            )
            print(f"streamed {stream.completed} results "
                  f"(never more than {stream.max_pending_seen} in flight)")

            # -- 3c. asyncio entry point -------------------------------
            async_results = asyncio.run(
                served.aquery_many(query_objects, k=3, p=15)
            )
            assert all(
                np.array_equal(a.neighbor_indices, b.neighbor_indices)
                for a, b in zip(async_results, blocking)
            )
            print("aquery_many agrees with query_many")

            # -- 4. warm re-serve: the store answers everything --------
            warm = [r for _, r in served.stream(query_objects, k=3, p=15)]
            total_refine = sum(r.refine_distance_computations for r in warm)
            assert total_refine == 0
            print("warm re-stream refined with 0 exact evaluations "
                  f"(pool launched {served.pool.launches}x in this session)")

        # -- 5. deadlines: typed failures and partial results ----------
        # A deadline bounds how long a caller can be stalled.  Slow the
        # refine pool down with the fault-injection harness so it
        # actually expires on a never-seen query.
        fresh = list(make_timeseries_dataset(
            n_database=1, n_queries=2, n_seeds=8, length=40, n_dims=1, seed=99
        )[1])
        slow = EmbeddingIndex.open(artifact, database)
        # Warm a small candidate prefix first, so the partial result
        # below has resolved distances to rank: the first sighting is
        # served transiently, the second is admitted and stores its pairs.
        slow.query(fresh[1], k=3, p=5)
        slow.query(fresh[1], k=3, p=5)
        delayed = PersistentPool(2, faults=FaultPlan(delay_seconds=2.0))
        slow.pool = delayed
        slow.context.pool = delayed
        slow._owns_pool = True
        try:
            slow.submit(fresh[0], k=3, p=15, deadline=0.25).result()
        except ServingError as exc:
            print(f"deadline expired as a typed error: "
                  f"{type(exc).__name__}: {exc}")
        partial = slow.submit(
            fresh[1], k=3, p=15, deadline=0.25, allow_partial=True
        ).result()
        print(f"partial result (partial={partial.partial}): "
              f"{len(partial.neighbor_indices)} neighbors ranked from the "
              "candidates whose exact distances resolved in time")
        slow.close()


if __name__ == "__main__":
    main()
