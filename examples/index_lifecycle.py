#!/usr/bin/env python
"""Index lifecycle: build → save → open → query, with a persistent pool.

The paper's cost model splits retrieval into *preprocessing paid once*
(training the embedding, embedding the database, any distances evaluated
along the way) and a small *per-query* cost.  ``EmbeddingIndex`` makes that
split operational: build an index in one process, save it as a versioned
artifact directory, and reopen it later — in another process, on another
day — with zero retraining, zero re-embedding, and a warm distance store.

This walkthrough, on DTW time-series data (the paper's Figure 5 modality,
scaled down to run in ~10 s):

1. builds an index (trains Se-QS through one shared ``DistanceContext``),
2. serves a query batch twice through the default filter-and-refine
   backend and a worker pool: the first sighting is served transiently (nothing stored), the
   second admits the queries and stores their pairs,
3. saves the artifact and inspects what is on disk,
4. reopens it, verifies the fingerprint handshake, and serves the batch a
   third time — asserting **zero** exact distance evaluations (every pair
   came from the persisted store),
5. shows that a tampered database is refused at open.

Run with:  PYTHONPATH=src python examples/index_lifecycle.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    ConstrainedDTW,
    EmbeddingIndex,
    IndexConfig,
    TrainingConfig,
    make_timeseries_dataset,
)
from repro.exceptions import ArtifactError


def main() -> None:
    database, queries = make_timeseries_dataset(
        n_database=120, n_queries=15, n_seeds=8, length=40, n_dims=1, seed=0
    )
    query_objects = list(queries)
    config = IndexConfig(
        training=TrainingConfig(
            n_candidates=40,
            n_training_objects=40,
            n_triples=1000,
            n_rounds=12,
            classifiers_per_round=25,
            kmax=5,
            seed=7,
        ),
        n_jobs=2,                  # refine fan-out uses the persistent pool
        max_sparse_entries=50_000,  # bound the store's scattered pairs
    )

    # ---- 1. build (trains once; every exact distance lands in the store)
    print("[build] training Se-QS and embedding the database ...")
    index = EmbeddingIndex.build(ConstrainedDTW(), database, config)
    print(f"[build] dim={index.dim}, embed cost={index.embedding_cost}, "
          f"exact evaluations so far: {index.distance_evaluations}")

    # ---- 2. serve (one pool of workers lives across every batch)
    n_objects = index.context.n_objects
    first = index.query_many(query_objects, k=3, p=20)
    print(f"[serve] cost of query 0: {first[0].total_distance_computations} "
          f"exact distances (vs {len(database)} brute force)")
    print(f"[serve] first sighting: universe {n_objects} -> "
          f"{index.context.n_objects} objects (served transiently)")
    again = index.query_many(query_objects, k=3, p=20)
    print(f"[serve] second sighting refine cost: "
          f"{sum(r.refine_distance_computations for r in again)}; universe "
          f"-> {index.context.n_objects} objects (admitted: pairs now stored)")
    print(f"[serve] pool: {index.pool.launches} launch(es) for "
          f"{index.pool.runs} parallel run(s)")

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "dtw-index"

        # ---- 3. save: one versioned directory holds everything
        index.save(artifact)
        files = sorted(p.name for p in artifact.iterdir())
        print(f"[save] artifact files: {', '.join(files)}")
        index.close()

        # ---- 4. open: zero retraining, warm store, fingerprint-verified
        with EmbeddingIndex.open(artifact, database) as reopened:
            served = reopened.query_many(query_objects, k=3, p=20)
            assert reopened.distance_evaluations == 0, "expected a fully warm open"
            for a, b in zip(first, served):
                assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
                assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
            print("[open] reopened index served the batch bit-identically "
                  "with 0 exact distance evaluations")

        # ---- 5. the fingerprint handshake refuses a different database
        tampered, _ = make_timeseries_dataset(
            n_database=120, n_queries=1, n_seeds=8, length=40, n_dims=1, seed=99
        )
        try:
            EmbeddingIndex.open(artifact, tampered)
        except ArtifactError as exc:
            print(f"[open] tampered database refused: {str(exc)[:72]}...")


if __name__ == "__main__":
    main()
