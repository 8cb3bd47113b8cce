#!/usr/bin/env python
"""Planned serving: per-query ``p`` chosen from a calibrated rank profile.

The filter-and-refine operating point ``p`` is normally a global knob
tuned offline.  The ``"planned"`` backend turns it into a per-query
decision: the filter-rank profile calibrated from a few probe queries
picks the refine ceiling ``p`` for a target accuracy (capped by an
optional per-query evaluation budget), and the query refines
incrementally up to it — stopping as soon as the top-``k`` is stable.
This walkthrough, on DTW time-series data:

1. builds an index and enables the adaptive planner,
2. calibrates the planner from probe queries (charged honestly),
3. serves a batch with ``p=None`` and shows bit-identity against the
   fixed-``p`` run at each query's planner-chosen ``p'``,
4. re-serves the warm batch: each query's fixed-``p'`` run in step 3
   was its second sighting, which admitted it and stored the pairs it
   evaluated, so the re-serve costs no refine evaluations and gives the
   same answers,
5. inspects ``explain(k)`` and ``health()["planner"]``,
6. streams under a per-query cost *budget* — the cost-budgeted
   ``stream(...)`` a latency-bound service would run.  The stream serves
   ``p=None`` exactly as ``query_many`` does: every query stops early at
   the same step of ``explain(k)["schedule"]``, with the same answer.

Run with:  PYTHONPATH=src python examples/planned_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ConstrainedDTW,
    EmbeddingIndex,
    IndexConfig,
    TrainingConfig,
    make_timeseries_dataset,
)


def main() -> None:
    database, queries = make_timeseries_dataset(
        n_database=120, n_queries=16, n_seeds=8, length=40, n_dims=1, seed=0
    )
    query_objects = list(queries)
    probes, served_queries = query_objects[:4], query_objects[4:]
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
    )
    index = EmbeddingIndex.build(ConstrainedDTW(), database, config)

    # -- 1+2. enable the planner and calibrate it ----------------------
    index.enable_planner(target_accuracy=0.9)
    calibration = index.calibrate_planner(probes)
    print(
        f"calibrated from {calibration['probes']} probes "
        f"({calibration['probe_evaluations']} exact evaluations, "
        f"{calibration['fit_seconds'] * 1e3:.1f} ms fit)"
    )

    # -- 3. adaptive serving, bit-identical at the chosen p' -----------
    planned = index.query_many(served_queries, k=3)  # p=None: planner picks
    for query, result in zip(served_queries, planned):
        chosen = result.stats["planned_p"]
        fixed = index.query(query, k=3, p=chosen)
        # The adaptive pass was the query's first sighting (served
        # transiently); this fixed-p' re-run is its second, which admits it
        # and stores its pairs.  The answers are identical.
        assert np.array_equal(
            result.neighbor_indices, fixed.neighbor_indices
        )
        assert np.array_equal(
            result.neighbor_distances, fixed.neighbor_distances
        )
    chosen_ps = sorted({r.stats["planned_p"] for r in planned})
    print(
        f"served {len(planned)} queries adaptively; chosen p' values: "
        f"{chosen_ps} (fixed-p' runs agree bit for bit)"
    )

    # -- 4. warm re-serve: the store does the saving -------------------
    cold = sum(r.refine_distance_computations for r in planned)
    warm_results = index.query_many(served_queries, k=3)
    warm = sum(r.refine_distance_computations for r in warm_results)
    assert all(
        np.array_equal(a.neighbor_indices, b.neighbor_indices)
        for a, b in zip(planned, warm_results)
    )
    print(
        f"refine evaluations per query: {cold / len(planned):.1f} cold "
        f"-> {warm / len(planned):.1f} warm (same neighbors)"
    )

    # -- 5. explain and health -----------------------------------------
    plan = index.explain(k=3)
    print(f"explain(k=3): p={plan['p']} schedule={plan['schedule']}")
    planner_health = index.health()["planner"]
    print(
        f"health: {planner_health['planned_queries']} planned queries, "
        f"{planner_health['early_exits']} early exits"
    )

    # -- 6. a cost-budgeted stream -------------------------------------
    # Cap every query at 40 exact evaluations (embedding included); the
    # planner clamps its ceiling to the budget, and the stream stops each
    # query early exactly where query_many(p=None) does.
    index.enable_planner(target_accuracy=0.9, cost_budget=40)
    plan = index.explain(k=3)
    assert plan["p"] <= 40 - index.embedding_cost
    blocking = index.query_many(served_queries, k=3)
    streamed = [None] * len(served_queries)
    for position, result in index.stream(served_queries, k=3, p=None):
        streamed[position] = result
    for a, b in zip(streamed, blocking):
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
        assert a.stats["planned_p"] == b.stats["planned_p"]
        assert a.stats["planned_p"] in plan["schedule"]
    print(
        f"cost-budgeted stream served {len(streamed)} queries at p' in "
        f"{sorted({r.stats['planned_p'] for r in streamed})} (schedule "
        f"{plan['schedule']}; budget 40 including the "
        f"{index.embedding_cost}-evaluation embedding), equal to "
        "query_many(p=None)"
    )
    index.close()


if __name__ == "__main__":
    main()
