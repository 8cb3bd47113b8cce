#!/usr/bin/env python
"""Smoke-check the EmbeddingIndex public API in well under 10 seconds.

A tier-1-adjacent gate: exercises the whole build → save → open → query
lifecycle on a tiny Euclidean workload and fails loudly (non-zero exit) if
any contract breaks — bit-identical warm serving, zero-evaluation opens,
fingerprint refusal, backend switching, and persistent-pool serving.  It
also checks that the default kernel backend's unit edit distances equal
the numpy reference exactly around the compiled 64-symbol word path.

Usage::

    python scripts/check_api.py

Exit code 0 = every check passed.  Designed to be cheap enough to run on
every commit next to the unit-test suite.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro import (  # noqa: E402
    ArtifactError,
    EditDistance,
    EmbeddingIndex,
    IndexConfig,
    L2Distance,
    PersistentPool,
    RetrievalSplit,
    TrainingConfig,
    make_gaussian_clusters,
)
from repro.testing import FaultPlan  # noqa: E402


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"[check_api] {status:4s}  {label}")
    if not condition:
        raise AssertionError(label)


def main() -> int:
    start = time.perf_counter()
    dataset = make_gaussian_clusters(n_objects=120, n_clusters=5, n_dims=5, seed=0)
    split = RetrievalSplit.from_dataset(dataset, n_queries=12, seed=1)
    queries = list(split.queries)
    config = IndexConfig(
        training=TrainingConfig(
            n_candidates=25,
            n_training_objects=25,
            n_triples=400,
            n_rounds=8,
            classifiers_per_round=15,
            kmax=5,
            seed=2,
        ),
        n_jobs=2,
    )

    # build + serve three times: a first sighting stays out of the
    # universe, the second is admitted and stored, the third is free
    index = EmbeddingIndex.build(L2Distance(), split.database, config)
    n_objects = index.context.n_objects
    first = index.query_many(queries, k=3, p=12, n_jobs=2)
    check(len(first) == len(queries), "build + pooled query_many serves a batch")
    check(
        index.context.n_objects == n_objects,
        "a first-sighting batch leaves the universe unchanged",
    )
    index.query_many(queries, k=3, p=12, n_jobs=2)
    check(
        index.context.n_objects == n_objects + len(queries),
        "its second sighting grows the universe by the batch size",
    )
    warm = index.query_many(queries, k=3, p=12, n_jobs=2)
    check(
        all(r.refine_distance_computations == 0 for r in warm),
        "third sighting of a batch is store-resident (zero refine evaluations)",
    )
    check(index.pool.launches <= 1, "one persistent pool launch per index")

    # backend switch reuses everything
    index.set_backend("planned")
    switched = index.query_many(queries, k=3, p=12)
    check(
        all(
            np.array_equal(a.neighbor_indices, b.neighbor_indices)
            for a, b in zip(warm, switched)
        ),
        "backend switch is result-identical",
    )
    index.set_backend("filter_refine")

    # async serving: submit/stream must agree with the blocking path
    ticket = index.submit(queries[0], k=3, p=12)
    check(
        np.array_equal(ticket.result().neighbor_indices, warm[0].neighbor_indices),
        "submit -> ticket.result matches blocking query",
    )
    streamed = [None] * len(queries)
    stream = index.stream(queries, k=3, p=12, max_in_flight=4)
    for position, result in stream:
        streamed[position] = result
    check(
        all(
            np.array_equal(a.neighbor_indices, b.neighbor_indices)
            and a.refine_distance_computations == 0
            for a, b in zip(warm, streamed)
        ),
        "stream serves bit-identically from the warm store",
    )
    check(
        stream.max_pending_seen <= 4,
        "stream honours the max_in_flight backpressure bound",
    )
    check(index.pool.launches <= 1, "async serving reuses the same pool launch")

    # adaptive query planner: plan, serve, and per-query fixed-p' parity
    index.enable_planner(target_accuracy=0.9)
    check(index.backend == "planned", "enable_planner switches the backend")
    plan = index.explain(k=3)
    check(
        all(key in plan for key in ("p", "schedule")),
        "explain exposes the planned operating point",
    )
    planned = index.query_many(queries, k=3)
    check(
        all(r.stats.get("planned") for r in planned),
        "adaptive serve stamps planner stats on every result",
    )
    check(
        all(r.stats["planned_p"] in plan["schedule"] for r in planned),
        "every adaptive p' is a step of the explained schedule",
    )
    check(
        all(
            np.array_equal(
                r.neighbor_indices,
                index.query(q, k=3, p=r.stats["planned_p"]).neighbor_indices,
            )
            for q, r in zip(queries, planned)
        ),
        "every adaptive answer equals the fixed run at its chosen p'",
    )
    # Novel queries: the blocking batch is their first sighting (served
    # transiently), the stream their second, so both start from the same
    # store state and must charge the same pairs.
    novel = list(make_gaussian_clusters(n_objects=8, n_clusters=4, n_dims=5, seed=23))
    blocking = index.query_many(novel, k=3)
    streamed = [None] * len(novel)
    for position, result in index.stream(novel, k=3, p=None):
        streamed[position] = result
    check(
        all(
            np.array_equal(a.neighbor_indices, b.neighbor_indices)
            and a.stats["planned_p"] == b.stats["planned_p"]
            and a.total_distance_computations == b.total_distance_computations
            for a, b in zip(blocking, streamed)
        ),
        "stream(p=None) equals query_many(p=None): neighbors, p' and cost",
    )
    check(
        index.health()["planner"] is not None,
        "index.health surfaces the planner",
    )
    index.calibrate_planner(queries[:4])
    calibrated = index.explain(k=3)
    index.enable_planner(cost_budget=index.embedding_cost + calibrated["p"])
    retargeted = index.explain(k=3)
    check(
        calibrated["calibrated"]
        and retargeted["calibrated"]
        and retargeted["p"] == calibrated["p"],
        "enable_planner on a planned index keeps its calibration",
    )
    index.set_backend("filter_refine")

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "index"

        # save → open round trip
        index.save(artifact)
        index.close()
        reopened = EmbeddingIndex.open(artifact, split.database)
        served = reopened.query_many(queries, k=3, p=12)
        check(
            all(
                np.array_equal(a.neighbor_indices, b.neighbor_indices)
                and np.array_equal(a.neighbor_distances, b.neighbor_distances)
                and a.total_distance_computations == b.total_distance_computations
                for a, b in zip(warm, served)
            ),
            "open serves bit-identically (neighbors + per-query cost)",
        )
        check(
            reopened.distance_evaluations == 0,
            "warm open performs zero exact evaluations",
        )
        reopened.close()

        # fingerprint handshake
        other = make_gaussian_clusters(n_objects=108, n_clusters=5, n_dims=5, seed=9)
        try:
            EmbeddingIndex.open(artifact, other)
            check(False, "fingerprint mismatch is refused")
        except ArtifactError:
            check(True, "fingerprint mismatch is refused")

        # fault tolerance: kill a worker mid-batch; supervision must
        # respawn it and the batch must stay bit-identical to the healthy
        # serve, with exactly the one injected restart on record.  The
        # saved store already covers ``queries``, so serve fresh ones —
        # their refine work actually flows through the pool.
        fresh = list(
            make_gaussian_clusters(n_objects=8, n_clusters=4, n_dims=5, seed=17)
        )
        healthy = EmbeddingIndex.open(artifact, split.database)
        baseline = healthy.query_many(fresh, k=3, p=12, n_jobs=2)
        healthy.close()
        survivor = EmbeddingIndex.open(artifact, split.database)
        faulty = PersistentPool(2, faults=FaultPlan(kill_after_chunks=1))
        survivor.pool = faulty
        survivor.context.pool = faulty
        survivor._owns_pool = True
        chaos_served = survivor.query_many(fresh, k=3, p=12, n_jobs=2)
        check(
            all(
                np.array_equal(a.neighbor_indices, b.neighbor_indices)
                and np.array_equal(a.neighbor_distances, b.neighbor_distances)
                for a, b in zip(baseline, chaos_served)
            ),
            "worker killed mid-batch: results stay bit-identical",
        )
        check(
            faulty.restarts == 1,
            "pool reports exactly the injected worker restart",
        )
        check(
            survivor.health()["pool"]["restarts"] == 1,
            "index.health surfaces the pool restart",
        )
        survivor.close()
        survivor.close()  # idempotent close is part of the contract

    # distance store: fill past the write-tier merge threshold, then one
    # get_many per request must equal per-pair get, and a save/load round
    # trip must write the same arrays again.
    from repro.distances.context import DistanceStore

    store = DistanceStore()
    rng = np.random.default_rng(5)
    n_requests = 3 * DistanceStore.WRITE_TIER_MIN // 50
    for query in range(1000, 1000 + n_requests):
        store.put_many(query, rng.choice(1000, size=50, replace=False), rng.random(50))
    probes = [
        (query, rng.integers(0, 1000, size=80))
        for query in (1000, 1000 + n_requests // 2, 1000 + n_requests - 1, 5, 2000)
    ]
    check(
        store.n_sparse_entries == 50 * n_requests
        and all(
            [value if found else None for value, found in zip(*store.get_many(q, js))]
            == [store.get(q, j) for j in js.tolist()]
            for q, js in probes
        ),
        f"store get_many equals per-pair get ({store.n_sparse_entries} entries)",
    )
    with tempfile.TemporaryDirectory() as tmp:
        saved, resaved = Path(tmp) / "store.npz", Path(tmp) / "again.npz"
        store.save(saved, compress=False)
        DistanceStore.load(saved).save(resaved, compress=False)
        with np.load(saved) as first_file, np.load(resaved) as second_file:
            check(
                sorted(first_file.files) == sorted(second_file.files)
                and all(
                    np.array_equal(first_file[name], second_file[name])
                    for name in first_file.files
                ),
                "store save -> load -> save writes the same arrays",
            )

    # compiled kernels: unit edit distances are integers, so the default
    # backend must equal the numpy reference bit for bit, also on either
    # side of the 64-symbol word the compiled kernel packs a query into.
    from repro.distances.kernels import get_kernel_backend

    kernel_rng = np.random.default_rng(7)
    symbols = list("ACGT\u00e9\u00df\U0001f600")
    strings = [
        "".join(kernel_rng.choice(symbols, size=m)) for m in (63, 64, 65) for _ in range(3)
    ]
    default_edit, numpy_edit = EditDistance(), EditDistance(kernel="numpy")
    check(
        all(
            np.array_equal(
                default_edit.compute_many(s, strings), numpy_edit.compute_many(s, strings)
            )
            for s in strings
        ),
        f"unit edit on the {get_kernel_backend().name!r} kernel backend equals "
        "numpy exactly (63-65 symbols, non-ASCII)",
    )

    # static invariants: the linter gate must hold on the shipped tree
    from repro.analysis import run_analysis

    lint = run_analysis(
        [REPO_ROOT / "src", REPO_ROOT / "scripts"],
        baseline_path=REPO_ROOT / ".repro-lint-baseline.json",
        root=REPO_ROOT,
    )
    check(
        lint.exit_code() == 0,
        f"repro.analysis lint gate is clean ({lint.files_checked} files, "
        f"{len(lint.findings)} new finding(s))",
    )

    elapsed = time.perf_counter() - start
    check(elapsed < 10.0, f"lifecycle fits the smoke budget ({elapsed:.1f}s < 10s)")
    print(f"[check_api] all checks passed in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
