"""Shared process-pool and cost-accounting helpers for parallel evaluation.

Both the matrix builders (:mod:`repro.distances.matrix`) and the retrieval
pipelines (:mod:`repro.retrieval.filter_refine`,
:mod:`repro.retrieval.sharded`) can spread exact-distance work over a pool of
worker processes.  The rules that keep the paper's cost accounting *exact*
across process boundaries live here so every ``n_jobs`` path behaves the same
way:

* **Counting** — any top-level chain of
  :class:`~repro.distances.base.CountingDistance` wrappers is peeled off
  before the measure is shipped to workers (:func:`split_counting`); workers
  evaluate the inner measure and the parent process charges each peeled
  counter one evaluation per computed pair, exactly as the serial path
  would have.
* **Caching** — a :class:`~repro.distances.context.DistanceContext` is
  rejected up front (:func:`ensure_parallel_safe`): its store and counters
  must stay in the parent, which pools only the missing pairs itself.

Two pool shapes are provided:

* :func:`parallel_rows` — one task per chunk of distance-matrix rows (used by
  the matrix builders);
* :func:`parallel_refine` — one task per chunk of ``(key, query, shard,
  local_indices)`` refine work items, returning the exact distances from
  each query to its candidates.  A
  :class:`~repro.distances.context.DistanceContext` evaluates the store
  misses of every batch through it: ``n_jobs`` only chooses whether they
  are evaluated in the parent or over workers.

Worker state (the measure and the object collections) is installed once per
worker by a pool initializer, so large databases are pickled once per worker
instead of once per task.

Refine work can also run on a :class:`~repro.index.pool.PersistentPool`,
whose long-lived workers receive a state reused across calls — the serving
loop of an :class:`~repro.index.embedding_index.EmbeddingIndex` issuing
batches against one database — once for the pool's lifetime.  Submitting to
it, collecting the replies and repairing them exist once:
:func:`submit_refine` ships chunks without blocking, and
:func:`collect_refine` gathers the replies and recomputes in the parent
every item a dead worker or a damaged reply did not deliver.
:func:`parallel_refine` and the async serving layer
(:class:`~repro.index.serving.AsyncServer`, which overlaps one query's
refine with the next query's embed and filter) both use the pair.  Results
and cost accounting are identical on every path.

Kernel backends and workers
---------------------------
DP measures (cDTW, edit) carry their :mod:`repro.distances.kernels` choice
as a backend *name* (``measure.kernel``, possibly ``None`` = "process
default"), never as a compiled function object, so pickling a measure to a
worker is always safe.  Each worker resolves its own backend lazily on
first use: an explicit name resolves identically everywhere, and the
process default travels through ``REPRO_KERNEL_BACKEND`` (exported by
:func:`~repro.distances.kernels.set_default_kernel_backend`), which forked
and spawned workers inherit — so parallel refine/row builds run the same
kernel as the serial path and stay bit-identical to it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distances.base import CountingDistance, DistanceMeasure
from repro.exceptions import DistanceError

ProgressCallback = Callable[[int, int], None]

#: A unit of refine work: ``(key, query_object, shard_id, local_indices)``.
#: ``key`` is an opaque identifier the caller uses to reassemble results.
RefineItem = Tuple[Any, Any, int, Sequence[int]]

# Worker-process state, installed once per worker by the pool initializers so
# that the object collections are pickled once instead of once per task.
_POOL_STATE: Dict[str, Any] = {}


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` argument to a worker count.

    ``None``/``0``/``1`` mean serial, negative values mean every CPU.
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return os.cpu_count() or 1
    return int(n_jobs)


def split_counting(
    distance: DistanceMeasure,
) -> Tuple[DistanceMeasure, List[CountingDistance]]:
    """Peel every top-level :class:`CountingDistance` wrapper.

    Returns the innermost non-counting measure plus the peeled counters,
    outermost first.  Workers evaluate the inner measure; the parent charges
    each counter one evaluation per computed pair, so nesting a user-supplied
    counter inside a pipeline-internal one keeps both exact.
    """
    counters: List[CountingDistance] = []
    while isinstance(distance, CountingDistance):
        counters.append(distance)
        distance = distance.base
    return distance, counters


def ensure_parallel_safe(distance: DistanceMeasure) -> None:
    """Reject measures whose state cannot survive a process boundary.

    Walks the wrapper chain (``CountingDistance.base``) and raises
    :class:`~repro.exceptions.DistanceError` if a
    :class:`~repro.distances.context.DistanceContext` is found — not
    because it cannot be pickled (it can), but because shipping it would
    copy its store into every worker and discard the worker-side updates
    and counter charges.  Context-managed evaluation must stay in the
    parent: use the context's own ``pairwise`` / ``cross`` /
    ``distances_to_many`` primitives, which resolve cached pairs first and
    fan only the missing work out over the pool.
    """
    seen = set()
    while isinstance(distance, DistanceMeasure) and id(distance) not in seen:
        seen.add(id(distance))
        if getattr(distance, "_is_distance_context", False):
            raise DistanceError(
                "a DistanceContext must not be shipped to worker processes: "
                "its store would be copied per worker and the worker-side "
                "cache updates and counter charges discarded. Use the "
                "context's own batched primitives (pairwise, cross, "
                "distances_to, distances_to_many) — they keep the store and "
                "accounting in the parent and pool only the missing pairs — "
                "or pass context.base to evaluate without caching."
            )
        distance = getattr(distance, "base", None)


def row_chunks(n_rows: int, n_workers: int) -> List[List[int]]:
    """Contiguous row chunks, several per worker so progress stays granular."""
    n_chunks = max(1, min(n_rows, n_workers * 4))
    return [list(chunk) for chunk in np.array_split(np.arange(n_rows), n_chunks)]


# --------------------------------------------------------------------------- #
# Matrix-row pool (used by repro.distances.matrix)                            #
# --------------------------------------------------------------------------- #


def _rows_pool_init(
    distance: DistanceMeasure, rows: List[Any], columns: List[Any]
) -> None:
    _POOL_STATE["distance"] = distance
    _POOL_STATE["rows"] = rows
    _POOL_STATE["columns"] = columns


def pool_full_rows(state: Dict[str, Any], indices: Sequence[int]) -> List[np.ndarray]:
    """Worker task: full rows against every column object."""
    distance = state["distance"]
    rows = state["rows"]
    columns = state["columns"]
    return [np.asarray(distance.compute_many(rows[i], columns)) for i in indices]


def pool_upper_rows(state: Dict[str, Any], indices: Sequence[int]) -> List[np.ndarray]:
    """Worker task: strict-upper-triangle rows (symmetric pairwise case)."""
    distance = state["distance"]
    rows = state["rows"]
    columns = state["columns"]
    out = []
    for i in indices:
        tail = columns[i + 1 :]
        if tail:
            out.append(np.asarray(distance.compute_many(rows[i], tail)))
        else:
            out.append(np.zeros(0))
    return out


def _oneshot_task(task: Callable[[Dict[str, Any], Any], Any], chunk: Any) -> Any:
    """Adapter for the one-shot executor path: bind the initializer state."""
    return task(_POOL_STATE, chunk)


def parallel_rows(
    distance: DistanceMeasure,
    rows: List[Any],
    columns: List[Any],
    task: Callable[[Dict[str, Any], Sequence[int]], List[np.ndarray]],
    n_workers: int,
    progress: Optional[ProgressCallback],
) -> List[np.ndarray]:
    """Run a matrix-row task over a process pool, preserving row order.

    ``distance`` must already be parallel-safe (see
    :func:`ensure_parallel_safe`) and stripped of parent-side counters
    (see :func:`split_counting`).  Persistent-pool reuse happens one layer
    up: a :class:`~repro.distances.context.DistanceContext` build routes
    its missing pairs through :func:`parallel_refine` with the context's
    pool instead of coming here.
    """
    chunks = row_chunks(len(rows), n_workers)
    results: List[Optional[np.ndarray]] = [None] * len(rows)
    done = 0
    with ProcessPoolExecutor(
        max_workers=n_workers,
        initializer=_rows_pool_init,
        initargs=(distance, rows, columns),
    ) as executor:
        bound = partial(_oneshot_task, task)
        for chunk, chunk_rows in zip(chunks, executor.map(bound, chunks)):
            for i, row in zip(chunk, chunk_rows):
                results[i] = row
            done += len(chunk)
            if progress is not None:
                progress(done, len(rows))
    return results  # type: ignore[return-value]


# --------------------------------------------------------------------------- #
# Refine pool (used by the retrieval pipelines)                               #
# --------------------------------------------------------------------------- #


def _refine_pool_init(distance: DistanceMeasure, shards: List[List[Any]]) -> None:
    _POOL_STATE["distance"] = distance
    _POOL_STATE["shards"] = shards


def _pool_refine_chunk(
    state: Dict[str, Any],
    items: Sequence[RefineItem],
) -> List[Tuple[Any, np.ndarray]]:
    """Worker task: exact distances from each query to its shard candidates.

    Every item is ``(key, query_object, shard_id, local_indices)``; the
    result pairs the key with ``distance.compute_many(query, candidates)``
    evaluated in ``local_indices`` order, so asymmetric measures keep the
    query as the first argument exactly as in the serial path.
    """
    distance = state["distance"]
    shards = state["shards"]
    out = []
    for key, query, shard_id, local_indices in items:
        shard = shards[shard_id]
        candidates = [shard[i] for i in np.asarray(local_indices, dtype=np.intp).tolist()]
        out.append((key, np.asarray(distance.compute_many(query, candidates))))
    return out


def _refine_signature(distance: DistanceMeasure, shards: List[List[Any]]) -> Tuple:
    """Persistent-pool state signature for refine work (identity + lengths)."""
    return (
        "refine",
        id(distance),
        tuple((id(shard), len(shard)) for shard in shards),
    )


def _serial_refine(
    distance: DistanceMeasure,
    shards: List[List[Any]],
    items: Sequence[RefineItem],
    results: Dict[Any, np.ndarray],
) -> None:
    """Evaluate refine items in the parent with the worker task itself.

    The serial and recovery path: a result computed here is bit-identical
    to the one a worker would have delivered.
    """
    results.update(_pool_refine_chunk({"distance": distance, "shards": shards}, items))


def _damaged(
    items: Sequence[RefineItem], results: Dict[Any, np.ndarray]
) -> List[RefineItem]:
    """Items without exactly one delivered distance per candidate."""
    return [
        item
        for item in items
        if results.get(item[0]) is None or len(results[item[0]]) != len(item[3])
    ]


def submit_refine(
    pool: Any,
    distance: DistanceMeasure,
    shards: List[List[Any]],
    chunks: Sequence[Sequence[RefineItem]],
    max_retries: Optional[int] = None,
) -> Any:
    """Submit chunks of refine items to a persistent pool without blocking.

    Returns the :class:`~repro.index.pool.PoolJob`; pass it to
    :func:`collect_refine`.  The ``(distance, shards)`` state is checked
    with :func:`ensure_parallel_safe` and shipped once per worker per pool
    lifetime, shared by every caller that refines against the same measure
    and object lists.
    """
    ensure_parallel_safe(distance)
    return pool.submit(
        _pool_refine_chunk,
        {"distance": distance, "shards": shards},
        chunks,
        signature=_refine_signature(distance, shards),
        max_retries=max_retries,
    )


def collect_refine(
    job: Optional[Any],
    distance: DistanceMeasure,
    shards: List[List[Any]],
    items: Sequence[RefineItem],
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
) -> Tuple[Dict[Any, np.ndarray], bool]:
    """Collect a refine job's replies and repair them in the parent.

    Waits up to ``timeout`` seconds for ``job`` (from :func:`submit_refine`;
    ``None`` = nothing was submitted) — expiry raises
    :class:`~repro.exceptions.ServingTimeout` and leaves the job
    collectable.  Every item whose reply is missing (no job, or the
    workers died past the job's retry budget) or damaged (a torn or
    corrupted payload without one distance per candidate) is recomputed in
    the parent with the calls a worker makes, so a pool failure costs
    latency, never a wrong answer.  Past the monotonic ``deadline``
    nothing is recomputed: those items are left out of the results.

    Returns ``(results, failed)``: the distances by item key, and whether
    the pool failed to deliver any item it was given.
    """
    from repro.index.pool import WORKER_FAILURES

    results: Dict[Any, np.ndarray] = {}
    if job is not None:
        try:
            replies = job.results(timeout)
        except WORKER_FAILURES:
            replies = []  # retries exhausted; every item is repaired below
        for reply in replies:
            if isinstance(reply, list):  # anything else is a corrupted reply
                results.update(reply)
    damaged = _damaged(items, results)
    if deadline is not None and time.monotonic() >= deadline:
        for item in damaged:
            results.pop(item[0], None)
    else:
        _serial_refine(distance, shards, damaged, results)
    return results, job is not None and bool(damaged)


def parallel_refine(
    distance: DistanceMeasure,
    shards: List[List[Any]],
    items: Sequence[RefineItem],
    n_workers: int,
    pool: Optional[Any] = None,
) -> Dict[Any, np.ndarray]:
    """Evaluate refine work items, over a process pool when it can help.

    Parameters
    ----------
    distance:
        The measure to evaluate.  Callers are expected to have already
        peeled parent-side counters with :func:`split_counting`; the parent
        charges the peeled counters itself (one evaluation per candidate).
        Checked with :func:`ensure_parallel_safe` before it is shipped to
        workers.
    shards:
        Per-shard object lists, installed once per worker.
    items:
        Work items ``(key, query_object, shard_id, local_indices)``.  Keys
        must be unique (and hashable); the mapping they index is returned.
    n_workers:
        Pool size.  With one worker, or at most one item, the items are
        evaluated in the parent.
    pool:
        Optional :class:`~repro.index.pool.PersistentPool`.  When given, the
        items run on its long-lived workers and the (distance, shards) state
        is shipped once per worker per pool lifetime instead of once per
        call; ``n_workers`` only shapes the chunking then.
    """
    from repro.index.pool import WORKER_FAILURES

    item_list = list(items)
    results: Dict[Any, np.ndarray] = {}
    if n_workers <= 1 or len(item_list) <= 1:
        _serial_refine(distance, shards, item_list, results)
        return results
    chunks = row_chunks(len(item_list), n_workers)
    payloads = [[item_list[i] for i in chunk] for chunk in chunks]
    if pool is not None:
        try:
            job = submit_refine(pool, distance, shards, payloads)
        except WORKER_FAILURES:
            # Even a respawned pool refused the work: finish in the parent.
            job = None
        return collect_refine(job, distance, shards, item_list)[0]
    ensure_parallel_safe(distance)
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_refine_pool_init,
            initargs=(distance, shards),
        ) as executor:
            bound = partial(_oneshot_task, _pool_refine_chunk)
            for chunk_result in executor.map(bound, payloads):
                results.update(chunk_result)
    except WORKER_FAILURES:
        # A worker died: the replies that arrived stand, and the rest of
        # the batch is finished in the parent below — same calls, same
        # values.
        pass
    _serial_refine(distance, shards, _damaged(item_list, results), results)
    return results
