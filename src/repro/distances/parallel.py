"""The one fan-out for exact-distance work, with exact cost accounting.

Every batch of exact evaluations in the repo — distance-matrix rows, the
store misses of a :class:`~repro.distances.context.DistanceContext`
request, a store-less refine — is a list of ``(key, query, indices)``
items over one object list: the distances from ``query`` to
``objects[i]`` for each ``i`` in ``indices``.  :func:`parallel_refine`
evaluates such a batch in the parent, on a one-shot process pool or on a
:class:`~repro.index.pool.PersistentPool`, and the rules that keep the
paper's cost accounting *exact* across process boundaries live here, so
every ``n_jobs`` path behaves the same way:

* **Counting** — any top-level chain of
  :class:`~repro.distances.base.CountingDistance` wrappers is peeled off
  (:func:`split_counting`); workers evaluate the inner measure and
  :func:`parallel_refine` charges each peeled counter one evaluation per
  returned distance, exactly as a serial ``compute_many`` would.  A
  caller that charges its counters itself (the context's
  ``complete_distances``) passes the already-peeled measure.
* **Caching** — a :class:`~repro.distances.context.DistanceContext` is
  rejected before anything is shipped (:func:`ensure_parallel_safe`): its
  store and counters must stay in the parent, which pools only the
  missing pairs itself.

Worker state (the measure and the object list) is installed once per
worker by a pool initializer, so large databases are pickled once per worker
instead of once per task.

On a :class:`~repro.index.pool.PersistentPool` the long-lived workers
receive that state once for the pool's lifetime — the serving loop of an
:class:`~repro.index.embedding_index.EmbeddingIndex` issuing batches
against one database reuses it.  Submitting to it, collecting the replies
and repairing them exist once: :func:`submit_refine` ships chunks without
blocking, and :func:`collect_refine` gathers the replies and recomputes in
the parent every item a dead worker or a damaged reply did not deliver.
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
and spawned workers inherit — so pooled evaluations run the same kernel
as the serial path and stay bit-identical to it.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distances.base import CountingDistance, DistanceMeasure
from repro.exceptions import DistanceError

ProgressCallback = Callable[[int, int], None]

#: A unit of exact-distance work: ``(key, query_object, indices)`` asks for
#: the distances from ``query_object`` to ``objects[i]`` for each ``i`` in
#: ``indices``.  ``key`` is an opaque identifier the caller uses to
#: reassemble results.
RefineItem = Tuple[Any, Any, Sequence[int]]

# Worker-process state, installed once per worker by the pool initializer so
# that the object list is pickled once instead of once per task.
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
    """Contiguous item chunks, several per worker so progress stays granular."""
    n_chunks = max(1, min(n_rows, n_workers * 4))
    return [list(chunk) for chunk in np.array_split(np.arange(n_rows), n_chunks)]


def _refine_pool_init(distance: DistanceMeasure, objects: List[Any]) -> None:
    _POOL_STATE["distance"] = distance
    _POOL_STATE["objects"] = objects


def _pool_refine_chunk(
    state: Dict[str, Any],
    items: Sequence[RefineItem],
) -> List[Tuple[Any, np.ndarray]]:
    """Worker task: exact distances from each query to its target objects.

    Every item is ``(key, query_object, indices)``; the result pairs the key
    with ``distance.compute_many(query, targets)`` evaluated in ``indices``
    order, so asymmetric measures keep the query as the first argument.  An
    item without targets gets an empty array and no measure call.
    """
    distance = state["distance"]
    objects = state["objects"]
    out = []
    for key, query, indices in items:
        indices = np.asarray(indices, dtype=np.intp)
        if not indices.size:
            out.append((key, np.zeros(0)))
            continue
        targets = [objects[i] for i in indices.tolist()]
        out.append((key, np.asarray(distance.compute_many(query, targets))))
    return out


def _oneshot_refine_chunk(
    items: Sequence[RefineItem],
) -> List[Tuple[Any, np.ndarray]]:
    """One-shot executor task: the worker task over the initializer's state."""
    return _pool_refine_chunk(_POOL_STATE, items)


def _refine_signature(distance: DistanceMeasure, objects: List[Any]) -> Tuple:
    """Persistent-pool state signature for refine work (identity + length)."""
    return ("refine", id(distance), id(objects), len(objects))


def _serial_refine(
    distance: DistanceMeasure,
    objects: List[Any],
    items: Sequence[RefineItem],
    results: Dict[Any, np.ndarray],
) -> None:
    """Evaluate refine items in the parent with the worker task itself.

    The serial and recovery path: a result computed here is bit-identical
    to the one a worker would have delivered.
    """
    state = {"distance": distance, "objects": objects}
    results.update(_pool_refine_chunk(state, items))


def _damaged(
    items: Sequence[RefineItem], results: Dict[Any, np.ndarray]
) -> List[RefineItem]:
    """Items without exactly one delivered distance per target."""
    return [
        item
        for item in items
        if results.get(item[0]) is None or len(results[item[0]]) != len(item[2])
    ]


def submit_refine(
    pool: Any,
    distance: DistanceMeasure,
    objects: List[Any],
    chunks: Sequence[Sequence[RefineItem]],
    max_retries: Optional[int] = None,
) -> Any:
    """Submit chunks of refine items to a persistent pool without blocking.

    Returns the :class:`~repro.index.pool.PoolJob`; pass it to
    :func:`collect_refine`.  The ``(distance, objects)`` state is checked
    with :func:`ensure_parallel_safe` and shipped once per worker per pool
    lifetime, shared by every caller that refines against the same measure
    and object list.
    """
    ensure_parallel_safe(distance)
    return pool.submit(
        _pool_refine_chunk,
        {"distance": distance, "objects": objects},
        chunks,
        signature=_refine_signature(distance, objects),
        max_retries=max_retries,
    )


def collect_refine(
    job: Optional[Any],
    distance: DistanceMeasure,
    objects: List[Any],
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
        _serial_refine(distance, objects, damaged, results)
    return results, job is not None and bool(damaged)


def parallel_refine(
    distance: DistanceMeasure,
    objects: List[Any],
    items: Sequence[RefineItem],
    n_workers: int,
    pool: Optional[Any] = None,
    progress: Optional[ProgressCallback] = None,
) -> Dict[Any, np.ndarray]:
    """Evaluate and charge a batch of work items, over workers when asked.

    Parameters
    ----------
    distance:
        The measure to evaluate.  Its top-level
        :class:`~repro.distances.base.CountingDistance` wrappers are peeled
        (:func:`split_counting`) and each is charged one evaluation per
        returned distance, whichever path runs the items; the inner measure
        is checked with :func:`ensure_parallel_safe` before it is shipped
        to workers.
    objects:
        The object list item indices point into, installed once per worker.
    items:
        Work items ``(key, query_object, indices)``.  Keys must be unique
        (and hashable); the mapping they index is returned.  An item with
        no indices maps to an empty array without a measure call.
    n_workers:
        Pool size.  With one worker, or at most one item, the items are
        evaluated in the parent.
    pool:
        Optional :class:`~repro.index.pool.PersistentPool`.  When given, the
        items run on its long-lived workers and the (distance, objects)
        state is shipped once per worker per pool lifetime instead of once
        per call; ``n_workers`` only shapes the chunking then.
    progress:
        Optional ``progress(done, total)`` callback over items: after each
        item in the parent, after each chunk on a one-shot pool, once at
        the end on a persistent pool.  Monotonic, ending at
        ``(total, total)``.
    """
    from repro.index.pool import WORKER_FAILURES

    inner, counters = split_counting(distance)
    item_list = list(items)
    total = len(item_list)
    results: Dict[Any, np.ndarray] = {}
    if n_workers <= 1 or total <= 1:
        for done, item in enumerate(item_list, 1):
            _serial_refine(inner, objects, [item], results)
            if progress is not None:
                progress(done, total)
    else:
        chunks = row_chunks(total, n_workers)
        payloads = [[item_list[i] for i in chunk] for chunk in chunks]
        if pool is not None:
            try:
                job = submit_refine(pool, inner, objects, payloads)
            except WORKER_FAILURES:
                # Even a respawned pool refused the work: finish in the parent.
                job = None
            results = collect_refine(job, inner, objects, item_list)[0]
        else:
            ensure_parallel_safe(inner)
            try:
                with ProcessPoolExecutor(
                    max_workers=n_workers,
                    initializer=_refine_pool_init,
                    initargs=(inner, objects),
                ) as executor:
                    for chunk_result in executor.map(_oneshot_refine_chunk, payloads):
                        results.update(chunk_result)
                        if progress is not None and len(results) < total:
                            progress(len(results), total)
            except WORKER_FAILURES:
                # A worker died: the replies that arrived stand, and the
                # rest of the batch is finished in the parent below — same
                # calls, same values.
                pass
            _serial_refine(inner, objects, _damaged(item_list, results), results)
        if progress is not None:
            progress(total, total)
    evaluated = sum(values.size for values in results.values())
    for counter in counters:
        counter.calls += evaluated
    return results
