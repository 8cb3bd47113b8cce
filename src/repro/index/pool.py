"""Persistent worker pools for the serving-path fan-out.

Every ``n_jobs`` code path in the library used to create a fresh
:class:`concurrent.futures.ProcessPoolExecutor` per call and tear it down
afterwards — fine for a one-shot matrix build, but wrong for the serving
shape of an :class:`~repro.index.embedding_index.EmbeddingIndex`, where
``query_many`` arrives repeatedly against the same database: every batch
paid worker start-up plus a full re-pickle of the database.

:class:`PersistentPool` keeps one pool of worker processes alive across
calls.  The per-call *worker state* (the distance measure and the object
collections a task needs) is published once to a shared manager process,
and each worker fetches and caches it on first use — so a state reused
across calls (the index's universe) is shipped to each worker exactly
once for the pool's lifetime, not once per call.

Design
------
* The pool is **lazy**: no processes exist until the first :meth:`run`.
* States are keyed by a caller-supplied *signature* (identity + length of
  the constituent collections).  The pool holds a strong reference to every
  cached state, so the ``id()``-based signatures can never be recycled
  while the cache entry lives; a bounded LRU (:data:`MAX_CACHED_STATES`)
  evicts old states on both the parent and worker side.
* Workers pull state payloads from a ``multiprocessing.Manager`` dict —
  the only cross-process channel — and cache the unpickled state in a
  module-global LRU, so repeated chunks of the same call (and later calls
  with the same signature) hit process-local memory.
* :meth:`run` is synchronous; :meth:`submit` returns a non-blocking
  :class:`PoolJob` whose chunks may stay queued across other callers'
  publications.  Live jobs hold a reference on their state id, so an LRU
  eviction of a state with in-flight chunks is deferred until the last
  job finishes — eviction can never strand a queued task.

The pool object itself must never be pickled or shipped to workers; the
components that hold one (:class:`~repro.distances.context.DistanceContext`,
the index facade) drop it from their pickled state.  Distance measures
*are* shipped, and the DP measures carry their
:mod:`repro.distances.kernels` backend as a plain name (resolved lazily in
each worker, inherited through ``REPRO_KERNEL_BACKEND`` when defaulted) —
compiled kernel objects never enter a state payload.

Supervision
-----------
Worker processes die — OOM kills, segfaults in native kernels, an operator's
stray ``kill``.  A dead worker breaks its ``ProcessPoolExecutor`` for good,
so an unsupervised pool would turn one crash into a permanently failing (or
hanging) serving stack.  The pool therefore supervises itself:

* a submission against a broken executor **respawns** the workers (the
  manager process holding the published states survives worker death, so
  respawn is cheap: no state is re-pickled);
* :meth:`PoolJob.results` catches the broken-pool error, respawns, and
  **resubmits** the chunks that had not completed — refine work is pure and
  idempotent over ``(index pair) → distance``, so a resubmitted chunk
  returns bit-identical values — up to ``max_retries`` times per job before
  the error propagates to the caller;
* :attr:`PersistentPool.restarts` and :attr:`PersistentPool.failed_jobs`
  count the recoveries (surfaced through :meth:`PersistentPool.health`),
  and every live pool is registered with an ``atexit`` hook so a crashed
  or interrupted script cannot leak worker processes.

The ``faults`` constructor argument is the fault-injection seam: a
:class:`~repro.testing.faults.FaultPlan` wraps every submitted task so the
chaos suite can kill workers mid-batch, delay replies, or corrupt one reply
payload deterministically.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import DistanceError, ServingTimeout

__all__ = ["PersistentPool", "PoolJob", "MAX_CACHED_STATES"]

#: How many distinct worker states a pool (and each worker) keeps cached.
MAX_CACHED_STATES = 4

#: Exceptions that mean "the worker processes (or their manager) died",
#: as opposed to an exception the task itself raised.
WORKER_FAILURES = (BrokenProcessPool, BrokenPipeError, EOFError, ConnectionError)

# Live pools, closed at interpreter exit so crashed or interrupted scripts
# do not leak worker/manager processes.  Weak references: a pool that was
# garbage collected already tore itself down.
_LIVE_POOLS: "weakref.WeakSet[PersistentPool]" = weakref.WeakSet()


@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:  # repro-lint: disable=RP003 -- atexit sweep: teardown must reach every pool
            pass

# ----------------------------------------------------------------------- #
# Worker side                                                             #
# ----------------------------------------------------------------------- #

#: Proxy to the parent's published-state dict, installed per worker.
_WORKER_PROXY: Optional[Any] = None
#: Worker-local LRU of unpickled states, keyed by state id.
_WORKER_STATES: "OrderedDict[int, Any]" = OrderedDict()


def _persistent_worker_init(proxy: Any) -> None:
    global _WORKER_PROXY
    _WORKER_PROXY = proxy
    _WORKER_STATES.clear()


def _persistent_run_chunk(state_id: int, task: Callable[[Any, Any], Any], chunk: Any) -> Any:
    """Worker task: resolve the cached state and run ``task(state, chunk)``."""
    state = _WORKER_STATES.get(state_id)
    if state is None:
        state = pickle.loads(_WORKER_PROXY[state_id])
        _WORKER_STATES[state_id] = state
        while len(_WORKER_STATES) > MAX_CACHED_STATES:
            _WORKER_STATES.popitem(last=False)
    else:
        _WORKER_STATES.move_to_end(state_id)
    return task(state, chunk)


# ----------------------------------------------------------------------- #
# Parent side                                                             #
# ----------------------------------------------------------------------- #


class PoolJob:
    """A batch of chunks submitted to a :class:`PersistentPool`.

    The handle the non-blocking :meth:`PersistentPool.submit` returns:
    worker processes crunch the chunks while the parent keeps doing other
    work (the async serving layer embeds and filters the next queries), and
    :meth:`results` collects the ordered chunk results when they are
    needed.  :meth:`PersistentPool.run` is ``submit(...).results()``.
    """

    def __init__(
        self,
        pool: "PersistentPool",
        futures: List[Future],
        state_id: int,
        task: Callable[[Any, Any], Any],
        chunks: Sequence[Any],
        transient: bool,
        state: Any = None,
        max_retries: Optional[int] = None,
    ) -> None:
        self._pool = pool
        self._futures = futures
        self._state_id = state_id
        self._task = task
        self._chunks = list(chunks)
        #: Whether the state must be dropped from the manager once done
        #: (transient states only; cached states stay for reuse).
        self._transient = transient
        #: The state object itself, kept so a respawn after a *manager*
        #: death can republish it (cached states are also held by the pool;
        #: transient states live only here).
        self._state = state
        self._collected = False
        #: Executor generation the chunks were submitted under (see
        #: :meth:`PersistentPool._recover`).
        self._epoch = pool._epoch
        #: How many worker-failure recoveries this job may still attempt.
        self.retries_left = (
            pool.max_retries if max_retries is None else int(max_retries)
        )

    @property
    def futures(self) -> Tuple[Future, ...]:
        """The chunk futures (for ``concurrent.futures.wait`` composition)."""
        return tuple(self._futures)

    def done(self) -> bool:
        """Whether every chunk has finished (or been cancelled)."""
        return all(future.done() for future in self._futures)

    def cancel(self) -> bool:
        """Try to cancel every chunk; ``True`` if none will run.

        All-or-nothing: if any chunk is already running (or finished) the
        job must still complete, so chunks this attempt managed to cancel
        are resubmitted and ``False`` is returned — a failed cancel never
        leaves the job unable to deliver :meth:`results`.
        """
        cancelled = [future.cancel() for future in self._futures]
        if all(cancelled):
            self._cleanup()
            return True
        for position, was_cancelled in enumerate(cancelled):
            if was_cancelled:
                self._futures[position] = self._pool._resubmit(
                    self._state_id, self._task, self._chunks[position]
                )
        return False

    def _cleanup(self) -> None:
        if self._collected:
            return
        self._collected = True
        self._pool._finish_job(self._state_id, self._transient)

    def abandon(self) -> None:
        """Give up on the job: cancel what can be cancelled, release refs.

        Unlike :meth:`cancel` this never resubmits — the caller is walking
        away (deadline expired, ticket failed).  Chunks already running
        finish on the workers but their results are discarded; the job's
        state reference is released so eviction bookkeeping stays exact.
        Idempotent, and safe after a partial :meth:`results` timeout.
        """
        for future in self._futures:
            future.cancel()
        self._cleanup()

    def results(self, timeout: Optional[float] = None) -> List[Any]:
        """Block until every chunk is done; chunk results in submit order.

        Supervised: when the worker processes die mid-job
        (``BrokenProcessPool`` and friends), the pool is respawned and the
        unfinished chunks are resubmitted — refine tasks are pure functions
        of ``(state, chunk)``, so a retried chunk returns bit-identical
        values — up to the job's retry budget, after which the failure
        propagates.  ``timeout`` bounds the *total* wait across retries;
        expiry raises :class:`~repro.exceptions.ServingTimeout` and leaves
        the job collectable (call :meth:`results` again to keep waiting, or
        :meth:`abandon` to walk away).
        """
        end = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            try:
                out = []
                for future in self._futures:
                    remaining = None
                    if end is not None:
                        remaining = max(0.0, end - time.monotonic())
                    out.append(future.result(remaining))
            except FuturesTimeoutError:
                # Not a failure: the caller may wait again or abandon.
                raise ServingTimeout(
                    f"pool job did not complete within {timeout} seconds"
                ) from None
            except WORKER_FAILURES as exc:
                self._pool.failed_jobs += 1
                if self.retries_left <= 0:
                    self._cleanup()
                    raise
                self.retries_left -= 1
                self._pool._recover(self, exc)
            else:
                self._cleanup()
                return out


class PersistentPool:
    """A reusable process pool with once-per-worker state shipping.

    Parameters
    ----------
    n_workers:
        Worker-process count, following the library's ``n_jobs``
        convention (``None``/``0``/``1`` = 1 worker, ``-1`` = all CPUs).
        A 1-worker pool is legal — callers normally bypass the pool for
        serial work, but a pool built from ``n_jobs=1`` stays usable.
    max_retries:
        Default worker-failure recovery budget per job (see
        :meth:`PoolJob.results`); individual submissions may override it.
    faults:
        Optional :class:`~repro.testing.faults.FaultPlan` wrapped around
        every submitted task — the chaos-test seam.  ``None`` in
        production.

    Use as a context manager (or call :meth:`close`) to release the worker
    and manager processes; an unclosed pool is also torn down by garbage
    collection as a fallback (and an ``atexit`` hook closes any pool that
    is still live when the interpreter exits).
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        max_retries: int = 1,
        faults: Optional[Any] = None,
    ) -> None:
        # Local import: repro.distances.parallel imports this module's
        # sibling package at call time, and resolve_jobs has no deps.
        from repro.distances.parallel import resolve_jobs

        self.n_workers = resolve_jobs(n_workers)
        self.max_retries = int(max_retries)
        self.faults = faults
        self._executor: Optional[ProcessPoolExecutor] = None
        self._manager = None
        self._proxy = None
        self._states: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        self._next_state_id = 0
        self._closed = False
        # Serialises start-up and state publication so concurrent submits
        # (e.g. several serving threads) cannot race on the state cache.
        self._lock = threading.Lock()
        # Jobs still holding each state id (queued or running chunks).  A
        # state evicted from the LRU while jobs reference it keeps its
        # manager entry until the last job finishes — with synchronous
        # run() this could not happen, but submit() leaves chunks queued
        # across other callers' publications.
        self._state_refs: Dict[int, int] = {}
        self._deferred_evictions: set = set()
        #: How many times worker processes were actually launched; a
        #: serving loop through one healthy pool keeps this at 1.
        self.launches = 0
        #: Completed :meth:`run` calls.
        self.runs = 0
        #: States pickled to the manager (cache misses on the parent side).
        self.states_published = 0
        #: Worker respawns after a detected worker/manager death.
        self.restarts = 0
        #: Jobs that observed a worker failure (each retry attempt counts).
        self.failed_jobs = 0
        #: Bumped on every executor (re)creation; jobs record the epoch
        #: they were submitted under so concurrent recoveries respawn once.
        self._epoch = 0

    # -- lifecycle ------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._closed:
            raise DistanceError("this PersistentPool has been closed")
        if self._executor is not None:
            return
        if self._proxy is None:
            import multiprocessing

            self._manager = multiprocessing.Manager()
            self._proxy = self._manager.dict()
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_persistent_worker_init,
            initargs=(self._proxy,),
        )
        self.launches += 1
        self._epoch += 1
        _LIVE_POOLS.add(self)

    def _respawn_locked(self) -> None:
        """Replace dead workers (and the manager, if it died with them).

        Caller holds ``self._lock``.  A worker death normally leaves the
        manager process alive, so the published states survive and respawn
        ships zero bytes of state; when the manager itself is gone, it is
        recreated and every cached state is republished under its original
        id (jobs and workers key on the id, so nothing else changes).
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        manager_alive = False
        if self._proxy is not None:
            try:
                len(self._proxy)
                manager_alive = True
            except Exception:  # repro-lint: disable=RP003 -- liveness probe: any failure means "dead"
                manager_alive = False
        if not manager_alive:
            if self._manager is not None:
                try:
                    self._manager.shutdown()
                except Exception:  # repro-lint: disable=RP003 -- respawn path: the old manager is already dead
                    pass
            self._manager = None
            self._proxy = None
            self._ensure_started()
            for state_id, state in self._states.values():
                self._proxy[state_id] = pickle.dumps(state, protocol=4)
        else:
            self._ensure_started()
        self.restarts += 1

    def _recover(self, job: PoolJob, cause: BaseException) -> None:
        """Respawn after ``job`` hit a worker failure, resubmit its chunks.

        Epoch-guarded: when several jobs observe the same dead pool, only
        the first respawns — the rest see a fresh epoch and go straight to
        resubmission.  Chunks whose futures already finished keep their
        results; only unfinished (or cancelled) chunks are resubmitted, so
        a recovered job still returns one result per chunk in order.
        """
        with self._lock:
            if self._closed:
                raise DistanceError(
                    "this PersistentPool has been closed"
                ) from cause
            if job._epoch == self._epoch:
                self._respawn_locked()
            job._epoch = self._epoch
            if job._state_id not in self._proxy:
                # Transient (or evicted-while-referenced) state whose
                # payload died with the manager: republish from the job.
                self._proxy[job._state_id] = pickle.dumps(
                    job._state, protocol=4
                )
            for position, future in enumerate(job._futures):
                if future.done() and not future.cancelled():
                    try:
                        future.result(0)
                    except BaseException:  # repro-lint: disable=RP003 -- probe only: failed futures are resubmitted below
                        pass
                    else:
                        continue  # keep the finished result
                job._futures[position] = self._executor.submit(
                    _persistent_run_chunk,
                    job._state_id,
                    job._task,
                    job._chunks[position],
                )

    @property
    def started(self) -> bool:
        """Whether worker processes currently exist."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (the pool is unusable)."""
        return self._closed

    def close(self) -> None:
        """Shut down the workers and the state manager (idempotent).

        Safe to call twice, from ``atexit``, and on a pool whose workers
        or manager already died — a broken child can not turn shutdown
        into a traceback.
        """
        self._closed = True
        _LIVE_POOLS.discard(self)
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=True)
            # repro-lint: disable=RP003 -- close() is idempotent: a broken executor is already down
            except Exception:  # pragma: no cover - broken executor
                pass
            self._executor = None
        if self._manager is not None:
            try:
                self._manager.shutdown()
            # repro-lint: disable=RP003 -- close() is idempotent: a dead manager needs no shutdown
            except Exception:  # pragma: no cover - manager already dead
                pass
            self._manager = None
        self._proxy = None
        self._states.clear()

    def health(self) -> Dict[str, Any]:
        """Live supervision counters, for dashboards and assertions."""
        return {
            "n_workers": self.n_workers,
            "started": self.started,
            "closed": self._closed,
            "launches": self.launches,
            "restarts": self.restarts,
            "failed_jobs": self.failed_jobs,
            "runs": self.runs,
            "states_published": self.states_published,
        }

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC fallback
        try:
            self.close()
        except Exception:  # repro-lint: disable=RP003 -- __del__ must never raise during GC
            pass

    def __getstate__(self) -> None:
        raise DistanceError(
            "a PersistentPool cannot be pickled or shipped to workers; "
            "share the pool object within one process instead"
        )

    # -- state publication ---------------------------------------------

    def _publish(self, state: Any, signature: Optional[Hashable]) -> int:
        """Return the state id for ``state``, publishing it if unseen.

        ``signature`` identifies the state contents; ``None`` disables
        caching (the state is re-published for this run only).  The pool
        keeps a strong reference to each cached state so the identity-based
        signatures callers build from ``id()`` stay valid.
        """
        if signature is not None:
            cached = self._states.get(signature)
            if cached is not None:
                self._states.move_to_end(signature)
                return cached[0]
        state_id = self._next_state_id
        self._next_state_id += 1
        self._proxy[state_id] = pickle.dumps(state, protocol=4)
        self.states_published += 1
        if signature is not None:
            self._states[signature] = (state_id, state)
            while len(self._states) > MAX_CACHED_STATES:
                _, (old_id, _old_state) = self._states.popitem(last=False)
                if self._state_refs.get(old_id, 0) > 0:
                    # In-flight jobs still need the payload: defer the
                    # manager-side eviction until the last one finishes.
                    self._deferred_evictions.add(old_id)
                else:
                    self._proxy.pop(old_id, None)
        return state_id

    # -- execution ------------------------------------------------------

    def _finish_job(self, state_id: int, transient: bool) -> None:
        """Book-keeping when a job completes (or is fully cancelled)."""
        with self._lock:
            remaining = self._state_refs.get(state_id, 1) - 1
            if remaining > 0:
                self._state_refs[state_id] = remaining
            else:
                self._state_refs.pop(state_id, None)
                evict = transient or state_id in self._deferred_evictions
                self._deferred_evictions.discard(state_id)
                if evict and self._proxy is not None:
                    self._proxy.pop(state_id, None)
            self.runs += 1

    def _resubmit(self, state_id: int, task: Callable[[Any, Any], Any], chunk: Any):
        """Resubmit one chunk of a partially-cancelled job (see PoolJob)."""
        with self._lock:
            self._ensure_started()
            return self._executor.submit(_persistent_run_chunk, state_id, task, chunk)

    def submit(
        self,
        task: Callable[[Any, Any], Any],
        state: Any,
        chunks: Sequence[Any],
        signature: Optional[Hashable] = None,
        max_retries: Optional[int] = None,
    ) -> PoolJob:
        """Submit ``task(state, chunk)`` for every chunk without blocking.

        Returns a :class:`PoolJob`; call its :meth:`~PoolJob.results` to
        collect the ordered chunk results.  This is the primitive the async
        serving layer pipelines on: refine chunks of query ``i`` run on the
        workers while the parent embeds and filters query ``i+1``.
        Submission (state publication included) is thread-safe; waiting on
        different jobs from different threads is too.  A submission that
        finds the workers already dead respawns them once before failing.
        """
        if self.faults is not None:
            task = self.faults.wrap(task)
        with self._lock:
            self._ensure_started()
            for attempt in range(2):
                try:
                    state_id = self._publish(state, signature)
                    futures = [
                        self._executor.submit(
                            _persistent_run_chunk, state_id, task, chunk
                        )
                        for chunk in chunks
                    ]
                except WORKER_FAILURES:
                    if attempt:
                        raise
                    self._respawn_locked()
                else:
                    break
            self._state_refs[state_id] = self._state_refs.get(state_id, 0) + 1
        return PoolJob(
            self,
            futures,
            state_id,
            task,
            chunks,
            transient=signature is None,
            state=state,
            max_retries=max_retries,
        )

    def run(
        self,
        task: Callable[[Any, Any], Any],
        state: Any,
        chunks: Sequence[Any],
        signature: Optional[Hashable] = None,
        max_retries: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Run ``task(state, chunk)`` for every chunk, preserving order.

        ``task`` must be a module-level (pickle-by-reference) callable.
        ``state`` is shipped through the manager once per worker per
        distinct ``signature`` (see :meth:`_publish`); chunks themselves
        travel with each submission, so keep them small (index arrays,
        not object collections).  Blocking equivalent of
        ``submit(...).results()``.
        """
        job = self.submit(
            task, state, chunks, signature=signature, max_retries=max_retries
        )
        try:
            return job.results(timeout)
        except ServingTimeout:
            job.abandon()
            raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "closed" if self._closed else ("live" if self.started else "idle")
        return (
            f"PersistentPool(n_workers={self.n_workers}, {status}, "
            f"launches={self.launches}, runs={self.runs})"
        )
