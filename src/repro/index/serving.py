"""Non-blocking serving for :class:`~repro.index.embedding_index.EmbeddingIndex`.

``EmbeddingIndex.query_many`` blocks on the whole batch: every query is
embedded and filtered, then every refine batch runs, then all results come
back at once.  This module adds the *pipelined* serving shape the ROADMAP's
"Async query API" asks for:

* :meth:`EmbeddingIndex.submit` → a :class:`QueryTicket` — embed and
  filter run immediately in the parent (cheap vector work plus the
  embedding's exact distances), the refine batch is submitted to the
  index's :class:`~repro.index.pool.PersistentPool` *without blocking*,
  and the caller collects the
  :class:`~repro.retrieval.engine.RetrievalResult` later via
  :meth:`QueryTicket.result`.
* :meth:`EmbeddingIndex.stream` → a :class:`QueryStream` iterator —
  submits queries with bounded look-ahead (``max_in_flight``) and yields
  ``(position, result)`` pairs in completion or submission order, so the
  parent embeds/filters query ``i+1`` while the pool refines query ``i``.
* :meth:`EmbeddingIndex.aquery_many` — the ``asyncio``-friendly wrapper:
  drains a stream on an executor thread and resolves to the same list
  ``query_many`` returns.

Bit-identity
------------
Results are bit-identical to the blocking path.  For an explicit ``p`` the
same engine stages prepare the candidates, the same store resolves cached
pairs, and the same merge orders the survivors.  ``p=None`` on the
``"planned"`` backend has nothing to ship ahead (the early exit decides
slice by slice), so such a ticket runs the blocking path's early exit at
submission, serially in the parent, and stops at ``query_many``'s ``p'``.
Per-query cost accounting follows the
in-flight dedup rule of
:meth:`~repro.distances.context.DistanceContext.distances_to_many` for
admitted queries: a pair an earlier in-flight ticket is already computing
is free for later tickets, exactly like a pair an earlier request of one
batch claims, so with an unbounded store ``refine_distance_computations``
matches ``query_many`` for the same batch of distinct queries.  Each
``submit`` is its own request for admission
(:meth:`~repro.distances.context.DistanceContext.admit`): a first sighting
is served transiently and shares no in-flight work, so a novel query
submitted twice pays twice, where ``query_many`` admits a batch's
duplicates at once and refines the second copy for free.  With
``max_sparse_entries`` the costs can also differ: a pair evicted after its
owning ticket completed is charged again to a later ticket, where one
``query_many`` call evaluates it once.

Threading model
---------------
Every store/counter interaction happens under one lock on the serving
state; the only work done outside it is waiting on pool futures and the
serial inline refine (no shared state).  Tickets may therefore be
completed from any thread — ``stream`` drives them from the consuming
thread, ``aquery_many`` from an executor thread, and direct
``submit``/``result`` use composes with both.  A ticket that deferred
pairs onto an earlier ticket completes that dependency first; dependency
edges always point at earlier submissions, so completion cannot deadlock.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import CancelledError, FIRST_COMPLETED, wait as futures_wait
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distances.context import PendingDistances
from repro.distances.parallel import (
    RefineItem,
    collect_refine,
    resolve_jobs,
    split_counting,
    submit_refine,
)
from repro.exceptions import RetrievalError, ServingError, ServingTimeout
from repro.index.pool import WORKER_FAILURES
from repro.retrieval.context_binding import ContextBinding
from repro.retrieval.engine import (
    QueryEngine,
    RetrievalResult,
    build_retrieval_result,
    build_scan_result,
)

__all__ = ["QueryTicket", "QueryStream", "AsyncServer"]

logger = logging.getLogger(__name__)


class QueryTicket:
    """A submitted query whose refine work may still be in flight.

    Returned by :meth:`EmbeddingIndex.submit`.  The embed/filter work is
    already done; :meth:`result` completes the refine (waiting on the pool
    futures if needed) and returns the
    :class:`~repro.retrieval.engine.RetrievalResult` — bit-identical to
    what the blocking ``query`` call would have returned (a ``p=None``
    ticket of the ``"planned"`` backend is complete on submission).
    """

    def __init__(
        self,
        server: "AsyncServer",
        position: int,
        obj: Any,
        k: int,
        p: Optional[int],
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> None:
        self._server = server
        #: Position of the query in its submission batch (0 for direct
        #: ``submit`` calls).
        self.position = position
        self.obj = obj
        self.k = k
        self.p = p
        #: Seconds (from submission) this query may spend in flight; the
        #: clock starts now, before the refine is even shipped.
        self.deadline = deadline
        self._deadline_at = (
            None if deadline is None else time.monotonic() + float(deadline)
        )
        #: On deadline expiry: rank what resolved in time (``True``) or
        #: resolve to a :class:`~repro.exceptions.ServingTimeout` (``False``).
        self.allow_partial = bool(allow_partial)
        self._max_retries = max_retries
        self._k_eff = 0
        self._p_eff = 0
        self._embedding_cost = 0
        self._merge = True
        self._refine_stage: Optional[Any] = None
        self._candidates: Optional[np.ndarray] = None
        #: The store resolution of every candidate; its ``values`` become
        #: the exact distances, in candidate order, once completed.
        self._pending: Optional[PendingDistances] = None
        self._job = None
        #: Refine items ``(part, obj, miss_targets)`` covering the
        #: resolution's misses (see :meth:`AsyncServer._submit_misses`).
        self._items: List[RefineItem] = []
        self._deps: List["QueryTicket"] = []
        self._state = "pending"
        self._finishing = False
        self._result: Optional[RetrievalResult] = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()

    # -- inspection ------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` succeeded."""
        return self._state == "cancelled"

    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking."""
        return self._state in ("done", "cancelled", "error") or self._ready()

    def _ready(self) -> bool:
        if self._state != "pending":
            # done, and also error/cancelled: completion would not block —
            # a dependent of a failed ticket evaluates the abandoned pairs
            # itself (see DistanceContext.complete_distances).
            return True
        if self._job is not None and not self._job.done():
            return False
        return all(dep._ready() for dep in self._deps)

    def _futures(self):
        seen = []
        if self._job is not None:
            seen.extend(self._job.futures)
        for dep in self._deps:
            if dep._state == "pending":
                seen.extend(dep._futures())
        return seen

    def _remaining(self) -> Optional[float]:
        """Seconds left before this ticket's deadline (``None`` = no bound)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.monotonic()

    def _deadline_expired(self) -> bool:
        return self._deadline_at is not None and time.monotonic() >= self._deadline_at

    # -- completion ------------------------------------------------------

    def result(self, timeout: Optional[float] = None) -> RetrievalResult:
        """Complete the refine (blocking if needed) and return the result.

        Raises :class:`concurrent.futures.CancelledError` if the ticket was
        cancelled.  ``timeout`` bounds this call's wait only: expiry raises
        :class:`~repro.exceptions.ServingTimeout` but leaves the ticket
        *pending* — call ``result`` again to keep waiting.  The ticket's
        own ``deadline`` is terminal instead: once it expires the ticket
        resolves to a :class:`~repro.exceptions.ServingError` (or a
        ``partial=True`` result when submitted with ``allow_partial``) and
        every later ``result`` call returns that same outcome.
        """
        self._server._finish(self, timeout=timeout)
        if self._state == "cancelled":
            raise CancelledError("this QueryTicket was cancelled")
        if self._state == "error":
            raise self._error
        return self._result

    def cancel(self) -> bool:
        """Cancel the ticket if its refine work can still be abandoned.

        Fails (returns ``False``) when the ticket already completed, when
        its pool chunks are already running, or when a later ticket
        deferred pairs onto it (the later ticket needs the values).  On
        success the reserved pairs are released — no exact evaluations are
        charged — and :meth:`result` raises
        :class:`concurrent.futures.CancelledError`.
        """
        return self._server._cancel(self)


class QueryStream:
    """Iterator over pipelined query results (see :meth:`EmbeddingIndex.stream`).

    Yields ``(position, result)`` pairs — ``position`` is the query's index
    in the submitted sequence — in completion or submission order.  At most
    ``max_in_flight`` tickets are outstanding at any moment
    (:attr:`max_pending_seen` records the high-water mark, which tests use
    to assert the backpressure bound).

    One failed query does not kill the stream: a ticket that resolves to a
    :class:`~repro.exceptions.ServingError` (retries exhausted, deadline
    expired without ``allow_partial``) is yielded as ``(position,
    exception)`` and the remaining queries keep draining.  Anything else —
    a programming error in the measure, a cancelled ticket — still
    propagates and ends the iteration.
    """

    def __init__(
        self,
        server: "AsyncServer",
        objects: Sequence[Any],
        k: int,
        p: Optional[int],
        n_jobs: Optional[int],
        max_in_flight: int,
        order: str,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> None:
        if order not in ("completion", "submission"):
            raise RetrievalError(
                f"order must be 'completion' or 'submission', got {order!r}"
            )
        if max_in_flight < 1:
            raise RetrievalError(
                f"max_in_flight must be at least 1, got {max_in_flight}"
            )
        self._server = server
        self._objects = list(objects)
        self._k = k
        self._p = p
        self._n_jobs = n_jobs
        self.max_in_flight = max_in_flight
        self.order = order
        self._deadline = deadline
        self._max_retries = max_retries
        self._allow_partial = allow_partial
        #: Most tickets outstanding at once (backpressure high-water mark).
        self.max_pending_seen = 0
        #: Results yielded so far (failed tickets included).
        self.completed = 0
        #: Tickets that resolved to a ServingError instead of a result.
        self.failed = 0

    def __iter__(self) -> Iterator[Tuple[int, Union[RetrievalResult, ServingError]]]:
        pending: List[QueryTicket] = []
        next_position = 0
        n = len(self._objects)
        while next_position < n or pending:
            while next_position < n and len(pending) < self.max_in_flight:
                pending.append(
                    self._server.submit(
                        self._objects[next_position],
                        self._k,
                        self._p,
                        n_jobs=self._n_jobs,
                        position=next_position,
                        deadline=self._deadline,
                        max_retries=self._max_retries,
                        allow_partial=self._allow_partial,
                    )
                )
                next_position += 1
                self.max_pending_seen = max(self.max_pending_seen, len(pending))
            ticket = (
                pending[0] if self.order == "submission" else self._pick(pending)
            )
            pending.remove(ticket)
            try:
                result: Union[RetrievalResult, ServingError] = ticket.result()
            except ServingError as exc:
                # This query's typed outcome; the rest of the batch drains.
                self.failed += 1
                result = exc
            self.completed += 1
            yield ticket.position, result

    def _pick(self, pending: List[QueryTicket]) -> QueryTicket:
        """The next completed ticket (waiting on pool futures if none is)."""
        while True:
            for ticket in pending:
                if ticket._ready() or ticket._deadline_expired():
                    # An expired ticket is "ready" too: its result() call
                    # resolves terminally without waiting on the workers.
                    return ticket
            futures = [f for t in pending for f in t._futures() if not f.done()]
            if not futures:
                # Every chunk is done but some ticket still needs its
                # (cheap) parent-side completion — take the oldest.
                return pending[0]
            budgets = [
                t._remaining() for t in pending if t._remaining() is not None
            ]
            timeout = max(0.0, min(budgets)) if budgets else None
            futures_wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)


class AsyncServer:
    """The serving state an :class:`EmbeddingIndex` drives tickets through.

    One per index, created lazily.  Owns the in-flight pair map (the
    cross-ticket dedup of admitted queries that keeps stream accounting
    identical to ``query_many``) and the lock every store/counter
    interaction runs under.

    Degradation: the server tracks *consecutive* pool failures (worker
    deaths that exhausted a job's retries, corrupt replies).  After
    :attr:`DEGRADE_AFTER` of them it stops shipping refine work to the
    pool and evaluates serially in the parent — logged, surfaced via
    :meth:`health` — because a pool that keeps dying only adds latency to
    every ticket.  Answers never change: the serial fallback performs the
    same evaluations the workers would have, so results stay bit-identical
    and per-query accounting stays exact.  One healthy pool round-trip
    resets the streak.
    """

    #: Consecutive pool failures before refine work stays in the parent.
    DEGRADE_AFTER = 3

    def __init__(self, index: Any) -> None:
        self._index = index
        self._context = index.context
        self._lock = threading.RLock()
        self._in_flight: Dict[Tuple[int, int], PendingDistances] = {}
        #: Tickets submitted through this server (for introspection/tests).
        self.submitted = 0
        #: Consecutive pool failures (reset by any healthy pool result).
        self._pool_failures = 0
        #: Whether refine work currently bypasses the pool (see class doc).
        self.degraded = False
        #: Tickets completed serially after a pool failure (not a count of
        #: wrong answers — the fallback recomputes, it never guesses).
        self.fallbacks = 0

    def _note_pool_failure(self, reason: str) -> None:
        with self._lock:
            self._pool_failures += 1
            self.fallbacks += 1
            if not self.degraded and self._pool_failures >= self.DEGRADE_AFTER:
                self.degraded = True
                logger.warning(
                    "async serving degraded to serial refine after %d "
                    "consecutive pool failures (last: %s)",
                    self._pool_failures,
                    reason,
                )
            else:
                logger.warning(
                    "pool failure during async refine (%s); completed serially",
                    reason,
                )

    def _note_pool_success(self) -> None:
        with self._lock:
            self._pool_failures = 0

    def health(self) -> Dict[str, Any]:
        """Serving-side health counters (see also ``PersistentPool.health``)."""
        with self._lock:
            return {
                "degraded": self.degraded,
                "pool_failures": self._pool_failures,
                "fallbacks": self.fallbacks,
                "submitted": self.submitted,
            }

    # -- planning --------------------------------------------------------

    def _engine(self) -> QueryEngine:
        """The active backend's pipeline (the brute-force backend keeps it
        on its retriever); every backend in the closed set has one."""
        backend = self._index._backend
        return getattr(backend, "engine", None) or backend.retriever.engine

    def submit(
        self,
        obj: Any,
        k: int,
        p: Optional[int],
        n_jobs: Optional[int] = None,
        position: int = 0,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> QueryTicket:
        """Embed + filter now, submit the refine, return the ticket."""
        index = self._index
        index._check_open()
        index._check_p(p)
        backend = index._backend
        planned = p is None and callable(getattr(backend, "choose_p", None))
        if p is None and k < 1:
            raise RetrievalError(f"k must be a positive integer, got {k}")
        if deadline is not None and deadline <= 0:
            raise RetrievalError(
                f"deadline must be a positive number of seconds, got {deadline}"
            )
        ticket = QueryTicket(
            self,
            position,
            obj,
            k,
            p,
            deadline=deadline,
            max_retries=max_retries,
            allow_partial=allow_partial,
        )
        effective_jobs = index.config.n_jobs if n_jobs is None else n_jobs
        # One request scope from admission through the resolve: a first
        # sighting's refine then reuses its embedding's anchor distances,
        # and its ticket completes outside the store.
        with self._lock, index._register([obj]):
            if planned:
                self._serve_planned(ticket, backend)
                self.submitted += 1
                return ticket
            engine = self._engine()
            plan = engine.make_plan([obj], k, p, n_jobs=effective_jobs)
            engine.prepare(plan)
            ticket._k_eff = plan.k_eff
            ticket._p_eff = plan.p_eff
            ticket._embedding_cost = plan.embedding_cost
            ticket._merge = engine.merge is not None
            # Capture the refine stage now: a set_backend between submit
            # and completion must not redirect the accounting.
            ticket._refine_stage = engine.refine
            candidates = plan.candidate_lists[0]
            ticket._candidates = candidates
            binding = engine.refine.binding
            if not isinstance(binding, ContextBinding):
                raise RetrievalError(
                    "async serving requires a context-backed backend (an "
                    "EmbeddingIndex always builds one)"
                )
            pending = self._context.resolve_distances(
                obj, binding.indices[candidates], in_flight=self._in_flight
            )
            pending.owner = ticket
            ticket._pending = pending
            for _pos, _j, owner_pending in pending.deferred:
                owner = owner_pending.owner
                if owner is not None and owner not in ticket._deps:
                    ticket._deps.append(owner)
            self._submit_misses(ticket, effective_jobs)
            self.submitted += 1
        return ticket

    def _serve_planned(self, ticket: QueryTicket, planner: Any) -> None:
        """Serve a planned ``p=None`` ticket now through the early exit.

        Past its deadline the ticket raises, or with ``allow_partial``
        keeps its result, which is not partial: every candidate it ranks
        was refined.
        """
        result = planner.query(ticket.obj, ticket.k)
        if ticket._deadline_expired() and not ticket.allow_partial:
            ticket._error = ServingTimeout(
                f"query deadline of {ticket.deadline}s expired before the "
                "planned refine completed"
            )
            ticket._state = "error"
        else:
            ticket._result = result
            ticket._state = "done"
        ticket._event.set()

    def _submit_misses(self, ticket: QueryTicket, n_jobs: Optional[int]) -> None:
        """Plan the ticket's refine items and ship them to the pool.

        Without a usable persistent pool nothing is shipped: the items are
        evaluated in the parent at completion time, so cancellation can
        still save the work.
        """
        miss = ticket._pending.miss_targets
        if not len(miss):
            return
        n_workers = resolve_jobs(n_jobs)
        pool = None
        if n_workers > 1 and not self.degraded:
            # A degraded server refines in the parent until an operator
            # replaces the pool (see class docstring).
            pool = self._context._pool_for(n_workers)
        # On the pool the misses split so a single query still fans out
        # over the workers.
        parts = min(n_workers if pool is not None else 1, len(miss))
        ticket._items = [
            (part_index, ticket.obj, part)
            for part_index, part in enumerate(np.array_split(miss, parts))
        ]
        if pool is None:
            return
        inner, _counters = split_counting(self._context.base)
        try:
            ticket._job = submit_refine(
                pool,
                inner,
                self._context.objects,
                [[item] for item in ticket._items],
                max_retries=ticket._max_retries,
            )
        except WORKER_FAILURES as exc:
            # Even the post-respawn submission failed: serve this ticket
            # in the parent; _collect evaluates every item there.
            self._note_pool_failure(repr(exc))

    # -- completion ------------------------------------------------------

    def _finish(self, ticket: QueryTicket, timeout: Optional[float] = None) -> None:
        end = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            with self._lock:
                if ticket._state != "pending":
                    return
                if not ticket._finishing:
                    ticket._finishing = True
                    break
            # Another thread is completing this ticket.  Wait in bounded
            # slices: a finisher that bailed out on its own caller timeout
            # resets the claim without setting the event, and a sliced wait
            # lets this thread re-check and take over.
            remaining = None if end is None else end - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise ServingTimeout(
                    "timed out waiting for the query ticket to complete"
                )
            ticket._event.wait(0.05 if remaining is None else min(remaining, 0.05))
        terminal = True
        try:
            for dep in ticket._deps:
                try:
                    self._finish(dep, timeout=ticket._remaining())
                # repro-lint: disable=RP003 -- supervision: a dep failure is that ticket's own result
                except BaseException:
                    # The dependency's failure (or missed deadline) is its
                    # own result; this ticket recovers by evaluating the
                    # deferred pairs itself at complete time.
                    pass
            fresh = self._collect(ticket, end)
            with self._lock:
                if ticket._state != "pending":  # cancelled meanwhile
                    return
                _values, spent = self._context.complete_distances(
                    ticket._pending, fresh, in_flight=self._in_flight
                )
                ticket._refine_stage.binding.calls += spent
                ticket._result = self._build_result(ticket, spent)
                ticket._state = "done"
        except ServingTimeout:
            budget = ticket._remaining()
            if budget is not None and budget <= 0:
                # The ticket's own deadline expired: terminal outcome
                # (partial result or typed error), never a hang.
                self._resolve_deadline(ticket)
                return
            # Only this caller's wait expired: the ticket stays pending
            # and collectable, so release the completion claim.
            terminal = False
            with self._lock:
                ticket._finishing = False
            raise
        except BaseException as exc:
            with self._lock:
                if ticket._state == "pending":
                    ticket._error = exc
                    ticket._state = "error"
                    # Release the ticket's reserved pairs so one failure
                    # cannot poison the server: later tickets stop
                    # deferring onto it, and tickets that already did fall
                    # back to evaluating those pairs themselves.
                    self._context.cancel_distances(
                        ticket._pending, in_flight=self._in_flight, force=True
                    )
            raise
        finally:
            if terminal:
                ticket._event.set()

    def _resolve_deadline(self, ticket: QueryTicket) -> None:
        """Terminal deadline expiry: partial result or typed error."""
        with self._lock:
            if ticket._state != "pending":
                return
            if ticket._job is not None:
                ticket._job.abandon()
            if not ticket.allow_partial:
                ticket._error = ServingTimeout(
                    f"query deadline of {ticket.deadline}s expired before the "
                    "refine completed (submit with allow_partial=True to "
                    "rank the candidates resolved in time instead)"
                )
                ticket._state = "error"
                self._context.cancel_distances(
                    ticket._pending, in_flight=self._in_flight, force=True
                )
                ticket._event.set()
                return
            # Partial result: rank only the candidates whose exact
            # distances resolved (store hits and earlier tickets' values)
            # before the deadline.  No evaluations happened, none are
            # charged; distances are real, neighbors may be missing.
            pending = ticket._pending
            mask = np.ones(ticket._candidates.shape[0], dtype=bool)
            mask[pending.fill_pos] = False
            for pos, _j, _owner in pending.deferred:
                mask[pos] = False
            self._context.cancel_distances(
                pending, in_flight=self._in_flight, force=True
            )
            candidates = ticket._candidates[mask]
            exact = pending.values[mask]
            # refine_order's lexsort tie-breaks by database index, which
            # for the brute-force shape (ascending candidates) matches the
            # stable scan ranking — one partial builder serves both shapes.
            ticket._result = build_retrieval_result(
                candidates,
                exact,
                min(ticket._k_eff, candidates.shape[0]),
                ticket._p_eff,
                ticket._embedding_cost,
                refine_cost=0,
                partial=True,
            )
            ticket._state = "done"
            ticket._event.set()

    def _collect(
        self, ticket: QueryTicket, end: Optional[float] = None
    ) -> Optional[np.ndarray]:
        """Fresh miss values: pool replies, repaired in the parent.

        :func:`~repro.distances.parallel.collect_refine` recomputes in the
        parent whatever the pool did not deliver — a job that failed beyond
        its retry budget, a torn or corrupted reply — so a damaged reply
        can never become a wrong answer.  The server adds its own policy:
        pool failures feed the degrade counter, and past the ticket's
        deadline nothing is evaluated in the parent (the ticket resolves to
        its deadline outcome instead).
        """
        expired = f"query deadline of {ticket.deadline}s expired"
        if ticket._job is None and ticket._deadline_expired():
            raise ServingTimeout(expired)
        budget = ticket._remaining()
        if end is not None:
            caller_left = end - time.monotonic()
            budget = caller_left if budget is None else min(budget, caller_left)
        inner, _counters = split_counting(self._context.base)
        results, failed = collect_refine(
            ticket._job,
            inner,
            self._context.objects,
            ticket._items,
            timeout=budget,
            deadline=ticket._deadline_at,
        )
        if ticket._job is not None:
            if failed:
                self._note_pool_failure("lost workers or a damaged reply")
            else:
                self._note_pool_success()
        if any(key not in results for key, _obj, _miss in ticket._items):
            raise ServingTimeout(expired)
        if not ticket._items:
            return None
        return np.concatenate([results[key] for key, _obj, _miss in ticket._items])

    def _build_result(self, ticket: QueryTicket, spent: int) -> RetrievalResult:
        if ticket._merge:
            return build_retrieval_result(
                ticket._candidates,
                ticket._pending.values,
                ticket._k_eff,
                ticket._p_eff,
                ticket._embedding_cost,
                refine_cost=spent,
            )
        # Brute-force shape: rank the full scan, candidates shared.
        return build_scan_result(
            ticket._pending.values, ticket._candidates, ticket._k_eff, spent
        )

    # -- cancellation ----------------------------------------------------

    def _cancel(self, ticket: QueryTicket) -> bool:
        with self._lock:
            if ticket._state != "pending" or ticket._finishing:
                return False
            if ticket._pending.dependents:
                return False
            if ticket._job is not None and not ticket._job.cancel():
                return False
            self._context.cancel_distances(ticket._pending, in_flight=self._in_flight)
            ticket._state = "cancelled"
            ticket._event.set()
            return True
