"""Scatter/gather client of the distributed shard service.

:class:`RemoteShardedBackend` is a drop-in
:class:`~repro.index.embedding_index.EmbeddingIndex` backend (registered as
``"remote_sharded"``) that runs the sharded pipeline's filter and refine
stages on remote shard servers instead of in-process threads of work:

* **embed** — in the parent, through the parent's context (unchanged);
* **filter** — one FILTER round trip per shard carrying the whole query
  batch; the per-shard cuts are merged with the same
  :func:`~repro.retrieval.engine.merge_shard_cuts` the in-process backend
  uses, so tie order cannot diverge;
* **refine** — one REFINE round trip per shard with work, streaming back
  (global database index, distance) entries;
* **merge** — in the parent, through the shared
  :class:`~repro.retrieval.engine.MergeStage`.

Bit-identical accounting without trusting the peers
---------------------------------------------------
Per-query ``refine_distance_computations`` must equal the local sharded
backend's.  The client does not take the servers' word for it: every
streamed refine entry is charged against the **parent's own store** — a
pair already present is free, a missing pair is charged once and installed
with the streamed distance (a query the parent serves transiently is
charged against its request's memo instead, exactly as locally).  Because
installation keeps the parent store evolving exactly as if the parent had
computed every pair itself, the counts match the local path
unconditionally — across batches, across
repeated queries, and across shard deaths (the serial local fallback then
sees exactly the store a purely local run would have seen).  Both kinds of
charge land on the local twin's refine-stage counter, as the in-process
backend's do.

Supervision (PR 6 semantics: fail fast, degrade, never answer wrongly)
----------------------------------------------------------------------
Each shard holds one :class:`ShardConnection` with explicit connect/read
deadlines and a bounded retry budget; a retriable failure (timeout,
connection death, corrupt frame) closes and reconnects the socket and
replays the idempotent request.  When the budget is exhausted the shard is
marked dead and its filter cut and refine work run serially in the parent
(:meth:`~repro.retrieval.engine.ShardedFilterStage.shard_cut` and
:meth:`~repro.retrieval.engine.RefineStage.run` — the same code, so
results are unchanged).  A dead shard
is offered one revival attempt per subsequent batch, and the whole state is
surfaced through ``index.health()["remote"]``.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.distances.context import DistanceContext
from repro.exceptions import (
    ConfigurationError,
    RemoteConnectionError,
    RemoteError,
    RemoteProtocolError,
    RemoteTimeout,
)
from repro.index.embedding_index import IndexConfig, register_backend
from repro.remote import protocol
from repro.remote.protocol import FrameType
from repro.retrieval.engine import (
    RetrievalResult,
    merge_shard_cuts,
    refine_candidates,
)
from repro.retrieval.sharded import ShardedRetriever

__all__ = [
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_READ_TIMEOUT",
    "DEFAULT_RETRIES",
    "ShardConnection",
    "RemoteShardedBackend",
    "configure",
    "use_remote_backend",
]

DEFAULT_CONNECT_TIMEOUT = 5.0
DEFAULT_READ_TIMEOUT = 30.0
#: Reconnect-and-replay attempts after the first failure of a request.
DEFAULT_RETRIES = 2

#: Failures that warrant closing the socket and replaying the request on a
#: fresh connection.  A server-sent ERROR frame is *not* here: it is a
#: deterministic typed refusal, and replaying it would loop.
_RETRIABLE = (RemoteTimeout, RemoteConnectionError, RemoteProtocolError)


class ShardConnection:
    """One supervised socket to one shard server.

    Every request is a complete scatter/gather exchange: responses are
    buffered and validated in full before any caller-visible state changes,
    so a failure mid-stream can always be retried (the exchanges are
    idempotent — servers cache, never mutate query state the client relies
    on).
    """

    def __init__(
        self,
        shard_index: int,
        address: Tuple[str, int],
        expect: Tuple[int, int, int, int, int],
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        self.shard_index = int(shard_index)
        self.address = (str(address[0]), int(address[1]))
        #: The layout this client serves: (shard, n_shards, start, stop,
        #: n_database) — the HELLO handshake must agree on every field.
        self.expect = expect
        self.connect_timeout = float(connect_timeout)
        self.read_timeout = float(read_timeout)
        self.retries = int(retries)
        self.alive = True
        self.bytes_sent = 0
        self.bytes_received = 0
        self.round_trips = 0
        #: Wall-clock seconds spent inside request/reply exchanges (the
        #: per-shard round-trip cost :meth:`health` reports).
        self.request_seconds = 0.0
        self.retries_used = 0
        self.fallbacks = 0
        self.revivals = 0
        self.connects = 0
        self._sock: Optional[socket.socket] = None

    # -- lifecycle -------------------------------------------------------

    def connect(self) -> None:
        """(Re)connect and run the HELLO handshake; raises typed errors."""
        self.close()
        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout
            )
        except TimeoutError as exc:
            raise RemoteTimeout(
                f"timed out connecting to shard {self.shard_index} at "
                f"{self.address[0]}:{self.address[1]}"
            ) from exc
        except OSError as exc:
            raise RemoteConnectionError(
                f"cannot connect to shard {self.shard_index} at "
                f"{self.address[0]}:{self.address[1]}: {exc}"
            ) from exc
        sock.settimeout(self.read_timeout)
        self._sock = sock
        self.connects += 1
        shard, n_shards, start, stop, n_database = self.expect
        try:
            payload = self._exchange(
                FrameType.HELLO,
                {"shard": f"{shard}/{n_shards}"},
                FrameType.HELLO_OK,
            )
        except RemoteError as exc:
            if isinstance(exc, _RETRIABLE):
                raise
            # A refused handshake means this peer is the wrong shard for
            # the layout — a protocol-level incompatibility, so it routes
            # to the dead-shard fallback instead of crashing the query.
            raise RemoteProtocolError(
                f"shard server at {self.address[0]}:{self.address[1]} "
                f"refused the handshake: {exc}"
            ) from exc
        got = tuple(
            int(payload.get(key, -1))
            for key in ("shard_index", "n_shards", "start", "stop", "n_database")
        )
        if got != self.expect:
            raise RemoteProtocolError(
                f"shard server at {self.address[0]}:{self.address[1]} serves "
                f"shard {got[0]}/{got[1]} rows [{got[2]}, {got[3]}) of "
                f"{got[4]}; this client needs {shard}/{n_shards} rows "
                f"[{start}, {stop}) of {n_database}"
            )

    def close(self) -> None:
        """Drop the socket (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # repro-lint: disable=RP011 -- double-close guard on a dead socket
                pass
            self._sock = None

    def mark_dead(self) -> None:
        """Record this shard as unreachable; its work falls back locally."""
        self.alive = False
        self.close()

    def try_revive(self) -> bool:
        """One reconnect attempt for a dead shard (called once per batch)."""
        if self.alive:
            return True
        try:
            self.connect()
        except _RETRIABLE:
            self.close()
            return False
        self.alive = True
        self.revivals += 1
        return True

    # -- framing ---------------------------------------------------------

    def _exchange(
        self,
        request_type: FrameType,
        payload: Dict[str, Any],
        response_type: FrameType,
    ) -> Dict[str, Any]:
        """Send one frame and read one reply of the expected type."""
        started = time.perf_counter()
        self.bytes_sent += protocol.send_frame(self._sock, request_type, payload)
        frame_type, reply, nbytes = protocol.recv_frame(self._sock)
        self.bytes_received += nbytes
        self.round_trips += 1
        self.request_seconds += time.perf_counter() - started
        if frame_type == FrameType.ERROR:
            raise RemoteError(
                f"shard {self.shard_index} refused a {request_type.name} "
                f"request: {reply.get('error')}: {reply.get('message')}"
            )
        if frame_type != response_type:
            raise RemoteProtocolError(
                f"expected a {response_type.name} reply to {request_type.name}, "
                f"got {frame_type.name}"
            )
        return reply

    def _with_retries(self, operation) -> Any:
        """Run ``operation`` on a live socket, reconnect-and-replay on failure."""
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                self.retries_used += 1
            try:
                if self._sock is None:
                    self.connect()
                return operation()
            except _RETRIABLE as exc:
                self.close()
                last = exc
        raise last

    # -- requests --------------------------------------------------------

    def request_filter(
        self, vectors: np.ndarray, p: int
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The shard's filter cuts for a batch of embedded query vectors.

        Returns ``(local_indices, filter_distances)`` lists, one entry per
        query, validated for shape before anything is returned.
        """
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=float))
        n_queries = vectors.shape[0]
        shard_size = self.expect[3] - self.expect[2]

        def _run():
            reply = self._exchange(
                FrameType.FILTER,
                {"vectors": vectors, "p": int(p)},
                FrameType.FILTER_RESULT,
            )
            locals_ = reply.get("locals")
            distances = reply.get("distances")
            if (
                not isinstance(locals_, list)
                or not isinstance(distances, list)
                or len(locals_) != n_queries
                or len(distances) != n_queries
            ):
                raise RemoteProtocolError(
                    f"malformed FILTER_RESULT from shard {self.shard_index}: "
                    f"expected {n_queries} per-query cuts"
                )
            cuts: List[np.ndarray] = []
            dists: List[np.ndarray] = []
            for local, dist in zip(locals_, distances):
                local = np.asarray(local, dtype=int)
                dist = np.asarray(dist, dtype=float)
                if (
                    local.ndim != 1
                    or local.shape != dist.shape
                    or local.size > shard_size
                    or (local.size and (local.min() < 0 or local.max() >= shard_size))
                ):
                    raise RemoteProtocolError(
                        f"malformed filter cut from shard {self.shard_index}: "
                        "candidate indices outside the shard"
                    )
                cuts.append(local)
                dists.append(dist)
            return cuts, dists

        return self._with_retries(_run)

    def request_refine(
        self,
        queries: Sequence[Any],
        index_lists: Sequence[np.ndarray],
        register: bool,
    ) -> List[Dict[str, Any]]:
        """Exact distances for per-query candidate lists, streamed back.

        ``register`` asks the server to add the queries to its universe,
        so their pairs are stored there too.  Returns one validated entry
        dict (``values`` aligned with the request's global indices) per
        request slot, buffered until the server's REFINE_DONE — so a
        connection that dies mid-stream leaves no partial effects and the
        request can be replayed.
        """
        index_lists = [np.asarray(lst, dtype=np.int64) for lst in index_lists]

        def _run():
            self.bytes_sent += protocol.send_frame(
                self._sock,
                FrameType.REFINE,
                {
                    "queries": list(queries),
                    "indices": list(index_lists),
                    "register": bool(register),
                },
            )
            entries: List[Dict[str, Any]] = []
            while True:
                frame_type, reply, nbytes = protocol.recv_frame(self._sock)
                self.bytes_received += nbytes
                if frame_type == FrameType.REFINE_ENTRIES:
                    entries.append(reply)
                    continue
                if frame_type == FrameType.REFINE_DONE:
                    break
                if frame_type == FrameType.ERROR:
                    self.round_trips += 1
                    raise RemoteError(
                        f"shard {self.shard_index} refused a REFINE request: "
                        f"{reply.get('error')}: {reply.get('message')}"
                    )
                raise RemoteProtocolError(
                    f"unexpected {frame_type.name} frame in a refine stream"
                )
            self.round_trips += 1
            if len(entries) != len(index_lists):
                raise RemoteProtocolError(
                    f"refine stream from shard {self.shard_index} returned "
                    f"{len(entries)} entries for {len(index_lists)} queries"
                )
            for slot, (entry, expected) in enumerate(zip(entries, index_lists)):
                values = entry.get("values")
                echoed = entry.get("indices")
                if (
                    int(entry.get("query", -1)) != slot
                    or not isinstance(values, np.ndarray)
                    or not isinstance(echoed, np.ndarray)
                    or values.shape != expected.shape
                    or not np.array_equal(
                        np.asarray(echoed, dtype=np.int64), expected
                    )
                ):
                    raise RemoteProtocolError(
                        f"refine entry {slot} from shard {self.shard_index} "
                        "does not match the requested candidates"
                    )
            return entries

        return self._with_retries(_run)

    def request_health(self) -> Dict[str, Any]:
        """The server's own counters (connections, served ops, store size)."""
        return self._with_retries(
            lambda: self._exchange(FrameType.HEALTH, {}, FrameType.HEALTH_RESULT)
        )

    def request_shutdown(self) -> None:
        """Ask the server to exit after acknowledging (graceful stop)."""
        self._with_retries(
            lambda: self._exchange(FrameType.SHUTDOWN, {}, FrameType.SHUTDOWN_OK)
        )
        self.close()

    # -- introspection ---------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """This connection's supervision counters."""
        return {
            "shard": self.shard_index,
            "address": f"{self.address[0]}:{self.address[1]}",
            "alive": self.alive,
            "connects": self.connects,
            "round_trips": self.round_trips,
            "request_seconds": self.request_seconds,
            "retries": self.retries_used,
            "fallbacks": self.fallbacks,
            "revivals": self.revivals,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


class RemoteShardedBackend:
    """The ``"remote_sharded"`` EmbeddingIndex backend: sockets, same bits.

    Holds a local :class:`~repro.retrieval.sharded.ShardedRetriever` twin
    for the shard layout, the merge/accounting state and the serial
    fallback path, plus one :class:`ShardConnection` per shard.  See the
    module docstring for the scatter/gather flow and the accounting rules.
    """

    def __init__(
        self,
        distance: DistanceContext,
        database: Dataset,
        embedder: Any,
        database_vectors: np.ndarray,
        config: IndexConfig,
        addresses: Sequence[Tuple[str, int]],
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        if not isinstance(distance, DistanceContext):
            raise ConfigurationError(
                "the remote_sharded backend needs a DistanceContext (it "
                "mirrors streamed refine entries into the parent store); "
                "use it through an EmbeddingIndex"
            )
        self.retriever = ShardedRetriever(
            distance,
            database,
            embedder,
            n_shards=config.n_shards,
            database_vectors=database_vectors,
        )
        shards = self.retriever.engine.filter.shards
        if len(addresses) != len(shards):
            raise ConfigurationError(
                f"need one shard server address per shard: the layout has "
                f"{len(shards)} shards, got {len(addresses)} addresses"
            )
        n_database = len(database)
        self.connections = [
            ShardConnection(
                sid,
                address,
                expect=(
                    sid,
                    len(shards),
                    int(shard.offset),
                    int(shard.offset) + len(shard),
                    n_database,
                ),
                connect_timeout=connect_timeout,
                read_timeout=read_timeout,
                retries=retries,
            )
            for sid, (address, shard) in enumerate(zip(addresses, shards))
        ]

    # -- plumbing --------------------------------------------------------

    @property
    def engine(self):
        """The local twin's query engine (layout, stages, accounting)."""
        return self.retriever.engine

    def close(self) -> None:
        """Drop every shard connection (the servers keep running)."""
        for conn in self.connections:
            conn.close()

    def shutdown_servers(self) -> None:
        """Gracefully stop every reachable shard server."""
        for conn in self.connections:
            if conn.alive:
                conn.request_shutdown()

    def health(self) -> Dict[str, Any]:
        """Scatter/gather supervision state, one entry per shard."""
        shards = [conn.health() for conn in self.connections]
        return {
            "shards": shards,
            "degraded": any(not shard["alive"] for shard in shards),
            "round_trips": sum(s["round_trips"] for s in shards),
            "request_seconds": sum(s["request_seconds"] for s in shards),
            "retries": sum(s["retries"] for s in shards),
            "fallbacks": sum(s["fallbacks"] for s in shards),
            "bytes_sent": sum(s["bytes_sent"] for s in shards),
            "bytes_received": sum(s["bytes_received"] for s in shards),
        }

    # -- pipeline stages -------------------------------------------------

    def _scatter_filter(self, plan) -> None:
        """Fill ``plan.candidate_lists`` via remote cuts."""
        stage = self.engine.filter
        vectors = np.asarray(plan.query_vectors, dtype=float)
        n_queries = vectors.shape[0]
        p = plan.p_eff
        per_shard: List[Tuple[List[np.ndarray], List[np.ndarray]]] = []
        for sid, conn in enumerate(self.connections):
            result = None
            if conn.alive:
                try:
                    result = conn.request_filter(vectors, p)
                except _RETRIABLE:
                    conn.mark_dead()
            if result is None:
                # Serial local fallback: the same shard_cut the server runs.
                conn.fallbacks += 1
                cuts, dists = [], []
                for vector in vectors:
                    local, dist = stage.shard_cut(sid, vector, p)
                    cuts.append(local)
                    dists.append(dist)
                result = (cuts, dists)
            per_shard.append(result)
        plan.candidate_lists = []
        for qi in range(n_queries):
            indices = [
                stage.shards[sid].offset + per_shard[sid][0][qi]
                for sid in range(len(self.connections))
            ]
            dists = [per_shard[sid][1][qi] for sid in range(len(self.connections))]
            plan.candidate_lists.append(merge_shard_cuts(indices, dists, p))

    def _charge_entry(
        self, obj: Any, global_indices: np.ndarray, values: np.ndarray
    ) -> int:
        """Charge one streamed refine entry through the parent's context.

        The entry is resolved and completed like a local refine request:
        an admitted query's cached pairs are free, and each missing pair
        is installed with its streamed distance (keeping the parent store
        bit-identical to a purely local run) and charged once on every
        counter the context charges — its own and a caller's.  A
        transient query resolves against the request's memo instead, so
        its embedding-anchor pairs are free, as they are locally.  Returns
        the evaluations charged.
        """
        binding = self.engine.refine.binding
        context = binding.context
        pending = context.resolve_distances(obj, binding.indices[global_indices])
        fresh = np.empty(pending.n_missing, dtype=float)
        fresh[pending.fill_slot] = values[pending.fill_pos]
        _values, spent = context.complete_distances(pending, fresh)
        return spent

    def _gather_refine(self, plan) -> None:
        """Fill ``plan.exact_lists``/``refine_costs`` via remote entries.

        Each query's candidates are split by shard
        (:meth:`~repro.retrieval.engine.ShardedFilterStage.split`), since
        every server holds only its own rows.  Streamed and fallback
        charges both land on the local twin's refine stage counter, exactly
        as the in-process backend's do.
        """
        refine = self.engine.refine
        context = refine.binding.context
        splits = [self.engine.filter.split(c) for c in plan.candidate_lists]
        plan.exact_lists = [
            np.empty(c.shape[0], dtype=float) for c in plan.candidate_lists
        ]
        plan.refine_costs = [0] * len(plan.objects)
        for sid, conn in enumerate(self.connections):
            groups = [
                (qi, positions)
                for qi, work in enumerate(splits)
                for work_sid, positions in work
                if work_sid == sid
            ]
            if not groups:
                continue
            objects = [plan.objects[qi] for qi, _ in groups]
            targets = [plan.candidate_lists[qi][positions] for qi, positions in groups]
            # Only queries the parent admitted may join a server's
            # universe; a frame with a transient query registers nothing.
            admitted = all(context.index_of(obj) is not None for obj in objects)
            entries = None
            if conn.alive:
                try:
                    entries = conn.request_refine(objects, targets, admitted)
                except _RETRIABLE:
                    conn.mark_dead()
            if entries is None:
                # Serial local fallback through the parent's own refine
                # stage — the exact store-aware path the in-process backend
                # runs.
                conn.fallbacks += 1
                refined = [
                    refine_candidates(refine, obj, target)
                    for obj, target in zip(objects, targets)
                ]
            else:
                refined = []
                for obj, target, entry in zip(objects, targets, entries):
                    values = np.asarray(entry["values"], dtype=float)
                    spent = self._charge_entry(obj, target, values)
                    refine.binding.calls += spent
                    refined.append((values, spent))
            for (qi, positions), (values, spent) in zip(groups, refined):
                plan.exact_lists[qi][positions] = values
                plan.refine_costs[qi] += spent

    def _run(self, plan) -> List[RetrievalResult]:
        for conn in self.connections:
            conn.try_revive()
        plan = self.engine.embed.run(plan)
        self._scatter_filter(plan)
        self._gather_refine(plan)
        plan = self.engine.merge.run(plan)
        return plan.results

    # -- the backend interface ------------------------------------------

    def query(self, obj: Any, k: int, p: int) -> RetrievalResult:
        """One query, scatter/gathered across the shard servers."""
        plan = self.engine.make_plan([obj], k, p)
        return self._run(plan)[0]

    def query_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: int,
        n_jobs: Optional[int] = None,
    ) -> List[RetrievalResult]:
        """One batch; ``n_jobs`` is ignored (shards are the parallelism)."""
        plan = self.engine.make_plan(list(objects), k, p)
        if not plan.objects:
            return []
        return self._run(plan)


# --------------------------------------------------------------------------- #
# Backend registration                                                        #
# --------------------------------------------------------------------------- #

#: Module-level settings the ``"remote_sharded"`` factory reads, set by
#: :func:`configure`.  The backend-factory signature is fixed by the
#: registry, so connection parameters arrive out of band.
_SETTINGS: Optional[Dict[str, Any]] = None


def configure(
    addresses: Sequence[Tuple[str, int]],
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
) -> None:
    """Set the shard addresses the ``"remote_sharded"`` backend connects to.

    Call before ``EmbeddingIndex.open(..., backend="remote_sharded")`` or
    ``index.set_backend("remote_sharded")``; :func:`use_remote_backend`
    wraps both steps.
    """
    global _SETTINGS
    _SETTINGS = {
        "addresses": [(str(host), int(port)) for host, port in addresses],
        "connect_timeout": float(connect_timeout),
        "read_timeout": float(read_timeout),
        "retries": int(retries),
    }


def _remote_factory(distance, database, embedder, database_vectors, config):
    if _SETTINGS is None:
        raise ConfigurationError(
            "the remote_sharded backend has no shard addresses; call "
            "repro.remote.client.configure(addresses) (or "
            "use_remote_backend) first"
        )
    return RemoteShardedBackend(
        distance, database, embedder, database_vectors, config, **_SETTINGS
    )


register_backend("remote_sharded", _remote_factory)


def use_remote_backend(
    index,
    addresses: Sequence[Tuple[str, int]],
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
) -> RemoteShardedBackend:
    """Point an open :class:`EmbeddingIndex` at a cluster of shard servers.

    Configures the connection settings and switches the index to the
    ``"remote_sharded"`` backend (embeddings and the warm store are
    reused).  Returns the backend so callers can reach its supervision
    state directly; the same state is surfaced in
    ``index.health()["remote"]``.
    """
    configure(
        addresses,
        connect_timeout=connect_timeout,
        read_timeout=read_timeout,
        retries=retries,
    )
    index.set_backend("remote_sharded")
    return index._backend
