"""One shard worker of the distributed shard service.

Launched as::

    python -m repro.remote.shard_server <artifact_dir> --shard i/N \\
        --database db.pkl [--port 0] [--host 127.0.0.1] [--faults JSON]

The worker ``EmbeddingIndex.open``\\ s the saved artifact with a single-shard
claim (``shard="i/N"`` — validated against the artifact's persisted layout,
so an off-by-one shard count or an overlapping range is refused at startup,
not served wrongly), memory-maps the distance store when the artifact
allows it, and then serves two operations for its shard over the
:mod:`repro.remote.protocol` framing:

* **filter** — the shard's stable top-``min(p, shard_size)`` filter cut for
  a batch of embedded query vectors, through the exact same
  :meth:`~repro.retrieval.engine.ShardedFilterStage.shard_cut` the
  in-process backend uses, so the scatter/gather merge in the parent is
  bit-identical to the local merge.
* **refine** — exact distances from query objects to the shard's surviving
  candidates, streamed back as (global database index, distance) entries.
  Refine goes through the worker's own warm
  :class:`~repro.distances.context.DistanceContext` store (opened from the
  artifact with zero exact evaluations), with wire-decoded query objects
  re-adopted onto their store keys by content digest — so a pair is
  evaluated at most once per worker lifetime and the reported ``spent``
  matches the serial local path.

The worker is single-connection (the parent holds one persistent socket
per shard) but survives disconnects: when a client goes away it returns to
``accept`` and serves the next connection with its store still warm.
Deterministic socket-level faults (frame corruption, mid-reply connection
kill, slow peer) are injected via ``--faults`` carrying a
:class:`repro.testing.faults.FaultPlan` frame-fault payload.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import (
    RemoteConnectionError,
    RemoteError,
    RemoteProtocolError,
    RemoteTimeout,
    ReproError,
    RetrievalError,
)
from repro.index import artifacts
from repro.index.embedding_index import EmbeddingIndex
from repro.remote import protocol
from repro.remote.protocol import FrameType
from repro.retrieval.engine import refine_candidates
from repro.retrieval.sharded import ShardedRetriever
from repro.testing.faults import FaultPlan

__all__ = ["ShardServer", "main"]

#: How long the accept loop blocks before re-checking the stop flag.
_ACCEPT_POLL_SECONDS = 1.0


class _Shutdown(Exception):
    """Internal control flow: a SHUTDOWN frame was acknowledged."""


class _DropConnection(Exception):
    """Internal control flow: an injected fault killed the connection."""


class ShardServer:
    """Serve filter cuts and refine entries for one shard of an open index.

    Parameters
    ----------
    index:
        An :class:`~repro.index.embedding_index.EmbeddingIndex` restored
        with ``open(..., shard="i/N")`` — the validated shard spec decides
        which shard this server answers for.
    host, port:
        Bind address; ``port=0`` lets the OS choose (the chosen port is
        announced on stdout as ``READY host=... port=...``).
    frame_timeout:
        Per-socket timeout in seconds for every recv/send on an accepted
        connection; a stalled peer can never hang the worker.
    faults:
        Optional :class:`~repro.testing.faults.FaultPlan` whose frame-fault
        fields (``corrupt_frame`` / ``kill_connection_after`` /
        ``slow_frame``) are applied to outbound frames, for the chaos
        suite.
    """

    def __init__(
        self,
        index: EmbeddingIndex,
        host: str = "127.0.0.1",
        port: int = 0,
        frame_timeout: float = 30.0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        spec = index.shard_spec
        if spec is None:
            raise RetrievalError(
                "a ShardServer needs an index opened with a shard spec "
                "(EmbeddingIndex.open(..., shard='i/N'))"
            )
        self.index = index
        self.shard_index, self.n_shards, self.start, self.stop = spec
        # The exact construction path of the local "sharded" backend: same
        # shard layout, same filter stage, same context binding — so every
        # value this worker computes is bit-identical to the in-process
        # pipeline by construction, not by reimplementation.
        self.retriever = ShardedRetriever(
            index.context,
            index.database,
            index.embedder,
            n_shards=index.config.n_shards,
            database_vectors=index.database_vectors,
        )
        self.host = host
        self.port = int(port)
        self.frame_timeout = float(frame_timeout)
        self.faults = faults
        self.served_filter = 0
        self.served_refine = 0
        self.frames_sent = 0
        self.connections = 0
        self._stop = False

    # -- outbound frames -------------------------------------------------

    def _send(
        self, conn: socket.socket, frame_type: FrameType, payload: Dict[str, Any]
    ) -> None:
        """Send one frame, applying any scheduled fault to it first."""
        self.frames_sent += 1
        actions = (
            self.faults.frame_faults(self.frames_sent)
            if self.faults is not None
            else set()
        )
        if "slow" in actions:
            time.sleep(self.faults.slow_frame_seconds)
        if "kill" in actions:
            # Leave the peer holding a short read: half a header, then FIN.
            frame = protocol.encode_frame(frame_type, payload)
            try:
                conn.sendall(frame[: protocol.HEADER_SIZE // 2])
            except OSError as exc:
                raise RemoteConnectionError(
                    f"connection lost while injecting a kill fault: {exc}"
                ) from exc
            raise _DropConnection
        frame = protocol.encode_frame(frame_type, payload)
        if "corrupt" in actions:
            # Flip the payload's last byte; the header CRC now convicts it.
            frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        try:
            conn.sendall(frame)
        except TimeoutError as exc:
            raise RemoteTimeout(
                f"timed out sending a {frame_type.name} frame"
            ) from exc
        except OSError as exc:
            raise RemoteConnectionError(
                f"connection failed sending a {frame_type.name} frame: {exc}"
            ) from exc

    # -- request handlers ------------------------------------------------

    def _handle_hello(self, conn: socket.socket, payload: Dict[str, Any]) -> None:
        claimed = payload.get("shard")
        ours = f"{self.shard_index}/{self.n_shards}"
        if claimed is not None and claimed != ours:
            raise RemoteProtocolError(
                f"client expects shard {claimed}, this worker serves {ours}"
            )
        self._send(
            conn,
            FrameType.HELLO_OK,
            {
                "shard_index": self.shard_index,
                "n_shards": self.n_shards,
                "start": self.start,
                "stop": self.stop,
                "n_database": len(self.index.database),
            },
        )

    def _handle_filter(self, conn: socket.socket, payload: Dict[str, Any]) -> None:
        vectors = payload["vectors"]
        p = int(payload["p"])
        if not isinstance(vectors, np.ndarray) or vectors.ndim != 2:
            raise RemoteProtocolError(
                "FILTER frame needs a 2-D float vector batch"
            )
        locals_: List[np.ndarray] = []
        distances: List[np.ndarray] = []
        stage = self.retriever.engine.filter
        for vector in np.asarray(vectors, dtype=float):
            local, dist = stage.shard_cut(self.shard_index, vector, p)
            locals_.append(np.asarray(local, dtype=np.int64))
            distances.append(np.asarray(dist, dtype=float))
        self.served_filter += len(locals_)
        self._send(
            conn,
            FrameType.FILTER_RESULT,
            {"locals": locals_, "distances": distances},
        )

    def _handle_refine(self, conn: socket.socket, payload: Dict[str, Any]) -> None:
        queries = payload["queries"]
        index_lists = payload["indices"]
        if len(queries) != len(index_lists):
            raise RemoteProtocolError(
                "REFINE frame needs one candidate list per query"
            )
        if payload.get("register"):
            # Content matching re-adopts equal query objects onto the warm
            # store's keys, exactly like a reopened local index would.
            self.index.context.register(list(queries), match_content=True)
        refine = self.retriever.engine.refine
        total_spent = 0
        entries = 0
        for qi, (obj, indices) in enumerate(zip(queries, index_lists)):
            indices = np.asarray(indices, dtype=np.int64)
            if indices.size == 0:
                continue
            if indices.min() < self.start or indices.max() >= self.stop:
                raise RemoteProtocolError(
                    f"REFINE candidates fall outside shard "
                    f"{self.shard_index}/{self.n_shards} "
                    f"[{self.start}, {self.stop})"
                )
            values, spent = refine_candidates(refine, obj, indices)
            total_spent += int(spent)
            entries += 1
            self.served_refine += 1
            self._send(
                conn,
                FrameType.REFINE_ENTRIES,
                {
                    "query": qi,
                    "indices": indices,
                    "values": np.asarray(values, dtype=float),
                    "spent": int(spent),
                },
            )
        self._send(
            conn,
            FrameType.REFINE_DONE,
            {"n_entries": entries, "spent": total_spent},
        )

    def _handle_health(self, conn: socket.socket, payload: Dict[str, Any]) -> None:
        self._send(
            conn,
            FrameType.HEALTH_RESULT,
            {
                "shard_index": self.shard_index,
                "served_filter": self.served_filter,
                "served_refine": self.served_refine,
                "connections": self.connections,
                "store_pairs": len(self.index.context.store),
                "distance_evaluations": int(self.index.distance_evaluations),
            },
        )

    def _handle_frame(
        self, conn: socket.socket, frame_type: FrameType, payload: Dict[str, Any]
    ) -> None:
        if frame_type == FrameType.HELLO:
            self._handle_hello(conn, payload)
        elif frame_type == FrameType.FILTER:
            self._handle_filter(conn, payload)
        elif frame_type == FrameType.REFINE:
            self._handle_refine(conn, payload)
        elif frame_type == FrameType.HEALTH:
            self._handle_health(conn, payload)
        elif frame_type == FrameType.SHUTDOWN:
            self._send(conn, FrameType.SHUTDOWN_OK, {"shard_index": self.shard_index})
            raise _Shutdown
        else:
            raise RemoteProtocolError(
                f"unexpected {frame_type.name} frame on a shard server"
            )

    # -- connection / accept loops ---------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(self.frame_timeout)
        self.connections += 1
        while True:
            try:
                frame_type, payload, _ = protocol.recv_frame(conn)
            except (RemoteConnectionError, RemoteTimeout):
                # The client went away (or stalled past the deadline);
                # drop the connection and wait for a reconnect.
                return
            except RemoteProtocolError as exc:
                # Garbage on the wire: tell the peer (best effort), then
                # drop — resynchronising a corrupt byte stream is not
                # possible with length-prefixed frames.
                try:
                    self._send(
                        conn,
                        FrameType.ERROR,
                        {"error": type(exc).__name__, "message": str(exc)},
                    )
                except RemoteError:
                    # repro-lint: disable=RP003 -- best-effort goodbye on an already-broken connection
                    pass
                return
            try:
                self._handle_frame(conn, frame_type, payload)
            except (_Shutdown, _DropConnection):
                raise
            except (RemoteConnectionError, RemoteTimeout):
                return
            except ReproError as exc:
                # A typed library error (bad request, shard mismatch, ...)
                # is an answer, not a crash: report it and keep serving.
                self._send(
                    conn,
                    FrameType.ERROR,
                    {"error": type(exc).__name__, "message": str(exc)},
                )

    def serve_forever(self) -> None:
        """Accept and serve connections until SHUTDOWN (or interrupt)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.settimeout(_ACCEPT_POLL_SECONDS)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(2)
            self.port = int(listener.getsockname()[1])
            # Machine-read readiness handshake: the cluster harness parses
            # this line to learn the OS-chosen port.
            print(  # repro-lint: disable=RP009 -- machine-read readiness line for the cluster harness
                f"READY host={self.host} port={self.port} "
                f"shard={self.shard_index}/{self.n_shards}",
                flush=True,
            )
            while not self._stop:
                try:
                    conn, _addr = listener.accept()
                except TimeoutError:  # repro-lint: disable=RP011 -- accept poll: the stop-flag check cadence
                    continue
                except OSError as exc:
                    raise RemoteConnectionError(
                        f"shard server accept failed: {exc}"
                    ) from exc
                try:
                    self._serve_connection(conn)
                except _Shutdown:
                    self._stop = True
                except _DropConnection:
                    pass
                finally:
                    try:
                        conn.close()
                    except OSError:  # repro-lint: disable=RP011 -- double-close guard on a dead socket
                        pass
        finally:
            listener.close()


def _load_database(path: Path) -> Any:
    """Unpickle the database the cluster harness wrote next to the artifact."""
    return artifacts.read_pickle(path, "shard server database")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (see the module docstring for the invocation)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.remote.shard_server",
        description="Serve one shard of a saved EmbeddingIndex artifact.",
    )
    parser.add_argument("artifact", help="artifact directory written by save()")
    parser.add_argument(
        "--shard", required=True, help="shard claim, e.g. 1/4 or 1/4:25-50"
    )
    parser.add_argument(
        "--database",
        required=True,
        help="pickle of the Dataset the artifact was built over",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-connection socket timeout in seconds",
    )
    parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="load the distance store eagerly instead of memory-mapping it",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="JSON FaultPlan frame-fault payload (chaos testing)",
    )
    args = parser.parse_args(argv)

    faults = None
    if args.faults:
        try:
            faults = FaultPlan(**json.loads(args.faults))
        except (TypeError, ValueError) as exc:
            parser.error(f"bad --faults payload: {exc}")
    database = _load_database(Path(args.database))
    index = EmbeddingIndex.open(
        Path(args.artifact),
        database,
        shard=args.shard,
        store_mmap_mode=None if args.no_mmap else "r",
    )
    server = ShardServer(
        index,
        host=args.host,
        port=args.port,
        frame_timeout=args.timeout,
        faults=faults,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        index.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
