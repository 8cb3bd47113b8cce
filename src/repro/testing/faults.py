"""Deterministic fault injection for the serving stack.

The chaos suite (``tests/test_fault_tolerance.py``) needs to kill workers,
delay replies, and corrupt payloads *mid-batch*, reproducibly, without
monkeypatching pool internals.  The seam is
:attr:`~repro.index.pool.PersistentPool.faults`: when set to a
:class:`FaultPlan`, every task the pool submits is wrapped in a
:class:`FaultyTask` that consults the plan on the worker side before and
after running the real task.

Workers coordinate through the pool's manager dict (the one channel that
already exists): a global chunk counter and fired-once flags live under
string keys — state payloads are keyed by integer id, so the namespaces
cannot collide.  The counter survives worker respawns because the manager
process does, which is exactly what makes "kill the worker handling chunk
N, once" deterministic across the recovery.

File-level faults (:func:`truncate_file`, :func:`flip_byte`) corrupt saved
artifacts in place for the artifact-hardening tests; they operate on real
files produced by real ``save`` calls, not synthetic fixtures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["FaultPlan", "FaultyTask", "truncate_file", "flip_byte"]

#: Manager-dict keys for cross-worker fault coordination.  String keys:
#: the pool's state payloads use integer ids, so these can never collide.
_CHUNK_COUNTER_KEY = "__fault_chunk_counter__"
_KILL_FIRED_KEY = "__fault_kill_fired__"
_CORRUPT_FIRED_KEY = "__fault_corrupt_fired__"


def _worker_proxy() -> Any:
    """The manager-dict proxy installed in this worker process."""
    from repro.index import pool as pool_module

    return pool_module._WORKER_PROXY


def _next_chunk(proxy: Any) -> int:
    """Advance and return the global 1-based chunk sequence number."""
    count = proxy.get(_CHUNK_COUNTER_KEY, 0) + 1
    proxy[_CHUNK_COUNTER_KEY] = count
    return count


def _claim(proxy: Any, key: str) -> bool:
    """Fire-once latch: ``True`` for exactly the first claimant (best effort)."""
    if proxy.get(key):
        return False
    proxy[key] = True
    return True


def _corrupt_reply(reply: Any) -> Any:
    """Damage a reply payload the way a torn pipe read would.

    Refine replies are ``[(key, ndarray), ...]``: the first array loses its
    last element, so the parent's length validation must catch it.  Other
    list payloads lose their last entry; anything else is replaced by
    ``None``.  Every shape is detectably wrong — corruption must never
    masquerade as a valid result.
    """
    if isinstance(reply, list) and reply:
        head = reply[0]
        if isinstance(head, tuple) and len(head) == 2:
            key, values = head
            return [(key, values[:-1])] + list(reply[1:])
        return list(reply[:-1])
    return None


@dataclass
class FaultPlan:
    """A deterministic schedule of injected failures for one pool.

    Parameters
    ----------
    kill_after_chunks:
        Kill the worker process about to run the Nth chunk (1-based,
        counted across all workers and submissions via the manager), by
        ``os._exit`` — the abrupt death that breaks a
        ``ProcessPoolExecutor``.  Fires once unless ``kill_every_time``.
    delay_seconds:
        Sleep this long before running every chunk, to widen race windows
        (cancel-vs-completion, deadline expiry) without flaky sleeps in
        tests.
    corrupt_chunk:
        Corrupt the *reply* of the Nth chunk (1-based, fires once) — the
        chunk computes normally, then its payload is damaged on the way
        out, modelling a torn reply rather than a crashed worker.
    """

    kill_after_chunks: Optional[int] = None
    kill_every_time: bool = False
    kill_exit_code: int = 17
    delay_seconds: float = 0.0
    corrupt_chunk: Optional[int] = None

    def wrap(self, task: Callable[[Any, Any], Any]) -> "FaultyTask":
        """The hook :meth:`PersistentPool.submit` calls on every task."""
        return FaultyTask(plan=self, task=task)


@dataclass
class FaultyTask:
    """Picklable wrapper that applies a :class:`FaultPlan` around a task.

    ``task`` must be a module-level callable (the pool already requires
    this), so the wrapper pickles as plan fields plus a reference.
    """

    plan: FaultPlan
    task: Callable[[Any, Any], Any] = field(default=None)  # type: ignore[assignment]

    def __call__(self, state: Any, chunk: Any) -> Any:
        plan = self.plan
        proxy = _worker_proxy()
        sequence = _next_chunk(proxy)
        if plan.delay_seconds:
            time.sleep(plan.delay_seconds)
        if (
            plan.kill_after_chunks is not None
            and sequence >= plan.kill_after_chunks
            and (plan.kill_every_time or _claim(proxy, _KILL_FIRED_KEY))
        ):
            # The real thing, not an exception: an OOM-killed or segfaulted
            # worker gives the parent no goodbye either.
            os._exit(plan.kill_exit_code)
        reply = self.task(state, chunk)
        if (
            plan.corrupt_chunk is not None
            and sequence >= plan.corrupt_chunk
            and _claim(proxy, _CORRUPT_FIRED_KEY)
        ):
            reply = _corrupt_reply(reply)
        return reply


def truncate_file(path, keep_fraction: float = 0.5) -> None:
    """Truncate ``path`` in place to a fraction of its size (a torn write)."""
    path = Path(path)
    size = path.stat().st_size
    with path.open("r+b") as handle:
        handle.truncate(max(1, int(size * keep_fraction)))


def flip_byte(path, offset: int = -1) -> None:
    """XOR one byte of ``path`` in place (bit rot; negative offsets from end)."""
    path = Path(path)
    payload = bytearray(path.read_bytes())
    payload[offset] ^= 0xFF
    path.write_bytes(bytes(payload))
