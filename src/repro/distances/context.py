"""DistanceContext: one stable-keyed, persistable distance layer.

Every cost the paper reports is an exact-distance evaluation, yet the
pipeline stages overlap heavily in *which* pairs they evaluate: the Sec. 7
training tables, the embedding reference/pivot ("anchor") evaluations and
the filter-and-refine candidates all touch the same dataset objects.  A
:class:`DistanceContext` makes that sharing explicit: it owns the base
:class:`~repro.distances.base.DistanceMeasure`, a
:class:`DistanceStore` keyed by **stable dataset indices**, exact
:class:`~repro.distances.base.CountingDistance` accounting, and the
``n_jobs`` pool policy of :mod:`repro.distances.parallel` — so a pair of
objects is evaluated at most once per store lifetime, across training,
embedding and retrieval, and across experiment invocations when the store
is persisted to disk.

Why stable indices (and not ``id()``)
-------------------------------------
A cache keyed by object identity cannot cross a process boundary or an
experiment run: unpickled copies get fresh ids and reused ids can collide
with stale entries.  The context instead keys every cached value by the
object's *index in the context's object universe* — the dataset ordering —
which survives pickling, worker fan-out and disk round-trips.  A content
fingerprint of the universe is recorded with the store, so a store saved
under one dataset ordering refuses to load against a different one.

Lifecycle
---------
1. Build the context over the full object universe (typically
   ``list(database) + list(queries)``)::

       context = DistanceContext(distance, list(database) + list(queries))

2. Optionally merge a previously persisted store
   (:meth:`DistanceContext.load_store`); the fingerprint is verified.
3. Run the pipeline *through the context*: it is itself a
   :class:`~repro.distances.base.DistanceMeasure`, so every component that
   takes a distance (trainers, embeddings, retrievers, matrix builders)
   accepts it unchanged; the table builders, ground-truth scan and
   retrieval pipelines additionally detect a context and use its batched,
   pool-aware primitives (:meth:`pairwise`, :meth:`cross`,
   :meth:`distances_to_many`).
4. Persist the warm store (:meth:`DistanceContext.save_store`) so the next
   invocation starts from the precomputed tables — the paper's
   "preprocessing once" cost model.

Cost accounting
---------------
``context.distance_evaluations`` counts *actual* evaluations of the base
measure; store hits are free.  This models the paper's setting where
precomputed distances are a one-time preprocessing cost.  Every (query,
targets) request takes one path, :meth:`DistanceContext.distances_to_many`:
resolve the request against the store, evaluate only the missing pairs
with one :func:`repro.distances.parallel.parallel_refine` call — in the
parent or in worker processes, which never see the context or its store —
and complete it, storing the fresh values and charging the counters one
evaluation per computed pair.  The async serving layer runs the same
resolve and complete steps (:class:`PendingDistances`) around evaluations
it schedules itself.
The matrix primitives (:meth:`pairwise`, :meth:`cross`) send their misses
through the same fan-out, which charges the counters for them.

Transient requests
------------------
A serving request (one blocking query batch, one calibration, one async
submission up to its resolve) runs inside :meth:`DistanceContext.request`,
which first applies the admission rule (:meth:`DistanceContext.admit`): an
object the universe knows by identity or content keeps its index, and an
unknown one joins the universe on its second sighting (or at once, when
the request holds it twice).  A first sighting stays *transient*: it gets
no universe index and never reaches the store, so its pairs cost no store
traffic and no memory once the request ends.  The request's memo holds the
pairs its transient objects evaluate, so a refine reuses the same
request's embedding-anchor distances and every pair is still computed and
charged once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pickle
import warnings
import zipfile
import zlib
from collections import OrderedDict
from itertools import repeat
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.distances.base import CountingDistance, DistanceMeasure
from repro.distances.parallel import (
    ProgressCallback,
    parallel_refine,
    resolve_jobs,
    split_counting,
)
from repro.exceptions import DistanceError
from repro.utils.io import atomic_replace

__all__ = [
    "DistanceContext",
    "DistanceStore",
    "PendingDistances",
    "object_digest",
    "fingerprint_objects",
]

#: Layout version written into persisted stores.
STORE_FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# Dataset fingerprints                                                        #
# --------------------------------------------------------------------------- #


def object_digest(obj: Any) -> bytes:
    """A deterministic content digest of one dataset object.

    Arrays are hashed by dtype, shape and raw bytes; strings and bytes by
    their encoded content; other objects fall back to a deterministic
    pickle.  The digest is what makes store keys *stable*: two runs that
    build the same dataset in the same order produce the same fingerprint,
    regardless of process or machine.
    """
    hasher = hashlib.sha256()
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        hasher.update(b"ndarray")
        hasher.update(arr.dtype.str.encode())
        hasher.update(repr(arr.shape).encode())
        hasher.update(arr.tobytes())
    elif isinstance(obj, str):
        hasher.update(b"str")
        hasher.update(obj.encode("utf-8"))
    elif isinstance(obj, bytes):
        hasher.update(b"bytes")
        hasher.update(obj)
    elif isinstance(obj, (int, float, bool, complex)) or obj is None:
        hasher.update(b"scalar")
        hasher.update(repr(obj).encode())
    elif isinstance(obj, (tuple, list)):
        hasher.update(b"sequence")
        for item in obj:
            hasher.update(object_digest(item))
    else:
        hasher.update(b"pickle")
        hasher.update(pickle.dumps(obj, protocol=4))
    return hasher.digest()


def fingerprint_objects(objects: Iterable[Any]) -> str:
    """Hex fingerprint of an object sequence (content **and** ordering)."""
    return _combine_digests([object_digest(obj) for obj in objects])


def _combine_digests(digests: Sequence[bytes]) -> str:
    hasher = hashlib.sha256()
    hasher.update(str(len(digests)).encode())
    for digest in digests:
        hasher.update(digest)
    return hasher.hexdigest()


def _mmap_npz_member(path: Path, name: str, mmap_mode: str) -> Optional[np.ndarray]:
    """Memory-map one array member of an *uncompressed* ``.npz`` archive.

    ``np.load(..., mmap_mode=...)`` silently ignores the mode for ``.npz``
    files, so this locates the member's raw ``.npy`` payload inside the zip
    (only possible for ``ZIP_STORED`` members — a store saved with
    ``compress=False``) and maps it directly.  Returns ``None`` whenever
    mapping is not possible (compressed member, exotic npy header), letting
    the caller fall back to an eager read.
    """
    member_name = name + ".npy"
    try:
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member_name)
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            with archive.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
                else:
                    return None
                header_size = member.tell()
        if dtype.hasobject:
            return None
        # The zip local file header is 30 fixed bytes plus the (possibly
        # re-encoded) file name and extra field; read the lengths from the
        # header itself rather than trusting the central directory.
        with open(path, "rb") as handle:
            handle.seek(info.header_offset)
            local_header = handle.read(30)
        if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
            return None
        name_length = int.from_bytes(local_header[26:28], "little")
        extra_length = int.from_bytes(local_header[28:30], "little")
        offset = info.header_offset + 30 + name_length + extra_length + header_size
        return np.memmap(
            path,
            dtype=dtype,
            mode=mmap_mode,
            offset=offset,
            shape=shape,
            order="F" if fortran else "C",
        )
    # repro-lint: disable=RP003 -- mmap fast-path probe: None falls back to np.load, which raises typed
    except (KeyError, OSError, ValueError):
        return None


# --------------------------------------------------------------------------- #
# The store                                                                   #
# --------------------------------------------------------------------------- #


def _position_map(indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted indices, original positions)`` for vectorised lookups."""
    order = np.argsort(indices, kind="stable")
    return indices[order], order


def _first_occurrences(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(first, slot)`` over the distinct entries of ``values``.

    ``first`` holds the position where each distinct entry first appears,
    in order of appearance, and ``slot`` each position's rank among them,
    so that ``values == values[first][slot]``.
    """
    if len(set(values.tolist())) == values.size:
        # A request's misses are almost always distinct; skipping the sort
        # saves about 8% of a DTW database embedding's time.
        return np.arange(values.size), np.arange(values.size)
    _unique, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    return first[order], slot[inverse]


def _positions(sorted_indices: np.ndarray, order: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position of each ``query`` index in the mapped array, or ``-1``.

    A repeated index resolves to its last occurrence, as a dict built over
    the array would.
    """
    if not sorted_indices.size:
        return np.full(query.shape, -1, dtype=np.intp)
    p = np.searchsorted(sorted_indices, query, side="right") - 1
    np.maximum(p, 0, out=p)
    return np.where(sorted_indices[p] == query, order[p], -1)


class _DenseBlock:
    """Array-backed rectangle of cached distances.

    Holds the values for every ``(row_index, col_index)`` pair of two index
    sets — the natural shape of the Sec. 7 training tables and the
    ground-truth query-by-database matrix.  A request's pairs are looked up
    at once, by binary search over the sorted row and column indices.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        diagonal_valid: bool = True,
    ) -> None:
        self.rows = np.asarray(rows, dtype=int)
        self.cols = np.asarray(cols, dtype=int)
        # Preserve reduced-precision float blocks (and the memmap backing of
        # blocks loaded with mmap_mode): a float32 table must not silently
        # double its memory by upcasting to float64 on (re)open.
        # Non-float inputs still normalise to float64.
        values_arr = np.asarray(values)
        if not np.issubdtype(values_arr.dtype, np.floating):
            values_arr = np.asarray(values_arr, dtype=float)
        self.values = values_arr
        if self.values.shape != (self.rows.size, self.cols.size):
            raise DistanceError(
                f"block values must have shape ({self.rows.size}, "
                f"{self.cols.size}), got {self.values.shape}"
            )
        #: ``False`` for symmetric pairwise tables whose diagonal was never
        #: actually evaluated (it is zero by convention, not by computation).
        self.diagonal_valid = bool(diagonal_valid)
        #: Every index the block holds as a row or a column: a request whose
        #: query is not here skips the block after one probe.
        self.members = frozenset(self.rows.tolist()) | frozenset(self.cols.tolist())
        self._rows_sorted, self._row_order = _position_map(self.rows)
        self._cols_sorted, self._col_order = _position_map(self.cols)

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(found, values)`` for the pairs ``(rows[k], cols[k])``.

        ``values`` holds one value per found pair, in pair order.
        """
        p = _positions(self._rows_sorted, self._row_order, rows)
        q = _positions(self._cols_sorted, self._col_order, cols)
        found = (p >= 0) & (q >= 0)
        if not self.diagonal_valid:
            found &= rows != cols
        return found, self.values[p[found], q[found]]

    @property
    def n_entries(self) -> int:
        total = self.rows.size * self.cols.size
        if not self.diagonal_valid:
            total -= np.intersect1d(self.rows, self.cols).size
        return total


#: Largest universe index a store key can hold: a pair packs into one int64.
MAX_STORE_INDEX = 2**31 - 1
_LOW_WORD = (1 << 32) - 1
_NO_INDICES = np.empty(0, dtype=np.intp)
_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)
#: Sorted-tier positions in recency order; int32 holds any store that fits
#: in memory and costs 4 of the 20 bytes a sorted-tier entry takes.
_NO_LRU = np.empty(0, dtype=np.int32)


class DistanceStore:
    """Persistable cache of exact distances keyed by stable dataset indices.

    Two backings are combined: *dense blocks* (`numpy` rectangles — the
    training tables and ground-truth matrices) and *sparse entries* for the
    scattered pairs produced by embedding anchors and refine candidates.

    A request is one :meth:`get_many` and one :meth:`put_many` call.  A
    sparse pair is one int64 key, the larger index (for a symmetric store;
    the first index otherwise) in the high 32 bits.  A novel query has the
    largest index in the universe, so its pairs form one contiguous key
    range.  Keys live in two tiers: a sorted ``int64`` key array with a
    parallel ``float64`` value array, searched within the request's key
    range, and a small dict (the write tier) that absorbs puts and is
    merged into the sorted arrays when it reaches
    :attr:`WRITE_TIER_FRACTION` of their size, so a merge copies a
    constant multiple of the entries it adds.  Re-putting a key replaces
    its value.  Universe indices must lie in ``[0, 2**31)``.

    Parameters
    ----------
    symmetric:
        If ``True`` (default) a value stored for ``(i, j)`` also answers
        ``(j, i)``.  Must be ``False`` for asymmetric measures (KL
        divergence, directed chamfer) or the store would silently return
        the wrong direction.
    fingerprint:
        Hex fingerprint of the object universe the indices refer to; stores
        with mismatched fingerprints refuse to merge or load.  A context
        ties the store to its universe with :meth:`bind_universe`, after
        which the fingerprint is derived from the universe when read.
    max_sparse_entries:
        Optional bound on the number of *sparse* entries.  When set, the
        sparse entries behave as an LRU: a :meth:`get` hit refreshes the
        entry, a :meth:`put` beyond the bound evicts the least recently
        used pairs (:attr:`sparse_evictions` counts them).  Dense array
        blocks are never evicted — they are the shape of the training
        tables and ground-truth matrices whose reuse is the point of the
        store; the bound targets the scattered refine/anchor pairs that
        otherwise grow without limit over a serving lifetime.  Evicting a
        pair only costs a potential re-evaluation later; results stay
        identical.  Within one :meth:`DistanceContext.distances_to_many`
        call an evicted pair is never evaluated twice (a later request
        reads it from the request that computed it), so a batch's costs do
        not depend on ``n_jobs``; a later call, or an async ticket
        resolved after the pair's owner completed, evaluates it again.
        Recency is kept as the sorted tier's order of use at its last merge
        followed by the write tier's insertion order: a hit in the sorted
        tier moves the pair into the write tier, and eviction takes the
        sorted tier in that order before the write tier.  An unbounded
        store keeps first-insertion order, which a bound set later evicts
        by.
    """

    #: The write tier is merged into the sorted tier once it holds this
    #: fraction of the sorted tier's entries, and at least
    #: :attr:`WRITE_TIER_MIN` of them.
    WRITE_TIER_FRACTION = 0.25
    WRITE_TIER_MIN = 1024

    def __init__(
        self,
        symmetric: bool = True,
        fingerprint: Optional[str] = None,
        max_sparse_entries: Optional[int] = None,
    ) -> None:
        self.symmetric = bool(symmetric)
        self._fingerprint = fingerprint
        # Digests of the universe the indices refer to (see bind_universe).
        self._universe: Optional[List[bytes]] = None
        self._universe_hashed = 0
        self._blocks: List[_DenseBlock] = []
        # Sorted tier: unique keys in ascending order, with their values.
        self._keys = _NO_KEYS
        self._values = _NO_VALUES
        # Sorted-tier positions from least to most recently used; the
        # entries before _lru_start are all dead.
        self._lru = _NO_LRU
        self._lru_start = 0
        # Dead entries (evicted, or moved to the write tier by a bounded
        # hit) stay in the arrays until the next merge.  None: all live.
        self._live: Optional[np.ndarray] = None
        self._n_dead = 0
        # Write tier: key -> value, least recently used first; it never
        # holds a key that is live in the sorted tier.
        self._recent: Dict[int, float] = {}
        #: Sparse entries dropped by the LRU bound so far.
        self.sparse_evictions = 0
        self._max_sparse_entries: Optional[int] = None
        self.max_sparse_entries = max_sparse_entries

    # -- fingerprint ----------------------------------------------------

    @property
    def fingerprint(self) -> Optional[str]:
        """Hex fingerprint of the object universe (``None`` = unknown)."""
        universe = self._universe
        if universe is not None and len(universe) != self._universe_hashed:
            self._fingerprint = _combine_digests(universe)
            self._universe_hashed = len(universe)
        return self._fingerprint

    @fingerprint.setter
    def fingerprint(self, value: Optional[str]) -> None:
        self._fingerprint = value

    def bind_universe(self, digests: List[bytes]) -> None:
        """Tie the store to the universe whose object digests are ``digests``.

        The caller appends to ``digests`` as objects join the universe.  The
        fingerprint is derived from them when read, and re-derived only
        after they grew, so registering an object costs no rehash of the
        universe.  A store with no fingerprint adopts the universe's; a
        store built for another universe raises :class:`DistanceError`.
        """
        fingerprint = _combine_digests(digests)
        if self.fingerprint is not None and self.fingerprint != fingerprint:
            raise DistanceError(
                "the supplied store was built for a different object "
                "universe (dataset fingerprint mismatch)"
            )
        self._fingerprint = fingerprint
        self._universe = digests
        self._universe_hashed = len(digests)

    # -- sparse bound ---------------------------------------------------

    @property
    def max_sparse_entries(self) -> Optional[int]:
        """The sparse-entry bound (``None`` = unbounded)."""
        return self._max_sparse_entries

    @max_sparse_entries.setter
    def max_sparse_entries(self, bound: Optional[int]) -> None:
        if bound is not None:
            bound = int(bound)
            if bound < 1:
                raise DistanceError(
                    f"max_sparse_entries must be a positive integer, got {bound}"
                )
        self._max_sparse_entries = bound
        self._evict_over_bound()

    @property
    def n_sparse_entries(self) -> int:
        """Current number of sparse entries (excludes dense-block cells)."""
        return self._keys.size - self._n_dead + len(self._recent)

    def _evict_over_bound(self) -> None:
        bound = self._max_sparse_entries
        if bound is None:
            return
        excess = self.n_sparse_entries - bound
        while excess > 0:
            if self._n_dead == self._keys.size:
                # Only the write tier is live: merge it, in recency order.
                self._merge_tiers()
            # The next ``excess`` recency positions hold at most ``excess``
            # live entries, the least recently used ones.
            start = self._lru_start
            victims = self._lru[start:start + excess]
            self._lru_start = start + victims.size
            if self._live is None:
                self._live = np.ones(self._keys.size, dtype=bool)
            else:
                victims = victims[self._live[victims]]
            self._live[victims] = False
            self._n_dead += victims.size
            self.sparse_evictions += victims.size
            excess -= victims.size

    # -- keys -----------------------------------------------------------

    def _pack(self, i: Any, js: Any) -> np.ndarray:
        """Keys of the pairs ``(i, js[k])``; ``i`` is one index or one per pair."""
        rows = np.asarray(i, dtype=np.int64)
        cols = np.asarray(js, dtype=np.int64)
        if self.symmetric:
            rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        if np.count_nonzero((rows | cols) >> 31):
            raise DistanceError(
                f"store indices must lie in [0, {MAX_STORE_INDEX}]"
            )
        return (rows << 32) | cols

    def _find(self, keys: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(positions, found)`` of ``keys`` among the live sorted-tier keys.

        Only the slice of the sorted tier between the smallest and the
        largest requested key is searched; ``None`` when that slice is
        empty.
        """
        stored = self._keys
        if not keys.size or not stored.size:
            return None
        lo, hi = stored.searchsorted((keys.min(), keys.max() + 1))
        if lo == hi:
            return None
        window = stored[lo:hi]
        positions = window.searchsorted(keys)
        np.minimum(positions, window.size - 1, out=positions)
        found = window[positions] == keys
        positions += lo
        if self._live is not None:
            found &= self._live[positions]
        return positions, found

    def _kill(self, position: int) -> None:
        """Mark one sorted-tier entry dead (evicted, or moved to the write tier)."""
        if self._live is None:
            self._live = np.ones(self._keys.size, dtype=bool)
        self._live[position] = False
        self._n_dead += 1

    # -- lookup / insert ------------------------------------------------

    def get_many(self, i: Any, js: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Cached distances for the pairs ``(i, js[k])``: ``(values, hit)``.

        ``i`` is one index or one index per pair.  ``values[k]`` is
        meaningful where ``hit[k]``.  Dense blocks answer first; a bounded
        store refreshes every sparse hit, in request order.
        """
        js = np.asarray(js, dtype=np.int64)
        keys = self._pack(i, js)
        values = np.zeros(js.shape, dtype=float)
        hit = np.zeros(js.shape, dtype=bool)
        block_hit = None
        if self._blocks:
            self._read_blocks(np.asarray(i, dtype=np.int64), js, values, hit)
            if np.count_nonzero(hit):
                block_hit = hit.copy()
        recent = self._recent
        if recent:
            key_list = keys.tolist()
            in_recent = np.fromiter(
                map(recent.__contains__, key_list), dtype=bool, count=len(key_list)
            )
            if block_hit is not None:
                in_recent &= ~block_hit
            if np.count_nonzero(in_recent):
                values[in_recent] = np.fromiter(
                    map(recent.get, key_list, repeat(0.0)), dtype=float, count=len(key_list)
                )[in_recent]
                hit |= in_recent
        sorted_positions = np.full(keys.shape, -1, dtype=np.intp)
        located = self._find(keys)
        if located is not None:
            positions, in_sorted = located
            in_sorted &= ~hit
            if np.count_nonzero(in_sorted):
                sorted_positions[in_sorted] = positions[in_sorted]
                values[in_sorted] = self._values[sorted_positions[in_sorted]]
                hit |= in_sorted
        if self._max_sparse_entries is not None:
            touched = hit if block_hit is None else hit & ~block_hit
            if np.count_nonzero(touched):
                self._touch(keys[touched], values[touched], sorted_positions[touched])
        return values, hit

    def _read_blocks(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, hit: np.ndarray
    ) -> None:
        """Fill ``values``/``hit`` for the pairs the dense blocks hold.

        Blocks answer in insertion order; within a block a symmetric store
        tries ``(i, j)`` before ``(j, i)``.
        """
        blocks = self._blocks
        if rows.ndim == 0:
            query = int(rows)
            blocks = [block for block in blocks if query in block.members]
            if not blocks:
                return
        rows = np.broadcast_to(rows, cols.shape)
        orientations = ((rows, cols), (cols, rows)) if self.symmetric else ((rows, cols),)
        for block in blocks:
            for a, b in orientations:
                open_positions = np.flatnonzero(~hit)
                if not open_positions.size:
                    return
                found, block_values = block.lookup(a[open_positions], b[open_positions])
                filled = open_positions[found]
                values[filled] = block_values
                hit[filled] = True

    def _touch(self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray) -> None:
        """Make sparse hits the most recently used entries, in order.

        ``positions`` holds each hit's sorted-tier position, ``-1`` for a
        write-tier hit.
        """
        recent = self._recent
        for key, value, position in zip(keys.tolist(), values.tolist(), positions.tolist()):
            if key in recent:
                recent[key] = recent.pop(key)
            else:
                self._kill(position)
                recent[key] = value
        self._maybe_merge()

    def put_many(self, i: Any, js: Sequence[int], values: Sequence[float]) -> None:
        """Record evaluated pairs ``(i, js[k])`` (sparse backing).

        Equivalent to one :meth:`put` per pair, in order: a re-put replaces
        the value, and in a bounded store it also refreshes the pair.
        """
        keys = self._pack(i, js)
        values = np.asarray(values, dtype=float)
        if values.shape != keys.shape:
            raise DistanceError(
                f"put_many needs one value per pair, got {values.shape} for {keys.shape}"
            )
        if self._max_sparse_entries is None:
            self._write(keys, values)
        else:
            # One sorted-tier lookup per request: an entry the loop evicts
            # or moves reads dead in ``_live``, and a merge during eviction
            # rebuilds the sorted tier, which redoes the lookup.
            searched = located = None
            for k, (key, value) in enumerate(zip(keys.tolist(), values.tolist())):
                if self._recent.pop(key, None) is None:
                    if self._keys is not searched:
                        searched, located = self._keys, self._find(keys)
                    if located is not None and located[1][k]:
                        position = int(located[0][k])
                        if self._live is None or self._live[position]:
                            self._kill(position)
                self._recent[key] = value
                self._evict_over_bound()
        self._maybe_merge()

    def get(self, i: int, j: int) -> Optional[float]:
        """Cached distance for the index pair, or ``None``."""
        values, hit = self.get_many(i, (j,))
        return float(values[0]) if hit[0] else None

    def put(self, i: int, j: int, value: float) -> None:
        """Record one evaluated pair (sparse backing)."""
        self.put_many(i, (j,), (value,))

    def _write(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Set values without changing recency: a live sorted-tier key in
        place, any other key in the write tier (appended if new)."""
        located = self._find(keys)
        if located is not None and np.count_nonzero(located[1]):
            positions, found = located
            for position, value in zip(positions[found].tolist(), values[found].tolist()):
                self._values[position] = value
            keys, values = keys[~found], values[~found]
        self._recent.update(zip(keys.tolist(), values.tolist()))

    def _maybe_merge(self) -> None:
        threshold = max(self.WRITE_TIER_MIN, self.WRITE_TIER_FRACTION * self._keys.size)
        if len(self._recent) >= threshold:
            self._merge_tiers()

    def _entries(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every live sparse ``(keys, values)``, least recently used first."""
        order = self._lru[self._lru_start:]
        if self._live is not None:
            order = order[self._live[order]]
        recent = self._recent
        keys = np.concatenate(
            (self._keys[order], np.fromiter(recent, dtype=np.int64, count=len(recent)))
        )
        values = np.concatenate(
            (
                self._values[order],
                np.fromiter(recent.values(), dtype=np.float64, count=len(recent)),
            )
        )
        return keys, values

    def _merge_tiers(self) -> None:
        """Fold the write tier into the sorted tier and drop dead entries."""
        self._set_sorted(*self._entries())

    def _set_sorted(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Make ``(keys, values)``, given least recently used first, the
        whole sparse store."""
        # Release the old tiers before the new arrays are allocated.
        self._recent = {}
        self._keys, self._values, self._lru, self._live = _NO_KEYS, _NO_VALUES, _NO_LRU, None
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._values = values[order]
        lru = np.empty(order.size, dtype=_NO_LRU.dtype)
        lru[order] = np.arange(order.size, dtype=_NO_LRU.dtype)
        self._lru = lru
        self._lru_start = 0
        self._n_dead = 0

    def put_block(
        self,
        rows: Sequence[int],
        cols: Sequence[int],
        values: np.ndarray,
        diagonal_valid: bool = True,
    ) -> None:
        """Record a dense rectangle of evaluated pairs (array backing)."""
        self._blocks.append(
            _DenseBlock(
                np.asarray(rows, dtype=int),
                np.asarray(cols, dtype=int),
                values,  # _DenseBlock preserves float dtypes (float32 stays)
                diagonal_valid=diagonal_valid,
            )
        )

    def __len__(self) -> int:
        """Number of addressable cached pairs (block cells + sparse entries)."""
        return sum(block.n_entries for block in self._blocks) + self.n_sparse_entries

    # -- merge ----------------------------------------------------------

    def merge(self, other: "DistanceStore") -> None:
        """Absorb another (partial) store built over the same universe.

        Used to combine stores persisted at different pipeline stages and
        to fold a loaded store into a live context.  Fingerprints (when
        both known) and the symmetry flag must match.  The other store's
        sparse entries are written in its recency order; a pair both hold
        takes the other's value and keeps its place here.
        """
        if not isinstance(other, DistanceStore):
            raise DistanceError("can only merge another DistanceStore")
        if self.symmetric != other.symmetric:
            raise DistanceError(
                "cannot merge stores with different symmetry conventions"
            )
        if (
            self.fingerprint is not None
            and other.fingerprint is not None
            and self.fingerprint != other.fingerprint
        ):
            raise DistanceError(
                "cannot merge stores with different dataset fingerprints: "
                "their indices refer to different object universes"
            )
        self._blocks.extend(other._blocks)
        if self.n_sparse_entries:
            self._write(*other._entries())
            self._maybe_merge()
        else:
            self._set_sorted(*other._entries())
        self._evict_over_bound()
        if self.fingerprint is None:
            self.fingerprint = other.fingerprint

    # -- persistence ----------------------------------------------------

    def save(self, path, compress: bool = True) -> None:
        """Persist the store to a ``.npz`` file (bit-exact round trip).

        The write is atomic: the payload goes to a temporary sibling file
        which is then renamed over ``path``, so a crash mid-save can never
        leave a truncated store behind (and an existing store file survives
        a failed save untouched).

        ``compress=False`` stores the arrays uncompressed (``ZIP_STORED``),
        which is what makes :meth:`load`'s ``mmap_mode`` able to map the
        dense blocks straight off disk; paper-scale ground-truth tables
        then page in on demand instead of being materialized up front.
        A memory-mapped source block is read (copied) like any array here,
        so re-saving a store loaded with ``mmap_mode`` materializes it.

        Sparse entries are written as ``sparse_i``/``sparse_j``/
        ``sparse_values`` arrays sorted by ``(i, j)``, with ``i <= j`` in a
        symmetric store.
        """
        path = Path(path)
        meta = {
            "version": STORE_FORMAT_VERSION,
            "symmetric": self.symmetric,
            "fingerprint": self.fingerprint,
            "n_blocks": len(self._blocks),
        }
        payload: Dict[str, np.ndarray] = {
            "meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ).copy()
        }
        for k, block in enumerate(self._blocks):
            payload[f"block{k}_rows"] = block.rows
            payload[f"block{k}_cols"] = block.cols
            payload[f"block{k}_values"] = block.values
            payload[f"block{k}_diagonal_valid"] = np.array(block.diagonal_valid)
        keys, values = self._entries()
        if keys.size:
            high, low = keys >> 32, keys & _LOW_WORD
            first, second = (low, high) if self.symmetric else (high, low)
            order = np.lexsort((second, first))
            payload["sparse_i"] = first[order].astype(int)
            payload["sparse_j"] = second[order].astype(int)
            payload["sparse_values"] = values[order]
        # Write through a file handle: np.savez_compressed given a *path*
        # silently appends ".npz" to suffix-less names, which would make
        # save/load disagree about where the store lives.
        writer = np.savez_compressed if compress else np.savez
        with atomic_replace(path) as tmp_path:
            with open(tmp_path, "wb") as handle:
                writer(handle, **payload)

    @classmethod
    def load(
        cls,
        path,
        expected_fingerprint: Optional[str] = None,
        mmap_mode: Optional[str] = None,
    ) -> "DistanceStore":
        """Load a persisted store, verifying the dataset fingerprint.

        Raises :class:`~repro.exceptions.DistanceError` when the file's
        fingerprint differs from ``expected_fingerprint`` — loading a store
        against a reordered or different dataset would silently return
        distances for the wrong pairs.

        With ``mmap_mode`` (``"r"`` being the sensible choice) the *dense
        block values* are memory-mapped instead of read into RAM, so a
        paper-scale store (e.g. a 60k x 10k ground-truth table) opens
        instantly and pages in on demand.  Only stores saved with
        ``compress=False`` can be mapped; compressed blocks fall back to an
        eager read with a :class:`RuntimeWarning`.  Rows, columns and the
        sparse entries are always loaded eagerly (they are small).

        Caveats of a mapped store:

        * the mapping is **read-only** — dense blocks are never mutated or
          evicted, so this matches the store's semantics, but anything
          that persists the store again (e.g. ``save``) copies the mapped
          pages into RAM first (copy-on-write at the numpy level);
        * replacing the file on disk (the atomic ``save`` renames over it)
          leaves live mappings attached to the *old* file's data — safe on
          POSIX (the inode survives until unmapped), but the old file's
          disk space is not reclaimed until the store is dropped.
        """
        path = Path(path)
        if not path.is_file():
            raise DistanceError(f"no distance store at {path}")
        try:
            store = cls._load_payload(path, expected_fingerprint, mmap_mode)
        except DistanceError:
            raise
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
            # A truncated or bit-flipped file must surface as a typed error
            # naming the file, never a raw zipfile/zlib/numpy traceback
            # (BadZipFile and zlib.error are not OSError/ValueError).
            raise DistanceError(
                f"unreadable distance store {path} (truncated or corrupt): {exc}"
            ) from exc
        return store

    @classmethod
    def _load_payload(
        cls,
        path: Path,
        expected_fingerprint: Optional[str],
        mmap_mode: Optional[str],
    ) -> "DistanceStore":
        with np.load(path) as payload:
            try:
                meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
            except (KeyError, ValueError) as exc:
                raise DistanceError(f"unreadable distance store {path}") from exc
            if meta.get("version") != STORE_FORMAT_VERSION:
                raise DistanceError(
                    f"distance store {path} has layout version "
                    f"{meta.get('version')!r}; this build reads version "
                    f"{STORE_FORMAT_VERSION}"
                )
            fingerprint = meta.get("fingerprint")
            if (
                expected_fingerprint is not None
                and fingerprint != expected_fingerprint
            ):
                raise DistanceError(
                    f"distance store {path} was saved for a different dataset "
                    f"(fingerprint {fingerprint!r} != expected "
                    f"{expected_fingerprint!r}); its stable indices do not "
                    "refer to the current objects, so loading it would return "
                    "distances for the wrong pairs"
                )
            store = cls(symmetric=bool(meta["symmetric"]), fingerprint=fingerprint)
            mmap_failed = False
            for k in range(int(meta.get("n_blocks", 0))):
                values: Optional[np.ndarray] = None
                if mmap_mode is not None:
                    values = _mmap_npz_member(path, f"block{k}_values", mmap_mode)
                    if values is None:
                        mmap_failed = True
                if values is None:
                    values = payload[f"block{k}_values"]
                store._blocks.append(
                    _DenseBlock(
                        payload[f"block{k}_rows"],
                        payload[f"block{k}_cols"],
                        values,
                        diagonal_valid=bool(payload[f"block{k}_diagonal_valid"]),
                    )
                )
            if mmap_failed:
                warnings.warn(
                    f"distance store {path} holds compressed (or unmappable) "
                    "dense blocks; mmap_mode was ignored for them. Save the "
                    "store with compress=False to page blocks in on demand.",
                    RuntimeWarning,
                    stacklevel=2,
                )
            if "sparse_i" in payload:
                keys = store._pack(payload["sparse_i"], payload["sparse_j"])
                values = np.asarray(payload["sparse_values"], dtype=np.float64)
                if keys.shape != values.shape:
                    raise DistanceError(
                        f"distance store {path} has {keys.size} sparse pairs "
                        f"but {values.size} values"
                    )
                store._set_sorted(keys, values)
                if np.any(store._keys[1:] == store._keys[:-1]):
                    raise DistanceError(f"distance store {path} holds a pair twice")
        return store


# --------------------------------------------------------------------------- #
# Pending resolutions (the steps of distances_to_many)                        #
# --------------------------------------------------------------------------- #


class PendingDistances:
    """One in-flight (query, targets) request between resolve and complete.

    :meth:`DistanceContext.resolve_distances` resolves the store hits of a
    request in the parent with one :meth:`DistanceStore.get_many` call and
    records the *missing* pairs here as arrays; the caller evaluates those
    pairs wherever it likes and then calls
    :meth:`DistanceContext.complete_distances` to store the fresh values
    (one :meth:`DistanceStore.put_many` call), charge the evaluation
    counters and obtain the filled value array.
    :meth:`DistanceContext.distances_to_many` is these two steps around one
    evaluation of all its requests' misses; the async serving layer runs
    them around refine chunks on a :class:`~repro.index.pool.PersistentPool`
    while the parent moves on.  Completion fills
    ``values[fill_pos] = fresh[fill_slot]``.

    The optional ``in_flight`` mapping deduplicates pairs across pending
    resolutions: a pair another pending resolution is already computing is
    *deferred* (free for this one, like a store hit) and filled at
    completion time from the store — or from the owning resolution's
    :attr:`computed` values if a bounded store has already evicted the pair
    again.  Completion of the owner must therefore happen before completion
    of the dependent (``distances_to_many`` completes in request order; the
    serving layer's ticket dependencies guarantee it).
    """

    __slots__ = (
        "query_index",
        "obj",
        "targets",
        "values",
        "fill_pos",
        "fill_slot",
        "miss_targets",
        "deferred",
        "owned_keys",
        "computed",
        "dependents",
        "completed",
        "owner",
    )

    def __init__(self, query_index: Optional[int], obj: Any, targets: np.ndarray) -> None:
        self.query_index = query_index
        self.obj = obj
        self.targets = targets
        #: One value per target; store hits are filled at resolve time.
        self.values = np.empty(targets.size, dtype=float)
        #: Positions of :attr:`values` filled from the fresh batch.
        self.fill_pos = _NO_INDICES
        #: For each of :attr:`fill_pos`, its slot in :attr:`miss_targets`.
        self.fill_slot = _NO_INDICES
        #: Unique universe indices this resolution must evaluate, in the
        #: order the request first names them.
        self.miss_targets = _NO_INDICES
        #: ``(position, target_index, owner)`` filled from another pending
        #: resolution's work.
        self.deferred: List[Tuple[int, int, "PendingDistances"]] = []
        #: Store keys this resolution registered in the in-flight map, one
        #: per :attr:`miss_targets` entry.
        self.owned_keys: List[int] = []
        #: key → value for pairs this resolution computed (set on
        #: completion when others deferred onto it; outlives bounded-store
        #: eviction for those dependents).
        self.computed: Dict[int, float] = {}
        #: How many other pending resolutions deferred onto this one (the
        #: serving layer refuses to cancel while nonzero).
        self.dependents = 0
        self.completed = False
        #: Opaque back-reference for the caller (the serving layer points
        #: it at the owning ticket to build dependency edges).
        self.owner: Any = None

    @property
    def n_missing(self) -> int:
        """Unique pairs the caller must evaluate (the eventual cost)."""
        return len(self.miss_targets)


class _RequestMemo:
    """The pairs one request evaluated for its transient objects.

    Keyed by object identity: the memo holds its objects, so their ids
    cannot be recycled while it lives.  Per object it keeps a sorted array
    of universe indices and the distances ``D(obj, objects[j])`` evaluated
    for them, so a lookup is one ``searchsorted``.
    """

    __slots__ = ("_entries",)

    def __init__(self, objects: Sequence[Any]) -> None:
        self._entries: Dict[int, list] = {
            id(obj): [obj, _NO_INDICES, _NO_VALUES] for obj in objects
        }

    def __contains__(self, obj: Any) -> bool:
        return id(obj) in self._entries

    def lookup(self, obj: Any, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, hit)`` for ``targets``; ``values`` is valid where ``hit``."""
        _obj, known, values = self._entries[id(obj)]
        if not known.size:
            return np.empty(targets.size, dtype=float), np.zeros(targets.size, dtype=bool)
        slots = np.searchsorted(known, targets)
        np.minimum(slots, known.size - 1, out=slots)
        return values[slots], known[slots] == targets

    def record(self, obj: Any, targets: np.ndarray, values: np.ndarray) -> None:
        """Remember freshly evaluated pairs (the misses of a :meth:`lookup`)."""
        entry = self._entries[id(obj)]
        known = np.concatenate([entry[1], targets])
        order = np.argsort(known, kind="stable")
        entry[1] = known[order]
        entry[2] = np.concatenate([entry[2], values])[order]


# --------------------------------------------------------------------------- #
# The context                                                                 #
# --------------------------------------------------------------------------- #


class DistanceContext(DistanceMeasure):
    """Shared distance layer over a fixed object universe.

    The context *is* a :class:`~repro.distances.base.DistanceMeasure`:
    scalar and batch evaluations between universe objects are answered from
    the store when possible and recorded into it when computed, and
    evaluations involving unknown objects fall through to the base measure
    (computed, counted, but not cached — there is no stable key for them).
    Inside a :meth:`request`, the request's transient objects are the
    exception: :meth:`compute_many` and :meth:`distances_to_many` keep
    their pairs in the request's memo, never in the store, so each pair is
    evaluated once per request.

    Parameters
    ----------
    distance:
        The base (expensive) measure ``D_X``.  Must not itself be a
        context.
    objects:
        The object universe; an object's position in this sequence is its
        stable store index.  Typically ``list(database) + list(queries)``.
    symmetric:
        Store convention; pass ``False`` for asymmetric measures.  Ignored
        when ``store`` is given (the store's own flag wins).
        ``symmetric=True`` asserts ``D_X(x, y) == D_X(y, x)`` and lets the
        store serve a pair in either evaluation direction — the same
        direction-equivalence convention
        :meth:`repro.distances.dtw.ConstrainedDTW.compute_pairs` already
        applies when it regroups anchor runs.  For measures whose two
        directions differ in the last floating-point ulps (e.g. the cDTW
        DP), a mirrored hit can therefore differ from a fresh evaluation at
        the ``1e-14`` level; measures with bitwise-symmetric kernels (the
        Lp family) are exactly reproducible in every direction.  Warm
        re-runs against the same store are always bit-identical to the
        cold run that filled it.
    n_jobs:
        Default worker-process count for the batched primitives
        (``None``/``0``/``1`` = serial, ``-1`` = all CPUs); overridable per
        call.
    store:
        Optional pre-existing :class:`DistanceStore`; its fingerprint must
        match the universe.
    max_sparse_entries:
        Optional bound on the store's sparse entries (LRU eviction; dense
        blocks are kept).  Applied to the supplied ``store`` as well.
    pool:
        Optional :class:`~repro.index.pool.PersistentPool` used by every
        batched primitive instead of per-call worker pools.  The pool is
        borrowed, never owned: the context does not close it, and it is
        dropped (not pickled) when the context is serialized.
    """

    #: Duck-typed marker checked by :func:`repro.distances.parallel.
    #: ensure_parallel_safe` (a direct import would be circular).
    _is_distance_context = True

    def __init__(
        self,
        distance: DistanceMeasure,
        objects: Sequence[Any],
        symmetric: bool = True,
        n_jobs: Optional[int] = None,
        store: Optional[DistanceStore] = None,
        max_sparse_entries: Optional[int] = None,
        pool: Optional[Any] = None,
    ) -> None:
        if isinstance(distance, DistanceContext):
            raise DistanceError("a DistanceContext cannot wrap another context")
        if not isinstance(distance, DistanceMeasure):
            raise DistanceError("distance must be a DistanceMeasure instance")
        self.base = distance
        self.counting = CountingDistance(distance)
        self.name = f"context({distance.name})"
        self.is_metric = distance.is_metric
        self.objects = list(objects)
        if not self.objects:
            raise DistanceError("a DistanceContext needs at least one object")
        if len(self.objects) > MAX_STORE_INDEX + 1:
            raise DistanceError(
                f"a DistanceContext holds at most {MAX_STORE_INDEX + 1} objects"
            )
        self.n_jobs = n_jobs
        self.pool = pool
        self._digests = [object_digest(obj) for obj in self.objects]
        if store is None:
            store = DistanceStore(symmetric=symmetric)
        elif not isinstance(store, DistanceStore):
            raise DistanceError("store must be a DistanceStore")
        store.bind_universe(self._digests)
        if max_sparse_entries is not None:
            store.max_sparse_entries = max_sparse_entries
        self.store = store
        self._rebuild_index()

    # -- identity / pickling -------------------------------------------

    #: How many content-matched duplicates keep a fast identity mapping.
    #: Bounds parent-side memory in a serving loop where every request
    #: carries fresh copies of known queries; an evicted duplicate simply
    #: re-matches by digest on its next registration.
    ADOPTED_CACHE_SIZE = 1024

    def _rebuild_index(self) -> None:
        self._index_by_id = {id(obj): i for i, obj in enumerate(self.objects)}
        self._index_by_digest: Optional[Dict[bytes, int]] = None
        # Objects that adopted an existing index via content matching,
        # keyed by their id; held (LRU-bounded) so the ids serving as
        # _index_by_id keys cannot be recycled while mapped.
        self._adopted: "OrderedDict[int, Any]" = OrderedDict()
        # Content digests of first sightings (see admit), oldest first.
        self._sightings: "OrderedDict[bytes, None]" = OrderedDict()
        # The active request's memo (see request); None between requests.
        self._memo: Optional[_RequestMemo] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_index_by_id", None)
        state.pop("_index_by_digest", None)
        # Identity-keyed bookkeeping is rebuilt on load; content-matched
        # duplicates re-adopt on their next register call.  Sightings and
        # the request memo are process-local serving state.
        state.pop("_adopted", None)
        state.pop("_sightings", None)
        state.pop("_memo", None)
        # Worker pools hold live processes; a pickled copy starts pool-less.
        state["pool"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._rebuild_index()

    # -- introspection --------------------------------------------------

    @property
    def n_objects(self) -> int:
        """Size of the object universe."""
        return len(self.objects)

    @property
    def fingerprint(self) -> Optional[str]:
        """Content fingerprint of the universe (recorded with the store)."""
        return self.store.fingerprint

    def prefix_fingerprint(self, n: int) -> str:
        """Fingerprint of the first ``n`` universe objects.

        Universe construction is append-only, so the prefix holding a
        retrieval database keeps a stable fingerprint however many queries
        are registered afterwards — this is what an
        :class:`~repro.index.embedding_index.EmbeddingIndex` artifact
        records to verify the database it is reopened against.
        """
        if not 0 <= n <= len(self._digests):
            raise DistanceError(
                f"prefix length must be in [0, {len(self._digests)}], got {n}"
            )
        return _combine_digests(self._digests[:n])

    @property
    def distance_evaluations(self) -> int:
        """Exact base-measure evaluations performed so far (hits are free)."""
        return self.counting.calls

    def reset_evaluations(self) -> int:
        """Reset the evaluation counter, returning the previous total."""
        return self.counting.reset()

    def _pool_for(self, n_workers: int) -> Optional[Any]:
        """The persistent pool to run an ``n_workers`` fan-out on, if any.

        A 1-worker pool cannot honour a multi-worker request — routing it
        there would serialize the whole batch through one process — so such
        requests fall back to a per-call executor of the requested size
        (the matrix builders), or to the parent (serving, which never
        starts a one-shot pool).
        A multi-worker pool serves every request (a call asking for more
        workers than the pool holds is clamped by pool capacity; reusing
        warm workers beats respawning wider ones).
        """
        pool = self.pool
        if pool is None:
            return None
        if getattr(pool, "closed", False):
            # A borrowed pool whose owner shut it down: detach and fall
            # back as without a pool instead of erroring forever.
            self.pool = None
            return None
        if pool.n_workers <= 1 and n_workers > pool.n_workers:
            return None
        return pool

    def index_of(self, obj: Any) -> Optional[int]:
        """Universe index of an object (by identity), or ``None``.

        The context holds strong references to every universe object, so
        identity lookups stay valid for the context's lifetime — unlike a
        bare ``id()``-keyed cache, the ids here can never be recycled.
        """
        return self._index_by_id.get(id(obj))

    def indices_of(self, objects: Iterable[Any]) -> np.ndarray:
        """Universe indices for a sequence of objects; all must be known."""
        indices = []
        for pos, obj in enumerate(objects):
            index = self._index_by_id.get(id(obj))
            if index is None:
                raise DistanceError(
                    f"object at position {pos} is not part of this context's "
                    "universe; build the context over the full dataset (for "
                    "retrieval: database plus queries) or register() the "
                    "objects first"
                )
            indices.append(index)
        return np.asarray(indices, dtype=int)

    def _digest_index(self) -> Dict[bytes, int]:
        """Lazy content-digest → universe-index map (first occurrence wins)."""
        if self._index_by_digest is None:
            mapping: Dict[bytes, int] = {}
            for i, digest in enumerate(self._digests):
                mapping.setdefault(digest, i)
            self._index_by_digest = mapping
        return self._index_by_digest

    def register(
        self, objects: Iterable[Any], match_content: bool = False
    ) -> np.ndarray:
        """Append objects to the universe, returning their stable indices.

        Already-known objects keep their existing index.  Registration
        extends the fingerprint (append-only, so previously stored pairs
        stay valid; it is recomputed when next read), which means a store
        persisted *after* a registration only reloads into a context whose
        universe was built the same way.

        With ``match_content=True`` an object whose content digest equals an
        existing universe member adopts that member's index instead of being
        appended — this is how a reopened
        :class:`~repro.index.embedding_index.EmbeddingIndex` maps the
        caller's *equal-but-distinct* query objects back onto the store
        entries persisted for them (unpickled copies never share ``id()``).
        Identity registration keeps the default because equal content at a
        new index is sometimes intentional (e.g. duplicate-object tests).
        """
        indices = []
        adopted_this_call: set = set()
        for obj in objects:
            existing = self._index_by_id.get(id(obj))
            if existing is not None:
                if id(obj) in self._adopted:
                    # Keep hot duplicates recent so they outlive cold ones.
                    self._adopted.move_to_end(id(obj))
                    adopted_this_call.add(id(obj))
                indices.append(existing)
                continue
            digest = object_digest(obj)
            if match_content:
                known = self._digest_index().get(digest)
                if known is not None:
                    # Adopt the stored index; remember the identity so the
                    # next lookup of this exact object is one dict probe.
                    # The adopted object must stay alive while mapped
                    # (a recycled id would alias a stale entry), so it
                    # joins a bounded LRU; eviction drops both sides — but
                    # never an entry from the current call, whose mapping
                    # the caller is about to rely on (a batch larger than
                    # the bound must stay fully mapped until served).
                    self._index_by_id[id(obj)] = known
                    self._adopted[id(obj)] = obj
                    adopted_this_call.add(id(obj))
                    while len(self._adopted) > self.ADOPTED_CACHE_SIZE:
                        old_id = next(iter(self._adopted))
                        if old_id in adopted_this_call:
                            break
                        del self._adopted[old_id]
                        self._index_by_id.pop(old_id, None)
                    indices.append(known)
                    continue
            index = len(self.objects)
            if index > MAX_STORE_INDEX:
                raise DistanceError(
                    f"a DistanceContext holds at most {MAX_STORE_INDEX + 1} objects"
                )
            self.objects.append(obj)
            self._digests.append(digest)
            self._index_by_id[id(obj)] = index
            if self._index_by_digest is not None:
                self._index_by_digest.setdefault(digest, index)
            indices.append(index)
        return np.asarray(indices, dtype=int)

    def admit(self, objects: Sequence[Any], max_sightings: int) -> List[Any]:
        """Apply the admission rule to one request; return its transient objects.

        Per object:

        * known by identity or content: it keeps its universe index;
        * content sighted before, or present twice in ``objects``: it is
          registered (``match_content=True``, so equal copies share one
          index) and its pairs are stored from now on;
        * otherwise its content digest is remembered as a first sighting
          and the object is returned, to be served transiently.

        The sightings form an LRU of at most ``max_sightings`` digests, so
        a sighting is forgotten after ``max_sightings`` other first
        sightings.
        """
        objects = list(objects)
        digests = {
            pos: object_digest(obj)
            for pos, obj in enumerate(objects)
            if id(obj) not in self._index_by_id
        }
        counts: Dict[bytes, int] = {}
        for digest in digests.values():
            counts[digest] = counts.get(digest, 0) + 1
        known = self._digest_index() if digests else {}
        transient = set()
        for pos, digest in digests.items():
            if digest in self._sightings:
                del self._sightings[digest]  # a second sighting: admitted
                continue
            if digest in known or counts[digest] > 1:
                continue
            self._sightings[digest] = None
            while len(self._sightings) > max_sightings:
                self._sightings.popitem(last=False)
            transient.add(pos)
        if len(transient) < len(objects):
            self.register(
                [obj for pos, obj in enumerate(objects) if pos not in transient],
                match_content=True,
            )
        return [objects[pos] for pos in sorted(transient)]

    @contextlib.contextmanager
    def request(self, objects: Sequence[Any], max_sightings: int) -> Iterator[None]:
        """Scope one serving request: admit ``objects``, memoise the rest.

        :meth:`admit` runs first; for the duration of the ``with`` block
        the transient objects it returns are served through a fresh memo
        (see the module docstring), which is dropped when the block exits.
        """
        transient = self.admit(objects, max_sightings)
        outer, self._memo = self._memo, _RequestMemo(transient)
        try:
            yield
        finally:
            self._memo = outer

    def _memo_of(self, obj: Any) -> Optional[_RequestMemo]:
        """The active request's memo if ``obj`` is one of its transient objects."""
        memo = self._memo
        return memo if memo is not None and obj in memo else None

    # -- persistence ----------------------------------------------------

    def save_store(self, path, compress: bool = True) -> None:
        """Persist the current store to ``path`` (``.npz``).

        ``compress=False`` writes mappable (``ZIP_STORED``) blocks — see
        :meth:`DistanceStore.save`.
        """
        self.store.save(path, compress=compress)

    def load_store(self, path, mmap_mode: Optional[str] = None) -> None:
        """Merge a persisted store into this context (fingerprint-checked).

        With ``mmap_mode="r"`` the loaded dense blocks are memory-mapped
        and page in on demand (uncompressed stores only; see
        :meth:`DistanceStore.load` for the caveats).
        """
        loaded = DistanceStore.load(
            path,
            expected_fingerprint=self.store.fingerprint,
            mmap_mode=mmap_mode,
        )
        self.store.merge(loaded)

    # -- core evaluation ------------------------------------------------

    def distances_to(self, obj: Any, target_indices: Sequence[int]) -> np.ndarray:
        """Distances from ``obj`` to the universe objects at ``target_indices``.

        Argument order matches ``D_X(obj, target)`` everywhere, so
        asymmetric measures (with ``symmetric=False`` stores) stay correct.
        """
        values_list, _ = self.distances_to_many([obj], [target_indices])
        return values_list[0]

    def distances_to_many(
        self,
        objects: Sequence[Any],
        target_indices_lists: Sequence[Sequence[int]],
        n_jobs: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Batched :meth:`distances_to` over many (query, targets) requests.

        The one path from requests to exact distances: every request is
        resolved against the store (:meth:`resolve_distances`), the misses
        of all requests are one
        :func:`~repro.distances.parallel.parallel_refine` call — over
        worker processes when ``n_jobs > 1`` and more than one request has
        misses, in the parent otherwise — and the requests are
        completed in order (:meth:`complete_distances`), which stores the
        fresh values and charges the counters one evaluation per pair.  A
        pair an earlier request of the same call already claims is
        deferred onto it, so no pair is evaluated twice in one call and the
        per-request costs do not depend on ``n_jobs``.  Returns
        ``(values_list, computed_counts)`` aligned with the input.
        """
        objects = list(objects)
        if len(objects) != len(target_indices_lists):
            raise DistanceError(
                "distances_to_many needs one target list per query object"
            )
        in_flight: Optional[Dict[int, PendingDistances]] = (
            {} if len(objects) > 1 else None
        )
        pendings = [
            self.resolve_distances(obj, targets, in_flight)
            for obj, targets in zip(objects, target_indices_lists)
        ]
        # complete_distances charges the counters, so the fan-out gets the
        # peeled measure and charges nothing itself.
        inner, _counters = split_counting(self.counting)
        n_workers = resolve_jobs(self.n_jobs if n_jobs is None else n_jobs)
        fresh = parallel_refine(
            inner,
            self.objects,
            [
                (key, pending.obj, pending.miss_targets)
                for key, pending in enumerate(pendings)
                if pending.n_missing
            ],
            n_workers,
            pool=self._pool_for(n_workers),
        )
        completed = [
            self.complete_distances(pending, fresh.get(key), in_flight)
            for key, pending in enumerate(pendings)
        ]
        return [values for values, _ in completed], [spent for _, spent in completed]

    # -- split resolution (the steps of distances_to_many) --------------

    def resolve_distances(
        self,
        obj: Any,
        target_indices: Sequence[int],
        in_flight: Optional[Dict[int, PendingDistances]] = None,
    ) -> PendingDistances:
        """Resolve store hits now; return the missing pairs as a plan.

        The first step of :meth:`distances_to_many`: one
        :meth:`DistanceStore.get_many` call fills ``pending.values`` for
        every cached pair, and ``pending.miss_targets`` lists the unique
        universe indices whose exact distances the caller must supply to
        :meth:`complete_distances`.  With an ``in_flight`` mapping (store
        key → resolution), pairs another registered resolution is already
        computing are deferred instead of recomputed (see
        :class:`PendingDistances`), and this resolution's own missing keys
        are registered in the mapping until completed or cancelled.  A
        transient object of the active :meth:`request` resolves against
        the request's memo instead and never enters ``in_flight``.
        """
        targets = np.asarray(target_indices, dtype=int)
        query_index = self.index_of(obj)
        pending = PendingDistances(query_index, obj, targets)
        memo = self._memo_of(obj)
        if query_index is not None:
            values, hit = self.store.get_many(query_index, targets)
        elif memo is not None:
            values, hit = memo.lookup(obj, targets)
            in_flight = None
        else:
            # No stable key: compute everything (duplicates included),
            # cache nothing; fresh values align with the targets by
            # position.
            pending.miss_targets = targets
            pending.fill_pos = pending.fill_slot = np.arange(targets.size)
            return pending
        pending.values = values
        miss_pos = np.flatnonzero(~hit)
        misses = targets[miss_pos]
        if in_flight is None:
            first, pending.fill_slot = _first_occurrences(misses)
            pending.miss_targets = misses[first]
            pending.fill_pos = miss_pos
            return pending
        slots: Dict[int, int] = {}
        miss_targets: List[int] = []
        fill_pos: List[int] = []
        fill_slot: List[int] = []
        keys = self.store._pack(query_index, misses).tolist()
        for pos, j, key in zip(miss_pos.tolist(), misses.tolist(), keys):
            slot = slots.get(j)
            if slot is None:
                owner = in_flight.get(key)
                if owner is not None and not owner.completed:
                    owner.dependents += 1
                    pending.deferred.append((pos, j, owner))
                    continue
                in_flight[key] = pending
                pending.owned_keys.append(key)
                slot = slots[j] = len(miss_targets)
                miss_targets.append(j)
            fill_pos.append(pos)
            fill_slot.append(slot)
        pending.miss_targets = np.asarray(miss_targets, dtype=int)
        pending.fill_pos = np.asarray(fill_pos, dtype=np.intp)
        pending.fill_slot = np.asarray(fill_slot, dtype=np.intp)
        return pending

    def complete_distances(
        self,
        pending: PendingDistances,
        fresh: Optional[np.ndarray],
        in_flight: Optional[Dict[int, PendingDistances]] = None,
    ) -> Tuple[np.ndarray, int]:
        """Fold freshly computed miss values back in; return ``(values, spent)``.

        The last step of :meth:`distances_to_many`.  ``fresh`` must hold
        one value per ``pending.miss_targets`` entry, evaluated with the
        measure :func:`split_counting` leaves of :attr:`counting`; this
        method stores them (one :meth:`DistanceStore.put_many` call) and
        charges every counter it peels — the context's own and a caller's —
        one evaluation per pair.
        Resolutions this one deferred onto must have been completed first;
        pairs whose owner was force-released without delivering are
        evaluated here directly and included in the returned ``spent``
        count, so the per-query cost always equals the evaluations
        actually performed.
        """
        if pending.completed:
            return pending.values, pending.n_missing
        query_index = pending.query_index
        n_missing = pending.n_missing
        if n_missing:
            fresh = np.asarray(fresh, dtype=float)
            if fresh.shape[0] != n_missing:
                raise DistanceError(
                    f"complete_distances needs {n_missing} fresh "
                    f"values, got {fresh.shape[0]}"
                )
            memo = self._memo_of(pending.obj)
            if query_index is not None:
                self.store.put_many(query_index, pending.miss_targets, fresh)
                if pending.dependents:
                    pending.computed = dict(zip(pending.owned_keys, fresh.tolist()))
            elif memo is not None:
                memo.record(pending.obj, pending.miss_targets, fresh)
            # Fill from the computed batch, not the store: a bounded store
            # may already have evicted the earliest entries.
            pending.values[pending.fill_pos] = fresh[pending.fill_slot]
            for counter in split_counting(self.counting)[1]:
                counter.calls += n_missing
        fallback_evaluations = 0
        if pending.deferred:
            deferred_targets = [j for _pos, j, _owner in pending.deferred]
            keys = self.store._pack(query_index, deferred_targets).tolist()
            for (pos, j, owner), key in zip(pending.deferred, keys):
                cached = self.store.get(query_index, j)
                if cached is None:
                    cached = owner.computed.get(key)
                if cached is None:
                    # The owner never delivered (it errored or was force
                    # released): evaluate the pair directly, charged like
                    # any fresh evaluation, so one failed ticket cannot
                    # poison later ones that deferred onto it.
                    cached = float(self.counting.compute(pending.obj, self.objects[j]))
                    self.store.put(query_index, j, cached)
                    fallback_evaluations += 1
                pending.values[pos] = cached
                owner.dependents -= 1
        self._release_keys(pending, in_flight)
        pending.completed = True
        return pending.values, n_missing + fallback_evaluations

    def cancel_distances(
        self,
        pending: PendingDistances,
        in_flight: Optional[Dict[int, PendingDistances]] = None,
        force: bool = False,
    ) -> None:
        """Abandon a resolution: release its in-flight keys and deferrals.

        Only legal while nothing depends on it (``pending.dependents ==
        0``), unless ``force=True`` — the error path of a serving ticket,
        where dependents then fall back to evaluating the abandoned pairs
        themselves (see :meth:`complete_distances`).
        """
        if pending.completed:
            return
        if pending.dependents and not force:
            raise DistanceError(
                "cannot cancel a pending resolution other resolutions "
                "deferred onto"
            )
        for _pos, _j, owner in pending.deferred:
            owner.dependents -= 1
        pending.deferred = []
        self._release_keys(pending, in_flight)
        pending.completed = True

    def _release_keys(
        self,
        pending: PendingDistances,
        in_flight: Optional[Dict[int, PendingDistances]],
    ) -> None:
        if in_flight is not None:
            for key in pending.owned_keys:
                if in_flight.get(key) is pending:
                    del in_flight[key]
        pending.owned_keys = []

    # -- matrix primitives ----------------------------------------------

    def pairwise(
        self,
        indices: Sequence[int],
        symmetric: Optional[bool] = None,
        n_jobs: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> np.ndarray:
        """Pairwise distance matrix over universe indices, via the store.

        Equivalent to :func:`repro.distances.matrix.pairwise_distances`
        over the corresponding objects, except that cached pairs are free
        and freshly computed pairs are recorded (a fully cold request is
        stored as one dense array block).  ``symmetric`` defaults to the
        store's convention.
        """
        idx = np.asarray(indices, dtype=int)
        n = idx.size
        matrix = np.zeros((n, n), dtype=float)
        if symmetric is None:
            symmetric = self.store.symmetric
        if symmetric:
            targets = [np.arange(r + 1, n) for r in range(n)]
        else:
            targets = [np.arange(n)] * n
        fresh, had_hits = self._fill_rows(idx, idx, matrix, targets, n_jobs, progress)
        if symmetric:
            upper = np.triu_indices(n, k=1)
            matrix[(upper[1], upper[0])] = matrix[upper]
        if fresh and not had_hits and not (symmetric and not self.store.symmetric):
            # Cold build: keep the whole table as one array-backed block
            # (the mirrored matrix answers both pair orders; the diagonal of
            # a symmetric build is zero by convention, never evaluated).
            # A symmetric build against an *asymmetric* store must not take
            # this path: the mirrored half was never evaluated in its own
            # direction, so only the computed-direction entries are stored.
            self.store.put_block(idx, idx, matrix, diagonal_valid=not symmetric)
        else:
            for r, cols in fresh:
                self.store.put_many(idx[r], idx[cols], matrix[r, cols])
        return matrix

    def cross(
        self,
        row_indices: Sequence[int],
        col_indices: Sequence[int],
        n_jobs: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> np.ndarray:
        """Cross distance matrix between two universe index sets.

        Equivalent to :func:`repro.distances.matrix.cross_distances` over
        the corresponding objects, with store reuse as in :meth:`pairwise`.
        """
        rows_idx = np.asarray(row_indices, dtype=int)
        cols_idx = np.asarray(col_indices, dtype=int)
        matrix = np.zeros((rows_idx.size, cols_idx.size), dtype=float)
        if rows_idx.size == 0 or cols_idx.size == 0:
            return matrix
        targets = [np.arange(cols_idx.size)] * rows_idx.size
        fresh, had_hits = self._fill_rows(
            rows_idx, cols_idx, matrix, targets, n_jobs, progress
        )
        if fresh and not had_hits:
            self.store.put_block(rows_idx, cols_idx, matrix, diagonal_valid=True)
        else:
            for r, cols in fresh:
                self.store.put_many(rows_idx[r], cols_idx[cols], matrix[r, cols])
        return matrix

    def _fill_rows(
        self,
        row_idx: np.ndarray,
        col_idx: np.ndarray,
        matrix: np.ndarray,
        targets: List[np.ndarray],
        n_jobs: Optional[int],
        progress: Optional[ProgressCallback],
    ) -> Tuple[List[Tuple[int, np.ndarray]], bool]:
        """Fill matrix rows from the store plus batched fresh evaluations.

        ``targets[r]`` lists the column *positions* row ``r`` needs; each
        row is one :meth:`DistanceStore.get_many` call, and the misses of
        every row are one :func:`~repro.distances.parallel.parallel_refine`
        batch (which charges the counters).  ``progress`` is reported once,
        at the end.  Returns
        ``(fresh, had_hits)`` — the ``(row, column positions)`` freshly
        evaluated into ``matrix`` (not yet stored) and whether any
        requested pair came from the store, so callers can record a fully
        cold request as one dense array block instead of sparse entries.
        """
        n_rows = row_idx.size
        had_hits = False
        missing_by_row: List[np.ndarray] = []
        for r in range(n_rows):
            cols = targets[r]
            values, hit = self.store.get_many(row_idx[r], col_idx[cols])
            if hit.any():
                had_hits = True
                matrix[r, cols[hit]] = values[hit]
            missing_by_row.append(cols[~hit])

        rows_with_work = [r for r in range(n_rows) if missing_by_row[r].size]
        n_workers = resolve_jobs(self.n_jobs if n_jobs is None else n_jobs)
        by_row = parallel_refine(
            self.counting,
            self.objects,
            [
                (r, self.objects[int(row_idx[r])], col_idx[missing_by_row[r]])
                for r in rows_with_work
            ],
            n_workers,
            pool=self._pool_for(n_workers),
        )
        for r in rows_with_work:
            matrix[r, missing_by_row[r]] = by_row[r]
        if progress is not None:
            progress(n_rows, n_rows)
        return [(r, missing_by_row[r]) for r in rows_with_work], had_hits

    # -- DistanceMeasure interface --------------------------------------

    def compute(self, x: Any, y: Any) -> float:
        """One exact distance: store hit is free, a miss is charged and cached."""
        i = self.index_of(x)
        j = self.index_of(y)
        if i is not None and j is not None:
            cached = self.store.get(i, j)
            if cached is not None:
                return cached
            value = float(self.counting.compute(x, y))
            self.store.put(i, j, value)
            return value
        return float(self.counting.compute(x, y))

    def compute_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        """Distances from ``x`` to each of ``ys``, charging only store misses.

        A transient ``x`` of the active :meth:`request` resolves against
        the request's memo, so its anchor distances serve its refine.
        """
        ys = list(ys)
        if not ys:
            return np.zeros(0, dtype=float)
        if self.index_of(x) is None and self._memo_of(x) is None:
            return np.asarray(self.counting.compute_many(x, ys), dtype=float)
        indices = list(map(self._index_by_id.get, map(id, ys)))
        if None not in indices:
            return self.distances_to(x, indices)
        known_positions = [pos for pos, j in enumerate(indices) if j is not None]
        known_indices = [indices[pos] for pos in known_positions]
        unknown_positions = [pos for pos, j in enumerate(indices) if j is None]
        values = np.empty(len(ys), dtype=float)
        if known_positions:
            values[known_positions] = self.distances_to(x, known_indices)
        if unknown_positions:
            values[unknown_positions] = self.counting.compute_many(
                x, [ys[pos] for pos in unknown_positions]
            )
        return values

    def compute_pairs(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Elementwise distances for paired sequences, charging only misses."""
        xs = list(xs)
        ys = list(ys)
        if len(xs) != len(ys):
            raise DistanceError(
                f"compute_pairs needs equally long sequences, got {len(xs)} and {len(ys)}"
            )
        values = np.empty(len(xs), dtype=float)
        known: List[int] = []
        rows: List[int] = []
        cols: List[int] = []
        unknown_positions: List[int] = []
        for pos, (x, y) in enumerate(zip(xs, ys)):
            i = self.index_of(x)
            j = self.index_of(y)
            if i is None or j is None:
                unknown_positions.append(pos)
            else:
                known.append(pos)
                rows.append(i)
                cols.append(j)
        if known:
            positions = np.asarray(known)
            row_arr = np.asarray(rows, dtype=int)
            col_arr = np.asarray(cols, dtype=int)
            cached, hit = self.store.get_many(row_arr, col_arr)
            values[positions[hit]] = cached[hit]
            miss = np.flatnonzero(~hit)
            if miss.size:
                # One evaluation per distinct pair, in the direction it is
                # first asked for.
                first, slot = _first_occurrences(
                    self.store._pack(row_arr[miss], col_arr[miss])
                )
                evaluate = miss[first]
                fresh = np.asarray(
                    self.counting.compute_pairs(
                        [xs[known[m]] for m in evaluate.tolist()],
                        [ys[known[m]] for m in evaluate.tolist()],
                    ),
                    dtype=float,
                )
                self.store.put_many(row_arr[evaluate], col_arr[evaluate], fresh)
                # Fill from the computed batch, not the store: a bounded
                # store may already have evicted the earliest entries.
                values[positions[miss]] = fresh[slot]
        if unknown_positions:
            values[unknown_positions] = self.counting.compute_pairs(
                [xs[pos] for pos in unknown_positions],
                [ys[pos] for pos in unknown_positions],
            )
        return values

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistanceContext(base={self.base!r}, n_objects={self.n_objects}, "
            f"cached_pairs={len(self.store)})"
        )
