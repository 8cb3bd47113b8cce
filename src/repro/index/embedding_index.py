"""`EmbeddingIndex`: the build → save → open → query session facade.

The paper's end product is an *index you query*: train a query-sensitive
embedding once over a database, then serve approximate k-NN queries at a
fraction of the brute-force cost (filter with the cheap embedded distance,
refine the top ``p`` with exact distances).  Before this module, assembling
that product meant hand-wiring five layers — ``BoostMapTrainer`` →
``TrainingResult.model`` → a retriever → a ``ContextBinding`` →
``save_store``/``load_store`` — and every parallel call paid a fresh
process-pool spin-up.  :class:`EmbeddingIndex` owns the whole session:

>>> index = EmbeddingIndex.build(distance, database, config)   # trains once
>>> index.query_many(queries, k=5, p=30)                       # serves
>>> index.save("artifacts/digits")                             # persists
...
>>> with EmbeddingIndex.open("artifacts/digits", database) as index:
...     index.query_many(queries, k=5, p=30)   # zero retraining, warm store

What the facade owns
--------------------
* **One** :class:`~repro.distances.context.DistanceContext` per index — the
  experiment-level distance layer: every exact evaluation (training tables,
  embedding anchors, refine candidates) goes through its store, so a pair is
  paid for at most once per index lifetime and
  :attr:`EmbeddingIndex.distance_evaluations` is the exact cost of
  everything done so far.  A served query joins the context universe on
  its second sighting (by content, so reopened indexes recognise equal
  query objects); from then on its pairs are stored, which is what makes a
  warm-opened index serve a batch it has stored with zero exact
  evaluations.  A first sighting is served transiently and leaves the
  universe and the store as they were.
* **One** :class:`~repro.index.pool.PersistentPool` — long-lived worker
  processes reused by every ``n_jobs`` code path the index touches (matrix
  builds, refine fan-out) instead of a throwaway pool per call.  The index
  is a context manager; closing it releases the pool.
* A **retriever backend** chosen by name from a closed set —
  ``"filter_refine"`` (default), ``"planned"`` or ``"brute_force"`` (see
  :func:`available_backends`).  Every backend serves in this process and
  answers through the shared context, so switching backends never
  re-evaluates stored pairs, and at the same explicit ``p`` the
  ``"filter_refine"`` and ``"planned"`` results are bit-identical.

Artifacts
---------
:meth:`EmbeddingIndex.save` writes a versioned directory (model, embedded
database, distance store, config, dataset fingerprint — see
:mod:`repro.index.artifacts`); :meth:`EmbeddingIndex.open` restores it with
zero retraining, zero re-embedding of the database and zero exact distance
evaluations, refusing a database whose content fingerprint differs from the
one the index was built over.
"""

from __future__ import annotations

import contextlib
import datetime as _datetime
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.core.trainer import BoostMapTrainer, TrainingConfig, TrainingTables
from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.distances.context import DistanceContext, fingerprint_objects
from repro.distances.parallel import resolve_jobs
from repro.embeddings.base import Embedding
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    RetrievalError,
    ServingError,
)
from repro.index import artifacts as artifacts  # noqa: F401 (submodule alias)
from repro.index import serving as serving_module
from repro.index.pool import PersistentPool
from repro.retrieval.brute_force import BruteForceRetriever
from repro.retrieval.engine import build_scan_result
from repro.retrieval.filter_refine import FilterRefineRetriever, RetrievalResult
from repro.retrieval.planner import PlannedRetriever

__all__ = [
    "EmbeddingIndex",
    "IndexConfig",
    "available_backends",
]


# --------------------------------------------------------------------------- #
# Configuration                                                               #
# --------------------------------------------------------------------------- #


@dataclass
class IndexConfig:
    """Everything an :class:`EmbeddingIndex` needs beyond data and distance.

    How served queries are cached is not configurable: every index stores
    a query from its second sighting on (see :meth:`EmbeddingIndex._register`),
    so ever-novel traffic never grows the universe or the store.

    Attributes
    ----------
    training:
        The :class:`~repro.core.trainer.TrainingConfig` used when the index
        trains its own model (ignored when a prebuilt embedder is supplied).
    backend:
        Retriever backend name, one of :func:`available_backends`.  The
        set is closed: any other name raises
        :class:`~repro.exceptions.ConfigurationError`, and an artifact
        saved under one is refused at :meth:`EmbeddingIndex.open`.
    n_jobs:
        Default worker count for every parallel path the index drives
        (matrix builds, refine fan-out) and the size of the index's
        persistent pool.  Per-call ``n_jobs`` overrides apply on that
        pool; an index without one serves in this process.
    symmetric:
        Symmetry convention of the distance store; must be ``False`` for
        asymmetric measures (KL divergence, directed chamfer).
    max_sparse_entries:
        Optional LRU bound on the store's sparse entries (dense training /
        ground-truth blocks are never evicted) so a long-serving index
        cannot grow its cache without limit.
    planner_target_accuracy:
        Retrieval accuracy the ``"planned"`` backend aims for when its
        planner is calibrated and ``p=None`` (see
        :mod:`repro.retrieval.planner`), in ``(0, 1]``.  Ignored by other
        backends.
    planner_cost_budget:
        Optional per-query budget in exact evaluations (embedding
        included) capping the planner's chosen ``p``.
    """

    training: TrainingConfig = field(default_factory=TrainingConfig)
    backend: str = "filter_refine"
    n_jobs: Optional[int] = None
    symmetric: bool = True
    max_sparse_entries: Optional[int] = None
    planner_target_accuracy: float = 0.95
    planner_cost_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.training, TrainingConfig):
            raise ConfigurationError("training must be a TrainingConfig")
        _check_backend(self.backend)
        if self.max_sparse_entries is not None and self.max_sparse_entries < 1:
            raise ConfigurationError("max_sparse_entries must be positive")
        if not 0.0 < float(self.planner_target_accuracy) <= 1.0:
            raise ConfigurationError(
                "planner_target_accuracy must be in (0, 1], got "
                f"{self.planner_target_accuracy}"
            )
        if self.planner_cost_budget is not None and self.planner_cost_budget < 1:
            raise ConfigurationError("planner_cost_budget must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable description (round-trips via :meth:`from_dict`)."""
        training = asdict(self.training)
        if not isinstance(training.get("seed"), (int, str, type(None))):
            # Generator-typed seeds cannot be serialized; the trained model
            # is persisted anyway, so only the provenance note is lost.
            training["seed"] = None
        return {
            "training": training,
            "backend": self.backend,
            "n_jobs": self.n_jobs,
            "symmetric": self.symmetric,
            "max_sparse_entries": self.max_sparse_entries,
            "planner_target_accuracy": self.planner_target_accuracy,
            "planner_cost_budget": self.planner_cost_budget,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IndexConfig":
        """Rebuild a config from its ``to_dict()`` payload (manifest round-trip).

        Keys this version no longer uses (such as ``n_shards``) are
        ignored, so older artifacts keep opening.
        """
        try:
            training_payload = dict(payload["training"])
            if training_payload.get("seed") is None:
                training_payload["seed"] = 0
            return cls(
                training=TrainingConfig(**training_payload),
                backend=payload["backend"],
                n_jobs=payload.get("n_jobs"),
                symmetric=bool(payload["symmetric"]),
                max_sparse_entries=payload.get("max_sparse_entries"),
                planner_target_accuracy=float(
                    payload.get("planner_target_accuracy", 0.95)
                ),
                planner_cost_budget=payload.get("planner_cost_budget"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"invalid index config payload: {exc}") from exc

    def with_overrides(self, **kwargs) -> "IndexConfig":
        """A copy of this config with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)


# --------------------------------------------------------------------------- #
# Backends                                                                    #
# --------------------------------------------------------------------------- #


def _make_backend(
    name: str,
    distance: DistanceMeasure,
    database: Dataset,
    embedder: Any,
    database_vectors: np.ndarray,
    config: IndexConfig,
) -> Any:
    _check_backend(name)
    return _BACKENDS[name](distance, database, embedder, database_vectors, config)


class _BruteForceBackend:
    """Exact scan backend with the facade's uniform result shape.

    ``p`` is accepted and ignored: brute force refines everything.  The
    per-query ``refine_distance_computations`` is the number of evaluations
    actually performed — ``len(database)`` cold, fewer through a warm store.
    """

    def __init__(
        self,
        distance: DistanceMeasure,
        database: Dataset,
        embedder: Any,
        database_vectors: np.ndarray,
        config: IndexConfig,
    ) -> None:
        self.retriever = BruteForceRetriever(distance, database)
        self._n = len(database)
        # Every scan "filters" nothing: the candidate list is the whole
        # database, shared across results (read-only by convention) so a
        # large batch does not allocate O(batch x database) identical
        # arrays.
        self._all_candidates = np.arange(self._n)

    def _result(
        self, distances: np.ndarray, spent: int, k: int
    ) -> RetrievalResult:
        return build_scan_result(distances, self._all_candidates, k, spent)

    def query(
        self, obj: Any, k: int, p: Optional[int] = None
    ) -> RetrievalResult:
        distances_list, spent_list = self.retriever.scan_many([obj])
        return self._result(distances_list[0], spent_list[0], k)

    def query_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> List[RetrievalResult]:
        distances_list, spent_list = self.retriever.scan_many(
            objects, n_jobs=n_jobs
        )
        return [
            self._result(distances, spent, k)
            for distances, spent in zip(distances_list, spent_list)
        ]


def _filter_refine_factory(distance, database, embedder, database_vectors, config):
    return FilterRefineRetriever(
        distance, database, embedder, database_vectors=database_vectors
    )


def _planned_factory(distance, database, embedder, database_vectors, config):
    return PlannedRetriever(
        distance,
        database,
        embedder,
        database_vectors=database_vectors,
        target_accuracy=config.planner_target_accuracy,
        cost_budget=config.planner_cost_budget,
    )


#: The backends an index can serve through, by name.  Each factory builds
#: a query engine from the index's parts: an object exposing
#: ``query(obj, k, p)`` and ``query_many(objects, k, p, n_jobs=None)`` that
#: return :class:`~repro.retrieval.filter_refine.RetrievalResult` (lists
#: thereof).
_BACKENDS: Dict[str, Callable[..., Any]] = {
    "brute_force": _BruteForceBackend,
    "filter_refine": _filter_refine_factory,
    "planned": _planned_factory,
}


def available_backends() -> Tuple[str, ...]:
    """Names of the retriever backends, sorted."""
    return tuple(sorted(_BACKENDS))


def _check_backend(name: str) -> None:
    """Refuse a backend name outside the closed set."""
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )


# --------------------------------------------------------------------------- #
# The facade                                                                  #
# --------------------------------------------------------------------------- #


class EmbeddingIndex:
    """A built (or reopened) query-sensitive embedding index.

    Do not call the constructor directly — use :meth:`build` (train from a
    distance + database) or :meth:`open` (restore a saved artifact).  See
    the module docstring for the ownership model.
    """

    def __init__(
        self,
        context: DistanceContext,
        database: Dataset,
        embedder: Any,
        database_vectors: np.ndarray,
        config: IndexConfig,
        candidate_indices: Optional[np.ndarray] = None,
        candidate_distances: Optional[np.ndarray] = None,
        pool: Optional[PersistentPool] = None,
        owns_pool: bool = False,
    ) -> None:
        if not isinstance(context, DistanceContext):
            raise RetrievalError("an EmbeddingIndex needs a DistanceContext")
        if not isinstance(database, Dataset):
            raise RetrievalError("database must be a Dataset")
        if not isinstance(embedder, (QuerySensitiveModel, Embedding)):
            raise RetrievalError(
                "embedder must be a QuerySensitiveModel or an Embedding"
            )
        self.context = context
        self.database = database
        self.embedder = embedder
        self.database_vectors = np.asarray(database_vectors, dtype=float)
        self.config = config
        self._candidate_indices = (
            None
            if candidate_indices is None
            else np.asarray(candidate_indices, dtype=int)
        )
        self._candidate_distances = (
            None
            if candidate_distances is None
            else np.asarray(candidate_distances, dtype=float)
        )
        self.pool = pool
        self._owns_pool = bool(owns_pool)
        self._closed = False
        self._server: Optional[serving_module.AsyncServer] = None
        self._backend_name = config.backend
        self._backend = _make_backend(
            config.backend, context, database, embedder, self.database_vectors, config
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        distance: DistanceMeasure,
        database: Dataset,
        config: Optional[IndexConfig] = None,
        queries: Optional[Sequence[Any]] = None,
        tables: Optional[TrainingTables] = None,
        embedder: Optional[Any] = None,
        pool: Optional[PersistentPool] = None,
    ) -> "EmbeddingIndex":
        """Train (once) and assemble an index over ``database``.

        Parameters
        ----------
        distance:
            The exact measure ``D_X`` — or an existing
            :class:`~repro.distances.context.DistanceContext` whose universe
            contains the database (its store is then adopted, warm pairs
            included).
        database:
            The objects to index.
        config:
            The :class:`IndexConfig`; defaults are laptop-scale.
        queries:
            Optional query objects known upfront (an experiment's held-out
            set).  They join the context universe immediately, without
            waiting for a second sighting, so their exact distances —
            ground truth, refine candidates — are cached under stable keys
            from the first evaluation on.
        tables:
            Optional precomputed :class:`~repro.core.trainer.TrainingTables`
            (shared across several indexes in method comparisons).
        embedder:
            Optional prebuilt model/embedding.  Skips training entirely;
            note that only indexes holding a trained
            :class:`~repro.core.model.QuerySensitiveModel` with candidate
            provenance can be :meth:`save`\\ d.
        pool:
            Optional shared :class:`~repro.index.pool.PersistentPool`.  When
            omitted the index creates (and owns) one sized by
            ``config.n_jobs``; a supplied pool is borrowed and never closed
            by the index.
        """
        config = config if config is not None else IndexConfig()
        if not isinstance(database, Dataset):
            raise RetrievalError("database must be a Dataset")
        if isinstance(distance, DistanceContext):
            context = distance
            if config.symmetric != context.store.symmetric:
                # The adopted store's convention is the truth: record it in
                # the config so a saved artifact reopens with a store of
                # the same symmetry (a mismatch would make load_store
                # refuse the merge forever).
                config = config.with_overrides(symmetric=context.store.symmetric)
            if config.max_sparse_entries is not None:
                context.store.max_sparse_entries = config.max_sparse_entries
            if queries is not None:
                context.register(list(queries))
        else:
            universe = list(database) + (list(queries) if queries is not None else [])
            context = DistanceContext(
                distance,
                universe,
                symmetric=config.symmetric,
                n_jobs=config.n_jobs,
                max_sparse_entries=config.max_sparse_entries,
            )
        owns_pool = False
        if pool is None:
            pool = context.pool
        if pool is None and resolve_jobs(config.n_jobs) > 1:
            # Only a parallel config warrants worker processes; a serial
            # index stays pool-less (it then serves in this process
            # whatever n_jobs a call asks for), so nothing is left running
            # to leak.
            pool = PersistentPool(config.n_jobs)
            owns_pool = True
        if pool is not None and context.pool is None:
            context.pool = pool

        candidate_indices = candidate_distances = None
        if embedder is None:
            training = BoostMapTrainer(
                context, database, config.training, tables=tables
            ).train()
            embedder = training.model
            candidate_indices = training.tables.candidate_indices
            candidate_distances = training.tables.candidate_to_candidate
        elif tables is not None:
            candidate_indices = tables.candidate_indices
            candidate_distances = tables.candidate_to_candidate
        database_vectors = embedder.embed_many(list(database))
        return cls(
            context=context,
            database=database,
            embedder=embedder,
            database_vectors=database_vectors,
            config=config,
            candidate_indices=candidate_indices,
            candidate_distances=candidate_distances,
            pool=pool,
            owns_pool=owns_pool,
        )

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        database: Dataset,
        distance: Optional[DistanceMeasure] = None,
        backend: Optional[str] = None,
        pool: Optional[PersistentPool] = None,
        store_mmap_mode: Optional[str] = None,
    ) -> "EmbeddingIndex":
        """Restore a saved index against its database — no retraining.

        The supplied ``database`` must be content- and order-identical to
        the one the index was built over (verified by fingerprint; a
        mismatch raises :class:`~repro.exceptions.ArtifactError`, because
        the persisted model, vectors and store are all keyed by database
        position).  Opening performs **zero** exact distance evaluations:
        the model is rebuilt from its serialized description plus the
        persisted candidate-distance table, the database embedding matrix
        is loaded, and the distance store arrives warm.

        Parameters
        ----------
        directory:
            The artifact directory written by :meth:`save`.
        database:
            The database objects (artifacts persist fingerprints, not the
            database itself).
        distance:
            Optional measure instance to use instead of unpickling the
            persisted one; its ``name`` must match the artifact's.
        backend:
            Optional backend-name override (defaults to the saved one),
            applied before the saved config is validated: it also opens
            an artifact saved under a retired backend, which is otherwise
            refused with :class:`~repro.exceptions.ArtifactError`.
        pool:
            Optional shared pool, as in :meth:`build`.
        store_mmap_mode:
            Forwarded to
            :meth:`~repro.distances.context.DistanceContext.load_store`:
            with ``"r"``, the store's dense blocks (ground-truth and
            training tables) are memory-mapped and page in on demand
            instead of materializing at open time.  Requires an artifact
            saved with ``compress_store=False``; compressed blocks fall
            back to an eager read with a warning.
        """
        directory = Path(directory)
        manifest = artifacts.read_manifest(directory)
        payload = manifest["config"]
        if backend is not None:
            _check_backend(backend)
            if isinstance(payload, dict):  # else from_dict refuses it
                payload = {**payload, "backend": backend}
        try:
            config = IndexConfig.from_dict(payload)
        except ConfigurationError as exc:
            raise ArtifactError(
                f"index artifact {directory} cannot be opened as saved: {exc} "
                "(open(..., backend=...) serves it through another backend)"
            ) from exc
        paths = artifacts.artifact_paths(directory)

        if not isinstance(database, Dataset):
            raise RetrievalError("database must be a Dataset")
        if len(database) != int(manifest["n_database"]):
            raise ArtifactError(
                f"index artifact {directory} was built over "
                f"{manifest['n_database']} database objects; got "
                f"{len(database)}"
            )
        database_fingerprint = fingerprint_objects(database)
        if database_fingerprint != manifest["database_fingerprint"]:
            raise ArtifactError(
                f"index artifact {directory} was built over a different "
                "database (content fingerprint mismatch): the persisted "
                "model, vectors and distance store are keyed by database "
                "position, so opening against these objects would return "
                "wrong neighbors. Rebuild the index for this database."
            )

        if distance is None:
            distance = artifacts.read_pickle(paths["distance"], "distance measure")
        elif getattr(distance, "name", None) != manifest.get("distance_name"):
            raise ArtifactError(
                f"index artifact {directory} was built with distance "
                f"{manifest.get('distance_name')!r}, got {distance.name!r}"
            )
        extras: List[Any] = []
        if int(manifest.get("n_extra_objects", 0)) > 0:
            extras = artifacts.read_pickle(paths["extras"], "extra universe objects")

        context = DistanceContext(
            distance,
            list(database) + list(extras),
            symmetric=config.symmetric,
            n_jobs=config.n_jobs,
            max_sparse_entries=config.max_sparse_entries,
        )
        context.load_store(paths["store"], mmap_mode=store_mmap_mode)

        model_payload, candidate_indices = artifacts.read_model_payload(directory)
        database_vectors, candidate_distances = artifacts.read_arrays(directory)
        candidate_objects = [database[int(i)] for i in candidate_indices]
        embedder = QuerySensitiveModel.from_dict(
            model_payload, context, candidate_objects, candidate_distances
        )

        owns_pool = False
        if pool is None and resolve_jobs(config.n_jobs) > 1:
            pool = PersistentPool(config.n_jobs)
            owns_pool = True
        if pool is not None and context.pool is None:
            context.pool = pool
        index = cls(
            context=context,
            database=database,
            embedder=embedder,
            database_vectors=database_vectors,
            config=config,
            candidate_indices=candidate_indices,
            candidate_distances=candidate_distances,
            pool=pool,
            owns_pool=owns_pool,
        )
        return index

    # -- persistence ----------------------------------------------------

    def save(self, directory: Union[str, Path], compress_store: bool = True) -> Path:
        """Persist this index as a versioned artifact directory.

        Everything needed for a zero-retraining :meth:`open` is written:
        the serialized model (with its candidate provenance), the embedded
        database, the distance store (warm pairs included — a query served
        at least twice so far, or passed to ``build(queries=...)``, stays
        free after :meth:`open`; a query seen only once is not stored), the
        config and the dataset fingerprints.
        The manifest is committed last, so a crashed save never leaves an
        openable half-artifact.

        ``compress_store=False`` writes the distance store uncompressed so
        a later ``open(..., store_mmap_mode="r")`` can memory-map its dense
        blocks (larger on disk, instant to open).
        """
        if not isinstance(self.embedder, QuerySensitiveModel):
            raise ArtifactError(
                "only indexes holding a trained QuerySensitiveModel can be "
                f"saved; this index wraps a {type(self.embedder).__name__}. "
                "Build the index without a prebuilt embedder to persist it."
            )
        if self._candidate_indices is None or self._candidate_distances is None:
            raise ArtifactError(
                "this index has no candidate provenance (it was built from "
                "a prebuilt embedder without training tables), so its model "
                "cannot be serialized; rebuild with EmbeddingIndex.build"
            )
        # The artifact format stores the database as the universe *prefix*
        # (its fingerprint, its store keys, the extras slice all assume
        # positions [0, n)).  A hand-built context with another layout
        # serves fine but cannot be persisted in this format.
        positions = self.context.indices_of(list(self.database))
        if not np.array_equal(positions, np.arange(len(self.database))):
            raise ArtifactError(
                "cannot save: the database does not occupy the first "
                f"{len(self.database)} universe positions of this index's "
                "context. Build the context over list(database) first (plus "
                "queries after), or let EmbeddingIndex.build create it."
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = artifacts.artifact_paths(directory)

        # Re-saving over an existing artifact: retract the old manifest
        # first, so a crash mid-save leaves an (unopenable) manifest-less
        # directory rather than an old manifest validating a mixed set of
        # old and new files.
        if paths["manifest"].exists():
            paths["manifest"].unlink()

        artifacts.write_pickle(paths["distance"], self.context.base)
        extras = self.context.objects[len(self.database):]
        if extras:
            artifacts.write_pickle(paths["extras"], extras)
        elif paths["extras"].exists():
            paths["extras"].unlink()
        self.context.save_store(paths["store"], compress=compress_store)
        artifacts.write_arrays(
            directory, self.database_vectors, self._candidate_distances
        )
        artifacts.write_model_payload(
            directory, self.embedder.to_dict(), self._candidate_indices
        )
        artifacts.write_manifest(
            directory,
            {
                "created_utc": _datetime.datetime.now(
                    _datetime.timezone.utc
                ).isoformat(),
                "config": self.config.to_dict(),
                "backend": self._backend_name,
                "distance_name": self.context.base.name,
                "n_database": len(self.database),
                "n_extra_objects": len(extras),
                "database_fingerprint": self.context.prefix_fingerprint(
                    len(self.database)
                ),
                "universe_fingerprint": self.context.fingerprint,
                "model": {
                    "dim": int(self.dim),
                    "embedding_cost": int(self.embedding_cost),
                    "n_terms": len(self.embedder.terms),
                },
            },
        )
        return directory

    # -- querying -------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RetrievalError("this EmbeddingIndex has been closed")

    def _serving_guard(self):
        """The serving lock when tickets may be in flight, else a no-op.

        Blocking queries mutate the shared context (query registration,
        store entries, counters); once the async serving layer exists,
        those mutations must serialize with ticket completion happening on
        other threads.  An index that never served asynchronously pays
        nothing.
        """
        if self._server is not None:
            return self._server._lock
        return contextlib.nullcontext()

    def _register(self, objects: Sequence[Any]):
        """The request scope of one serving call over query ``objects``.

        Applies the context's admission rule
        (:meth:`~repro.distances.context.DistanceContext.admit`): a query
        is stored from its second sighting and is free from its third, in
        this process and after a :meth:`save`/:meth:`open` round trip;
        duplicates within one request are admitted at once.  Content
        matching maps equal-but-distinct objects (e.g. the caller's own
        copies of queries a reopened index has already stored) onto their
        universe indices.  A first sighting is served transiently: no
        universe index, no store traffic, its pairs held in the request's
        memo until the ``with`` block exits.  Sightings are remembered for
        the last ``len(database)`` novel queries.
        """
        return self.context.request(objects, len(self.database))

    def _check_p(self, p: Optional[int]) -> None:
        """Reject ``p=None`` unless the backend scans all or plans ``p``."""
        if (
            p is None
            and self._backend_name != "brute_force"
            and not callable(getattr(self._backend, "choose_p", None))
        ):
            raise RetrievalError(
                f"backend {self._backend_name!r} needs p (the number of "
                "filter candidates to refine)"
            )

    def query(self, obj: Any, k: int, p: Optional[int] = None) -> RetrievalResult:
        """Approximate ``k``-NN retrieval of one query object.

        ``p`` (the number of filter survivors to refine exactly) is
        required by the embedding-filter backends, ignored by
        ``"brute_force"`` and planned per query by ``"planned"`` when
        ``None``.  Returns a
        :class:`~repro.retrieval.filter_refine.RetrievalResult`, whose
        ``total_distance_computations`` is the paper's per-query cost.
        """
        self._check_open()
        with self._serving_guard():
            self._check_p(p)
            with self._register([obj]):
                return self._backend.query(obj, k, p)

    def query_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: Optional[int] = None,
        n_jobs: Optional[int] = None,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> List[RetrievalResult]:
        """Batched :meth:`query` (one embed batch, pooled refine fan-out).

        ``n_jobs`` defaults to the index config; with more than one worker
        the refine work runs on the index's persistent pool — the same
        worker processes across every ``query_many`` call of the index's
        lifetime.  Serving never starts a one-shot pool: an index without
        a usable persistent pool (none configured, or a borrowed one since
        closed) refines the batch in this process whatever ``n_jobs`` is.
        Results and per-query cost accounting are bit-identical to the
        serial path; a worker killed mid-batch is respawned and its chunks
        recomputed (or served serially), never answered wrongly.
        ``p=None`` on the ``"planned"`` backend refines each query's
        prefix slices serially whatever ``n_jobs`` is (one-query plans
        stay serial) and stops early once the top-``k`` is stable; every
        entry point serves ``p=None`` this way.

        With ``deadline``/``max_retries``/``allow_partial`` the batch runs
        through the submission-ordered serving stream (bit-identical, but
        for a batch's duplicates; see :meth:`stream`): a query
        that misses its per-query deadline raises its typed
        :class:`~repro.exceptions.ServingError` — within the deadline,
        instead of hanging — unless ``allow_partial=True``, in which case
        it contributes a ``partial=True`` result.
        """
        self._check_open()
        objects = list(objects)
        if not objects:
            return []
        if deadline is not None or max_retries is not None or allow_partial:
            results: List[Optional[RetrievalResult]] = [None] * len(objects)
            for position, result in self.stream(
                objects,
                k,
                p,
                n_jobs=n_jobs,
                order="submission",
                deadline=deadline,
                max_retries=max_retries,
                allow_partial=allow_partial,
            ):
                if isinstance(result, ServingError):
                    raise result
                results[position] = result
            return results
        with self._serving_guard():
            self._check_p(p)
            effective_jobs = self.config.n_jobs if n_jobs is None else n_jobs
            n_workers = resolve_jobs(effective_jobs)
            if n_workers > 1 and self.context._pool_for(n_workers) is None:
                effective_jobs = 1
            with self._register(objects):
                return self._backend.query_many(objects, k, p, n_jobs=effective_jobs)

    # -- async serving ---------------------------------------------------

    @property
    def serving(self) -> "serving_module.AsyncServer":
        """The index's async serving state (created lazily)."""
        if self._server is None:
            self._server = serving_module.AsyncServer(self)
        return self._server

    def submit(
        self,
        obj: Any,
        k: int,
        p: Optional[int] = None,
        n_jobs: Optional[int] = None,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> "serving_module.QueryTicket":
        """Non-blocking :meth:`query`: returns a ticket, not a result.

        The query is embedded and filtered immediately (parent CPU); the
        refine batch is submitted to the index's persistent pool without
        waiting (or held for lazy serial evaluation when the index has no
        pool).  :meth:`~repro.index.serving.QueryTicket.result` completes
        it — bit-identical to the blocking call, including per-query cost
        accounting — and
        :meth:`~repro.index.serving.QueryTicket.cancel` abandons work that
        has not started.  With ``p=None`` on the ``"planned"`` backend the
        query is served here, serially as ``query_many(p=None)`` serves it
        whatever ``n_jobs`` is, and the ticket returned is complete.  See
        :mod:`repro.index.serving`.

        ``deadline`` (seconds from now) bounds the query's time in flight:
        on expiry the ticket resolves to a typed
        :class:`~repro.exceptions.ServingError` — or, with
        ``allow_partial=True``, to a ``partial=True`` result ranking the
        candidates resolved in time (a late ``p=None`` planned ticket keeps
        its full result, ``partial=False``).  ``max_retries`` overrides the
        pool's worker-failure recovery budget for this query.
        """
        self._check_open()
        return self.serving.submit(
            obj,
            k,
            p,
            n_jobs=n_jobs,
            deadline=deadline,
            max_retries=max_retries,
            allow_partial=allow_partial,
        )

    def stream(
        self,
        objects: Sequence[Any],
        k: int,
        p: Optional[int] = None,
        n_jobs: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        order: str = "completion",
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> "serving_module.QueryStream":
        """Pipelined :meth:`query_many`: yields ``(position, result)`` pairs.

        While the pool refines query ``i``, the parent embeds and filters
        query ``i+1`` — the embed/filter ↔ refine overlap the blocking
        batch path cannot express.  ``max_in_flight`` bounds how many
        queries are outstanding (default: twice the pool width); ``order``
        is ``"completion"`` (yield each result as soon as its refine lands)
        or ``"submission"`` (yield in input order).  Results — and their
        exact cost accounting, ``p=None`` included (see :meth:`submit`) —
        are bit-identical to :meth:`query_many` over the same batch, except
        that a novel query present twice pays twice (each submission is its
        own request, so the first copy is served transiently where
        ``query_many`` admits both at once).

        ``deadline``/``max_retries``/``allow_partial`` apply per query (see
        :meth:`submit`).  A query that resolves to a
        :class:`~repro.exceptions.ServingError` is yielded as ``(position,
        exception)`` and the stream keeps draining the rest.
        """
        self._check_open()
        if max_in_flight is None:
            width = self.pool.n_workers if self.pool is not None else 1
            max_in_flight = max(2, 2 * width)
        return serving_module.QueryStream(
            self.serving,
            objects,
            k,
            p,
            n_jobs,
            max_in_flight,
            order,
            deadline=deadline,
            max_retries=max_retries,
            allow_partial=allow_partial,
        )

    async def aquery_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: Optional[int] = None,
        n_jobs: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        deadline: Optional[float] = None,
        max_retries: Optional[int] = None,
        allow_partial: bool = False,
    ) -> List[RetrievalResult]:
        """``asyncio``-friendly :meth:`query_many` over the pipelined stream.

        Drains :meth:`stream` on an executor thread (the event loop stays
        responsive).  It resolves to the same list — same order, same
        neighbors, same per-query costs (but for the duplicates
        :meth:`stream` names) — that ``query_many`` returns.
        With a ``deadline``, a query that misses it appears in the list as
        its :class:`~repro.exceptions.ServingError` (or a ``partial=True``
        result when ``allow_partial``), never as a hang.
        """
        import asyncio

        self._check_open()
        objects = list(objects)
        stream = self.stream(
            objects,
            k,
            p,
            n_jobs=n_jobs,
            max_in_flight=max_in_flight,
            deadline=deadline,
            max_retries=max_retries,
            allow_partial=allow_partial,
        )

        def _drain() -> List[RetrievalResult]:
            results: List[Optional[RetrievalResult]] = [None] * len(objects)
            for position, result in stream:
                results[position] = result
            return results

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, _drain)

    # -- backend management ---------------------------------------------

    @property
    def backend(self) -> str:
        """Name of the active retriever backend."""
        return self._backend_name

    def set_backend(self, name: str) -> None:
        """Switch the retriever backend in place.

        Embeddings and the distance store are reused — switching backends
        re-wires the query path only and costs zero exact evaluations.
        """
        self._check_open()
        backend = _make_backend(
            name,
            self.context,
            self.database,
            self.embedder,
            self.database_vectors,
            self.config,
        )
        with self._serving_guard():
            self._backend = backend
            self._backend_name = name
            self.config = self.config.with_overrides(backend=name)

    # -- query planning --------------------------------------------------

    def enable_planner(
        self,
        target_accuracy: Optional[float] = None,
        cost_budget: Optional[int] = None,
    ) -> None:
        """Switch to the ``"planned"`` backend.

        Rewires the query path onto a
        :class:`~repro.retrieval.planner.PlannedRetriever` (embeddings and
        the distance store are reused, zero exact evaluations); afterwards
        every serving entry point accepts ``p=None``, plans the per-query
        refine ceiling and stops early at the same ``p'``.  Call
        :meth:`calibrate_planner` to fit the planner's filter-rank profile
        from probe queries; uncalibrated, the planner uses a deterministic
        fallback ceiling.  On an index already on ``"planned"`` the live
        planner is retargeted and keeps its calibration.
        """
        overrides: Dict[str, Any] = {}
        if target_accuracy is not None:
            overrides["planner_target_accuracy"] = float(target_accuracy)
        if cost_budget is not None:
            overrides["planner_cost_budget"] = int(cost_budget)
        self._check_open()
        self.config = self.config.with_overrides(**overrides)
        if self._backend_name != "planned":
            self.set_backend("planned")
            return
        with self._serving_guard():
            self._backend.target_accuracy = self.config.planner_target_accuracy
            self._backend.cost_budget = self.config.planner_cost_budget

    def calibrate_planner(self, probes: Sequence[Any], **kwargs) -> Dict[str, Any]:
        """Fit the planner's filter-rank profile from probe queries.

        Charged honestly; returns the calibration record (see
        :meth:`repro.retrieval.planner.PlannedRetriever.calibrate`).
        """
        self._check_open()
        calibrate = getattr(self._backend, "calibrate", None)
        if not callable(calibrate):
            raise RetrievalError(
                f"backend {self._backend_name!r} has no planner to calibrate; "
                "call enable_planner() first"
            )
        with self._serving_guard(), self._register(list(probes)):
            return calibrate(probes, **kwargs)

    def explain(self, k: int, p: Optional[int] = None) -> Dict[str, Any]:
        """The plan one query at ``k`` would execute, without running it.

        Requires the ``"planned"`` backend (see :meth:`enable_planner`);
        pure over the calibration profile and the targets.  Returns
        ``adaptive``, ``k``, ``p`` (the refine ceiling), ``schedule`` (the
        ``p'`` the early exit may stop at) and ``calibrated``.
        """
        self._check_open()
        explain = getattr(self._backend, "explain", None)
        if not callable(explain):
            raise RetrievalError(
                f"backend {self._backend_name!r} has no query planner; "
                "call enable_planner() first"
            )
        return explain(k, p)

    # -- introspection ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the embedding used for filtering."""
        return self.embedder.dim

    @property
    def embedding_cost(self) -> int:
        """Exact distances needed to embed one query."""
        return self.embedder.cost

    @property
    def distance_evaluations(self) -> int:
        """Exact evaluations performed through this index's context so far."""
        return self.context.distance_evaluations

    @property
    def fingerprint(self) -> Optional[str]:
        """Content fingerprint of the context universe."""
        return self.context.fingerprint

    def health(self) -> Dict[str, Any]:
        """Fault-tolerance status of the serving stack.

        ``pool`` reports worker supervision counters (``restarts``,
        ``failed_jobs``, ...), ``serving`` the degradation state of the
        async server; both are ``None`` until the corresponding component
        exists.  ``degraded=True`` means refine work currently bypasses
        the pool and runs serially in the parent — slower, never wrong.
        ``planner`` (``None`` unless the ``"planned"`` backend is active)
        reports the query planner's calibration state, targets, query and
        early-exit counters and last decision.
        """
        planner = None
        planner_health = getattr(self._backend, "planner_health", None)
        if callable(planner_health):
            planner = planner_health()
        return {
            "closed": self._closed,
            "backend": self._backend_name,
            "degraded": bool(self._server is not None and self._server.degraded),
            "pool": self.pool.health() if self.pool is not None else None,
            "serving": self._server.health() if self._server is not None else None,
            "planner": planner,
        }

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the persistent pool (if owned).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_pool and self.pool is not None:
            self.pool.close()
        if self.context.pool is self.pool and self._owns_pool:
            self.context.pool = None

    def __enter__(self) -> "EmbeddingIndex":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EmbeddingIndex(backend={self._backend_name!r}, dim={self.dim}, "
            f"n_database={len(self.database)}, "
            f"distance={self.context.base.name!r})"
        )
