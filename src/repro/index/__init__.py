"""The embedding-index facade and its serving machinery.

:class:`~repro.index.embedding_index.EmbeddingIndex` is the library's top
level deliverable — the paper's trained filter-and-refine index as one
build → save → open → query session object (see that module's docstring).
:class:`~repro.index.pool.PersistentPool` provides the long-lived worker
processes it serves from, and :mod:`repro.index.artifacts` defines the
versioned on-disk format.
"""

from repro.index.embedding_index import (
    EmbeddingIndex,
    IndexConfig,
    available_backends,
)
from repro.index.pool import PersistentPool, PoolJob
from repro.index.serving import QueryStream, QueryTicket

__all__ = [
    "EmbeddingIndex",
    "IndexConfig",
    "PersistentPool",
    "PoolJob",
    "QueryStream",
    "QueryTicket",
    "available_backends",
]
