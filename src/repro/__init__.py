"""repro — a reproduction of "Query-Sensitive Embeddings" (SIGMOD 2005).

The library implements the paper's query-sensitive embedding method (an
extension of BoostMap), the baselines it is compared against (FastMap and the
original BoostMap), the expensive distance measures and datasets the
experiments use, the filter-and-refine retrieval framework, and the full
evaluation harness that regenerates the paper's figures and tables.

Quick start
-----------
The front door is :class:`~repro.index.embedding_index.EmbeddingIndex` —
build it once over a database (training the paper's proposed Se-QS method),
query it, save it, reopen it with zero retraining:

>>> from repro import (
...     EmbeddingIndex, IndexConfig, L2Distance, RetrievalSplit,
...     TrainingConfig, make_gaussian_clusters,
... )
>>> dataset = make_gaussian_clusters(n_objects=120, seed=0)
>>> split = RetrievalSplit.from_dataset(dataset, n_queries=20, seed=1)
>>> config = IndexConfig(training=TrainingConfig(
...     n_candidates=40, n_training_objects=40, n_triples=400,
...     n_rounds=8, classifiers_per_round=20, seed=2))
>>> index = EmbeddingIndex.build(L2Distance(), split.database, config)
>>> hit = index.query(split.queries[0], k=1, p=10)
>>> hit.total_distance_computations < len(split.database)
True

``index.save(directory)`` persists the trained model, the embedded
database and the warm distance store as one versioned artifact;
``EmbeddingIndex.open(directory, database)`` restores it (dataset
fingerprint verified) and serves the stored pairs for free: the
training tables and the pairs of every query served at least twice (a
query's first sighting is served without touching the store).
``index.query_many(queries, k, p, n_jobs=...)`` batches queries through
the index's persistent pool of worker processes (or in this process when
the index has none), and the retriever backend — ``"filter_refine"``
(default), ``"planned"`` or ``"brute_force"``, a closed set — is
switchable without re-evaluating anything.

The layers underneath (``BoostMapTrainer``, the retrievers,
``DistanceContext``) remain public for experiments that need them;
see the module docstrings and ``examples/``.
"""

from repro.exceptions import (
    ReproError,
    ConfigurationError,
    DatasetError,
    DistanceError,
    EmbeddingError,
    TrainingError,
    RetrievalError,
    ServingError,
    ServingTimeout,
    ExperimentError,
    SerializationError,
    ArtifactError,
)
from repro.distances import (
    DistanceMeasure,
    FunctionDistance,
    CountingDistance,
    DistanceContext,
    DistanceStore,
    LpDistance,
    L1Distance,
    L2Distance,
    WeightedL1Distance,
    QuerySensitiveL1,
    ConstrainedDTW,
    ShapeContextDistance,
    EditDistance,
    WeightedEditDistance,
    KLDivergence,
    SymmetricKL,
    JensenShannonDistance,
    ChamferDistance,
    HausdorffDistance,
)
from repro.datasets import (
    Dataset,
    RetrievalSplit,
    DigitImageGenerator,
    make_digit_dataset,
    TimeSeriesGenerator,
    make_timeseries_dataset,
    ToyUnitSquare,
    make_toy_dataset,
    StringMutationGenerator,
    make_string_dataset,
    make_gaussian_clusters,
)
from repro.embeddings import (
    Embedding,
    OneDimensionalEmbedding,
    ReferenceEmbedding,
    PivotEmbedding,
    CompositeEmbedding,
    LipschitzEmbedding,
    build_lipschitz_embedding,
    FastMapEmbedding,
    build_fastmap_embedding,
)
from repro.core import (
    TripleSet,
    triple_label,
    Interval,
    GLOBAL_INTERVAL,
    AdaBoost,
    RandomTripleSampler,
    SelectiveTripleSampler,
    QuerySensitiveModel,
    BoostMapTrainer,
    TrainingConfig,
    TrainingResult,
)
from repro.retrieval import (
    NeighborTable,
    ground_truth_neighbors,
    QueryEngine,
    BruteForceRetriever,
    FilterRefineRetriever,
    RetrievalResult,
    DimensionSweep,
    optimal_cost_curve,
    DynamicDatabase,
    DriftMonitor,
)
from repro.index import (
    EmbeddingIndex,
    IndexConfig,
    PersistentPool,
    QueryStream,
    QueryTicket,
    available_backends,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "DatasetError",
    "DistanceError",
    "EmbeddingError",
    "TrainingError",
    "RetrievalError",
    "ServingError",
    "ServingTimeout",
    "ExperimentError",
    "SerializationError",
    "ArtifactError",
    # distances
    "DistanceMeasure",
    "FunctionDistance",
    "CountingDistance",
    "DistanceContext",
    "DistanceStore",
    "LpDistance",
    "L1Distance",
    "L2Distance",
    "WeightedL1Distance",
    "QuerySensitiveL1",
    "ConstrainedDTW",
    "ShapeContextDistance",
    "EditDistance",
    "WeightedEditDistance",
    "KLDivergence",
    "SymmetricKL",
    "JensenShannonDistance",
    "ChamferDistance",
    "HausdorffDistance",
    # datasets
    "Dataset",
    "RetrievalSplit",
    "DigitImageGenerator",
    "make_digit_dataset",
    "TimeSeriesGenerator",
    "make_timeseries_dataset",
    "ToyUnitSquare",
    "make_toy_dataset",
    "StringMutationGenerator",
    "make_string_dataset",
    "make_gaussian_clusters",
    # embeddings
    "Embedding",
    "OneDimensionalEmbedding",
    "ReferenceEmbedding",
    "PivotEmbedding",
    "CompositeEmbedding",
    "LipschitzEmbedding",
    "build_lipschitz_embedding",
    "FastMapEmbedding",
    "build_fastmap_embedding",
    # core
    "TripleSet",
    "triple_label",
    "Interval",
    "GLOBAL_INTERVAL",
    "AdaBoost",
    "RandomTripleSampler",
    "SelectiveTripleSampler",
    "QuerySensitiveModel",
    "BoostMapTrainer",
    "TrainingConfig",
    "TrainingResult",
    # retrieval
    "NeighborTable",
    "ground_truth_neighbors",
    "QueryEngine",
    "BruteForceRetriever",
    "FilterRefineRetriever",
    "RetrievalResult",
    "DimensionSweep",
    "optimal_cost_curve",
    "DynamicDatabase",
    "DriftMonitor",
    # index
    "EmbeddingIndex",
    "IndexConfig",
    "PersistentPool",
    "QueryStream",
    "QueryTicket",
    "available_backends",
]
