"""The benchmark's workloads: what is served, and the inputs made from a seed.

Every input is generated here (see ``DATA_SEED`` for what ``--seed``
drives); the library only ever sees the generated objects.  All workloads
are closed loops: one client in one process sends the next request when
the previous one has returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.trainer import TrainingConfig
from repro.datasets.base import Dataset
from repro.datasets.strings import StringMutationGenerator
from repro.datasets.timeseries import TimeSeriesGenerator
from repro.distances.dtw import ConstrainedDTW
from repro.distances.edit import EditDistance

K = 5
#: Accuracy the planner of ``edit_planned`` is asked to reach.
TARGET_ACCURACY = 0.95

#: The ROADMAP training config every workload's index is trained with.
TRAINING = TrainingConfig(
    n_candidates=60,
    n_training_objects=60,
    n_triples=1500,
    n_rounds=20,
    classifiers_per_round=30,
    kmax=5,
    seed=7,
)

#: A training config small enough for the self-test's toy indexes.
TOY_TRAINING = TrainingConfig(
    n_candidates=16,
    n_training_objects=16,
    n_triples=150,
    n_rounds=3,
    classifiers_per_round=8,
    kmax=5,
    seed=7,
)


@dataclass(frozen=True)
class Workload:
    """One named traffic mix against one index."""

    name: str
    measure: str  # "dtw" or "edit"
    n_database: int
    p: Optional[int]  # None: the planner picks p per query
    #: Queries per request: 1 sends ``index.query``, more ``index.query_many``.
    batch: int = 1
    #: > 0: the planner is enabled and calibrated on this many probes.
    n_probes: int = 0
    #: Queries each fresh index serves before the next set-up.  The store
    #: grows with every novel query and request time grows with it, so a
    #: fixed budget keeps runs comparable whatever their speed.
    queries_per_setup: int = 3000
    #: Served queries scored against brute force (accuracy, evals/query).
    n_scored: int = 300
    training: TrainingConfig = field(default_factory=lambda: TRAINING)

    def toy(self) -> "Workload":
        """The same workload at self-test size."""
        return replace(
            self,
            n_database=150,
            n_probes=6 if self.n_probes else 0,
            queries_per_setup=20,
            n_scored=20,
            p=None if self.p is None else min(self.p, 30),
            training=TOY_TRAINING,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dtw_cold_online",
            measure="dtw",
            n_database=2000,
            p=50,
        ),
        Workload(
            name="edit_planned",
            measure="edit",
            n_database=2000,
            p=None,
            batch=10,
            n_probes=20,
            queries_per_setup=2000,
        ),
    )
}


def raw_measure(kind: str, kernel: Optional[str] = None):
    """A fresh instance of a workload's exact measure."""
    if kind == "dtw":
        return ConstrainedDTW(kernel=kernel)
    return EditDistance(kernel=kernel)


#: Seed of what accuracy and cost are scored on: the database, the planner
#: probes and the evaluation queries.  ``--seed`` drives the traffic (the
#: novel queries after the evaluation set), so accuracy and evals_per_query
#: repeat exactly on every run of one program, and a change in them is a
#: change in the program.  Scored on a seeded set instead, 300
#: all-or-nothing top-5 hits at ~35% accuracy spread by ~10% between seeds.
DATA_SEED = 0


class Inputs:
    """Database, probes and request stream of one workload.

    Novel queries are drawn lazily, so a faster program never runs out of
    never-seen queries; the first ``n_scored`` of them are the fixed
    evaluation set, then the seeded stream follows.  The same seed always
    yields the same inputs.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = int(seed)
        data_rng, evaluation_rng, probe_rng = np.random.default_rng(DATA_SEED).spawn(3)
        self._query_rng = np.random.default_rng(self.seed)
        if workload.measure == "dtw":
            generator = TimeSeriesGenerator(n_seeds=20, length=64)
            patterns = generator.seeds(data_rng)

            def draw(rng: np.random.Generator) -> Any:
                return generator.variant(patterns[rng.integers(len(patterns))], rng)

        else:
            generator = StringMutationGenerator()
            ancestors = generator.ancestors(data_rng)

            def draw(rng: np.random.Generator) -> Any:
                return generator.mutate(ancestors[rng.integers(len(ancestors))], rng)

        self._draw: Callable[[np.random.Generator], Any] = draw
        self.database = Dataset(
            objects=[draw(data_rng) for _ in range(workload.n_database)],
            name=f"{workload.name}-db",
        )
        self.probes = [draw(probe_rng) for _ in range(workload.n_probes)]
        self._unsent = deque(draw(evaluation_rng) for _ in range(workload.n_scored))

    def next_request(self) -> List[Any]:
        """The next request: ``batch`` never-seen query objects."""
        return [
            self._unsent.popleft() if self._unsent else self._draw(self._query_rng)
            for _ in range(self.workload.batch)
        ]


def send(index: Any, workload: Workload, queries: List[Any]) -> List[Any]:
    """Serve one request; returns one result per query."""
    if workload.batch == 1:
        return [index.query(queries[0], k=K, p=workload.p)]
    return index.query_many(queries, k=K, p=workload.p)
