"""Correctness oracle: brute force over the raw measure, outside timed regions.

Nothing here goes through ``DistanceContext`` or the index: distances come
from a fresh instance of the workload's exact measure.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from workloads import K, raw_measure

#: Relative tolerance for "equal" distances.  A symmetric store may answer
#: a pair with the value computed in the mirrored direction, and the cDTW
#: recurrence differs between directions in the last ulps (see
#: ``DistanceContext``); anything wrong by more than 1e-9 relative is a
#: wrong answer.
RTOL = 1e-9

#: Served results of every run whose distances are also checked against
#: the numpy kernel backend.  Every result is checked against the active
#: (compiled) backend, which the index itself uses; this sample is what
#: keeps a compiled-kernel bug from passing as agreement with itself.
CROSS_CHECK_RESULTS = 50


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=0.0))


class Oracle:
    """Checks served results and scores accuracy for one workload."""

    def __init__(
        self, kind: str, database: Sequence[Any], cache: Optional[Path] = None
    ) -> None:
        self.kind = kind
        self.database = list(database)
        self.raw = raw_measure(kind)
        self.reference = raw_measure(kind, kernel="numpy")
        self.cache = cache
        self._verdicts: Dict[Tuple[int, bytes, bytes, bool], bool] = {}

    def check(self, query: Any, result: Any, cross_check: bool = False) -> bool:
        """Whether one served result is well formed and its distances exact.

        There must be ``min(k, n)`` distinct, in-range neighbours in
        non-decreasing distance order, and each reported distance must equal
        the raw-measure distance to that neighbour; with ``cross_check``,
        also the distance the numpy kernel backend computes.
        """
        if result is None or getattr(result, "partial", False):
            return False
        indices = np.asarray(result.neighbor_indices)
        distances = np.asarray(result.neighbor_distances, dtype=float)
        key = (id(query), indices.tobytes(), distances.tobytes(), cross_check)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._check(query, indices, distances, cross_check)
            self._verdicts[key] = verdict
        return verdict

    def _check(
        self, query: Any, indices: np.ndarray, distances: np.ndarray, cross_check: bool
    ) -> bool:
        n = len(self.database)
        expected = min(K, n)
        if indices.shape != (expected,) or distances.shape != (expected,):
            return False
        if indices.min() < 0 or indices.max() >= n or np.unique(indices).size != expected:
            return False
        if np.any(np.diff(distances) < 0):
            return False
        neighbours = [self.database[int(i)] for i in indices]
        measures = (self.raw, self.reference) if cross_check else (self.raw,)
        return all(
            _close(distances, np.asarray(m.compute_many(query, neighbours), dtype=float))
            for m in measures
        )

    def ground_truth(self, queries: Sequence[Any]) -> np.ndarray:
        """Brute-force distance rows (query to every database object).

        Rows depend only on the objects, so they are kept in ``cache`` under
        a digest of the measure, database and queries: every run of a
        workload scores the same evaluation set.
        """
        path = None
        if self.cache is not None:
            digest = hashlib.sha256(self.kind.encode())
            for obj in list(self.database) + list(queries):
                if self.kind == "dtw":
                    array = np.asarray(obj)
                    digest.update(repr(array.shape).encode() + array.tobytes())
                else:
                    digest.update(obj.encode())
                digest.update(b"|")
            path = self.cache / f"truth-{digest.hexdigest()[:24]}.npy"
            if path.is_file():
                return np.load(path)
        rows = self._brute_force(queries)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            partial = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npy")
            np.save(partial, rows)
            partial.replace(path)
        return rows

    def _brute_force(self, queries: Sequence[Any]) -> np.ndarray:
        rows = [
            np.asarray(self.raw.compute_many(q, self.database), dtype=float)
            for q in queries
        ]
        return np.asarray(rows, dtype=float).reshape(len(queries), len(self.database))

    @staticmethod
    def exact_hit(result: Any, row: np.ndarray) -> bool:
        """The paper's accuracy test: all true k nearest neighbours retrieved.

        Compared by distance, so that a neighbour tied with a true one at
        the k-th distance (common under edit distance) counts as retrieved.
        """
        if result is None:
            return False
        truth = np.sort(row)[: min(K, row.size)]
        got = np.sort(np.asarray(result.neighbor_distances, dtype=float))
        return _close(got, truth)


def count_failures(oracle: Oracle, served: Sequence[Tuple[Any, Optional[Any]]]) -> int:
    """Failed queries among ``(query, result-or-None)`` pairs.

    The first ``CROSS_CHECK_RESULTS`` are also checked against the numpy
    kernel backend.
    """
    return sum(
        not oracle.check(query, result, cross_check=position < CROSS_CHECK_RESULTS)
        for position, (query, result) in enumerate(served)
    )
