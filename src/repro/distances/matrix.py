"""Distance-matrix helpers used during training preprocessing.

The BoostMap training procedure precomputes all distances between candidate
objects ``C`` and training objects ``Xtr`` (Sec. 7 of the paper); these
helpers compute those matrices while exploiting symmetry when applicable and
reporting progress through an optional callback.

Both helpers are built on the batch protocol of
:class:`~repro.distances.base.DistanceMeasure`: every matrix row is one
``compute_many`` call, so vectorised kernels (Lp, KL, batched DTW/edit DP,
point-set measures) are exploited automatically, and a plain scalar measure
still works through the generic fallback.

Parallelism
-----------
Pass ``n_jobs > 1`` to spread rows over a pool of worker processes
(``n_jobs=-1`` uses every CPU).  The distance measure and the objects must be
picklable.  Every row is one ``(row, object, columns)`` item of
:func:`repro.distances.parallel.parallel_refine`, the fan-out the retrieval
pipelines use too: top-level
:class:`~repro.distances.base.CountingDistance` wrappers are peeled off so
that cost accounting stays *exact* (the wrapped measure is shipped to the
workers and the parent-process counters are charged one evaluation per
computed pair, exactly as in the serial path).
Any other per-instance state mutated inside workers stays in the workers and
is discarded.

Shared caching
--------------
When ``distance`` is a :class:`~repro.distances.context.DistanceContext`
and every object belongs to the context's universe, the build is delegated
to the context's store-aware primitives: pairs already in the store are
free, fresh pairs are recorded, and only the missing work is fanned out
over the pool.  Objects outside the universe are evaluated in the parent
through the context's ``compute_many`` (it still computes, counts and
simply cannot cache them); combining out-of-universe objects with
``n_jobs > 1`` is rejected because the context must not cross the process
boundary.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.distances.base import DistanceMeasure
from repro.distances.context import DistanceContext
from repro.distances.parallel import ProgressCallback, parallel_refine, resolve_jobs
from repro.exceptions import DistanceError

__all__ = ["ProgressCallback", "pairwise_distances", "cross_distances"]


def _context_indices(
    context: DistanceContext, objects: Sequence[Any], n_workers: int
) -> Optional[np.ndarray]:
    """Universe indices for a delegated context build, or ``None``.

    ``None`` means at least one object is outside the context's universe:
    the caller then evaluates through the context's ``compute_many`` in
    the parent, which is only legal without a pool (the context cannot
    cross a process boundary).
    """
    try:
        return context.indices_of(objects)
    except DistanceError:
        if n_workers > 1:
            raise DistanceError(
                "cannot build a parallel distance matrix through a "
                "DistanceContext over objects outside its universe: the "
                "context must stay in the parent process. Register the "
                "objects with the context (or build it over the full "
                "dataset), or pass context.base to skip caching."
            )
        return None


def pairwise_distances(
    distance: DistanceMeasure,
    objects: Sequence[Any],
    symmetric: bool = True,
    progress: Optional[ProgressCallback] = None,
    n_jobs: Optional[int] = None,
) -> np.ndarray:
    """Full pairwise distance matrix over ``objects``.

    Parameters
    ----------
    distance:
        The distance measure to evaluate.
    objects:
        Sequence of objects; the result has shape ``(len(objects),) * 2``.
    symmetric:
        If ``True`` (default) only the upper triangle is evaluated and
        mirrored, halving the number of expensive evaluations.  Set to
        ``False`` for asymmetric measures such as KL divergence.
    progress:
        Optional callable ``progress(done, total)`` invoked after each row
        (serial) or each completed row chunk (parallel).
    n_jobs:
        Number of worker processes; ``None``/``0``/``1`` = serial (default),
        ``-1`` = all CPUs.  Requires a picklable measure and objects.
        A context-backed build (``distance`` is a
        :class:`~repro.distances.context.DistanceContext`) additionally
        reuses the context's persistent worker pool, when it has one.
    """
    if not isinstance(distance, DistanceMeasure):
        raise DistanceError("distance must be a DistanceMeasure instance")
    objects = list(objects)
    n = len(objects)
    n_workers = resolve_jobs(n_jobs)

    if isinstance(distance, DistanceContext):
        indices = _context_indices(distance, objects, n_workers)
        if indices is not None:
            return distance.pairwise(
                indices, symmetric=symmetric, n_jobs=n_jobs, progress=progress
            )

    columns = np.arange(n)
    items = [
        (i, objects[i], columns[i + 1 :] if symmetric else columns) for i in range(n)
    ]
    rows = parallel_refine(distance, objects, items, n_workers, progress=progress)
    matrix = np.zeros((n, n), dtype=float)
    for i, _obj, row_columns in items:
        matrix[i, row_columns] = rows[i]
        if symmetric:
            matrix[row_columns, i] = rows[i]
    return matrix


def cross_distances(
    distance: DistanceMeasure,
    rows: Sequence[Any],
    columns: Sequence[Any],
    progress: Optional[ProgressCallback] = None,
    n_jobs: Optional[int] = None,
) -> np.ndarray:
    """Distance matrix between two object collections.

    The entry ``[i, j]`` is ``distance(rows[i], columns[j])``; every row is
    one batched ``compute_many`` call.  See :func:`pairwise_distances` for
    the ``progress`` and ``n_jobs`` semantics.
    """
    if not isinstance(distance, DistanceMeasure):
        raise DistanceError("distance must be a DistanceMeasure instance")
    rows = list(rows)
    columns = list(columns)
    if not rows or not columns:
        return np.zeros((len(rows), len(columns)), dtype=float)
    n_workers = resolve_jobs(n_jobs)

    if isinstance(distance, DistanceContext):
        row_indices = _context_indices(distance, rows, n_workers)
        col_indices = _context_indices(distance, columns, n_workers)
        if row_indices is not None and col_indices is not None:
            return distance.cross(
                row_indices, col_indices, n_jobs=n_jobs, progress=progress
            )

    all_columns = np.arange(len(columns))
    items = [(i, row, all_columns) for i, row in enumerate(rows)]
    values = parallel_refine(distance, columns, items, n_workers, progress=progress)
    return np.array([values[i] for i in range(len(rows))], dtype=float)
