"""Distance measures and the distance-counting framework.

The paper's entire evaluation is expressed in *numbers of exact distance
computations* per query, so counting evaluations of the underlying measure
``D_X`` is a first-class feature of this subpackage
(:class:`~repro.distances.base.CountingDistance`).

Every measure also speaks the *batch protocol*
(:meth:`~repro.distances.base.DistanceMeasure.compute_many` /
:meth:`~repro.distances.base.DistanceMeasure.compute_pairs`): the Lp family,
KL family and point-set measures override it with fully vectorised kernels,
the DP measures (constrained DTW, edit distances) with row-vectorised DPs
batched over many targets, the Shape Context distance with a
target-batched χ² cost-tensor kernel, and everything else inherits an
equivalent scalar loop.  The matrix builders (:mod:`repro.distances.matrix`,
with an optional ``n_jobs`` process pool), the batched ``embed_many``
embedding paths and the filter-and-refine refine step are all built on it;
counting stays exact through every batch path.

Distance lifecycle
------------------
Because the paper treats every exact evaluation as *the* cost unit, this
subpackage distinguishes three layers of distance objects:

* **raw measures** (:class:`~repro.distances.base.DistanceMeasure`
  subclasses) — stateless kernels, safe to ship to worker processes.
  The DP measures resolve their inner recurrences through the *kernel
  backend registry* (:mod:`repro.distances.kernels`): a compiled backend
  (on-demand-compiled C loaded via ctypes) when it activates and passes
  its parity check against the always-available numpy reference,
  selectable per measure (``ConstrainedDTW(kernel="numpy")``),
  per process (:func:`~repro.distances.kernels.set_default_kernel_backend`)
  or per environment (``REPRO_KERNEL_BACKEND``).  Measures pickle the
  backend *name*, never the backend, so pool workers resolve their own;
* **the counting wrapper** (:class:`~repro.distances.base.CountingDistance`)
  — per-call-site accounting;
* **the shared context** (:class:`~repro.distances.context.DistanceContext`)
  — one per experiment, owning the raw measure, a
  :class:`~repro.distances.context.DistanceStore` keyed by *stable dataset
  indices* (picklable, persistable to ``.npz``), exact counting, and the
  ``n_jobs`` pool policy.  Training-table builds, embedding anchor
  evaluations and retrieval refine steps all route through it, so
  overlapping pairs are evaluated once per store lifetime — the paper's
  "preprocessing once" cost model.

Measures implemented:

* cheap vector measures used in embedding space
  (:mod:`repro.distances.lp`) including the query-sensitive weighted L1 of
  Eq. 11;
* the two expensive measures used in the paper's experiments — the Shape
  Context distance for images (:mod:`repro.distances.shape_context`) and
  constrained Dynamic Time Warping for time series
  (:mod:`repro.distances.dtw`);
* additional non-metric measures the paper cites as motivating examples
  (edit distance, Kullback-Leibler, chamfer, Hausdorff).
"""

from repro.distances.base import (
    DistanceMeasure,
    FunctionDistance,
    CountingDistance,
)
from repro.distances.lp import (
    LpDistance,
    L1Distance,
    L2Distance,
    WeightedL1Distance,
    QuerySensitiveL1,
)
from repro.distances.dtw import ConstrainedDTW, dtw_distance
from repro.distances.shape_context import (
    ShapeContextDistance,
    ShapeContextExtractor,
    sample_edge_points,
)
from repro.distances.edit import EditDistance, WeightedEditDistance
from repro.distances.kl import KLDivergence, SymmetricKL, JensenShannonDistance
from repro.distances.chamfer import ChamferDistance
from repro.distances.hausdorff import HausdorffDistance
from repro.distances.context import (
    DistanceContext,
    DistanceStore,
    fingerprint_objects,
    object_digest,
)
from repro.distances.kernels import (
    available_kernel_backends,
    get_kernel_backend,
    kernel_backend_status,
    register_kernel_backend,
    set_default_kernel_backend,
)
from repro.distances.matrix import pairwise_distances, cross_distances
from repro.distances.parallel import (
    ensure_parallel_safe,
    resolve_jobs,
    split_counting,
)

__all__ = [
    "DistanceMeasure",
    "FunctionDistance",
    "CountingDistance",
    "DistanceContext",
    "DistanceStore",
    "fingerprint_objects",
    "object_digest",
    "LpDistance",
    "L1Distance",
    "L2Distance",
    "WeightedL1Distance",
    "QuerySensitiveL1",
    "ConstrainedDTW",
    "dtw_distance",
    "ShapeContextDistance",
    "ShapeContextExtractor",
    "sample_edge_points",
    "EditDistance",
    "WeightedEditDistance",
    "KLDivergence",
    "SymmetricKL",
    "JensenShannonDistance",
    "ChamferDistance",
    "HausdorffDistance",
    "pairwise_distances",
    "cross_distances",
    "ensure_parallel_safe",
    "resolve_jobs",
    "split_counting",
    "available_kernel_backends",
    "get_kernel_backend",
    "kernel_backend_status",
    "register_kernel_backend",
    "set_default_kernel_backend",
]
