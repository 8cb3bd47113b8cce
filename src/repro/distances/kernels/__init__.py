"""Pluggable DP-kernel backends for the expensive distance measures.

The DP measures (:class:`~repro.distances.dtw.ConstrainedDTW`,
:class:`~repro.distances.edit.EditDistance` /
:class:`~repro.distances.edit.WeightedEditDistance`) route their inner
recurrences through this registry instead of calling the numpy kernels
directly.  Two backends ship in-tree:

``numpy``
    The PR 1 closed-form kernels (:mod:`.numpy_backend`) — pure numpy,
    always available, and the semantic reference every other backend is
    checked against.
``cext``
    Plain C ports compiled on demand with the system compiler and loaded
    via ctypes (:mod:`.cext`) — no build system, no optional wheel.  Its
    unit-cost edit kernel runs Myers' bit-vector recurrence for queries of
    up to 64 symbols.

Selection
---------
``get_kernel_backend(None)`` resolves, once per process, the first backend
in preference order (``cext``, ``numpy``) that *activates*:
construction succeeds and a small parity check against the numpy reference
passes to 1e-12.  The choice can be forced per measure
(``ConstrainedDTW(kernel="numpy")``), per process
(:func:`set_default_kernel_backend`), or per environment
(``REPRO_KERNEL_BACKEND=cext`` — how the CI matrix pins each leg).

Measures store only the backend *name* (a string attribute), so pickling a
measure to a worker process ships the name, and each worker re-resolves its
own backend instance lazily — compiled function objects never cross a
process boundary.  :func:`set_default_kernel_backend` also exports the
choice via ``REPRO_KERNEL_BACKEND`` so freshly spawned pool workers resolve
the *same* backend as the parent (keeping parallel results bit-identical to
serial ones, which the refine paths rely on).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.distances.kernels.errors import KernelUnavailable
from repro.distances.kernels.numpy_backend import NumpyBackend
from repro.exceptions import DistanceError

KERNEL_ENV = "REPRO_KERNEL_BACKEND"

__all__ = [
    "KERNEL_ENV",
    "KernelUnavailable",
    "available_kernel_backends",
    "get_kernel_backend",
    "kernel_backend_status",
    "register_kernel_backend",
    "registered_kernel_backends",
    "reset_kernel_backends",
    "set_default_kernel_backend",
]


def _make_cext():
    from repro.distances.kernels.cext import CExtensionBackend

    return CExtensionBackend()


# name -> zero-arg factory; construction may raise KernelUnavailable.
_FACTORIES: Dict[str, Callable[[], object]] = {
    "cext": _make_cext,
    "numpy": NumpyBackend,
}
# Default-selection order; third-party registrations slot in before numpy.
_PREFERENCE: List[str] = ["cext", "numpy"]

_ACTIVE: Dict[str, object] = {}
_FAILED: Dict[str, str] = {}
_DEFAULT_NAME: Optional[str] = None


def registered_kernel_backends() -> Tuple[str, ...]:
    """All registered backend names, in default-selection order."""
    return tuple(_PREFERENCE)


def register_kernel_backend(
    name: str, factory: Callable[[], object], *, before: str = "numpy"
) -> None:
    """Register a kernel backend factory under ``name``.

    The factory takes no arguments and returns an object with the three
    kernel methods (``dtw_batch``, ``dtw_batch_mixed``, ``edit_batch``);
    it may raise :class:`KernelUnavailable` when the host cannot support
    it.  By default the new backend is preferred over the numpy fallback
    (``before="numpy"``) during automatic selection.
    """
    key = str(name).lower()
    if not key:
        raise DistanceError("kernel backend name must be non-empty")
    _FACTORIES[key] = factory
    if key not in _PREFERENCE:
        try:
            position = _PREFERENCE.index(before)
        except ValueError:
            position = len(_PREFERENCE)
        _PREFERENCE.insert(position, key)
    reset_kernel_backends()


def reset_kernel_backends() -> None:
    """Drop cached activations so the next lookup re-probes every backend."""
    global _DEFAULT_NAME
    _ACTIVE.clear()
    _FAILED.clear()
    _DEFAULT_NAME = None


def _parity_reference() -> Dict[str, np.ndarray]:
    """Deterministic small inputs exercising every kernel entry point."""
    xs = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.25], [1.5, 3.0]])
    stack3 = np.array(
        [
            [[1.0, 0.0], [0.0, 2.0], [1.25, -0.5]],
            [[-1.0, 1.0], [2.0, 2.0], [0.0, 0.0]],
        ]
    )
    mixed = np.zeros((2, 5, 2))
    mixed[0, :1] = [[3.0, -2.0]]
    mixed[1, :5] = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [-1.0, 0.25], [0.0, 4.0]]
    lengths = np.array([1, 5], dtype=np.int64)
    radii = np.array([3, 1], dtype=np.int64)
    x_codes = np.array([0, 2, 1, 3], dtype=np.int64)
    codes = np.array([[1, 0, 3, 0], [2, 2, 0, 0]], dtype=np.int64)
    code_lengths = np.array([4, 2], dtype=np.int64)
    table = np.array([[0.0, 0.5], [0.25, 0.0]])
    # A unit-cost query filling one 64-bit word, with a code >= 128 (off
    # the compiled word path's direct table), against targets of length 0
    # and 65.
    word_codes = np.arange(64, dtype=np.int64) % 5
    word_codes[[3, 40]] = 300
    word_stack = np.zeros((2, 65), dtype=np.int64)
    word_stack[1] = np.insert(word_codes, 20, 300)
    word_stack[1, 60] = 7
    word_lengths = np.array([0, 65], dtype=np.int64)
    return {
        "xs": xs,
        "stack3": stack3,
        "mixed": mixed,
        "lengths": lengths,
        "radii": radii,
        "x_codes": x_codes,
        "codes": codes,
        "code_lengths": code_lengths,
        "table": table,
        "word_codes": word_codes,
        "word_stack": word_stack,
        "word_lengths": word_lengths,
    }


def _check_parity(backend: object) -> None:
    """Assert ``backend`` agrees with the numpy reference on small inputs.

    Raises :class:`KernelUnavailable` on disagreement so a miscompiled or
    ABI-broken backend is skipped (or reported, when explicitly requested)
    instead of silently serving wrong distances.
    """
    reference = NumpyBackend()
    data = _parity_reference()
    cases = []
    cases.append(
        (
            "dtw_batch",
            backend.dtw_batch(data["xs"], data["stack3"], 2),
            reference.dtw_batch(data["xs"], data["stack3"], 2),
        )
    )
    cases.append(
        (
            "dtw_batch_mixed",
            backend.dtw_batch_mixed(
                data["xs"], data["mixed"], data["lengths"], data["radii"]
            ),
            reference.dtw_batch_mixed(
                data["xs"], data["mixed"], data["lengths"], data["radii"]
            ),
        )
    )
    unit_table = np.zeros((0, 0))
    cases.append(
        (
            "edit_batch[unit]",
            backend.edit_batch(
                data["x_codes"], data["codes"], data["code_lengths"],
                1.0, 1.0, unit_table, 1.0,
            ),
            reference.edit_batch(
                data["x_codes"], data["codes"], data["code_lengths"],
                1.0, 1.0, unit_table, 1.0,
            ),
        )
    )
    cases.append(
        (
            "edit_batch[unit, 64-symbol query]",
            backend.edit_batch(
                data["word_codes"], data["word_stack"], data["word_lengths"],
                1.0, 1.0, unit_table, 1.0,
            ),
            reference.edit_batch(
                data["word_codes"], data["word_stack"], data["word_lengths"],
                1.0, 1.0, unit_table, 1.0,
            ),
        )
    )
    cases.append(
        (
            "edit_batch[weighted]",
            backend.edit_batch(
                data["x_codes"], data["codes"], data["code_lengths"],
                0.75, 1.25, data["table"], 0.6,
            ),
            reference.edit_batch(
                data["x_codes"], data["codes"], data["code_lengths"],
                0.75, 1.25, data["table"], 0.6,
            ),
        )
    )
    for label, got, want in cases:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.allclose(
            got, want, rtol=1e-12, atol=1e-12
        ):
            raise KernelUnavailable(
                f"backend {getattr(backend, 'name', backend)!r} failed the "
                f"{label} parity check: got {got!r}, expected {want!r}"
            )


def _activate(name: str) -> object:
    """Construct + parity-check backend ``name``, caching the outcome."""
    if name in _ACTIVE:
        return _ACTIVE[name]
    if name in _FAILED:
        raise KernelUnavailable(_FAILED[name])
    factory = _FACTORIES.get(name)
    if factory is None:
        raise DistanceError(
            f"unknown kernel backend {name!r} "
            f"(registered: {', '.join(_PREFERENCE)})"
        )
    try:
        backend = factory()
        if name != "numpy":
            _check_parity(backend)
    except KernelUnavailable as exc:
        _FAILED[name] = f"kernel backend {name!r} unavailable: {exc}"
        raise KernelUnavailable(_FAILED[name])
    except Exception as exc:  # a backend crashing its probe is "unavailable"
        _FAILED[name] = f"kernel backend {name!r} failed to activate: {exc!r}"
        raise KernelUnavailable(_FAILED[name])
    _ACTIVE[name] = backend
    return backend


def get_kernel_backend(name: Optional[str] = None) -> object:
    """Resolve a kernel backend by name, env var, or automatic preference.

    ``name=None`` consults ``REPRO_KERNEL_BACKEND`` first; when that is
    unset too, the first backend in preference order that activates wins
    and the choice is cached for the process.  Explicit names (argument or
    env var) that cannot be activated raise
    :class:`~repro.exceptions.DistanceError` — an explicitly pinned CI leg
    must fail loudly, not silently fall back.
    """
    global _DEFAULT_NAME
    if name is None:
        name = os.environ.get(KERNEL_ENV) or None
    if name is not None:
        key = str(name).lower()
        try:
            return _activate(key)
        except KernelUnavailable as exc:
            raise DistanceError(str(exc))
    if _DEFAULT_NAME is not None:
        return _ACTIVE[_DEFAULT_NAME]
    for candidate in _PREFERENCE:
        try:
            backend = _activate(candidate)
        except KernelUnavailable:
            continue
        _DEFAULT_NAME = candidate
        return backend
    raise DistanceError(
        "no kernel backend could be activated "
        f"(tried: {', '.join(_PREFERENCE)})"
    )  # pragma: no cover - numpy backend never fails to activate


def set_default_kernel_backend(name: str) -> object:
    """Pin the process-default backend (and export it to future workers).

    Setting ``REPRO_KERNEL_BACKEND`` here is what makes pool workers
    spawned after this call resolve the same backend as the parent —
    measures ship only a *name* (possibly ``None`` = "process default"),
    so the default must travel through the environment.
    """
    backend = get_kernel_backend(name)
    os.environ[KERNEL_ENV] = str(name).lower()
    return backend


def available_kernel_backends() -> Tuple[str, ...]:
    """Probe every registered backend; return the names that activate."""
    names = []
    for candidate in _PREFERENCE:
        try:
            _activate(candidate)
        except (KernelUnavailable, DistanceError):
            continue
        names.append(candidate)
    return tuple(names)


def kernel_backend_status() -> Dict[str, str]:
    """Probe every backend and report ``name -> "active" | reason``."""
    status: Dict[str, str] = {}
    for candidate in _PREFERENCE:
        try:
            _activate(candidate)
        except (KernelUnavailable, DistanceError) as exc:
            status[candidate] = str(exc)
        else:
            status[candidate] = "active"
    return status
