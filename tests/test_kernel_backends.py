"""Parity and registry tests for the pluggable DP kernel backends.

Covers the acceptance surface of :mod:`repro.distances.kernels`:

* backend-level parity (every activatable backend vs the numpy reference,
  to 1e-12) on every shape class — uniform batches, mixed lengths,
  length-1 series, bands wider than the series, multi-dimensional series,
  unit and weighted/asymmetric edit costs;
* measure-level parity: ``ConstrainedDTW``/``EditDistance``/
  ``WeightedEditDistance`` pinned to each backend agree with the numpy
  pin on randomized workloads;
* registry behavior: automatic preference, explicit names failing loudly,
  the ``REPRO_KERNEL_BACKEND`` env override, per-measure overrides,
  pickling measures by backend *name*, and rejection of a backend that
  flunks the activation parity check;
* import robustness: ``import repro`` works in a subprocess with numba
  absent, and a forced-fallback subprocess resolves the numpy backend.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.distances import kernels as kernels_module
from repro.distances.dtw import ConstrainedDTW, _as_series, _resolve_radius
from repro.distances.edit import EditDistance, WeightedEditDistance
from repro.distances.kernels import (
    KERNEL_ENV,
    KernelUnavailable,
    available_kernel_backends,
    get_kernel_backend,
    kernel_backend_status,
    register_kernel_backend,
    registered_kernel_backends,
    reset_kernel_backends,
    set_default_kernel_backend,
)
from repro.distances.kernels.numpy_backend import NumpyBackend
from repro.exceptions import DistanceError

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Backends beyond the numpy reference that activate on this host (the
#: cext backend whenever a C compiler is present; numba when importable).
COMPILED_AVAILABLE = [
    name for name in available_kernel_backends() if name != "numpy"
]


@pytest.fixture(autouse=True)
def _registry_guard():
    """Restore the registry and the env override after every test."""
    saved_env = os.environ.get(KERNEL_ENV)
    saved_factories = dict(kernels_module._FACTORIES)
    saved_preference = list(kernels_module._PREFERENCE)
    yield
    kernels_module._FACTORIES.clear()
    kernels_module._FACTORIES.update(saved_factories)
    kernels_module._PREFERENCE[:] = saved_preference
    if saved_env is None:
        os.environ.pop(KERNEL_ENV, None)
    else:
        os.environ[KERNEL_ENV] = saved_env
    reset_kernel_backends()


def assert_close(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# --------------------------------------------------------------------------- #
# Backend-level parity across shape classes                                   #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", COMPILED_AVAILABLE or ["numpy"])
class TestBackendParity:
    """Each activatable backend agrees with the numpy reference to 1e-12."""

    def test_dtw_uniform_multidim(self, name, rng):
        backend = get_kernel_backend(name)
        reference = NumpyBackend()
        xs = rng.normal(size=(7, 3))
        ys = rng.normal(size=(4, 5, 3))
        for radius in (2, 3, 6):  # >= |7 - 5|, from narrow to full band
            assert_close(
                backend.dtw_batch(xs, ys, radius),
                reference.dtw_batch(xs, ys, radius),
            )

    def test_dtw_length_one_series(self, name, rng):
        backend = get_kernel_backend(name)
        reference = NumpyBackend()
        # length-1 query against longer targets, and vice versa: the band
        # radius must absorb the full length difference.
        x1 = rng.normal(size=(1, 2))
        ys = rng.normal(size=(3, 4, 2))
        assert_close(backend.dtw_batch(x1, ys, 3), reference.dtw_batch(x1, ys, 3))
        xs = rng.normal(size=(5, 2))
        y1 = rng.normal(size=(3, 1, 2))
        assert_close(backend.dtw_batch(xs, y1, 4), reference.dtw_batch(xs, y1, 4))

    def test_dtw_band_wider_than_series(self, name, rng):
        backend = get_kernel_backend(name)
        reference = NumpyBackend()
        xs = rng.normal(size=(6, 1))
        ys = rng.normal(size=(2, 6, 1))
        assert_close(
            backend.dtw_batch(xs, ys, 50), reference.dtw_batch(xs, ys, 50)
        )

    def test_dtw_mixed_lengths(self, name, rng):
        backend = get_kernel_backend(name)
        reference = NumpyBackend()
        n = 6
        xs = rng.normal(size=(n, 2))
        lengths = np.array([1, 3, 9], dtype=np.int64)
        ys = np.zeros((3, int(lengths.max()), 2))
        for i, m in enumerate(lengths):
            ys[i, :m] = rng.normal(size=(m, 2))
        radii = np.array(
            [
                _resolve_radius(n, int(m), band_fraction=0.25, band_width=None)
                for m in lengths
            ],
            dtype=np.int64,
        )
        assert_close(
            backend.dtw_batch_mixed(xs, ys, lengths, radii),
            reference.dtw_batch_mixed(xs, ys, lengths, radii),
        )

    def test_edit_unit_and_weighted(self, name, rng):
        backend = get_kernel_backend(name)
        reference = NumpyBackend()
        x_codes = np.array([0, 2, 1, 3, 1], dtype=np.int64)
        lengths = np.array([5, 1, 3, 0], dtype=np.int64)
        stack = np.zeros((4, 5), dtype=np.int64)
        for i, m in enumerate(lengths):
            stack[i, :m] = rng.integers(0, 5, size=int(m))
        unit = np.zeros((0, 0))
        assert_close(
            backend.edit_batch(x_codes, stack, lengths, 1.0, 1.0, unit, 1.0),
            reference.edit_batch(x_codes, stack, lengths, 1.0, 1.0, unit, 1.0),
        )
        # Asymmetric costs and a partial table (codes >= 2 are untabled).
        table = np.array([[0.0, 0.3], [0.45, 0.0]])
        assert_close(
            backend.edit_batch(x_codes, stack, lengths, 0.7, 1.3, table, 0.55),
            reference.edit_batch(x_codes, stack, lengths, 0.7, 1.3, table, 0.55),
        )


# --------------------------------------------------------------------------- #
# Measure-level parity (the property suite RP010 references)                  #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", COMPILED_AVAILABLE or ["numpy"])
class TestMeasureParity:
    def test_constrained_dtw_matches_numpy_pin(self, name, rng):
        pinned = ConstrainedDTW(band_fraction=0.2, kernel=name)
        reference = ConstrainedDTW(band_fraction=0.2, kernel="numpy")
        # Mixed lengths (1 included), multi-dim, plus a 1-D series the
        # measure reshapes itself.
        x = rng.normal(size=(9, 2))
        targets = [
            rng.normal(size=(m, 2)) for m in (1, 4, 9, 9, 13)
        ]
        assert_close(pinned.compute_many(x, targets), reference.compute_many(x, targets))
        x1d = rng.normal(size=8)
        t1d = [rng.normal(size=m) for m in (3, 8, 12)]
        assert_close(pinned.compute_many(x1d, t1d), reference.compute_many(x1d, t1d))
        assert pinned.compute(x, targets[1]) == pytest.approx(
            reference.compute(x, targets[1]), rel=1e-12, abs=1e-12
        )

    def test_edit_distance_matches_numpy_pin(self, name, rng):
        pinned = EditDistance(kernel=name)
        reference = EditDistance(kernel="numpy")
        alphabet = "abcdef"
        words = [
            "".join(rng.choice(list(alphabet), size=int(m)))
            for m in rng.integers(0, 12, size=10)
        ]
        got = pinned.compute_many("deadbeef", words)
        want = reference.compute_many("deadbeef", words)
        assert_close(got, want)
        # Unit edit distances are integers; both backends must agree exactly.
        assert np.array_equal(got, want)

    def test_weighted_edit_matches_numpy_pin(self, name, rng):
        costs = {("a", "b"): 0.25, ("b", "c"): 0.5}
        pinned = WeightedEditDistance(
            substitution_costs=costs,
            insertion_cost=0.75,
            deletion_cost=1.25,
            default_substitution=0.6,
            kernel=name,
        )
        reference = WeightedEditDistance(
            substitution_costs=costs,
            insertion_cost=0.75,
            deletion_cost=1.25,
            default_substitution=0.6,
            kernel="numpy",
        )
        words = ["abc", "bac", "xyz", "", "aaaa", "cab"]
        assert_close(
            pinned.compute_many("abcabc", words),
            reference.compute_many("abcabc", words),
        )


@pytest.mark.parametrize("name", ["numpy"] + COMPILED_AVAILABLE)
class TestEditCodePoints:
    """Unit-cost strings use code points as codes; a list of the same
    characters goes through the symbol registry and must agree exactly."""

    def test_strings_match_the_registry_path(self, name, rng):
        measure = EditDistance(kernel=name)
        alphabet = list("ab\x00\U0001f600éz")  # NUL, non-BMP, accented
        words = [
            "".join(rng.choice(alphabet, size=int(m))) for m in rng.integers(0, 14, size=25)
        ] + ["", "\U0001f600\U0001f600", "a"]
        for query in ("", "a\U0001f600b\x00", "".join(rng.choice(alphabet, size=11))):
            got = measure.compute_many(query, words)
            want = measure.compute_many(list(query), [list(w) for w in words])
            assert np.array_equal(got, want)
            assert got.tolist() == [measure.compute(list(query), list(w)) for w in words]

    def test_lone_surrogate_takes_the_registry_path(self, name):
        measure = EditDistance(kernel=name)
        words = ["a\ud800b", "ab", "", "\ud800"]
        got = measure.compute_many("\ud800a", words)
        want = measure.compute_many(list("\ud800a"), [list(w) for w in words])
        assert np.array_equal(got, want)
        assert got.tolist() == [2.0, 2.0, 2.0, 1.0]

    def test_list_query_with_string_targets(self, name):
        measure = EditDistance(kernel=name)
        assert measure.compute_many(["a", "b"], ["ab", "b", ""]).tolist() == [0.0, 1.0, 2.0]


# --------------------------------------------------------------------------- #
# Registry behavior                                                           #
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_numpy_always_active(self):
        assert "numpy" in available_kernel_backends()
        assert kernel_backend_status()["numpy"] == "active"

    def test_default_prefers_compiled_backend(self):
        if not COMPILED_AVAILABLE:
            pytest.skip("no compiled backend activates on this host")
        os.environ.pop(KERNEL_ENV, None)
        reset_kernel_backends()
        assert get_kernel_backend(None).name in COMPILED_AVAILABLE

    def test_unknown_name_fails_loudly(self):
        with pytest.raises(DistanceError, match="unknown kernel backend"):
            get_kernel_backend("definitely-not-a-backend")
        with pytest.raises(DistanceError, match="unknown kernel backend"):
            ConstrainedDTW(kernel="definitely-not-a-backend")

    def test_env_override_pins_default(self):
        os.environ[KERNEL_ENV] = "numpy"
        reset_kernel_backends()
        assert get_kernel_backend(None).name == "numpy"

    def test_set_default_exports_env(self):
        backend = set_default_kernel_backend("numpy")
        assert backend.name == "numpy"
        assert os.environ[KERNEL_ENV] == "numpy"
        assert get_kernel_backend(None).name == "numpy"

    def test_measures_pickle_by_backend_name(self):
        measure = ConstrainedDTW(band_fraction=0.3, kernel="numpy")
        clone = pickle.loads(pickle.dumps(measure))
        assert clone.kernel == "numpy"
        assert clone.kernel_backend.name == "numpy"
        x = np.array([0.0, 1.0, 2.5])
        y = np.array([0.5, 1.5, 2.0, 3.0])
        assert clone.compute(x, y) == measure.compute(x, y)
        # None = "process default" also survives pickling.
        default = pickle.loads(pickle.dumps(EditDistance()))
        assert default.kernel is None

    def test_parity_failure_rejects_backend(self):
        class _Wrong(NumpyBackend):
            name = "wrong"
            compiled = True

            def dtw_batch(self, xs, ys, radius):
                return super().dtw_batch(xs, ys, radius) + 1.0

        register_kernel_backend("wrong", _Wrong)
        assert registered_kernel_backends()[0] == "wrong" or (
            "wrong" in registered_kernel_backends()
        )
        # Explicit request: loud failure naming the parity check.
        with pytest.raises(DistanceError, match="parity"):
            get_kernel_backend("wrong")
        # Automatic selection: silently skipped, never chosen.
        os.environ.pop(KERNEL_ENV, None)
        reset_kernel_backends()
        assert get_kernel_backend(None).name != "wrong"
        assert "parity" in kernel_backend_status()["wrong"]

    def test_unavailable_factory_reports_reason(self):
        def _factory():
            raise KernelUnavailable("no such accelerator on this host")

        register_kernel_backend("phantom", _factory)
        status = kernel_backend_status()
        assert "no such accelerator" in status["phantom"]
        assert "phantom" not in available_kernel_backends()

    def test_crashing_factory_is_unavailable_not_fatal(self):
        def _factory():
            raise RuntimeError("boom")

        register_kernel_backend("crashy", _factory)
        os.environ.pop(KERNEL_ENV, None)
        reset_kernel_backends()
        # Default selection degrades past the crash...
        assert get_kernel_backend(None).name != "crashy"
        # ...but an explicit pin still fails loudly.
        with pytest.raises(DistanceError, match="failed to activate"):
            get_kernel_backend("crashy")


# --------------------------------------------------------------------------- #
# Input fast paths                                                            #
# --------------------------------------------------------------------------- #


class TestSeriesFastPath:
    def test_float64_2d_passes_through_uncopied(self):
        x = np.ascontiguousarray(np.arange(12, dtype=float).reshape(6, 2))
        assert _as_series(x, "x") is x

    def test_float64_1d_reshapes_as_view(self):
        x = np.arange(5, dtype=float)
        out = _as_series(x, "x")
        assert out.base is x and out.shape == (5, 1)

    def test_other_dtypes_still_convert(self):
        out = _as_series([1, 2, 3], "x")
        assert out.dtype == np.float64 and out.shape == (3, 1)


# --------------------------------------------------------------------------- #
# Import robustness without numba                                             #
# --------------------------------------------------------------------------- #


class TestImportWithoutNumba:
    def _run(self, code, env_extra=None):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        env.pop(KERNEL_ENV, None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )

    def test_import_repro_succeeds_without_numba(self):
        # The container this suite targets has no numba; when one is
        # present the import must still succeed, so only the status
        # assertion is conditional.
        code = (
            "import repro\n"
            "from repro.distances.kernels import kernel_backend_status\n"
            "status = kernel_backend_status()\n"
            "assert status['numpy'] == 'active', status\n"
            "try:\n"
            "    import numba  # noqa: F401\n"
            "except ImportError:\n"
            "    assert status['numba'] != 'active', status\n"
            "print('ok')\n"
        )
        proc = self._run(code)
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_forced_fallback_env_resolves_numpy(self):
        code = (
            "from repro.distances.kernels import get_kernel_backend\n"
            "from repro.distances.dtw import ConstrainedDTW\n"
            "import numpy as np\n"
            "assert get_kernel_backend(None).name == 'numpy'\n"
            "d = ConstrainedDTW()\n"
            "assert d.kernel_backend.name == 'numpy'\n"
            "print(d.compute(np.arange(4.0), np.arange(5.0)))\n"
        )
        proc = self._run(code, env_extra={KERNEL_ENV: "numpy"})
        assert proc.returncode == 0, proc.stderr
