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
* the compiled unit-cost edit word path: query and target lengths around
  the 64-symbol word, code ranges around its direct table, and exact
  equality with the numpy reference;
* import robustness: ``import repro`` works in a fresh subprocess and
  reports every registered backend, and a forced-fallback subprocess
  resolves the numpy backend.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.distances.kernels.cext import _find_compiler
from repro.distances.kernels.numpy_backend import NumpyBackend
from repro.exceptions import DistanceError

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Backends beyond the numpy reference that activate on this host (the
#: cext backend whenever a C compiler is present).
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
# Unit-cost edit: the compiled word path and its edges                        #
# --------------------------------------------------------------------------- #

UNIT_TABLE = np.zeros((0, 0))

#: Symbol codes on both sides of the word path's direct table (0..127).
CODE_POOLS = {
    "ascii": np.array([65, 67, 71, 84]),
    "latin1": np.arange(128, 256, 17),
    "non_bmp": np.array([0x1F600, 0x1F601, 0x10FFFF]),
    "with_nul": np.array([0, 1, 200, 0x1F600]),
}

#: 35 ASCII symbols, 34 Greek letters and one non-BMP symbol.
ALPHABET_70 = (
    "".join(map(chr, range(48, 83)))
    + "".join(map(chr, range(0x3B1, 0x3B1 + 34)))
    + "\U0001f600"
)


def unit_edit(backend, x_codes, rows):
    """Unit edit distances from ``x_codes`` to the ragged code ``rows``."""
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    stack = np.zeros((len(rows), int(lengths.max(initial=0))), dtype=np.int64)
    for t, row in enumerate(rows):
        stack[t, : len(row)] = row
    return backend.edit_batch(
        np.asarray(x_codes, dtype=np.int64), stack, lengths, 1.0, 1.0, UNIT_TABLE, 1.0
    )


def assert_unit_parity(backend, x_codes, rows):
    got = unit_edit(backend, x_codes, rows)
    assert np.array_equal(got, unit_edit(NumpyBackend(), x_codes, rows))
    return got


@pytest.mark.parametrize("name", COMPILED_AVAILABLE or ["numpy"])
class TestEditWordPath:
    """Unit costs with a query of 1 to 64 symbols take the compiled word
    path, and longer queries the DP.  Unit distances are integers, so every
    backend must equal the numpy reference exactly."""

    @pytest.mark.parametrize("pool", sorted(CODE_POOLS))
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
    def test_lengths_around_the_word(self, name, n, pool, rng):
        codes = CODE_POOLS[pool]
        x = rng.choice(codes, size=n)
        rows = []
        for m in (0, 1, 63, 64, 65, 130):
            rows.append(rng.choice(codes, size=m))
            # The query tiled to m symbols, one substituted: a close target.
            near = np.resize(x, m)
            if m:
                near[rng.integers(m)] = rng.choice(codes)
            rows.append(near)
        assert_unit_parity(get_kernel_backend(name), x, rows)

    def test_absent_and_repeated_symbols(self, name):
        backend = get_kernel_backend(name)
        repeated = np.full(64, 300)
        rows = [
            np.full(64, 300),
            np.full(65, 300),
            np.full(63, 300),
            np.full(10, 301),
            np.full(64, 7),
            np.r_[np.full(32, 300), [5], np.full(31, 300)],
            [],
        ]
        got = assert_unit_parity(backend, repeated, rows)
        assert got.tolist() == [0.0, 1.0, 1.0, 64.0, 64.0, 1.0, 64.0]
        assert_unit_parity(backend, np.full(64, 7), rows)
        # 64 distinct codes >= 128 fill the scan over the query's symbols.
        distinct = np.arange(1000, 1064)
        got = assert_unit_parity(
            backend, distinct, [distinct, distinct[::-1], distinct[1:], [9, 1063]]
        )
        assert got.tolist() == [0.0, 64.0, 1.0, 63.0]

    def test_empty_query_and_zero_targets(self, name):
        backend = get_kernel_backend(name)
        got = assert_unit_parity(backend, [], [[], [5], list(range(130))])
        assert got.tolist() == [0.0, 1.0, 130.0]
        for n in (0, 1, 64, 65):
            assert assert_unit_parity(backend, np.arange(n), []).shape == (0,)

    def test_token_lists_use_registry_codes(self, name, rng):
        tokens = ["alpha", ("t", 1), 3, None, "\u03b2"]
        pinned, reference = EditDistance(kernel=name), EditDistance(kernel="numpy")
        for n in (64, 65):
            query = [tokens[i] for i in rng.integers(0, len(tokens), size=n)]
            targets = [
                [tokens[i] for i in rng.integers(0, len(tokens), size=m)]
                for m in (0, 1, 63, 64, 65, 130)
            ] + [list(query), query[1:] + ["new"]]
            got = pinned.compute_many(query, targets)
            assert np.array_equal(got, reference.compute_many(query, targets))
            assert got[-2] == 0.0 and got[-1] <= 2.0

    def test_weighted_edit_with_and_without_a_table(self, name, rng):
        alphabet = list("acgt\u00e9\U0001f600")
        query = "".join(rng.choice(alphabet, size=64))
        words = [
            "".join(rng.choice(alphabet, size=m)) for m in (0, 1, 63, 64, 65, 130)
        ]
        unit = WeightedEditDistance(kernel=name).compute_many(query, words)
        assert np.array_equal(unit, EditDistance(kernel="numpy").compute_many(query, words))
        costs = {("a", "c"): 0.5, ("g", "\U0001f600"): 0.25}
        weighted = WeightedEditDistance(costs, kernel=name).compute_many(query, words)
        assert_close(
            weighted, WeightedEditDistance(costs, kernel="numpy").compute_many(query, words)
        )
        assert not np.array_equal(weighted, unit)

    @settings(max_examples=60, deadline=None)
    @given(alphabet=st.sampled_from(["xyz", ALPHABET_70]), data=st.data())
    def test_random_strings_match_the_reference(self, name, alphabet, data):
        query = data.draw(st.text(alphabet=alphabet, max_size=80))
        targets = data.draw(
            st.lists(st.text(alphabet=alphabet, max_size=140), min_size=1, max_size=5)
        )
        got = EditDistance(kernel=name).compute_many(query, targets)
        assert np.array_equal(got, EditDistance(kernel="numpy").compute_many(query, targets))


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

    def test_cext_activates_wherever_a_compiler_is_found(self):
        # A cext that flunks its activation probe would silently reduce the
        # parity suites above to numpy against numpy.
        if _find_compiler() is None:
            pytest.skip("no C compiler on this host")
        assert kernel_backend_status()["cext"] == "active"

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

    def test_parity_probe_covers_the_edit_word_edges(self):
        class _WrongOnFullWords(NumpyBackend):
            name = "wrong-words"
            compiled = True

            def edit_batch(self, x_codes, stack, lengths, ins, dele, table, default):
                out = super().edit_batch(x_codes, stack, lengths, ins, dele, table, default)
                # Wrong only for a unit-cost query filling the whole word.
                return out + 1.0 if x_codes.size == 64 and table.size == 0 else out

        register_kernel_backend("wrong-words", _WrongOnFullWords)
        with pytest.raises(DistanceError, match=r"edit_batch\[unit, 64-symbol query\]"):
            get_kernel_backend("wrong-words")
        os.environ.pop(KERNEL_ENV, None)
        reset_kernel_backends()
        assert get_kernel_backend(None).name != "wrong-words"
        assert "64-symbol query" in kernel_backend_status()["wrong-words"]

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
# Import robustness in a fresh process                                        #
# --------------------------------------------------------------------------- #


class TestImportInSubprocess:
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

    def test_import_repro_reports_every_registered_backend(self):
        code = (
            "import repro\n"
            "from repro.distances.kernels import (\n"
            "    kernel_backend_status, registered_kernel_backends)\n"
            "status = kernel_backend_status()\n"
            "assert tuple(status) == registered_kernel_backends(), status\n"
            "assert set(status) == {'cext', 'numpy'}, status\n"
            "assert status['numpy'] == 'active', status\n"
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
