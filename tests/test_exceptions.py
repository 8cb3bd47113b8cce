"""Tests for the library exception hierarchy (`repro.exceptions`).

Three properties matter to callers:

* **Hierarchy** — one ``except ReproError`` catches every intentional
  library failure; ``ServingTimeout`` stays catchable as ``TimeoutError``.
* **Message fidelity** — the message a site raises is the message the
  caller sees, through ``str()`` and through re-raising.
* **Picklability** — worker processes transport exceptions back through
  a ``ProcessPoolExecutor``; an exception type that cannot round-trip a
  pickle boundary surfaces as a confusing ``PicklingError`` instead of
  the real failure.
"""

from __future__ import annotations

import concurrent.futures
import inspect
import pickle

import pytest

import repro.exceptions as exceptions_module
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    DatasetError,
    DistanceError,
    EmbeddingError,
    ExperimentError,
    ReproError,
    RetrievalError,
    SerializationError,
    ServingError,
    ServingTimeout,
    TrainingError,
)

ALL_EXCEPTION_TYPES = [
    obj
    for _, obj in sorted(vars(exceptions_module).items())
    if inspect.isclass(obj) and issubclass(obj, ReproError)
]


def test_every_public_exception_collected():
    names = {cls.__name__ for cls in ALL_EXCEPTION_TYPES}
    assert names == {
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
    }


# --------------------------------------------------------------------------- #
# Hierarchy                                                                   #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("exc_type", ALL_EXCEPTION_TYPES, ids=lambda c: c.__name__)
def test_derives_from_repro_error(exc_type):
    assert issubclass(exc_type, ReproError)
    assert issubclass(exc_type, Exception)


def test_one_clause_catches_everything():
    for exc_type in ALL_EXCEPTION_TYPES:
        with pytest.raises(ReproError):
            raise exc_type("boom")


@pytest.mark.parametrize(
    ("child", "parent"),
    [
        (ServingError, RetrievalError),
        (ServingTimeout, ServingError),
        (ServingTimeout, RetrievalError),
        (ArtifactError, ReproError),
        (DistanceError, ReproError),
    ],
)
def test_specific_parentage(child, parent):
    assert issubclass(child, parent)


def test_serving_timeout_is_a_timeout_error():
    # Callers that guard waits with `except TimeoutError` keep working.
    with pytest.raises(TimeoutError):
        raise ServingTimeout("deadline expired")


def test_siblings_do_not_cross_catch():
    with pytest.raises(DistanceError):
        try:
            raise DistanceError("incomparable")
        except ArtifactError:  # pragma: no cover - must not trigger
            pytest.fail("ArtifactError clause caught a DistanceError")


def test_programming_errors_are_not_repro_errors():
    assert not issubclass(TypeError, ReproError)
    assert not issubclass(KeyError, ReproError)


# --------------------------------------------------------------------------- #
# Message formatting                                                          #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("exc_type", ALL_EXCEPTION_TYPES, ids=lambda c: c.__name__)
def test_message_round_trips_str(exc_type):
    message = "the gizmo at /tmp/x is broken (detail: 42)"
    assert str(exc_type(message)) == message


def test_chained_raise_preserves_cause():
    try:
        try:
            raise OSError("disk on fire")
        except OSError as exc:
            raise ArtifactError("unreadable artifact: disk on fire") from exc
    except ArtifactError as caught:
        assert isinstance(caught.__cause__, OSError)
        assert "disk on fire" in str(caught)


# --------------------------------------------------------------------------- #
# Pickling                                                                    #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("exc_type", ALL_EXCEPTION_TYPES, ids=lambda c: c.__name__)
def test_pickle_round_trip_in_process(exc_type):
    original = exc_type("carried across the boundary")
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is exc_type
    assert str(clone) == str(original)


def _raise_in_worker(type_name: str) -> None:
    import repro.exceptions

    raise getattr(repro.exceptions, type_name)(f"worker raised {type_name}")


@pytest.mark.slow
def test_every_exception_crosses_a_process_boundary():
    """Each type raised in a real worker arrives intact at the parent."""
    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as executor:
        for exc_type in ALL_EXCEPTION_TYPES:
            future = executor.submit(_raise_in_worker, exc_type.__name__)
            with pytest.raises(exc_type) as excinfo:
                future.result(timeout=60)
            assert f"worker raised {exc_type.__name__}" in str(excinfo.value)
