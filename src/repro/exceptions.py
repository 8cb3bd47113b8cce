"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while letting programming errors (``TypeError``,
``KeyError`` on internal structures, ...) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class DatasetError(ReproError):
    """A dataset could not be generated, loaded or validated."""


class DistanceError(ReproError):
    """A distance measure received objects it cannot compare."""


class EmbeddingError(ReproError):
    """An embedding could not be constructed or applied."""


class TrainingError(ReproError):
    """The boosting / training procedure failed or was misused."""


class RetrievalError(ReproError):
    """A retrieval pipeline was misconfigured or queried incorrectly."""


class ServingError(RetrievalError):
    """A served query could not be completed: its worker pool failed beyond
    the configured retries, a reply was unusable, or its deadline expired.

    The serving layer only raises this after recovery options (respawn,
    resubmit, serial fallback) are exhausted or forbidden — a caller never
    receives a silently wrong result in exchange for availability.
    """


class ServingTimeout(ServingError, TimeoutError):
    """A serving deadline or a ``result(timeout=...)`` wait expired.

    Subclasses :class:`TimeoutError` so callers that already guard waits
    with ``except TimeoutError`` keep working.
    """


class ExperimentError(ReproError):
    """An experiment harness was asked to do something impossible."""


class SerializationError(ReproError):
    """A model or result could not be serialized or deserialized."""


class ArtifactError(ReproError):
    """An index artifact directory is missing, corrupt, or mismatched."""
