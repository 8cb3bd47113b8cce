"""Versioned on-disk artifacts for :class:`~repro.index.embedding_index.EmbeddingIndex`.

An artifact directory is the unit the paper's cost model calls
"preprocessing paid once": everything a built index learned or evaluated —
the trained model, the embedded database, the warm distance store — lands in
one directory that a later process reopens with **zero retraining and zero
re-embedding**.  Layout (format version 1)::

    <dir>/
      manifest.json   format version, config, fingerprints, backend, metadata
      model.json      QuerySensitiveModel.to_dict() + candidate db indices
      arrays.npz      database_vectors + candidate_to_candidate
      store.npz       the DistanceStore (.npz, fingerprint-checked)
      distance.pkl    the pickled base distance measure
      extras.pkl      universe objects beyond the database (admitted
                      queries), present only when there are any

Integrity rules
---------------
* ``manifest.json`` is written **last** (and atomically, temp file +
  rename): a crashed save leaves a directory that
  :func:`read_manifest` refuses with a clear error instead of a
  half-artifact that opens and serves wrong answers.
* The manifest records the *database fingerprint* (content and order of the
  database objects) and the *universe fingerprint* (database plus extras).
  Opening verifies the supplied database against the former; the store file
  additionally self-verifies against the latter through
  :meth:`~repro.distances.context.DistanceStore.load`.
* A format-version mismatch refuses to open rather than guessing.
"""

from __future__ import annotations

import json
import pickle
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from repro.exceptions import ArtifactError
from repro.utils.io import atomic_write_bytes as _atomic_write_bytes

#: Everything a truncated or bit-flipped ``.npz`` can raise.  Notably
#: ``zipfile.BadZipFile`` and ``zlib.error`` derive from ``Exception``
#: directly — an ``except (OSError, ValueError)`` misses them and leaks a
#: raw zipfile traceback for a half-written file.
NPZ_CORRUPTION_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
)

#: Everything ``pickle.loads`` raises on truncated or corrupt bytes — plus
#: the lookup errors a payload pickled against a different code version
#: surfaces while reconstructing objects (missing class/attribute, bad
#: state).  A catch-all here would also hide programming errors in
#: ``__setstate__``; this list is what corruption actually produces.
PICKLE_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    AttributeError,
    EOFError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    OSError,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "MANIFEST_NAME",
    "artifact_paths",
    "write_manifest",
    "read_manifest",
    "write_model_payload",
    "read_model_payload",
    "write_arrays",
    "read_arrays",
    "write_pickle",
    "read_pickle",
]

#: Layout version written into (and required from) every artifact manifest.
ARTIFACT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
MODEL_NAME = "model.json"
ARRAYS_NAME = "arrays.npz"
STORE_NAME = "store.npz"
DISTANCE_NAME = "distance.pkl"
EXTRAS_NAME = "extras.pkl"


def artifact_paths(directory: Union[str, Path]) -> Dict[str, Path]:
    """The file paths making up an artifact directory."""
    directory = Path(directory)
    return {
        "manifest": directory / MANIFEST_NAME,
        "model": directory / MODEL_NAME,
        "arrays": directory / ARRAYS_NAME,
        "store": directory / STORE_NAME,
        "distance": directory / DISTANCE_NAME,
        "extras": directory / EXTRAS_NAME,
    }


def write_manifest(directory: Union[str, Path], manifest: Dict[str, Any]) -> None:
    """Atomically write the manifest — the artifact's commit point."""
    directory = Path(directory)
    payload = dict(manifest)
    payload["format_version"] = ARTIFACT_FORMAT_VERSION
    try:
        encoded = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"manifest is not JSON-serializable: {exc}") from exc
    _atomic_write_bytes(directory / MANIFEST_NAME, encoded + b"\n")


def read_manifest(directory: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate an artifact manifest.

    A directory without a readable manifest — including one left behind by
    a save that crashed before its commit point — is refused.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not directory.is_dir():
        raise ArtifactError(f"no index artifact directory at {directory}")
    if not path.is_file():
        raise ArtifactError(
            f"{directory} has no {MANIFEST_NAME}: either this is not an "
            "EmbeddingIndex artifact, or a save crashed before completing "
            "(the manifest is written last); rebuild and save the index"
        )
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"unreadable artifact manifest {path}: {exc}") from exc
    version = manifest.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"index artifact {directory} has format version {version!r}; "
            f"this build reads version {ARTIFACT_FORMAT_VERSION}"
        )
    return manifest


def write_model_payload(
    directory: Union[str, Path], model_payload: Dict[str, Any], candidate_indices: np.ndarray
) -> None:
    """Persist the serializable model description + its candidate indices."""
    payload = {
        "model": model_payload,
        "candidate_indices": [int(i) for i in np.asarray(candidate_indices)],
    }
    _atomic_write_bytes(
        Path(directory) / MODEL_NAME,
        json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n",
    )


def read_model_payload(directory: Union[str, Path]) -> Tuple[Dict[str, Any], np.ndarray]:
    """Load ``(model_payload, candidate_indices)`` written by ``write_model_payload``."""
    path = Path(directory) / MODEL_NAME
    if not path.is_file():
        raise ArtifactError(f"index artifact is missing {MODEL_NAME} at {path}")
    try:
        payload = json.loads(path.read_text())
        return payload["model"], np.asarray(payload["candidate_indices"], dtype=int)
    except (OSError, ValueError, KeyError) as exc:
        raise ArtifactError(f"unreadable model payload {path}: {exc}") from exc


def write_arrays(
    directory: Union[str, Path],
    database_vectors: np.ndarray,
    candidate_to_candidate: np.ndarray,
) -> None:
    """Persist the embedded database and the candidate distance table.

    The candidate table is what lets :func:`repro.core.model.build_coordinate`
    rebuild pivot coordinates without re-evaluating interpivot distances —
    part of the "open costs zero exact evaluations" guarantee.
    """
    import io

    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        database_vectors=np.asarray(database_vectors, dtype=float),
        candidate_to_candidate=np.asarray(candidate_to_candidate, dtype=float),
    )
    _atomic_write_bytes(Path(directory) / ARRAYS_NAME, buffer.getvalue())


def read_arrays(directory: Union[str, Path]) -> Tuple[np.ndarray, np.ndarray]:
    """Load ``(database_vectors, candidate_to_candidate)`` from the arrays file."""
    path = Path(directory) / ARRAYS_NAME
    if not path.is_file():
        raise ArtifactError(f"index artifact is missing {ARRAYS_NAME} at {path}")
    try:
        with np.load(path) as payload:
            return (
                np.asarray(payload["database_vectors"], dtype=float),
                np.asarray(payload["candidate_to_candidate"], dtype=float),
            )
    except NPZ_CORRUPTION_ERRORS as exc:
        raise ArtifactError(
            f"unreadable arrays file {path} (truncated or corrupt): {exc}"
        ) from exc


def write_pickle(path: Union[str, Path], obj: Any) -> None:
    """Atomically pickle ``obj`` to ``path`` (protocol 4, temp-file + rename)."""
    _atomic_write_bytes(Path(path), pickle.dumps(obj, protocol=4))


def read_pickle(path: Union[str, Path], description: str) -> Any:
    """Unpickle ``path``, raising :class:`ArtifactError` naming ``description``."""
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"index artifact is missing its {description} at {path}")
    try:
        return pickle.loads(path.read_bytes())
    except PICKLE_CORRUPTION_ERRORS as exc:
        raise ArtifactError(f"unreadable {description} at {path}: {exc}") from exc
