"""Edit (Levenshtein) distance for strings and discrete sequences.

The paper cites the edit distance for strings and biological sequences as a
prototypical computationally-expensive measure that embedding methods must
handle.  Both the plain Levenshtein distance and a weighted variant (custom
substitution/indel costs, which in general breaks the metric property) are
provided, and both accept any sequence of hashable symbols — Python strings,
lists of tokens, or tuples.

Vectorised DP kernel
--------------------
Sequences are encoded as integer code arrays: for unit costs over strings
the code points themselves, otherwise symbols interned into an alphabet
registry (:class:`WeightedEditDistance` additionally materialises
its substitution-cost mapping as an alphabet-indexed cost *table*, so there
is no per-cell dict lookup).  The row recurrence
``c[j] = min(prev[j] + del, c[j-1] + ins, prev[j-1] + sub[j])`` unrolls
exactly — with ``p[j] = min(prev[j] + del, prev[j-1] + sub[j])`` —

.. math::  c[j] = j \\cdot ins + \\min_{k \\le j} (p[k] - k \\cdot ins),

so one ``minimum.accumulate`` replaces the per-cell Python loop, and the
same kernel runs batched over zero-padded targets of any length, each read
off at its true length.

The compiled ``cext`` kernel runs unit costs bit-parallel: for a query of
at most 64 symbols, Myers' bit-vector recurrence keeps a DP column's
vertical deltas in two 64-bit words and advances them by one target symbol
with a few word operations.  Unit distances are integers, which both paths
compute exactly, so every backend returns the same bits.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distances.base import DistanceMeasure
from repro.distances.kernels import get_kernel_backend
from repro.distances.kernels.numpy_backend import edit_dp_batch as _edit_dp_batch
from repro.exceptions import DistanceError

_EMPTY_TABLE = np.zeros((0, 0))


def _check_sequence(x: Sequence[Hashable], name: str) -> Sequence[Hashable]:
    if isinstance(x, (bytes, bytearray)):
        return x.decode("utf-8", errors="replace")
    if not isinstance(x, (str, list, tuple)):
        raise DistanceError(
            f"{name} must be a string, list or tuple of symbols, got {type(x).__name__}"
        )
    return x


def _utf32_stack(
    seqs: Sequence[str], codes: Optional[Dict[Hashable, int]] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Encode strings into a zero-padded code matrix plus true lengths.

    The joined strings are decoded to code points in one C-level utf-32
    pass.  With a ``codes`` registry the code points are interned through
    it (one ``np.unique`` over the concatenation, not one per string);
    without one each character's code point is its code.  The flat codes
    are scattered into the padded stack with one boolean-mask assignment
    (row-major order matches the concatenation order).  Returns ``None``
    when a lone surrogate (e.g. an ``os.fsdecode``'d filename) makes the
    codec refuse.
    """
    try:
        flat = np.frombuffer("".join(seqs).encode("utf-32-le"), dtype=np.uint32)
    except UnicodeEncodeError:
        return None
    if codes is not None:
        unique, inverse = np.unique(flat, return_inverse=True)
        mapped = np.array(
            [codes.setdefault(chr(int(c)), len(codes)) for c in unique],
            dtype=np.intp,
        )
        flat = mapped[inverse]
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    stack = np.zeros((len(seqs), int(lengths.max())), dtype=np.intp)
    stack[np.arange(stack.shape[1])[None, :] < lengths[:, None]] = flat
    return stack, lengths


def _encode(seq: Sequence[Hashable], codes: Dict[Hashable, int]) -> np.ndarray:
    """Intern the symbols of one sequence into ``codes``, returning int codes."""
    if isinstance(seq, str):
        encoded = _utf32_stack([seq], codes)
        if encoded is not None:
            return encoded[0][0]
    return np.array([codes.setdefault(sym, len(codes)) for sym in seq], dtype=np.intp)


def _encode_padded(
    seqs: Sequence[Sequence[Hashable]], codes: Dict[Hashable, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Batch-encode straight into the zero-padded code matrix + lengths.

    An all-string batch is one :func:`_utf32_stack` call; mixed or
    non-string batches, and strings the codec refuses, fall back to the
    per-sequence path, same semantics.  This is what keeps batched DP
    paths — and pairwise table builds, which call ``compute_many`` once
    per row — bound by C-level work instead of per-sequence Python
    overhead.
    """
    if all(isinstance(s, str) for s in seqs):
        encoded = _utf32_stack(seqs, codes)
        if encoded is not None:
            return encoded
    return _pad_codes([_encode(seq, codes) for seq in seqs])


def _code_points(
    x: str, targets: Sequence[str]
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(x_codes, stack, lengths)`` with each character's code point as its code.

    Unit costs only compare codes for equality, so for all-``str`` inputs
    the code points serve as codes without interning.  Returns ``None``
    when a lone surrogate makes the codec refuse.
    """
    query, encoded = _utf32_stack([x]), _utf32_stack(targets)
    if query is None or encoded is None:
        return None
    return (query[0][0], *encoded)


def _pad_codes(target_codes: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack ragged code arrays into a zero-padded matrix plus true lengths."""
    lengths = np.array([codes.size for codes in target_codes], dtype=np.intp)
    stack = np.zeros((len(target_codes), int(lengths.max())), dtype=np.intp)
    for t, codes in enumerate(target_codes):
        stack[t, : codes.size] = codes
    return stack, lengths


class EditDistance(DistanceMeasure):
    """Classic Levenshtein distance with unit insert/delete/substitute costs."""

    def __init__(self, kernel: Optional[str] = None) -> None:
        self.kernel = kernel
        self.name = "edit"
        self.is_metric = True
        if kernel is not None:
            get_kernel_backend(kernel)  # fail fast on unknown/broken names

    @property
    def kernel_backend(self):
        """The resolved backend instance (never pickled; resolved lazily)."""
        return get_kernel_backend(self.kernel)

    def compute(self, x: Sequence[Hashable], y: Sequence[Hashable]) -> float:
        return float(self.compute_many(x, [y])[0])

    def compute_many(
        self, x: Sequence[Hashable], ys: Sequence[Sequence[Hashable]]
    ) -> np.ndarray:
        xs = _check_sequence(x, "x")
        targets = [_check_sequence(y, f"ys[{i}]") for i, y in enumerate(ys)]
        results = np.empty(len(targets), dtype=float)
        if not targets:
            return results
        coded = None
        if isinstance(xs, str) and all(isinstance(t, str) for t in targets):
            coded = _code_points(xs, targets)
        if coded is None:
            codes: Dict[Hashable, int] = {}
            coded = _encode(xs, codes), *_encode_padded(targets, codes)
        x_codes, stack, lengths = coded
        if x_codes.size == 0:
            return lengths.astype(float)
        if stack.shape[1] == 0:
            results[:] = float(x_codes.size)
            return results
        # Padding uses code 0, which may collide with a real symbol; that is
        # harmless because the DP kernels read each target off at its true
        # length, before any padded column can influence the result.  An
        # empty substitution table + default 1.0 = unit costs.
        backend = get_kernel_backend(self.kernel)
        return np.asarray(
            backend.edit_batch(x_codes, stack, lengths, 1.0, 1.0, _EMPTY_TABLE, 1.0),
            dtype=float,
        )

    def compute_pairs(
        self, xs: Sequence[Sequence[Hashable]], ys: Sequence[Sequence[Hashable]]
    ) -> np.ndarray:
        """Element-wise Levenshtein, batched over runs of a shared target.

        Unit-cost edit distance is symmetric, so runs of pairs sharing the
        same second argument (the batched embedding paths produce exactly
        this shape) are regrouped into one batched :meth:`compute_many` call
        with the roles swapped.
        """
        xs = list(xs)
        ys = list(ys)
        if len(xs) != len(ys):
            raise DistanceError(
                f"compute_pairs needs equally long sequences, got {len(xs)} and {len(ys)}"
            )
        results = np.empty(len(xs), dtype=float)
        groups: Dict[int, List[int]] = {}
        for i, y in enumerate(ys):
            groups.setdefault(id(y), []).append(i)
        for indices in groups.values():
            anchor = ys[indices[0]]
            results[indices] = self.compute_many(anchor, [xs[i] for i in indices])
        return results


class WeightedEditDistance(DistanceMeasure):
    """Edit distance with configurable substitution and indel costs.

    Parameters
    ----------
    substitution_costs:
        Mapping ``(symbol_a, symbol_b) -> cost``; missing pairs fall back to
        ``default_substitution``.  The mapping is looked up in both orders, so
        an asymmetric table produces an asymmetric (non-metric) measure.
    insertion_cost, deletion_cost:
        Costs of inserting/deleting one symbol.
    default_substitution:
        Cost of substituting two distinct symbols not found in the table.

    Notes
    -----
    The substitution mapping is materialised **once, at construction time**,
    as a dense cost table over the (bounded) set of symbols appearing in
    ``substitution_costs``; symbols outside that set always cost either 0
    (equal) or ``default_substitution``, so they never need a table entry.
    The DP then gathers whole rows of substitution costs with vectorised
    indexing instead of a dict lookup per cell, while open alphabets stay
    O(sequence length) per call — no per-instance state grows with the data.
    """

    def __init__(
        self,
        substitution_costs: Optional[Dict[Tuple[Hashable, Hashable], float]] = None,
        insertion_cost: float = 1.0,
        deletion_cost: float = 1.0,
        default_substitution: float = 1.0,
        kernel: Optional[str] = None,
    ) -> None:
        if insertion_cost < 0 or deletion_cost < 0 or default_substitution < 0:
            raise DistanceError("edit costs must be non-negative")
        self.kernel = kernel
        if kernel is not None:
            get_kernel_backend(kernel)  # fail fast on unknown/broken names
        self.substitution_costs = dict(substitution_costs or {})
        for cost in self.substitution_costs.values():
            if cost < 0:
                raise DistanceError("substitution costs must be non-negative")
        self.insertion_cost = float(insertion_cost)
        self.deletion_cost = float(deletion_cost)
        self.default_substitution = float(default_substitution)
        self.name = "weighted_edit"
        self.is_metric = False
        self._table_codes, self._table = self._build_cost_table()

    def _substitution(self, a: Hashable, b: Hashable) -> float:
        if a == b:
            return 0.0
        if (a, b) in self.substitution_costs:
            return self.substitution_costs[(a, b)]
        if (b, a) in self.substitution_costs:
            return self.substitution_costs[(b, a)]
        return self.default_substitution

    def _build_cost_table(self) -> Tuple[Dict[Hashable, int], np.ndarray]:
        """Dense cost matrix over the symbols named by ``substitution_costs``.

        Precedence matches :meth:`_substitution` exactly — equal symbols cost
        0, a ``(a, b)`` entry beats the reversed ``(b, a)`` entry, everything
        else falls back to the default.
        """
        codes: Dict[Hashable, int] = {}
        for a, b in self.substitution_costs:
            codes.setdefault(a, len(codes))
            codes.setdefault(b, len(codes))
        table = np.full((len(codes), len(codes)), self.default_substitution)
        for (a, b), cost in self.substitution_costs.items():
            if (b, a) not in self.substitution_costs:
                table[codes[b], codes[a]] = cost
        for (a, b), cost in self.substitution_costs.items():
            table[codes[a], codes[b]] = cost
        if len(codes):
            np.fill_diagonal(table, 0.0)
        return codes, table

    def compute(self, x: Sequence[Hashable], y: Sequence[Hashable]) -> float:
        return float(self.compute_many(x, [y])[0])

    def compute_many(
        self, x: Sequence[Hashable], ys: Sequence[Sequence[Hashable]]
    ) -> np.ndarray:
        xs = _check_sequence(x, "x")
        targets = [_check_sequence(y, f"ys[{i}]") for i, y in enumerate(ys)]
        results = np.empty(len(targets), dtype=float)
        if not targets:
            return results
        # Per-call registry: tabled symbols keep their fixed codes (< T),
        # anything else gets a transient code used only for equality checks.
        codes = dict(self._table_codes)
        x_codes = _encode(xs, codes) if isinstance(xs, str) else np.array(
            [codes.setdefault(sym, len(codes)) for sym in xs], dtype=np.intp
        )
        stack, lengths = _encode_padded(targets, codes)
        if x_codes.size == 0:
            return lengths * self.insertion_cost
        if stack.shape[1] == 0:
            results[:] = x_codes.size * self.deletion_cost
            return results
        # Tabled symbols hold codes < T by construction, so the backends can
        # gather substitution costs straight from the dense table; untabled
        # codes cost 0 (equal) or the default.
        backend = get_kernel_backend(self.kernel)
        return np.asarray(
            backend.edit_batch(
                x_codes,
                stack,
                lengths,
                self.insertion_cost,
                self.deletion_cost,
                self._table,
                self.default_substitution,
            ),
            dtype=float,
        )

    @property
    def kernel_backend(self):
        """The resolved backend instance (never pickled; resolved lazily)."""
        return get_kernel_backend(self.kernel)
