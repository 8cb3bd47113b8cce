"""The always-available NumPy closed-form kernel backend.

These are the vectorised row-recurrence kernels from PR 1, moved here so
that every backend (the C extension and this fallback) exposes the same
three entry points:

* :meth:`NumpyBackend.dtw_batch` — banded cDTW from one series to a stack
  of equal-length targets (two-row DP, one ``cumsum`` + one
  ``minimum.accumulate`` per row);
* :meth:`NumpyBackend.dtw_batch_mixed` — one shared masked full-width DP
  over targets of different lengths;
* :meth:`NumpyBackend.edit_batch` — the weighted-edit row recurrence with
  an alphabet-indexed substitution table (``(0, 0)`` table = unit costs).

The closed forms replace the sequential ``c[j-1]`` dependency with a
prefix-scan identity, so they round differently (in the last couple of
ulps) from the straight-line recurrences the compiled backends run; the
registry's parity check and the property suite in
``tests/test_kernel_backends.py`` pin the agreement to 1e-12.  Unit edit
costs are the exception: their distances are small integers, which every
backend computes exactly, so those agree bit for bit.
"""

from __future__ import annotations

import numpy as np

_INF = np.inf


def dtw_batch(xs: np.ndarray, ys: np.ndarray, radius: int) -> np.ndarray:
    """Banded DTW from one series to a stack of equal-length series.

    Parameters
    ----------
    xs:
        The query series, shape ``(n, d)``.
    ys:
        A stack of target series, shape ``(g, m, d)``.
    radius:
        Band half-width (must already include the ``|n - m|`` widening).

    Returns
    -------
    np.ndarray
        The ``g`` accumulated warped distances.  The DP state is ``O(g * m)``:
        two rows, updated with banded whole-row vectorised operations.
    """
    n = xs.shape[0]
    g, m = ys.shape[0], ys.shape[1]
    previous = np.full((g, m + 1), _INF)
    previous[:, 0] = 0.0
    current = np.empty((g, m + 1))
    for i in range(1, n + 1):
        current.fill(_INF)
        j_lo = max(1, i - radius)
        j_hi = min(m, i + radius)
        if j_lo > j_hi:
            previous, current = current, previous
            continue
        # Euclidean local costs between x[i-1] and y[:, j_lo-1 .. j_hi-1].
        diffs = ys[:, j_lo - 1 : j_hi, :] - xs[i - 1]
        local = np.sqrt(np.einsum("gjd,gjd->gj", diffs, diffs))
        # Whole-row update: c[j] = local[j] + min(p[j], c[j-1]) with
        # p[j] = min(prev[j], prev[j-1]) unrolls to
        # c[j] = S[j] + min_{k<=j} (p[k] - S[k-1]) where S = cumsum(local);
        # c[j_lo - 1] is outside the band (= inf), so the chain starts at p.
        p = np.minimum(previous[:, j_lo : j_hi + 1], previous[:, j_lo - 1 : j_hi])
        prefix = np.cumsum(local, axis=1)
        shifted = np.empty_like(prefix)
        shifted[:, 0] = 0.0
        shifted[:, 1:] = prefix[:, :-1]
        current[:, j_lo : j_hi + 1] = prefix + np.minimum.accumulate(
            p - shifted, axis=1
        )
        previous, current = current, previous
    return previous[:, m]


def dtw_batch_mixed(
    xs: np.ndarray, ys: np.ndarray, lengths: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Banded DTW from one series to zero-padded targets of different lengths.

    All targets run through one shared full-width DP: rows are updated over
    the widest target, and each target's Sakoe-Chiba band is enforced with a
    per-row validity mask (cells outside a target's band are pinned to
    ``inf``, exactly as in the banded kernel).  This trades a little extra
    arithmetic on the padded columns for doing every row in one vectorised
    update instead of one DP per length group.

    Parameters
    ----------
    xs:
        The query series, shape ``(n, d)``.
    ys:
        Zero-padded target stack, shape ``(g, M, d)`` with
        ``M = lengths.max()``.
    lengths:
        The ``g`` true target lengths.
    radii:
        Per-target band half-widths (each already ``>= |n - m_t|``).
    """
    n = xs.shape[0]
    g, m_max = ys.shape[0], ys.shape[1]
    # Band validity is recomputed per row (two comparisons on (g, M)), so
    # memory stays O(g * M) instead of an O(n * g * M) precomputed mask.
    j_idx = np.arange(1, m_max + 1)[None, :]
    radius_col = radii[:, None]
    within_length = j_idx <= lengths[:, None]  # row-independent part
    previous = np.full((g, m_max + 1), _INF)
    previous[:, 0] = 0.0
    shifted = np.empty((g, m_max))
    for i in range(1, n + 1):
        # valid[t, j-1] <=> cell (i, j) lies inside target t's band:
        # i - r_t <= j <= min(m_t, i + r_t).
        valid = (j_idx >= i - radius_col) & (j_idx <= i + radius_col) & within_length
        diffs = ys - xs[i - 1]
        local = np.sqrt(np.einsum("gjd,gjd->gj", diffs, diffs))
        p = np.minimum(previous[:, 1:], previous[:, :-1])
        p = np.where(valid, p, _INF)
        prefix = np.cumsum(local, axis=1)
        shifted[:, 0] = 0.0
        shifted[:, 1:] = prefix[:, :-1]
        row = prefix + np.minimum.accumulate(p - shifted, axis=1)
        previous[:, 1:] = np.where(valid, row, _INF)
        previous[:, 0] = _INF
    return previous[np.arange(g), lengths]


def edit_dp_batch(
    n: int,
    sub_row,
    insertion_cost: float,
    deletion_cost: float,
    lengths: np.ndarray,
) -> np.ndarray:
    """Batched weighted-edit DP with row-streamed substitution costs.

    Targets of different lengths share one DP: they are padded to the widest
    target and the result for target ``t`` is read off at column
    ``lengths[t]``.  This is exact — cell ``(i, j)`` only ever depends on
    columns ``<= j``, so padding never leaks into a target's own columns.
    Substitution costs are produced one DP row at a time by ``sub_row``, so
    memory stays O(g * M) regardless of the query length.

    Parameters
    ----------
    n:
        Length of the query sequence (number of DP rows).
    sub_row:
        Callable ``sub_row(i) -> (g, M)`` array: the cost of substituting
        ``x[i]`` with ``ys[t][j]`` (arbitrary beyond ``lengths[t]``).
    insertion_cost, deletion_cost:
        The indel costs.
    lengths:
        The ``g`` true target lengths (``<= M``).

    Returns
    -------
    np.ndarray
        The ``g`` edit distances.
    """
    g = lengths.shape[0]
    m = int(lengths.max()) if g else 0
    if m == 0:
        return np.full(g, n * deletion_cost)
    ins_ramp = insertion_cost * np.arange(m + 1)
    previous = np.broadcast_to(ins_ramp, (g, m + 1)).copy()
    a = np.empty((g, m + 1))
    for i in range(1, n + 1):
        # p[j] = min(prev[j] + del, prev[j-1] + sub[j]) for j = 1..m; the
        # boundary c[0] = i*del joins the prefix-min chain at position 0.
        a[:, 0] = i * deletion_cost
        a[:, 1:] = (
            np.minimum(
                previous[:, 1:] + deletion_cost,
                previous[:, :-1] + sub_row(i - 1),
            )
            - ins_ramp[1:]
        )
        previous = ins_ramp + np.minimum.accumulate(a, axis=1)
    return previous[np.arange(g), lengths]


def make_sub_row(
    x_codes: np.ndarray, stack: np.ndarray, table: np.ndarray, default: float
):
    """Build the row-streamed substitution-cost callable for ``edit_dp_batch``.

    ``table`` is the dense alphabet-indexed cost matrix (symbols with codes
    ``< table.shape[0]``); any pair involving an untabled symbol costs
    ``default`` unless the codes are equal (cost 0).  An empty ``(0, 0)``
    table therefore reproduces unit substitution costs with ``default=1.0``.
    """
    n_tabled = int(table.shape[0])
    if n_tabled:
        tabled_mask = stack < n_tabled
        clipped = np.minimum(stack, n_tabled - 1)

    def sub_row(i: int) -> np.ndarray:
        x_code = int(x_codes[i])
        if n_tabled and x_code < n_tabled:
            row = np.where(tabled_mask, table[x_code, clipped], default)
        else:
            row = np.full(stack.shape, default)
        return np.where(stack == x_code, 0.0, row)

    return sub_row


class NumpyBackend:
    """Registry adapter for the closed-form kernels above."""

    name = "numpy"
    compiled = False

    def dtw_batch(self, xs: np.ndarray, ys: np.ndarray, radius: int) -> np.ndarray:
        """Banded DTW from ``xs (n, d)`` to each of ``ys (g, m, d)``."""
        return dtw_batch(xs, ys, int(radius))

    def dtw_batch_mixed(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        lengths: np.ndarray,
        radii: np.ndarray,
    ) -> np.ndarray:
        """Banded DTW to zero-padded targets of per-row ``lengths``/``radii``."""
        return dtw_batch_mixed(xs, ys, lengths, radii)

    def edit_batch(
        self,
        x_codes: np.ndarray,
        stack: np.ndarray,
        lengths: np.ndarray,
        insertion_cost: float,
        deletion_cost: float,
        table: np.ndarray,
        default: float,
    ) -> np.ndarray:
        """(Weighted) edit distance from ``x_codes`` to each padded target row."""
        sub_row = make_sub_row(x_codes, stack, table, default)
        return edit_dp_batch(
            int(x_codes.size), sub_row, insertion_cost, deletion_cost, lengths
        )
