"""The key kernel: equi-join, GROUP BY and DISTINCT on one primitive.

:func:`factorize` maps each row of one or more key columns to a dense
int64 code, and codes follow lexicographic key order. NaN keys equal
each other (one group, one DISTINCT row) and sort last. The executor
builds its three key operators on it: GROUP BY's codes are the group
ids, DISTINCT keeps the first row per code (:func:`first_rows`, no
sort), and :func:`equi_join` matches the two sides' codes with a
stable sort plus ``bincount`` offsets. No operator walks rows in
Python.

Dense integer keys skip the sort. An integer column whose values span
at most ``_DENSE_SPAN`` slots per row is coded with a presence bitmap
and ``cumsum``; an equi-join whose build (right) side holds unique
integer keys spanning at most ``_DENSE_SPAN`` slots per key scatters
the build rows into a slot array indexed by ``key - min`` and probes
it with one lookup per left row. Both give exactly the codes and row
indices, order included, that the sorting path gives.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExecutionError

_INT64_MAX = int(np.iinfo(np.int64).max)
#: Direct addressing applies when integer keys fit in at most this many
#: slots per key, which caps its bitmap and slot arrays at that many
#: entries per key.
_DENSE_SPAN = 4


def _span(values: np.ndarray, count: int) -> tuple[np.generic, int] | None:
    """``(low, slots)`` when integer ``values`` lie in ``slots`` values
    from ``low`` on and ``slots <= _DENSE_SPAN * count``, else ``None``."""
    if values.dtype.kind not in "iu" or not len(values):
        return None
    low = values.min()
    slots = int(values.max()) - int(low) + 1
    return (low, slots) if slots <= _DENSE_SPAN * count else None


def _codes(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``(codes, n_codes)`` for one key column, codes ascending with the
    key: a presence bitmap and ``cumsum`` for dense integers, else
    ``np.unique``'s sort."""
    span = _span(values, len(values))
    if span is not None:
        low, slots = span
        offsets = values - low
        present = np.zeros(slots, dtype=bool)
        present[offsets] = True
        rank = np.cumsum(present) - 1
        return rank[offsets], int(rank[-1]) + 1
    try:
        uniques, codes = np.unique(values, return_inverse=True)
    except TypeError as exc:  # object keys with no total order
        raise ExecutionError(
            f"cannot compare {values.dtype} key values: {exc}"
        ) from None
    return codes, len(uniques)


def factorize(key_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """``(codes, n_codes)``: rows with equal keys in every column share a
    code in ``range(n_codes)``, and a lower code means a lexicographically
    smaller key (first column most significant).

    Each column is factorized on its own and the codes are combined in
    mixed radix; when the radix product would overflow int64 the codes
    so far are re-densified first.
    """
    codes, n_codes = _codes(key_arrays[0])
    for values in key_arrays[1:]:
        inverse, n_values = _codes(values)
        if n_codes * n_values > _INT64_MAX:
            codes, n_codes = _codes(codes)
        codes = codes * n_values + inverse
        n_codes *= n_values
    if len(key_arrays) > 1:
        codes, n_codes = _codes(codes)
    return codes.astype(np.int64, copy=False), n_codes


def first_rows(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """Index of the first row holding each code, in code order; every
    code in ``range(n_codes)`` must occur."""
    firsts = np.full(n_codes, len(codes), dtype=np.int64)
    np.minimum.at(firsts, codes, np.arange(len(codes)))
    return firsts


def _int_keys(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as int64, and where they can equal no int64 value
    (a float that is NaN, fractional or out of range)."""
    if values.dtype.kind != "f":
        return (
            values.astype(np.int64, copy=False),
            np.zeros(len(values), dtype=bool),
        )
    exact = (
        (values == np.trunc(values))
        & (values >= -(2.0**63))
        & (values < 2.0**63)
    )
    return np.where(exact, values, 0).astype(np.int64), ~exact


def _join_keys(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' keys as one column of one dtype, and the rows that
    can match nothing. Values compare as Python's ``==`` does: numbers
    across int/float/bool exactly, strings with strings, NaN never."""
    kinds = {left.dtype.kind, right.dtype.kind}
    if kinds == {"f"}:
        keys = np.concatenate([left, right])
        return keys, np.isnan(keys)
    if kinds <= set("biuf"):
        left, left_never = _int_keys(left)
        right, right_never = _int_keys(right)
        return (
            np.concatenate([left, right]),
            np.concatenate([left_never, right_never]),
        )
    if len(kinds) == 1 or "O" in kinds:  # strings; object keys as stored
        keys = np.concatenate([left, right])
        return keys, np.zeros(len(keys), dtype=bool)
    total = len(left) + len(right)  # e.g. strings vs numbers: no match
    return np.zeros(total, dtype=np.int64), np.ones(total, dtype=bool)


def equi_join(
    left: np.ndarray, right: np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of the equi-join ``left = right``:
    ``(left_idx, right_idx, unmatched_left, unmatched_right)``.

    Matches come in left-row order, right rows ascending within a left
    row. ``unmatched_left`` is filled for LEFT/FULL, ``unmatched_right``
    for FULL, both ascending. NaN keys never match.
    """
    keys, never = _join_keys(left, right)
    matches = _direct_matches(keys, never, len(left))
    if matches is None:
        matches = _sorted_matches(keys, never, len(left))
    left_idx, right_idx = matches
    none = np.zeros(0, dtype=np.int64)
    unmatched_left = (
        _unhit(left_idx, len(left)) if kind in ("LEFT", "FULL") else none
    )
    unmatched_right = _unhit(right_idx, len(right)) if kind == "FULL" else none
    return left_idx, right_idx, unmatched_left, unmatched_right


def _direct_matches(
    keys: np.ndarray, never: np.ndarray, n_left: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Matches by direct addressing, or ``None`` unless the build side's
    matchable keys are unique integers spanning few slots per key."""
    matchable = ~never[n_left:]
    build = keys[n_left:][matchable]
    span = _span(build, len(build))
    if span is None:
        return None
    low, slots = span
    row_at = np.full(slots, -1, dtype=np.int64)
    row_at[build - low] = np.flatnonzero(matchable)
    if np.count_nonzero(row_at >= 0) < len(build):  # a duplicate key
        return None
    probe = keys[:n_left]
    clipped = np.clip(probe, low, low + (slots - 1))
    match = row_at[clipped - low]
    match[(clipped != probe) | never[:n_left]] = -1
    left_idx = np.flatnonzero(match >= 0)
    return left_idx, match[left_idx]


def _sorted_matches(
    keys: np.ndarray, never: np.ndarray, n_left: int
) -> tuple[np.ndarray, np.ndarray]:
    """Matches by sorting the build side by key code; any keys."""
    codes, n_codes = factorize([keys])
    codes[never] = n_codes  # one past the last code: matches nothing
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    n_right = len(right_codes)
    # Build: right rows grouped by code, ascending within a code. The
    # row number makes every sort key unique, so the default (unstable,
    # much faster than timsort) argsort yields the stable order.
    order = np.argsort(right_codes * n_right + np.arange(n_right))
    counts = np.bincount(right_codes, minlength=n_codes + 1)
    counts[n_codes] = 0
    starts = np.cumsum(counts) - counts
    # Probe: repeat each left row once per right row with its code.
    per_left = counts[left_codes]
    left_idx = np.repeat(np.arange(n_left), per_left)
    rank = np.arange(len(left_idx)) - np.repeat(
        np.cumsum(per_left) - per_left, per_left
    )
    return left_idx, order[np.repeat(starts[left_codes], per_left) + rank]


def _unhit(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The rows of ``range(n_rows)`` not in ``rows``, ascending."""
    hit = np.zeros(n_rows, dtype=bool)
    hit[rows] = True
    return np.flatnonzero(~hit)
