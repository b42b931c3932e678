"""The key kernel: equi-join, GROUP BY and DISTINCT on one primitive.

:func:`factorize` maps each row of one or more key columns to a dense
int64 code, and codes follow lexicographic key order. NaN keys equal
each other (one group, one DISTINCT row) and sort last. The executor
builds its three key operators on it: GROUP BY's codes are the group
ids, DISTINCT keeps the first row per code, and :func:`equi_join`
matches the two sides' codes with a stable sort plus ``bincount``
offsets. No operator walks rows in Python.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ExecutionError

_INT64_MAX = int(np.iinfo(np.int64).max)


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.unique(values, return_inverse=True)
    except TypeError as exc:  # object keys with no total order
        raise ExecutionError(
            f"cannot compare {values.dtype} key values: {exc}"
        ) from None


def factorize(key_arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """``(codes, n_codes)``: rows with equal keys in every column share a
    code in ``range(n_codes)``, and a lower code means a lexicographically
    smaller key (first column most significant).

    Each column is factorized on its own and the codes are combined in
    mixed radix; when the radix product would overflow int64 the codes
    so far are re-densified first.
    """
    uniques, codes = _unique(key_arrays[0])
    n_codes = len(uniques)
    for values in key_arrays[1:]:
        uniques, inverse = _unique(values)
        if n_codes * len(uniques) > _INT64_MAX:
            seen, codes = np.unique(codes, return_inverse=True)
            n_codes = len(seen)
        codes = codes * len(uniques) + inverse
        n_codes *= len(uniques)
    if len(key_arrays) > 1:
        seen, codes = np.unique(codes, return_inverse=True)
        n_codes = len(seen)
    return codes.astype(np.int64, copy=False), n_codes


def first_rows(codes: np.ndarray) -> np.ndarray:
    """Index of the first row holding each code, in code order."""
    return np.unique(codes, return_index=True)[1]


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
    codes, n_codes = factorize([keys])
    codes[never] = n_codes  # one past the last code: matches nothing
    left_codes, right_codes = codes[: len(left)], codes[len(left):]
    # Build: right rows grouped by code, ascending within a code. The
    # row number makes every sort key unique, so the default (unstable,
    # much faster than timsort) argsort yields the stable order.
    order = np.argsort(right_codes * len(right) + np.arange(len(right)))
    counts = np.bincount(right_codes, minlength=n_codes + 1)
    counts[n_codes] = 0
    starts = np.cumsum(counts) - counts
    # Probe: repeat each left row once per right row with its code.
    per_left = counts[left_codes]
    left_idx = np.repeat(np.arange(len(left)), per_left)
    rank = np.arange(len(left_idx)) - np.repeat(
        np.cumsum(per_left) - per_left, per_left
    )
    right_idx = order[np.repeat(starts[left_codes], per_left) + rank]
    none = np.zeros(0, dtype=np.int64)
    unmatched_left = (
        np.flatnonzero(per_left == 0) if kind in ("LEFT", "FULL") else none
    )
    unmatched_right = none
    if kind == "FULL":
        probed = np.zeros(n_codes + 1, dtype=bool)
        probed[left_codes] = True
        probed[n_codes] = False
        unmatched_right = np.flatnonzero(~probed[right_codes])
    return left_idx, right_idx, unmatched_left, unmatched_right
