"""Integer rows as byte keys: the array core under every refinement update.

A refinement update builds one row per cell (or per pair) and numbers the
distinct rows (:func:`number_keys`).  The numbering is exact and hash-free:
every value is stored plus one so the -1 pad is key 0, in the narrowest
unsigned dtype that holds the largest key (:func:`key_dtype`: 8, 16, 32 or 64
bits), and one argsort orders the rows.  When R**w <= 2**64, for R the
buffer's largest key plus one and w its row width, each row is one uint64,
its value in mixed radix R; otherwise the buffer is byte-swapped to
big-endian, so that a row's bytes compare as the row does in lexicographic
order, and each row is one np.void key.  Both keys keep that order, so ids
are canonical either way: distinct rows are numbered in sorted-row order.

Rows move only narrow bytes.  Gathers are int32 index matrices while the
array they read has fewer than 2**31 entries, int64 from there on
(:func:`index_dtype`).  An update knows the bounds of its rows (color count,
base and segment count, see :func:`row_span`), so it picks the key dtype
first and writes each row once into the key buffer (:func:`build_rows`).
Tables of the distinct rows are int64 bytes whatever the key dtype.  Cover
maps number their rows here too: :func:`~cckit.covering.cell_map_from_node_map`
writes a skeleton's rows and their candidate images into one key buffer and
numbers it, so :func:`number_keys` is the library's only row numbering.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .complex import Csr, padded_rows, row_lengths

GATHER_CHUNK = 1 << 15  # gather entries per step of build_rows


def key_dtype(span: int) -> np.dtype:
    """The narrowest unsigned dtype holding 0..span."""
    for size in (1, 2, 4):
        if span < 1 << 8 * size:
            return np.dtype(f"u{size}")
    return np.dtype("u8")


def index_dtype(size: int) -> np.dtype:
    """The gather dtype for an array of ``size`` entries: int32 below 2**31
    entries, int64 from there on."""
    return np.dtype(np.int32 if size < 1 << 31 else np.int64)


def number_keys(keys: np.ndarray, tabulate: bool) -> tuple[np.ndarray, int, tuple | None]:
    """Ids and class count of the rows of a key buffer, whose values are the
    row values plus one (the -1 pad is key 0, see :func:`store_keys`) in an
    unsigned dtype; plus, with tabulate, the table of the rows: the distinct
    rows in id order and their counts, as int64 bytes (compact copies that
    compare exactly; the two lengths fix the row width), whatever the key
    dtype.

    A row is one uint64 sort key, its mixed-radix value, when the rows fit
    64 bits (:func:`_packed_keys`).  Otherwise the buffer is consumed: it is
    byte-swapped in place to big-endian, so each row's bytes compare as the
    row does in lexicographic order, and one row is one np.void sort key:
    the only np.void keys the library builds.
    """
    sort_keys = _packed_keys(keys)
    if sort_keys is None:
        big = keys.dtype.newbyteorder(">")
        if keys.dtype != big:
            keys = keys.byteswap(inplace=True).view(big)
        sort_keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
    order = np.argsort(sort_keys)
    ordered = sort_keys[order]
    leader = np.ones(len(keys), dtype=bool)
    leader[1:] = ordered[1:] != ordered[:-1]
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(leader) - 1
    starts = np.flatnonzero(leader)
    table = None
    if tabulate:
        counts = row_lengths(np.append(starts, len(keys)))
        distinct = keys[order[starts]].astype(np.int64) - 1
        table = (distinct.tobytes(), counts.tobytes())
    return ids, len(starts), table


def _packed_keys(keys: np.ndarray) -> np.ndarray | None:
    """The rows of a key buffer as one uint64 each, their mixed-radix value
    in the radix R = largest key + 1, when R**width <= 2**64; None otherwise.
    The rows are packed by Horner's rule, one column at a time, into one
    uint64 array.  Mixed radix keeps the rows' lexicographic order."""
    radix, width = int(keys.max(initial=0)) + 1, keys.shape[1]
    if radix**width > 1 << 64:
        return None
    packed = keys[:, 0].astype(np.uint64)
    for column in keys.T[1:]:  # width >= 2, so radix <= 2**32
        packed *= np.uint64(radix)
        packed += column
    return packed


def store_keys(out: np.ndarray, values) -> None:
    """Write the keys of values of at least -1 into out: values plus one, in
    out's unsigned dtype, so the -1 pad is key 0."""
    np.add(values, 1, out=out, dtype=out.dtype, casting="unsafe")


def padded_gather(csrs: Sequence[Csr], shifts: Sequence[int] | None = None) -> list[np.ndarray]:
    """Neighbor CSRs as (n, w) index matrices, one per complex, with one
    joint width w.  Short rows are padded with -1, which reads the pad an
    update appends after the last color (:func:`shifted_colors`); shifts
    offset each complex's indices."""
    width = max((int(row_lengths(indptr).max(initial=0)) for indptr, _ in csrs), default=0)
    if shifts:
        csrs = [(indptr, indices + shift) for (indptr, indices), shift in zip(csrs, shifts)]
    return [padded_rows(csr, width) for csr in csrs]


def row_span(base: int, segments: Sequence[np.ndarray]) -> int:
    """The largest key of an update's rows (see :func:`build_rows`): an old
    color key is below base, a gathered key at most base times the segment
    count."""
    return base * max([1] + [int(segment[-1]) + 1 for segment in segments if len(segment)])


def shifted_colors(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """values plus one in dtype, with one 0 appended: the array an update's
    gathers read, a -1 index reading the 0 pad."""
    ext = np.zeros(len(values) + 1, dtype=dtype)
    store_keys(ext[:-1], values)
    return ext


def build_rows(
    out: np.ndarray, old, ext: np.ndarray, index: np.ndarray, segment: np.ndarray, base: int
) -> None:
    """Write the rows of one update into its slice of the key buffer: the old
    colors, then the colors each index row reads from ext, each column lifted
    into its segment's value range (base exceeds every color): one sort per
    row keeps the neighborhoods' multisets apart.

    Keys are values plus one, in out's dtype; ext holds colors plus one with
    0 for the pad (:func:`shifted_colors`), and columns past the index's
    width keep the pad's key 0.  The gather runs over a few rows at a time:
    np.take casts an int32 index to a platform index copy, which stays small
    and in cache.
    """
    store_keys(out[:, 0], old)
    lift = (segment * base + 1).astype(out.dtype)
    gathered = out[:, 1 : 1 + index.shape[1]]
    step = max(1, GATHER_CHUNK // max(index.shape[1], 1))
    for start in range(0, len(index), step):
        rows = gathered[start : start + step]
        np.add(np.take(ext, index[start : start + step]), lift, out=rows)
        rows.sort(axis=1)
