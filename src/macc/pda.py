"""Placement delivery arrays.

A PDA is an F x K array over {star} plus message ids.  Stars mark packets a
user can already retrieve; equal ids mark packets combined into one multicast
message.  The defining conditions:

  C1   every column holds the same number Z of stars;
  C2   every message id occurs at least once;
  C3a  an id never repeats within a row or a column;
  C3b  for two cells sharing an id, both crossing cells are stars.

The ids of an array are the integers 0..S-1, in row-major first-occurrence
order, and serialization writes them as 1..S.  The scheme builders compute
an integer key per non-star cell with array arithmetic (``row_keys`` folds
a tuple of coordinates into one key, ``occurrences`` numbers repeat copies)
and ``Pda.from_keys`` numbers those keys; ``Pda(cells)`` maps hashable
cells to a key grid and numbers it the same way.  The numbering is one
stable sort of the non-star keys in ``id_cells``: it groups the cells by
key, and laying the groups out in order of their first cells gives both the
canonical ids and the id CSR that the verifier, the delivery and the
decoder read, so no F x K key grid and no second sort is needed.  The keys
are cast to the narrowest unsigned type that holds them (``_narrow``):
numpy's stable sort of uint8 or uint16 keys is a radix sort, and the keys
of the larger schemes are below 2^16.  An id's label, the text that shows
it, is made only where it is shown (``Pda.labels``).
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import InvalidParametersError, NotAPdaError, UnsupportedParametersError

# Largest peak, in bytes, that one build or count may reach: each caller
# refuses, before it allocates, an input whose measured bytes per key, cell
# or block would pass it.
MAX_COUNT_BYTES = 1 << 30


class _Star:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


STAR = _Star()


class Pda:
    """Immutable star/message-id array.

    ``grid`` is one int32 F x K array: -1 is a star and 0..S-1 is the
    canonical id, numbered in row-major first-occurrence order.  ``csr``, the
    non-star cells grouped by id, comes with the numbering.  The other views
    are derived from these, each cached read-only at first use, so the
    verifier, the delivery and the decoder share one copy of each.  An id's
    label is made only when ``labels`` is called: a ``Pda(cells)`` keeps its
    cells as ``cell_labels``, a ``labelled`` array asks its labeller, and
    any other shows id g as g + 1, as the JSON writes it.
    """

    cell_labels = None
    _label = None

    def __init__(self, cells):
        rows = list(cells)
        if len({len(r) for r in rows}) > 1:
            raise InvalidParametersError("ragged PDA rows")
        # Key each cell by the number of distinct ids seen before it, so key g
        # is already canonical id g.
        index = {STAR: -1}
        keys = np.array([[index.setdefault(c, len(index) - 1) for c in row] for row in rows])
        self._number(keys)
        self.cell_labels = tuple(index)[1:]

    @classmethod
    def from_keys(cls, keys) -> "Pda":
        """The PDA of an F x K integer key grid, -1 a star, where cells with
        equal non-negative keys share an id.  ``keys`` is the grid, or the
        pair ``(missed, values)`` of its F x K boolean grid of non-star cells
        and their keys in row-major order, which needs no key grid."""
        pda = cls.__new__(cls)
        pda._number(keys)
        return pda

    def _number(self, keys) -> None:
        if isinstance(keys, tuple):
            missed, values = keys
        else:
            keys = np.asarray(keys)
            missed = keys >= 0
            values = keys[missed]
        if missed.ndim != 2 or 0 in missed.shape:
            raise InvalidParametersError("PDA needs at least one row and one column")
        rows, cols, ptr = id_cells(missed, values)
        grid = np.full(missed.shape, -1, dtype=np.int32)
        for run, ids in _id_runs(ptr, _STEP_CELLS):
            cells = slice(ptr[run.start], ptr[run.stop])
            grid[rows[cells], cols[cells]] = ids
        self.grid = _frozen(grid)
        # (rows, cols, ptr): the non-star cells grouped by id (see id_cells)
        self.csr = tuple(map(_frozen, (rows, cols, ptr)))

    def labelled(self, label) -> "Pda":
        """This array, sharing its views, with ``label(ids)`` making the
        labels of an int array of ids."""
        pda = copy.copy(self)
        pda._label = label
        return pda

    def labels(self, ids=None) -> list:
        """The labels of ``ids``, an int array (every id by default), made
        anew on each call."""
        ids = np.arange(self.num_ids) if ids is None else np.asarray(ids)
        if self.cell_labels is not None:
            return [self.cell_labels[g] for g in ids.tolist()]
        return (ids + 1).tolist() if self._label is None else self._label(ids)

    def relabel(self, labels: list) -> list:
        """The grid as lists of rows, id g shown as ``labels[g]`` and a star
        as ``labels[-1]``; cells share the label objects."""
        return [[labels[g] for g in row.tolist()] for row in self.grid]

    @property
    def num_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def num_cols(self) -> int:
        return self.grid.shape[1]

    def cell(self, row: int, col: int):
        g = int(self.grid[row, col])
        return STAR if g < 0 else self.labels([g])[0]

    @property
    def num_ids(self) -> int:
        return len(self.csr[2]) - 1

    @cached_property
    def stars(self) -> np.ndarray:
        """F x K boolean grid of the stars: the rows each user retrieves."""
        return _frozen(self.grid < 0)

    @cached_property
    def packed(self) -> np.ndarray:
        """The non-star cells of each row as a bitset (see :func:`pack_rows`):
        the packed stars with the K column bits flipped, so no F x K mask is
        made."""
        return _frozen(pack_rows(self.stars) ^ pack_rows(np.ones((1, self.num_cols), dtype=bool)))

    @cached_property
    def c3_flags(self) -> np.ndarray:
        """Per id, whether it breaks C3 (see :func:`flag_c3`).  With none set,
        every other cell of a message a user needs lies in a row that the
        user's column stars."""
        return _frozen(flag_c3(self))

    @cached_property
    def by_user(self) -> tuple:
        """``(ptr, rows, places, ids)``: the non-star cells user by user, the
        cells of user k at ``ptr[k]:ptr[k + 1]`` in row order, each with its
        row, its place in the CSR and its id."""
        rows, cols, _ = self.csr
        f, k = self.grid.shape
        at = np.empty((k, f), dtype=np.int32)
        at[cols, rows] = np.arange(len(rows))
        grid = np.ascontiguousarray(self.grid.T).ravel()
        cells = np.flatnonzero(grid >= 0)
        ptr = np.searchsorted(cells, np.arange(0, (k + 1) * f, f))
        return tuple(map(_frozen, (ptr, (cells % f).astype(np.int32), at.ravel()[cells],
                                   grid[cells])))

    @cached_property
    def known(self) -> np.ndarray:
        """K x S bitmap: user k rebuilds message s from cache alone when the
        grid stars k in every row of the message's cells, that is when its
        bit is clear in the OR of the message's packed rows; ORed over a
        block of words at a time."""
        rows, _, ptr = self.csr
        known = np.empty((self.num_cols, self.num_ids), dtype=bool)
        step = max(_SCREEN_BYTES // 8 // max(len(rows), 1), 1)
        for w in range(0, self.packed.shape[1], step):
            some = np.bitwise_or.reduceat(np.ascontiguousarray(self.packed[:, w:w + step])[rows],
                                          ptr[:-1], axis=0)
            users = known[64 * w:64 * (w + step)]
            users[:] = np.unpackbits(~some.view(np.uint8), axis=1, count=len(users)).T
        return _frozen(known)

    @cached_property
    def ids(self) -> tuple:
        """Every id's label, made at first read (the benchmark tracer reads
        them with ``id_positions``)."""
        return tuple(self.labels())

    @cached_property
    def id_positions(self) -> dict:
        """Each id's label mapped to its cells, row-major."""
        rows, cols, ptr = self.csr
        cells = list(zip(rows.tolist(), cols.tolist()))
        return MappingProxyType({i: tuple(cells[a:b]) for i, a, b in zip(self.ids, ptr[:-1], ptr[1:])})

    @cached_property
    def column_star_counts(self) -> tuple:
        return tuple(self.stars.sum(axis=0).tolist())


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _narrow(keys) -> np.ndarray:
    """Non-negative integer keys in the narrowest unsigned dtype that holds
    them: a stable sort of uint8 or uint16 keys is a radix sort."""
    return keys.astype(np.min_scalar_type(keys.max(initial=0)), copy=False)


def id_cells(missed, keys) -> tuple:
    """The non-star cells of a delivery array grouped by id, as a CSR:
    ``(rows, cols, ptr)``, rows and cols int32, with the cells of id s at
    ``ptr[s]:ptr[s + 1]``, row-major within each id.  ``missed`` is the
    F x K boolean grid of the non-star cells and ``keys`` their keys in
    row-major order; cells with equal keys share an id, numbered in order
    of its first cell.  One stable sort of the keys groups the cells by key,
    row-major within each group, and the groups are laid out in order of
    their first cells."""
    keys = _narrow(keys)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    sorted_keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(new)
    del sorted_keys, new
    by_first = np.argsort(order[starts])  # id -> its group among the sorted keys
    counts = np.diff(starts, append=len(order))[by_first]
    ptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    # The sorted place of each CSR cell, as a running sum of steps: 1 within
    # an id, and a jump to its group's start at the first cell of each id.
    at = np.ones(len(order), dtype=np.int32)
    begin = starts[by_first]
    at[ptr[:-1]] = begin - np.concatenate([[0], begin[:-1] + counts[:-1] - 1])
    np.cumsum(at, out=at)
    at = order[at]  # the row-major place of each CSR cell
    del order
    # Each cell's column and row, gathered from the cells in row-major order
    # in the narrowest type, the rows into the places they replace: no intp
    # array per cell, and at most one int32 array more than the CSR.
    f, k = missed.shape
    cols = np.broadcast_to(np.arange(k, dtype=np.min_scalar_type(k - 1)), missed.shape)[missed][at]
    rows = at
    rows[...] = np.repeat(np.arange(f, dtype=np.min_scalar_type(f - 1)),
                          np.count_nonzero(missed, axis=1))[at]
    return rows, cols.astype(np.int32), ptr


def _id_runs(ptr, step: int):
    """Runs of whole ids of a CSR with offsets ``ptr``, about ``step`` cells
    each (at least one id): yield the run's ids as a slice, and the id of
    each of its cells, so no array holds an id per cell."""
    i = 0
    while i < len(ptr) - 1:
        j = max(int(np.searchsorted(ptr, ptr[i] + step, side="right")) - 1, i + 1)
        yield slice(i, j), np.repeat(np.arange(i, j, dtype=np.int32), np.diff(ptr[i:j + 1]))
        i = j


def row_keys(rows) -> np.ndarray:
    """One int64 key per row of an N x W array of non-negative integers, equal
    exactly when the rows are equal.  Columns fold in one at a time through
    ``np.unique`` inverses, so no step exceeds N * N; one column is its key."""
    rows = np.asarray(rows, dtype=np.int64)
    key = rows[:, 0]
    for col in rows.T[1:]:
        key = np.unique(key, return_inverse=True)[1]
        values, col = np.unique(col, return_inverse=True)
        key = key * len(values) + col
    return key


def subset_ranks(subsets, universe: int) -> np.ndarray:
    """0-based lexicographic rank of each row of an N x t array of sorted
    t-subsets of [universe]: C(v, t) - 1 - sum_i C(v - x_i, t - i), i from 0.
    C(universe, t) must fit in int64."""
    subsets = np.asarray(subsets, dtype=np.int64)
    t = subsets.shape[1]
    rank = np.full(len(subsets), math.comb(universe, t) - 1, dtype=np.int64)
    for i, col in enumerate(subsets.T):
        # one exact binomial per distinct point of the column (not through
        # np.unique, whose hash path imports numpy.ma, about 1 MB)
        values = np.sort(col)
        first = np.ones(len(values), dtype=bool)
        first[1:] = values[1:] != values[:-1]
        values = values[first]
        binom = np.array([math.comb(universe - x, t - i) for x in values.tolist()], dtype=np.int64)
        rank -= binom[np.searchsorted(values, col)]
    return rank


def occurrences(keys) -> np.ndarray:
    """1-based copy counter: entry i counts the entries up to i (in array
    order) whose key equals ``keys[i]``."""
    order = np.argsort(keys, kind="stable")
    _, start, size = np.unique(keys[order], return_index=True, return_counts=True)
    counts = np.empty(len(keys), dtype=np.int64)
    counts[order] = np.arange(len(keys)) - np.repeat(start, size) + 1
    return counts


@dataclass
class PdaStats:
    num_users: int
    subpacketization: int
    stars_per_column: int
    num_messages: int
    load: Fraction
    gain: Optional[Fraction]
    degenerate: bool


def pda_stats(pda: Pda) -> PdaStats:
    """Exact (K, F, Z, S) plus load S/F and gain K(F-Z)/S."""
    if len(set(pda.column_star_counts)) != 1:
        raise NotAPdaError(f"column star counts are not uniform: {pda.column_star_counts}")
    k, f = pda.num_cols, pda.num_rows
    z = pda.column_star_counts[0]
    s = pda.num_ids
    load = Fraction(s, f)
    gain = Fraction(k * (f - z), s) if s else None
    return PdaStats(k, f, z, s, load, gain, degenerate=(s == 0 or z == f))


@dataclass
class PdaVerification:
    ok: bool
    c1_uniform_stars: bool
    c2_ids_complete: bool
    c3a_distinct_rows_cols: bool
    c3b_crossing_stars: bool
    num_users: int
    subpacketization: int
    stars_per_column: Optional[int]
    num_messages: int
    degenerate: bool
    first_violation: Optional[str] = None


# Cell pairs examined per step of the C3 pair scan; bounds its scratch memory.
_PAIR_CHUNK = 1 << 18
# Bytes of packed row words that ``flag_c3`` and ``Pda.known`` gather per
# step; bounds their scratch memory.
_SCREEN_BYTES = 1 << 20
# Cells per step of the grid write of ``Pda.from_keys``; bounds its index
# arrays.
_STEP_CELLS = 1 << 16


def pack_rows(mask) -> np.ndarray:
    """The rows of a boolean array as bitsets: ``np.packbits`` bit order,
    zero-padded to whole uint64 words."""
    n, k = mask.shape
    out = np.zeros((n, -(-k // 64) * 8), dtype=np.uint8)
    out[:, :-(-k // 8)] = np.packbits(mask, axis=1)
    return out.view(np.uint64)


def flag_c3(pda: Pda) -> np.ndarray:
    """Per id, whether it breaks C3a or C3b.  An id keeps C3 exactly when it
    has as many distinct columns as cells and, for each of its cells (r, c),
    the only non-star cell of row r within its columns is c: a second one
    would lie in the row or, at a crossing, in the column of another of its
    cells.  The per-cell count comes from the packed rows and the id's
    column set packed the same way, a run of whole ids at a time (at most
    about _SCREEN_BYTES of row bits)."""
    rows, cols, ptr = pda.csr
    packed = pda.packed
    flagged = np.empty(len(ptr) - 1, dtype=bool)
    step = max(_SCREEN_BYTES // packed.itemsize // packed.shape[1], 1)
    for run, ids in _id_runs(ptr, step):
        cells = slice(ptr[run.start], ptr[run.stop])
        local, c = ids - run.start, cols[cells]
        bits = np.zeros((run.stop - run.start, packed.shape[1] * 8), dtype=np.uint8)
        np.bitwise_or.at(bits, (local, c >> 3), (0x80 >> (c & 7)).astype(np.uint8))
        bits = bits.view(np.uint64)
        crossing = np.bitwise_count(packed[rows[cells]] & bits[local]).sum(axis=1)
        flagged[run] = np.bitwise_count(bits).sum(axis=1) != np.diff(ptr[run.start:run.stop + 1])
        flagged[ids[crossing != 1]] = True
    return flagged


def _first_c3_violations(pda: Pda) -> list:
    """The first cell pair breaking C3a and the first breaking C3b, each as
    [j1, k1, j2, k2] or None.  Pairs run in id order, then in combination
    order over the id's row-major cells, scanned a step of first cells at a
    time (at most _PAIR_CHUNK pairs, unless one cell alone has more).  Only
    the ids that ``pda.c3_flags`` flags hold a violation, so only their
    cells are scanned, and a valid array scans no pairs."""
    flagged = pda.c3_flags
    if not flagged.any():
        return [None, None]
    grid, (rows, cols, ptr) = pda.grid, pda.csr
    keep = np.repeat(flagged, np.diff(ptr))
    rows, cols = rows[keep], cols[keep]
    ptr = np.concatenate([[0], np.cumsum(np.diff(ptr)[flagged])])
    # Partners of each cell: the later cells of the same id.
    later = np.repeat(ptr[1:], np.diff(ptr)) - np.arange(len(rows)) - 1
    step = max(_PAIR_CHUNK // int(later.max(initial=1)), 1)
    first = [None, None]
    for start in range(0, len(rows), step):
        if None not in first:
            break
        n = later[start:start + step]
        i = np.repeat(np.arange(start, start + len(n)), n)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
        r1, c1, r2, c2 = rows[i], cols[i], rows[j], cols[j]
        same = (r1 == r2) | (c1 == c2)
        uncrossed = ~same & ((grid[r1, c2] >= 0) | (grid[r2, c1] >= 0))
        for which, bad in enumerate((same, uncrossed)):
            if first[which] is None and bad.any():
                p = bad.argmax()
                first[which] = [int(r1[p]), int(c1[p]), int(r2[p]), int(c2[p])]
    return first


def _missing_ids(ids) -> str:
    """The integers in 1..max(ids) that are no id, as a sorted list, or past
    ten of them the first ten and how many more; "" when none.  They are
    read off the gaps between the sorted ids, so the text and the work grow
    with the number of ids, not with their values."""
    shown = 10
    present = sorted(i for i in ids if i >= 1)
    total = present[-1] - len(present) if present else 0
    first, prev = [], 0
    for i in present:
        first += range(prev + 1, min(i, prev + 1 + shown - len(first)))
        prev = i
    if total > shown:
        return f"{first} and {total - shown} more"
    return str(first) if total else ""


def verify_pda(pda: Pda) -> PdaVerification:
    """Exhaustive check of C1-C3.  C3 covers every pair of cells sharing an
    id: the packed-bits screen clears the ids that keep it, and the pair
    scan names the first violation among the rest."""
    violations = []

    c1 = len(set(pda.column_star_counts)) == 1
    if not c1:
        violations.append(f"C1: column star counts {pda.column_star_counts}")
    z = pda.column_star_counts[0] if c1 else None

    # C2 is only informative when the given cells are integers: a gap means
    # some advertised message is never sent.
    c2 = True
    ids = pda.cell_labels
    if ids and all(isinstance(i, int) for i in ids):
        missing = _missing_ids(ids)
        if missing:
            c2 = False
            violations.append(f"C2: integer ids missing {missing}")

    first_a, first_b = _first_c3_violations(pda)
    if first_a:
        j1, k1, j2, k2 = first_a
        violations.append(
            f"C3a: id {pda.cell(j1, k1)} repeats at {(j1 + 1, k1 + 1)} and {(j2 + 1, k2 + 1)}"
        )
    if first_b:
        j1, k1, j2, k2 = first_b
        violations.append(
            f"C3b: id {pda.cell(j1, k1)} at {(j1 + 1, k1 + 1)},{(j2 + 1, k2 + 1)} "
            "lacks crossing stars"
        )

    s = pda.num_ids
    c3a, c3b = first_a is None, first_b is None
    return PdaVerification(
        ok=c1 and c2 and c3a and c3b,
        c1_uniform_stars=c1,
        c2_ids_complete=c2,
        c3a_distinct_rows_cols=c3a,
        c3b_crossing_stars=c3b,
        num_users=pda.num_cols,
        subpacketization=pda.num_rows,
        stars_per_column=z,
        num_messages=s,
        degenerate=(s == 0 or z == pda.num_rows),
        first_violation=violations[0] if violations else None,
    )


def mn_pda(num_users: int, cached_fraction: int) -> Pda:
    """The classical single-cache PDA: rows are the t-subsets of users in
    lexicographic order, and cell (D, k) for k outside D is the rank of
    D + {k} among (t+1)-subsets, which is also its canonical id, so the
    ids show as those ranks + 1."""
    k_users, t = num_users, cached_fraction
    if not 0 <= t <= k_users:
        raise InvalidParametersError(f"need 0 <= t <= K, got t={t}, K={k_users}")
    # `macc pda --mn` peaks at up to about 120 bytes per cell
    if math.comb(k_users, t) * k_users * 128 > MAX_COUNT_BYTES:
        raise UnsupportedParametersError(
            f"the MN PDA with K={k_users}, t={t} needs over {MAX_COUNT_BYTES} bytes")
    subsets = np.array(list(itertools.combinations(range(1, k_users + 1), t)), dtype=np.int64)
    users = np.arange(1, k_users + 1)
    rows, cols = np.nonzero((subsets[:, :, None] != users).all(axis=1))
    keys = np.full((len(subsets), k_users), -1, dtype=np.int64)
    keys[rows, cols] = subset_ranks(
        np.sort(np.column_stack([subsets[rows], users[cols]]), axis=1), k_users,
    )
    return Pda.from_keys(keys)
