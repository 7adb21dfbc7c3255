"""Placement delivery arrays.

A PDA is an F x K array over {star} plus message ids.  Stars mark packets a
user can already retrieve; equal ids mark packets combined into one multicast
message.  The defining conditions:

  C1   every column holds the same number Z of stars;
  C2   every message id occurs at least once;
  C3a  an id never repeats within a row or a column;
  C3b  for two cells sharing an id, both crossing cells are stars.

Ids are opaque hashable objects.  Constructions use structured ids (subsets,
symbol vectors with copy counters); the array stores them as dense integers
in row-major first-occurrence order, and serialization writes those as
1..S.  The scheme builders compute an integer key per cell with array
arithmetic (``row_keys`` folds a tuple of coordinates into one key,
``occurrences`` numbers repeat copies) and ``Pda.from_keys`` numbers the key
grid, making an id object only for each of the S distinct keys; ``Pda(cells)``
maps hashable cells to keys and numbers them the same way.  The numbering and
``id_cells`` sort keys cast to the narrowest unsigned type that holds them
(``_narrow``): numpy's stable sort of uint8 or uint16 keys is a radix sort,
and the keys of the larger schemes, and their ids, are below 2^16.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidParametersError, NotAPdaError


class _Star:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


STAR = _Star()


@dataclass(frozen=True)
class SubsetId:
    """Message id naming a point subset (index-1 design deliveries)."""

    elements: tuple

    def __str__(self):
        if all(x <= 9 for x in self.elements):
            return "".join(str(x) for x in self.elements)
        return "{" + ",".join(str(x) for x in self.elements) + "}"


@dataclass(frozen=True)
class CountedSubsetId:
    """Point subset plus a copy counter (index > 1 design deliveries)."""

    elements: tuple
    copy: int

    def __str__(self):
        return f"{SubsetId(self.elements)},{self.copy}"


@dataclass(frozen=True)
class CountedVectorId:
    """Symbol vector plus a per-column copy counter (GDD deliveries)."""

    symbols: tuple
    copy: int

    def display(self, show_copy: bool) -> str:
        body = "".join(str(x) for x in self.symbols) if all(
            x <= 9 for x in self.symbols
        ) else "(" + ",".join(str(x) for x in self.symbols) + ")"
        return f"{body},{self.copy}" if show_copy else body

    def __str__(self):
        return self.display(self.copy > 1)


class Pda:
    """Immutable star/message-id array.

    ``grid`` is one int32 F x K array: -1 is a star and 0..S-1 is the
    canonical id, numbered in row-major first-occurrence order.  ``ids``
    holds the id objects in that order and labels the grid; ``cells``,
    ``id_positions`` and the other views are derived from the two.
    """

    def __init__(self, cells):
        rows = list(cells)
        if len({len(r) for r in rows}) > 1:
            raise InvalidParametersError("ragged PDA rows")
        # Key each cell by the number of distinct ids seen before it, so key g
        # is already canonical id g.
        index = {STAR: -1}
        keys = np.array([[index.setdefault(c, len(index) - 1) for c in row] for row in rows])
        self._number(keys, lambda first: tuple(index)[1:])

    @classmethod
    def from_keys(cls, keys, label) -> "Pda":
        """The PDA of an F x K integer key grid: -1 is a star and cells with
        equal non-negative keys share an id.  ``label(first)`` gets, for each
        distinct key in canonical order, the position of its first cell among
        the non-star cells in row-major order, and returns the id objects."""
        pda = cls.__new__(cls)
        pda._number(np.asarray(keys), label)
        return pda

    def _number(self, keys, label) -> None:
        if keys.ndim != 2 or 0 in keys.shape:
            raise InvalidParametersError("PDA needs at least one row and one column")
        flat = keys.ravel()
        cells = np.flatnonzero(flat >= 0)
        _, first, inverse = np.unique(_narrow(flat[cells]), return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        grid = np.full(keys.shape, -1, dtype=np.int32)
        grid.ravel()[cells] = np.argsort(order)[inverse]  # key -> canonical id
        grid.flags.writeable = False
        self.grid = grid
        self.ids = tuple(label(first[order]))

    def relabel(self, labels: list) -> list:
        """The grid as lists of rows, id g shown as ``labels[g]`` and a star
        as ``labels[-1]``; cells share the label objects."""
        return [[labels[g] for g in row.tolist()] for row in self.grid]

    @property
    def cells(self) -> tuple:
        return tuple(map(tuple, self.relabel([*self.ids, STAR])))

    @property
    def num_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def num_cols(self) -> int:
        return self.grid.shape[1]

    def cell(self, row: int, col: int):
        g = int(self.grid[row, col])
        return STAR if g < 0 else self.ids[g]

    @property
    def num_ids(self) -> int:
        return len(self.ids)

    @cached_property
    def id_positions(self) -> dict:
        rows, cols, ptr = id_cells(self.grid)
        cells = list(zip(rows.tolist(), cols.tolist()))
        return {i: tuple(cells[a:b]) for i, a, b in zip(self.ids, ptr[:-1], ptr[1:])}

    @cached_property
    def column_star_counts(self) -> tuple:
        return tuple((self.grid < 0).sum(axis=0).tolist())

    def stars_uniform(self) -> bool:
        return len(set(self.column_star_counts)) == 1


def _narrow(keys) -> np.ndarray:
    """Non-negative integer keys in the narrowest unsigned dtype that holds
    them: a stable sort of uint8 or uint16 keys is a radix sort."""
    return keys.astype(np.min_scalar_type(keys.max(initial=0)), copy=False)


def id_cells(grid) -> tuple:
    """The non-star cells of a delivery grid grouped by id, as a CSR:
    ``(rows, cols, ptr)`` with the cells of id s at ``ptr[s]:ptr[s + 1]``,
    row-major within each id."""
    flat = grid.ravel()
    cells = np.flatnonzero(flat >= 0)
    ids = flat[cells]
    rows, cols = np.divmod(cells[np.argsort(_narrow(ids), kind="stable")], grid.shape[1])
    counts = np.bincount(ids, minlength=int(grid.max()) + 1)
    ptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return rows, cols, ptr


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
    if not pda.stars_uniform():
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
# Bytes of packed row bits that ``crossings`` tests per step; bounds its
# scratch memory.
_SCREEN_BYTES = 1 << 20


def pack_rows(mask) -> np.ndarray:
    """The rows of a boolean array as bitsets: ``np.packbits`` bit order,
    zero-padded to whole uint64 words."""
    n, k = mask.shape
    out = np.zeros((n, -(-k // 64) * 8), dtype=np.uint8)
    out[:, :-(-k // 8)] = np.packbits(mask, axis=1)
    return out.view(np.uint64)


def crossings(grid, rows, cols, ptr) -> tuple:
    """For the non-star cells of a grid grouped by id (the CSR of
    :func:`id_cells`): per cell (r, c), the number of non-star cells of row
    r within the columns of its id, and per id, its number of distinct
    columns.  Both come from rows and column sets packed into bitsets, the
    per-cell count a step of cells at a time (at most _SCREEN_BYTES of row
    bits)."""
    packed = pack_rows(grid >= 0)
    counts = np.diff(ptr)
    ids = np.repeat(np.arange(len(counts)), counts)
    bits = np.zeros((len(counts), packed.shape[1] * 8), dtype=np.uint8)
    np.bitwise_or.at(bits, (ids, cols >> 3), (0x80 >> (cols & 7)).astype(np.uint8))
    bits = bits.view(np.uint64)
    crossing = np.empty(len(rows), dtype=np.intp)
    step = max(_SCREEN_BYTES // packed.itemsize // packed.shape[1], 1)
    for start in range(0, len(rows), step):
        cells = slice(start, start + step)
        crossing[cells] = np.bitwise_count(packed[rows[cells]] & bits[ids[cells]]).sum(axis=1)
    return crossing, np.bitwise_count(bits).sum(axis=1)


def _flag_c3(grid, rows, cols, ptr) -> np.ndarray:
    """Per id, whether it breaks C3a or C3b.  An id keeps C3 exactly when it
    has as many distinct columns as cells and, for each of its cells (r, c),
    the only non-star cell of row r within its columns is c (see
    :func:`crossings`): a second one would lie in the row or, at a
    crossing, in the column of another of its cells."""
    crossing, spans = crossings(grid, rows, cols, ptr)
    flagged = spans != np.diff(ptr)
    flagged[np.searchsorted(ptr, np.flatnonzero(crossing != 1), side="right") - 1] = True
    return flagged


def _first_c3_violations(grid) -> list:
    """The first cell pair breaking C3a and the first breaking C3b, each as
    [j1, k1, j2, k2] or None.  Pairs run in id order, then in combination
    order over the id's row-major cells, scanned a step of first cells at a
    time (at most _PAIR_CHUNK pairs, unless one cell alone has more).  Only
    the ids that :func:`_flag_c3` flags hold a violation, so only their
    cells are scanned, and a valid array scans no pairs."""
    rows, cols, ptr = id_cells(grid)
    flagged = _flag_c3(grid, rows, cols, ptr)
    if not flagged.any():
        return [None, None]
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

    c1 = pda.stars_uniform()
    if not c1:
        violations.append(f"C1: column star counts {pda.column_star_counts}")
    z = pda.column_star_counts[0] if c1 else None

    # C2 is only informative when ids are the integers 1..S: a gap means some
    # advertised message is never sent.
    c2 = True
    ids = pda.ids
    if ids and all(isinstance(i, int) for i in ids):
        missing = _missing_ids(ids)
        if missing:
            c2 = False
            violations.append(f"C2: integer ids missing {missing}")

    first_a, first_b = _first_c3_violations(pda.grid)
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
    D + {k} among (t+1)-subsets."""
    k_users, t = num_users, cached_fraction
    if not 0 <= t <= k_users:
        raise InvalidParametersError(f"need 0 <= t <= K, got t={t}, K={k_users}")
    subsets = np.array(list(itertools.combinations(range(1, k_users + 1), t)), dtype=np.int64)
    users = np.arange(1, k_users + 1)
    rows, cols = np.nonzero((subsets[:, :, None] != users).all(axis=1))
    keys = np.full((len(subsets), k_users), -1, dtype=np.int64)
    keys[rows, cols] = subset_ranks(
        np.sort(np.column_stack([subsets[rows], users[cols]]), axis=1), k_users,
    )
    return Pda.from_keys(keys, lambda first: (keys[keys >= 0][first] + 1).tolist())
