"""Combinatorial access topologies: block designs, GDDs, resolvable designs, OAs.

Constructors build the classical families used as cache-access topologies,
the verifiers check the defining coverage property of each (every t-subset,
cross t-subset or s-column tuple occurs exactly lambda times) with one
counting kernel, and the duality transforms move between cross resolvable
designs, group divisible designs, and orthogonal arrays.

Conventions: points are 1-based, every subset is stored as a sorted tuple,
and enumerations are lexicographic unless a catalog entry pins a specific
published ordering.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (
    InconsistentDesignError,
    InvalidInputError,
    InvalidParametersError,
    NotFoundError,
    UnsupportedParametersError,
)
from .pda import subset_ranks

# Largest array trivial_oa enumerates.
MAX_OA_CELLS = 1 << 20
# Largest peak the counting kernel may reach: it measures at up to 48 bytes
# per counted key plus 24 per point gathered with it (t per key of a design
# or GDD, none for an OA, whose column sets are ranked by position).
MAX_COUNT_BYTES = 1 << 30


def int_text(x) -> str:
    """str(x), or x's bit length when str() refuses an int of more than
    4300 digits."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


def require_match(report, what: str) -> None:
    """Raise InconsistentDesignError naming the first violation of a failed
    verification of ``what`` against its own tag."""
    if not report.ok:
        raise InconsistentDesignError(f"{what} does not match its tag: {report.first_violation}")


def _sorted_block(block, num_points: int) -> tuple:
    out = tuple(sorted(block))
    if len(set(out)) != len(out):
        raise InvalidInputError(f"block {block!r} has repeated points")
    if not out or out[0] < 1 or out[-1] > num_points:
        raise InvalidInputError(f"block {out} is not a non-empty subset of [{num_points}]")
    return out


# ---------------------------------------------------------------------------
# The counting kernel.  Every verifier counts t-subsets of [n], each paired
# with a symbol vector (a GDD's values, an OA row's entries) or with none, as
# the keys rank(subset) * q^w + symbols read base q.  Keys run in the
# lexicographic order of the enumeration, so the first miscounted key is the
# first violation.


def _check_countable(keys: int, gathered: int, key_space: int, what: str) -> None:
    """Refuse, before any array is made, a count whose keys pass int64 or
    whose arrays would pass MAX_COUNT_BYTES."""
    if key_space > np.iinfo(np.int64).max:
        raise UnsupportedParametersError(f"{what} exceed the int64 key range")
    if keys * (48 + 24 * gathered) > MAX_COUNT_BYTES:
        raise UnsupportedParametersError(f"{what}: counting needs over {MAX_COUNT_BYTES} bytes")


def _first_miscount(points, symbols, t: int, universe: int, base: int, index: int):
    """Count every t-set of positions of every row: its points, a sorted
    t-subset of [universe], with its 0-based symbols read base ``base``.
    ``points`` (R x W) None stands for the 1-based positions themselves,
    ``symbols`` (R x W) None for no symbols.  Returns the first (subset,
    1-based symbols, count) in order whose count is not ``index``, or None."""
    rows, width = (symbols if points is None else points).shape
    pos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(width), t)),
                      dtype=np.int64).reshape(-1, t)
    if points is None:  # the positions run in lexicographic order
        keys = np.tile(np.arange(len(pos)), rows)
    else:
        keys = subset_ranks(points[:, pos].reshape(-1, t), universe)
    w = 0 if symbols is None else t
    for i in range(w):
        keys *= base
        keys += symbols[:, pos[:, i]].ravel()
    values, counts = np.unique(keys, return_counts=True)
    # For index != 0 every key before the first violation occurs: values[i] == i.
    bad = np.flatnonzero((counts != index) | (values != np.arange(len(values))) & (index != 0))
    if len(bad):
        i = int(bad[0])
        key, count = (int(values[i]), int(counts[i])) if index == 0 or values[i] == i else (i, 0)
    elif index == 0 or len(values) == math.comb(universe, t) * base**w:
        return None
    else:
        key, count = len(values), 0
    rank, vector = divmod(key, base**w)
    return (_subset_at(rank, universe, t),
            tuple(vector // base**(w - 1 - i) % base + 1 for i in range(w)), count)


def _subset_at(rank: int, n: int, t: int) -> tuple:
    """The t-subset of [n] of lexicographic rank ``rank``, read off the
    combinatorial number system: C(n,t) - 1 - rank = sum_i C(n - x_i, t - i)."""
    rest, out = math.comb(n, t) - 1 - rank, []
    for k in range(t, 0, -1):
        c = bisect.bisect_right(range(n), rest, key=lambda x: math.comb(x, k)) - 1
        rest -= math.comb(c, k)
        out.append(n - c)
    return tuple(out)


# ---------------------------------------------------------------------------
# t-designs


@dataclass(frozen=True)
class Design:
    """A uniform block design on points 1..num_points.

    ``strength``/``index`` record the claimed t-(v, L, lambda) tag;
    :func:`verify_t_design` checks it, and the scheme builders refuse a
    design whose blocks do not match it.
    """

    num_points: int
    blocks: tuple
    strength: Optional[int] = None
    index: Optional[int] = None

    def __post_init__(self):
        if self.num_points < 1:
            raise InvalidParametersError("need at least one point")
        blocks = tuple(_sorted_block(b, self.num_points) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise InvalidInputError("design has no blocks")
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1:
            raise InvalidInputError(f"non-uniform block sizes {sorted(sizes)}")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def replication(self) -> Fraction:
        """Average number of blocks through a point, K*L/v."""
        return Fraction(self.num_blocks * self.block_size, self.num_points)

    def canonical(self) -> "Design":
        return Design(self.num_points, tuple(sorted(self.blocks)), self.strength, self.index)


def complete_design(num_points: int, block_size: int) -> Design:
    """All ``block_size``-subsets of the point set, in lexicographic order."""
    if not 1 <= block_size <= num_points:
        raise InvalidParametersError(
            f"block size must satisfy 1 <= L <= {num_points}, got {block_size}"
        )
    blocks = tuple(itertools.combinations(range(1, num_points + 1), block_size))
    return Design(num_points, blocks, strength=block_size, index=1)


# Published catalog instances.  Block order follows the source listings so
# that rendered scheme tables are reproducible; blocks themselves are sorted.
_CATALOG_DESIGNS = {
    "fano-7-3-1": (
        7,
        ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7), (1, 3, 7)),
        2,
        1,
    ),
    "affine-9-3-1": (
        9,
        (
            (1, 4, 7), (2, 5, 8), (3, 6, 9),
            (1, 2, 3), (4, 5, 6), (7, 8, 9),
            (1, 6, 8), (2, 4, 9), (3, 5, 7),
            (1, 5, 9), (2, 6, 7), (3, 4, 8),
        ),
        2,
        1,
    ),
    "biplane-7-4-2": (
        7,
        (
            (1, 2, 3, 5), (2, 3, 4, 6), (3, 4, 5, 7), (1, 4, 5, 6),
            (2, 5, 6, 7), (1, 3, 6, 7), (1, 2, 4, 7),
        ),
        2,
        2,
    ),
    # The 2-(3,2,3,1) GDD example flattened to plain points via
    # gamma = (u-1)q + v; as a design it is a 1-(6,3,2).
    "gdd-dual-example": (
        6,
        ((1, 3, 5), (2, 3, 6), (1, 4, 6), (2, 4, 5)),
        1,
        2,
    ),
}


def catalog_design(name: str) -> Design:
    try:
        points, blocks, t, lam = _CATALOG_DESIGNS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown design {name!r}; available: {sorted(_CATALOG_DESIGNS)}"
        ) from None
    return Design(points, blocks, strength=t, index=lam)


def catalog_design_names() -> tuple:
    return tuple(sorted(_CATALOG_DESIGNS))


@dataclass
class DesignVerification:
    ok: bool
    strength: int
    index: int
    replication: Fraction
    derived_indices: dict
    first_violation: Optional[str] = None


def verify_t_design(design: Design, strength: int, index: int) -> DesignVerification:
    """Check that every t-subset lies in exactly ``index`` blocks.

    The report carries the replication count and the derived lower-strength
    indices lambda * C(v-t', t-t') / C(L-t', t-t') for every t' <= t.
    """
    t, lam = strength, index
    v, L = design.num_points, design.block_size
    if not 1 <= t <= L:
        raise InvalidParametersError(f"need 1 <= t <= L={L}, got t={t}")
    _check_countable(design.num_blocks * math.comb(L, t), t, math.comb(v, t),
                     f"the {t}-subsets of {v} points")
    derived = {
        tp: Fraction(lam * math.comb(v - tp, t - tp), math.comb(L - tp, t - tp))
        for tp in range(1, t + 1)
    }
    first = _first_miscount(np.array(design.blocks, dtype=np.int64), None, t, v, 1, lam)
    violation = None
    if first:
        sub, _, got = first
        violation = f"subset {set(sub)} lies in {got} blocks, expected {lam}"
    return DesignVerification(
        ok=violation is None,
        strength=t,
        index=lam,
        replication=derived[1],
        derived_indices=derived,
        first_violation=violation,
    )


def check_divisibility(strength: int, block_size: int, index: int, num_points: int) -> bool:
    """Necessary divisibility conditions for a t-(v, L, lambda) design.

    True means the parameters pass the divisibility test (no existence claim);
    False certifies that no such design exists.
    """
    t, L, lam, v = strength, block_size, index, num_points
    if not 1 <= t <= L <= v:
        raise InvalidParametersError(f"need 1 <= t <= L <= v, got {(t, L, v)}")
    return all(
        lam * math.comb(v - i, t - i) % math.comb(L - i, t - i) == 0
        for i in range(t)
    )


# ---------------------------------------------------------------------------
# Group divisible designs


@dataclass(frozen=True)
class GroupDivisibleDesign:
    """Blocks over points (u, v), u a group in 1..m and v a slot in 1..q."""

    num_groups: int
    group_size: int
    blocks: tuple
    strength: Optional[int] = None
    index: Optional[int] = None

    def __post_init__(self):
        if self.num_groups < 1 or self.group_size < 1:
            raise InvalidParametersError("need m >= 1 and q >= 1")
        blocks = []
        for block in self.blocks:
            pts = tuple(sorted(tuple(p) for p in block))
            if len(set(pts)) != len(pts):
                raise InvalidInputError(f"block {block!r} has repeated points")
            for (u, v) in pts:
                if not (1 <= u <= self.num_groups and 1 <= v <= self.group_size):
                    raise InvalidInputError(f"point {(u, v)} outside the group frame")
            blocks.append(pts)
        if not blocks:
            raise InvalidInputError("GDD has no blocks")
        if len({len(b) for b in blocks}) != 1:
            raise InvalidInputError("non-uniform block sizes")
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def canonical(self) -> "GroupDivisibleDesign":
        return GroupDivisibleDesign(
            self.num_groups, self.group_size, tuple(sorted(self.blocks)),
            self.strength, self.index,
        )


def transversal_gdd(num_groups: int, group_size: int, strength: int) -> GroupDivisibleDesign:
    """The t-(m, q, t, 1) GDD whose blocks are all value assignments on all
    t-subsets of groups, in lexicographic order."""
    m, q, t = num_groups, group_size, strength
    if not 1 <= t <= m or q < 1:
        raise InvalidParametersError(f"need 1 <= t <= m and q >= 1, got {(m, q, t)}")
    blocks = []
    for groups in itertools.combinations(range(1, m + 1), t):
        for values in itertools.product(range(1, q + 1), repeat=t):
            blocks.append(tuple(zip(groups, values)))
    return GroupDivisibleDesign(m, q, tuple(sorted(blocks)), strength=t, index=1)


_CATALOG_GDDS = {
    # Dual of the 2-(4,2,6,3,1) resolvable design; a 2-(3,2,3,1) GDD.
    "gdd-3-2-3-1": (
        3,
        2,
        (
            ((1, 1), (2, 1), (3, 1)),
            ((1, 2), (2, 1), (3, 2)),
            ((1, 1), (2, 2), (3, 2)),
            ((1, 2), (2, 2), (3, 1)),
        ),
        2,
        1,
    ),
}


def catalog_gdd(name: str) -> GroupDivisibleDesign:
    try:
        m, q, blocks, t, lam = _CATALOG_GDDS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown GDD {name!r}; available: {sorted(_CATALOG_GDDS)}"
        ) from None
    return GroupDivisibleDesign(m, q, blocks, strength=t, index=lam)


@dataclass
class GddVerification:
    ok: bool
    strength: int
    index: int
    expected_num_blocks: Fraction
    first_violation: Optional[str] = None


def verify_gdd(gdd: GroupDivisibleDesign, strength: int, index: int) -> GddVerification:
    """Check transversality and cross coverage, which together imply the
    block count lambda * C(m,t) * q^t / C(L,t)."""
    t, lam = strength, index
    m, q, L = gdd.num_groups, gdd.group_size, gdd.block_size
    if not 1 <= t <= L <= m:
        raise InvalidParametersError(f"need 1 <= t <= L <= m, got t={t}, L={L}, m={m}")
    _check_countable(gdd.num_blocks * math.comb(L, t), t, math.comb(m, t) * q**t,
                     f"the cross {t}-subsets of {m} groups of {q}")
    expected_blocks = Fraction(lam * math.comb(m, t) * q**t, math.comb(L, t))

    points = np.array(gdd.blocks, dtype=np.int64)
    # Points sort by group, so a repeated group is an adjacent pair.
    repeats = np.flatnonzero((np.diff(points[:, :, 0], axis=1) == 0).any(axis=1))
    violation = None
    if len(repeats):
        violation = f"block {gdd.blocks[repeats[0]]} meets a group twice"
    else:
        first = _first_miscount(points[:, :, 0], points[:, :, 1] - 1, t, m, q, lam)
        if first:
            groups, values, got = first
            violation = (f"cross subset {tuple(zip(groups, values))} lies in {got} blocks, "
                         f"expected {lam}")
    return GddVerification(
        ok=violation is None,
        strength=t,
        index=lam,
        expected_num_blocks=expected_blocks,
        first_violation=violation,
    )


# ---------------------------------------------------------------------------
# Resolvable designs


@dataclass(frozen=True)
class ResolvableDesign:
    """A design whose blocks split into parallel classes, each a partition
    of the point set 1..num_points."""

    num_points: int
    parallel_classes: tuple
    strength: Optional[int] = None
    cross_number: Optional[int] = None

    def __post_init__(self):
        classes = tuple(
            tuple(_sorted_block(b, self.num_points) for b in cls) for cls in self.parallel_classes
        )
        object.__setattr__(self, "parallel_classes", classes)
        if not classes or not all(classes):
            raise InvalidInputError("need at least one non-empty parallel class")
        sizes = {len(b) for cls in classes for b in cls}
        if len(sizes) != 1:
            raise InvalidInputError(f"non-uniform block sizes {sorted(sizes)}")

    @property
    def block_size(self) -> int:
        return len(self.parallel_classes[0][0])

    @property
    def num_classes(self) -> int:
        return len(self.parallel_classes)

    @property
    def blocks_per_class(self) -> int:
        return len(self.parallel_classes[0])

    @property
    def num_blocks(self) -> int:
        return sum(len(cls) for cls in self.parallel_classes)

    def canonical(self) -> "ResolvableDesign":
        classes = tuple(tuple(sorted(cls)) for cls in self.parallel_classes)
        return ResolvableDesign(self.num_points, classes, self.strength, self.cross_number)


@dataclass
class ResolvableVerification:
    ok: bool
    strength: int
    cross_number: int
    first_violation: Optional[str] = None


def _point_blocks(rd: ResolvableDesign) -> tuple:
    """(first class, rows): the 1-based first class that is not a partition
    of [v], or None; and when there is none, the v x m array whose row j - 1
    holds in column u - 1 the 0-based index of the class-u block holding j."""
    v, m = rd.num_points, rd.num_classes
    blocks = list(itertools.chain.from_iterable(rd.parallel_classes))
    cls = np.repeat(np.arange(m), list(map(len, rd.parallel_classes)))
    block = np.repeat(np.arange(len(blocks)) - np.searchsorted(cls, cls), rd.block_size)
    cls, points = np.repeat(cls, rd.block_size), np.array(blocks, dtype=np.int64).ravel()
    # A class of points in [v] is a partition when it has v points covering [v].
    rows = np.full((v, m), -1, dtype=np.int64)
    rows[points - 1, cls] = block
    bad = (np.bincount(cls, minlength=m) != v) | (rows < 0).any(axis=0)
    return (int(bad.argmax()) + 1, None) if bad.any() else (None, rows)


def verify_resolvable(rd: ResolvableDesign, strength: int, cross_number: int) -> ResolvableVerification:
    """Check that each class partitions the points and any ``strength`` blocks
    from distinct classes intersect in exactly ``cross_number`` points: the
    point-to-block rows form an OA of that strength and index."""
    t, lam = strength, cross_number
    m, q = rd.num_classes, rd.blocks_per_class
    if not 1 <= t <= m:
        raise InvalidParametersError(f"need 1 <= t <= m={m}")
    bad_class, rows = _point_blocks(rd)
    violation = None
    if bad_class:
        violation = f"class {bad_class} is not a partition of [{rd.num_points}]"
    else:
        _check_countable(rd.num_points * math.comb(m, t), 0, math.comb(m, t) * q**t,
                         f"the {t}-class block choices of {m} classes")
        first = _first_miscount(None, rows, t, m, q, lam)
        if first:
            classes, blocks, got = first
            choice = tuple(rd.parallel_classes[u - 1][b - 1] for u, b in zip(classes, blocks))
            violation = (f"blocks {choice} from classes {list(classes)} "
                         f"meet in {got} points, expected {lam}")
    return ResolvableVerification(violation is None, t, lam, violation)


def _cross_rows(rd: ResolvableDesign, strength, cross_number) -> tuple:
    """The cross tag and point-to-block rows of a t-cross resolvable design."""
    t = strength if strength is not None else rd.strength
    lam = cross_number if cross_number is not None else rd.cross_number
    if t is None or lam is None:
        raise InvalidInputError("resolvable design carries no cross tag; pass strength/cross_number")
    report = verify_resolvable(rd, t, lam)
    if not report.ok:
        raise InvalidInputError(f"input is not {t}-cross resolvable: {report.first_violation}")
    return t, lam, _point_blocks(rd)[1]


def dual_of_resolvable(rd: ResolvableDesign, strength=None, cross_number=None) -> GroupDivisibleDesign:
    """Swap points and blocks: class u becomes group u, and point j becomes
    the block {(u, v) : j in class-u block v}.  A t-cross design with
    intersection number lam dualizes to a t-(m, q, m, lam) GDD."""
    t, lam, rows = _cross_rows(rd, strength, cross_number)
    groups = np.broadcast_to(np.arange(1, rd.num_classes + 1), rows.shape)
    blocks = np.stack([groups, rows + 1], axis=2).tolist()
    return GroupDivisibleDesign(rd.num_classes, rd.blocks_per_class, blocks,
                                strength=t, index=lam)


def dual_of_gdd(gdd: GroupDivisibleDesign) -> ResolvableDesign:
    """Inverse of :func:`dual_of_resolvable` for GDDs whose blocks meet every
    group exactly once."""
    if gdd.block_size != gdd.num_groups:
        raise InvalidInputError("dualization needs blocks meeting every group (L = m)")
    classes = []
    for u in range(1, gdd.num_groups + 1):
        cls = []
        for v in range(1, gdd.group_size + 1):
            cls.append(tuple(
                k for k in range(1, gdd.num_blocks + 1)
                if (u, v) in gdd.blocks[k - 1]
            ))
        cls = [b for b in cls if b]
        sizes = {len(b) for b in cls}
        if len(sizes) != 1:
            raise InvalidInputError("dual blocks are not uniform; input is not a dual GDD")
        classes.append(tuple(cls))
    return ResolvableDesign(
        gdd.num_blocks, tuple(classes),
        strength=gdd.strength, cross_number=gdd.index,
    )


# ---------------------------------------------------------------------------
# Orthogonal arrays


@dataclass(frozen=True)
class OrthogonalArray:
    """index * num_symbols^strength rows over 1..num_symbols."""

    num_symbols: int
    strength: int
    index: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.num_symbols < 1:
            raise InvalidParametersError("need q >= 1")
        if not rows:
            raise InvalidInputError("OA has no rows")
        if len({len(r) for r in rows}) != 1:
            raise InvalidInputError("ragged OA rows")
        for r in rows:
            for x in r:
                if not 1 <= x <= self.num_symbols:
                    raise InvalidInputError(f"entry {x} outside [{self.num_symbols}]")
        q, s, lam = self.num_symbols, self.strength, self.index
        if s < 0:
            raise InvalidInputError(f"OA strength {s} is negative")
        if lam < 1:
            raise InvalidInputError(f"OA index {lam} is not positive")
        # Past 2^14 bits q^s has over 4300 digits and dwarfs any row count,
        # so it is named by its factors, not formed.
        if s * (q.bit_length() - 1) > 1 << 14:
            raise InvalidInputError(f"row count {len(rows)} != index*q^strength = {lam}*{q}^{s}")
        if len(rows) != lam * q**s:
            raise InvalidInputError(
                f"row count {len(rows)} != index*q^strength = {int_text(lam * q**s)}"
            )

    @property
    def num_columns(self) -> int:
        return len(self.rows[0])

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def canonical(self) -> "OrthogonalArray":
        return OrthogonalArray(self.num_symbols, self.strength, self.index, tuple(sorted(self.rows)))


@dataclass
class OaVerification:
    ok: bool
    strength: int
    index: int
    first_violation: Optional[str] = None


def verify_oa(oa: OrthogonalArray, strength: int, index: int) -> OaVerification:
    """Check every ``strength``-column projection hits each tuple exactly
    ``index`` times."""
    s, lam = strength, index
    m = oa.num_columns
    q = oa.num_symbols
    if not 1 <= s <= m:
        raise InvalidParametersError(f"need 1 <= s <= m={m}")
    _check_countable(oa.num_rows * math.comb(m, s), 0, math.comb(m, s) * q**s,
                     f"the {s}-column projections over {q} symbols")
    violation = None
    if oa.num_rows != lam * q**s:
        violation = f"row count {oa.num_rows} != index*q^s = {lam * q ** s}"
    else:
        first = _first_miscount(None, np.array(oa.rows, dtype=np.int64) - 1, s, m, q, lam)
        if first:
            cols, tup, got = first
            violation = f"columns {cols}: tuple {tup} appears {got} times, expected {lam}"
    return OaVerification(violation is None, s, lam, violation)


def trivial_oa(num_columns: int, num_symbols: int) -> OrthogonalArray:
    """Full enumeration of [q]^m in lexicographic order; strength m, index 1."""
    m, q = num_columns, num_symbols
    if m < 1 or q < 2:
        raise InvalidParametersError(f"need m >= 1 and q >= 2, got {(m, q)}")
    if q**m > MAX_OA_CELLS:
        raise UnsupportedParametersError("full enumeration too large")
    rows = tuple(itertools.product(range(1, q + 1), repeat=m))
    return OrthogonalArray(q, m, 1, rows)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(n**0.5) + 1))


def linear_oa(num_columns: int, num_symbols: int, strength: int) -> OrthogonalArray:
    """Strength-s OA from degree-<s polynomial evaluation over a prime field.

    Row for coefficients c evaluates sum c_i x^i at ``num_columns`` distinct
    field points, so any s columns form an invertible Vandermonde system.
    The s = m case falls back to full enumeration.
    """
    m, q, s = num_columns, num_symbols, strength
    if s < 1 or s > m:
        raise InvalidParametersError(f"need 1 <= s <= m, got s={s}, m={m}")
    if s == m:
        return trivial_oa(m, q)
    if not _is_prime(q):
        raise InvalidParametersError(f"q={q} is not prime")
    if m > q:
        raise UnsupportedParametersError(
            f"polynomial construction needs m <= q for s < m (got m={m}, q={q}); "
            "use trivial_oa or a catalog array"
        )
    rows = []
    for coeffs in itertools.product(range(q), repeat=s):
        row = []
        for x in range(m):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % q
            row.append(acc + 1)
        rows.append(tuple(row))
    return OrthogonalArray(q, s, 1, tuple(rows))


_CATALOG_OAS = {
    # The strength-2 binary array on three columns used by the small GDD demos.
    "oa-3-2-2": (2, 2, 1, ((1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 1))),
}


def catalog_oa(name: str) -> OrthogonalArray:
    try:
        q, s, lam, rows = _CATALOG_OAS[name]
    except KeyError:
        raise NotFoundError(
            f"unknown OA {name!r}; available: {sorted(_CATALOG_OAS)}"
        ) from None
    return OrthogonalArray(q, s, lam, rows)


def resolvable_to_oa(rd: ResolvableDesign, strength=None, cross_number=None) -> OrthogonalArray:
    """Encode a t-cross resolvable design as an OA: row j, column u holds the
    class-u block containing point j."""
    t, lam, rows = _cross_rows(rd, strength, cross_number)
    return OrthogonalArray(rd.blocks_per_class, t, lam, tuple(map(tuple, (rows + 1).tolist())))


def oa_to_resolvable(oa: OrthogonalArray) -> ResolvableDesign:
    """Inverse of :func:`resolvable_to_oa`: points are row indices and class u
    collects the rows showing each symbol in column u."""
    report = verify_oa(oa, oa.strength, oa.index)
    if not report.ok:
        raise InvalidInputError(f"not an OA: {report.first_violation}")
    # Each symbol fills a 1/q share of each column, so the rows of each
    # column sorted stably by symbol split into q equal blocks.
    order = np.argsort(np.array(oa.rows).T, axis=1, kind="stable") + 1
    classes = order.reshape(oa.num_columns, oa.num_symbols, -1).tolist()
    return ResolvableDesign(oa.num_rows, classes, strength=oa.strength, cross_number=oa.index)
