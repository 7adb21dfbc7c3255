"""Multiaccess caching schemes over a group-divisible access topology.

Placement follows an orthogonal array: a file splits into one subfile per OA
row j (times one packet per t-subset T of access positions), and cache-node
(u, v) stores the packets of rows with A(j, u) = v, so each node holds a 1/q
fraction of the library.  A user attached to a transversal block B misses a
packet only when row j disagrees with the block's value vector on all of the
block's groups; the delivery id is then the symbol vector e matching the
block's values on the T-selected groups and row j elsewhere, plus a copy
counter ranking repeat appearances of e within the column (rows scanned in
the fixed T-major order).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .designs import (
    GroupDivisibleDesign, OrthogonalArray, require_match, verify_gdd, verify_oa,
)
from .errors import InvalidInputError, InvalidParametersError, UnsupportedParametersError
from .pda import CountedVectorId, Pda, occurrences, row_keys
from .simulate import ArrayScheme, reach


@dataclass(frozen=True)
class GddSchemeParams:
    num_groups: int         # m
    group_size: int         # q
    access_degree: int      # L
    strength: int           # t
    placement_strength: int  # OA strength s
    num_files: int

    def __post_init__(self):
        m, q, l, t, s = (
            self.num_groups, self.group_size, self.access_degree,
            self.strength, self.placement_strength,
        )
        if not 1 <= t <= l <= s <= m:
            raise InvalidParametersError(
                f"need 1 <= t <= L <= s <= m, got t={t}, L={l}, s={s}, m={m}"
            )
        if q < 1:
            raise InvalidParametersError("need q >= 1")
        if math.comb(m, t) * q**t % math.comb(l, t):
            raise InvalidParametersError(
                f"user count C({m},{t})*{q}^{t}/C({l},{t}) is not an integer"
            )
        if self.num_files < 1:
            raise InvalidParametersError("need at least one file")

    @property
    def num_users(self) -> int:
        return (
            math.comb(self.num_groups, self.strength)
            * self.group_size**self.strength
            // math.comb(self.access_degree, self.strength)
        )

    @property
    def subpacketization(self) -> int:
        return self.group_size**self.placement_strength * math.comb(
            self.access_degree, self.strength
        )

    @property
    def stars_per_user(self) -> int:
        q, l, s = self.group_size, self.access_degree, self.placement_strength
        return (q**s - (q - 1) ** l * q ** (s - l)) * math.comb(l, self.strength)

    @property
    def node_memory_ratio(self) -> Fraction:
        return Fraction(1, self.group_size)

    @property
    def coverage_ratio(self) -> Fraction:
        """Fraction of the library a user can retrieve across its L nodes."""
        q, l = self.group_size, self.access_degree
        return 1 - Fraction((q - 1) ** l, q**l)

    @classmethod
    def from_components(cls, gdd: GroupDivisibleDesign, oa: OrthogonalArray,
                        num_files: Optional[int] = None):
        if gdd.strength is None:
            raise InvalidInputError("GDD carries no strength tag")
        params = cls(
            num_groups=gdd.num_groups,
            group_size=gdd.group_size,
            access_degree=gdd.block_size,
            strength=gdd.strength,
            placement_strength=oa.strength,
            num_files=1,
        )
        return cls(
            params.num_groups, params.group_size, params.access_degree,
            params.strength, params.placement_strength,
            num_files if num_files is not None else params.num_users,
        )


def _check_frame(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> None:
    if gdd.num_groups != oa.num_columns or gdd.group_size != oa.num_symbols:
        raise InvalidInputError(
            f"frame mismatch: GDD is ({gdd.num_groups},{gdd.group_size}), "
            f"OA is ({oa.num_columns},{oa.num_symbols})"
        )


def gdd_row_labels(oa: OrthogonalArray, access_degree: int, strength: int) -> tuple:
    """(j, T) row labels, T-major then j = 1..rows."""
    return tuple(
        (j, tt)
        for tt in itertools.combinations(range(1, access_degree + 1), strength)
        for j in range(1, oa.num_rows + 1)
    )


def build_gdd_node_placement(oa: OrthogonalArray, access_degree: int, strength: int) -> np.ndarray:
    """F x (m*q) boolean grid; row (j, T) stars node (u, v), column
    (u-1)*q + v-1, iff A(j, u) = v: the one-hot OA rows, once per T."""
    one_hot = np.array(oa.rows)[:, :, None] == np.arange(1, oa.num_symbols + 1)
    return np.tile(one_hot.reshape(oa.num_rows, -1), (math.comb(access_degree, strength), 1))


def _block_coordinates(gdd: GroupDivisibleDesign) -> tuple:
    """The 0-based groups and the values of the blocks, K x L each."""
    points = np.array(gdd.blocks)
    return points[:, :, 0] - 1, points[:, :, 1]


def _user_nodes(gdd: GroupDivisibleDesign) -> np.ndarray:
    """The 0-based node columns of each user's block, K x L."""
    groups, values = _block_coordinates(gdd)
    return groups * gdd.group_size + values - 1


def build_gdd_user_retrieve(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> np.ndarray:
    """F x users boolean grid U; user B retrieves row j when the row agrees
    with B on one of its L coordinates.  These are the stars of the
    delivery array."""
    _check_frame(gdd, oa)
    if gdd.strength is None:
        raise InvalidInputError("GDD carries no strength tag")
    return reach(build_gdd_node_placement(oa, gdd.block_size, gdd.strength), _user_nodes(gdd))


def build_gdd_user_delivery(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> Pda:
    """Delivery array for an index-1 GDD: each missed cell gets the vector id
    (e, n_e) described in the module docstring."""
    stars = build_gdd_user_retrieve(gdd, oa)
    if gdd.index not in (None, 1):
        raise UnsupportedParametersError(
            "delivery construction requires a GDD of index 1"
        )
    t = gdd.strength
    groups, values = _block_coordinates(gdd)
    positions = np.array(
        list(itertools.combinations(range(gdd.block_size), t)), dtype=np.int64,
    ).reshape(-1, t)
    rows, cols = np.nonzero(~stars)
    t_of, j = np.divmod(rows, oa.num_rows)
    # e: OA row j, overwritten with the block's values on its T-selected groups.
    vectors = np.array(oa.rows)[j]
    picked = (cols[:, None], positions[t_of])
    vectors[np.arange(len(vectors))[:, None], groups[picked]] = values[picked]
    vector = row_keys(vectors)
    # Copies count each vector down its column: the missed cells are listed
    # row by row, so within a column they run top to bottom.
    copy = occurrences(row_keys(np.column_stack([vector, cols])))
    keys = np.full(stars.shape, -1, dtype=np.int64)
    keys[rows, cols] = row_keys(np.column_stack([vector, copy]))

    def label(first):
        return map(CountedVectorId, map(tuple, vectors[first].tolist()), copy[first].tolist())

    return Pda.from_keys(keys, label)


@dataclass
class GddCachingScheme(ArrayScheme):
    params: GddSchemeParams
    gdd: GroupDivisibleDesign
    oa: OrthogonalArray
    row_labels: tuple
    node_placement: np.ndarray
    user_delivery: Pda

    @property
    def user_blocks(self) -> tuple:
        return self.gdd.blocks

    @cached_property
    def user_nodes(self) -> np.ndarray:
        return _user_nodes(self.gdd)

    @property
    def message_bound(self) -> int:
        p = self.params
        return (p.group_size - 1) ** p.strength * p.group_size**p.num_groups

    @property
    def guaranteed_known(self) -> int:
        # The reconstructible-message reduction is specific to the subset
        # placement; under OA placement no such guarantee is claimed.
        return 0


def build_gdd_scheme(gdd: GroupDivisibleDesign, oa: OrthogonalArray,
                     num_files: Optional[int] = None) -> GddCachingScheme:
    params = GddSchemeParams.from_components(gdd, oa, num_files)
    _check_frame(gdd, oa)
    # An untagged GDD is checked as index 1, the only index the delivery
    # array is built for.
    require_match(verify_gdd(gdd, params.strength, 1 if gdd.index is None else gdd.index), "GDD")
    require_match(verify_oa(oa, oa.strength, oa.index), "OA")
    return GddCachingScheme(
        params=params,
        gdd=gdd,
        oa=oa,
        row_labels=gdd_row_labels(oa, gdd.block_size, params.strength),
        node_placement=build_gdd_node_placement(oa, gdd.block_size, params.strength),
        user_delivery=build_gdd_user_delivery(gdd, oa),
    )


@dataclass
class GddTradeoff:
    node_memory_ratio: Fraction
    coverage_ratio: Fraction
    load: Fraction


def gdd_tradeoff(params: GddSchemeParams) -> GddTradeoff:
    """Formula-level tradeoff: node memory 1/q, user coverage
    1 - (q-1)^L/q^L, and the load bound (q-1)^t q^(m-s) / C(L,t)."""
    m, q, l, t, s = (
        params.num_groups, params.group_size, params.access_degree,
        params.strength, params.placement_strength,
    )
    load = Fraction((q - 1) ** t * q ** (m - s), math.comb(l, t))
    return GddTradeoff(params.node_memory_ratio, params.coverage_ratio, load)


@dataclass
class SharedLinkGddPoint:
    memory_ratio: Fraction
    load: Fraction
    load_is_bound: bool
    num_messages: int
    messages_exact: bool
    case: str


def shared_link_gdd_tradeoff(params: GddSchemeParams) -> SharedLinkGddPoint:
    """Shared-link reading of the GDD scheme.  The message count S has a
    closed form in two parameter families; elsewhere only the
    (q-1)^t * q^m bound is asserted."""
    m, q, l, t, s = (
        params.num_groups, params.group_size, params.access_degree,
        params.strength, params.placement_strength,
    )
    f = params.subpacketization
    if l == t and s == m - 1:
        messages = (q - 1) ** t * q ** (m - 1)
        return SharedLinkGddPoint(
            params.coverage_ratio, Fraction(messages, f), False, messages, True,
            "L=t, s=m-1",
        )
    if l == t and s + t == m and s > t:
        messages = (q**t - 1) * q ** (m - t)
        return SharedLinkGddPoint(
            params.coverage_ratio, Fraction(messages, f), False, messages, True,
            "L=t, s+t=m, s>t",
        )
    bound = (q - 1) ** t * q**m
    return SharedLinkGddPoint(
        params.coverage_ratio, Fraction(bound, f), True, bound, False,
        "s=m" if s == m else "general",
    )


@dataclass
class CrsComparison:
    load_crs: Fraction
    load_gdd: Fraction
    ratio: Fraction
    favors_crs: bool


def crs_comparison(num_groups: int, group_size: int, strength: int) -> CrsComparison:
    """Load of the cross-resolvable-design scheme, C(m,t)((q-1)/2)^t, against
    this construction at the same memory point (L = t, s = m-1), (q-1)^t.
    The ratio dips below 1 exactly when t <= m/2; larger t is flagged."""
    m, q, t = num_groups, group_size, strength
    if not 1 <= t <= m:
        raise InvalidParametersError(f"need 1 <= t <= m, got t={t}, m={m}")
    load_crs = math.comb(m, t) * Fraction(q - 1, 2) ** t
    load_gdd = Fraction((q - 1) ** t)
    ratio = Fraction(2**t, math.comb(m, t))
    return CrsComparison(load_crs, load_gdd, ratio, favors_crs=t > Fraction(m, 2))
