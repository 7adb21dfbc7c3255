"""Multiaccess caching schemes over a group-divisible access topology.

Placement follows an orthogonal array: a file splits into one subfile per OA
row j (times one packet per t-subset T of access positions), and cache-node
(u, v) stores the packets of rows with A(j, u) = v, so each node holds a 1/q
fraction of the library.  A user attached to a transversal block B misses a
packet only when row j disagrees with B on all of its groups; the delivery
id is then row j with B's values written on the T-selected groups, plus a
copy counter ranking its repeats down the column (``coordinate_arrays``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .designs import (
    GroupDivisibleDesign, OrthogonalArray, require_match, verify_gdd, verify_oa,
)
from .errors import InvalidInputError, InvalidParametersError, UnsupportedParametersError
from .pda import CountedVectorId, Pda
from .simulate import ArrayScheme, coordinate_arrays, reach, tiled_labels


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
        _check_components(gdd, oa)
        params = cls(
            num_groups=gdd.num_groups,
            group_size=gdd.group_size,
            access_degree=gdd.block_size,
            strength=gdd.strength,
            placement_strength=oa.strength,
            num_files=num_files if num_files is not None else 1,
        )
        return params if num_files is not None else replace(params, num_files=params.num_users)


def _check_components(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> None:
    if gdd.strength is None:
        raise InvalidInputError("GDD carries no strength tag")
    if gdd.num_groups != oa.num_columns or gdd.group_size != oa.num_symbols:
        raise InvalidInputError(
            f"frame mismatch: GDD is ({gdd.num_groups},{gdd.group_size}), "
            f"OA is ({oa.num_columns},{oa.num_symbols})"
        )


def gdd_row_labels(oa: OrthogonalArray, access_degree: int, strength: int) -> tuple:
    """(j, T) row labels, T-major then j = 1..rows."""
    return tiled_labels(range(1, oa.num_rows + 1), access_degree, strength)


def _arrays(gdd: GroupDivisibleDesign, oa: OrthogonalArray, delivery: bool = True) -> tuple:
    """C, user nodes and (with ``delivery``, for index 1 only) Q: base row
    j is OA row j, and nodes and block points are (group, value) pairs."""
    if delivery and gdd.index not in (None, 1):
        raise UnsupportedParametersError("delivery construction requires a GDD of index 1")
    q = oa.num_symbols

    def ids(digits, copy):
        return map(CountedVectorId, map(tuple, (digits + 1).tolist()), copy.tolist())

    return coordinate_arrays(np.array(oa.rows) - 1, q, np.arange(q), np.array(gdd.blocks) - 1,
                             gdd.strength, ids if delivery else None, "column")


def build_gdd_node_placement(oa: OrthogonalArray, access_degree: int, strength: int) -> np.ndarray:
    """F x (m*q) boolean grid; row (j, T) stars node (u, v), column
    (u-1)*q + v-1, iff A(j, u) = v: the one-hot OA rows, once per T."""
    q, no_users = oa.num_symbols, np.empty((0, access_degree, 2), dtype=np.int64)
    return coordinate_arrays(np.array(oa.rows) - 1, q, np.arange(q), no_users, strength)[0]


def build_gdd_user_retrieve(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> np.ndarray:
    """F x users boolean grid U; user B retrieves row j when the row agrees
    with B on one of its L coordinates.  These are the stars of the
    delivery array."""
    _check_components(gdd, oa)
    return reach(*_arrays(gdd, oa, delivery=False)[:2])


def build_gdd_user_delivery(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> Pda:
    """Delivery array for an index-1 GDD: each missed cell gets the vector id
    (e, n_e) described in the module docstring."""
    _check_components(gdd, oa)
    return _arrays(gdd, oa)[2]


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
        return _arrays(self.gdd, self.oa, delivery=False)[1]

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
    # An untagged GDD is checked as index 1, the only index the delivery
    # array is built for.
    require_match(verify_gdd(gdd, params.strength, 1 if gdd.index is None else gdd.index), "GDD")
    require_match(verify_oa(oa, oa.strength, oa.index), "OA")
    placement, _, delivery = _arrays(gdd, oa)
    return GddCachingScheme(
        params=params,
        gdd=gdd,
        oa=oa,
        row_labels=gdd_row_labels(oa, gdd.block_size, params.strength),
        node_placement=placement,
        user_delivery=delivery,
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
