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
from typing import Optional

import numpy as np

from .designs import (
    GroupDivisibleDesign, OrthogonalArray, require_match, verify_gdd, verify_oa,
)
from .errors import InvalidInputError, InvalidParametersError, UnsupportedParametersError
from .pda import CountedVectorId
from .simulate import ArrayScheme, coordinate_arrays, tiled_labels


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
        if gdd.num_groups != oa.num_columns or gdd.group_size != oa.num_symbols:
            raise InvalidInputError(
                f"frame mismatch: GDD is ({gdd.num_groups},{gdd.group_size}), "
                f"OA is ({oa.num_columns},{oa.num_symbols})"
            )
        params = cls(
            num_groups=gdd.num_groups,
            group_size=gdd.group_size,
            access_degree=gdd.block_size,
            strength=gdd.strength,
            placement_strength=oa.strength,
            num_files=num_files if num_files is not None else 1,
        )
        return params if num_files is not None else replace(params, num_files=params.num_users)


def gdd_row_labels(oa: OrthogonalArray, access_degree: int, strength: int) -> tuple:
    """(j, T) row labels, T-major then j = 1..rows."""
    return tiled_labels(range(1, oa.num_rows + 1), access_degree, strength)


def build_gdd_scheme(gdd: GroupDivisibleDesign, oa: OrthogonalArray,
                     num_files: Optional[int] = None) -> ArrayScheme:
    """The scheme of an index-1 GDD topology under OA placement: base row j
    is OA row j, and nodes and block points are (group, value) pairs."""
    params = GddSchemeParams.from_components(gdd, oa, num_files)
    # An untagged GDD is checked as index 1, the only index the delivery
    # array is built for.
    require_match(verify_gdd(gdd, params.strength, 1 if gdd.index is None else gdd.index), "GDD")
    require_match(verify_oa(oa, oa.strength, oa.index), "OA")
    if gdd.index not in (None, 1):
        raise UnsupportedParametersError("delivery construction requires a GDD of index 1")
    q = oa.num_symbols

    def ids(digits, copy):
        return map(CountedVectorId, map(tuple, (digits + 1).tolist()), copy.tolist())

    placement, user_nodes, delivery = coordinate_arrays(
        np.array(oa.rows) - 1, q, np.arange(q), np.array(gdd.blocks) - 1, gdd.strength,
        ids, "column")
    return ArrayScheme(
        params=params,
        topology={"gdd": gdd, "oa": oa},
        row_labels=gdd_row_labels(oa, gdd.block_size, params.strength),
        user_blocks=gdd.blocks,
        node_placement=placement,
        user_nodes=user_nodes,
        user_delivery=delivery,
        message_bound=(q - 1) ** params.strength * q**params.num_groups,
        # The reconstructible-message reduction is specific to the subset
        # placement; under OA placement no such guarantee is claimed.
        guaranteed_known=0,
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
