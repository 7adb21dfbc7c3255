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

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import (
    GroupDivisibleDesign, OrthogonalArray, require_match, verify_gdd, verify_oa,
)
from .errors import InvalidInputError, InvalidParametersError, UnsupportedParametersError
from .render import compact_str
from .simulate import ArrayScheme, Claims, coordinate_arrays, require_room, tiled_labels


@dataclass(frozen=True)
class GddSchemeParams(Claims):
    num_groups: int         # m
    group_size: int         # q
    access_degree: int      # L
    strength: int           # t
    placement_strength: int  # OA strength s

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
    def coverage_ratio(self) -> Fraction:
        """Fraction of the library a user can retrieve across its L nodes."""
        q, l = self.group_size, self.access_degree
        return 1 - Fraction((q - 1) ** l, q**l)

    @property
    def message_bound(self) -> int:
        return (self.group_size - 1) ** self.strength * self.group_size**self.num_groups

    # The reconstructible-message reduction is specific to the subset
    # placement; under OA placement no such guarantee is claimed.
    guaranteed_known = 0

    @classmethod
    def from_components(cls, gdd: GroupDivisibleDesign, oa: OrthogonalArray):
        if gdd.strength is None:
            raise InvalidInputError("GDD carries no strength tag")
        if gdd.num_groups != oa.num_columns or gdd.group_size != oa.num_symbols:
            raise InvalidInputError(
                f"frame mismatch: GDD is ({gdd.num_groups},{gdd.group_size}), "
                f"OA is ({oa.num_columns},{oa.num_symbols})"
            )
        return cls(
            num_groups=gdd.num_groups,
            group_size=gdd.group_size,
            access_degree=gdd.block_size,
            strength=gdd.strength,
            placement_strength=oa.strength,
        )


def build_gdd_scheme(gdd: GroupDivisibleDesign, oa: OrthogonalArray) -> ArrayScheme:
    """The scheme of an index-1 GDD topology under OA placement: base row j
    is OA row j, and nodes and block points are (group, value) pairs."""
    params = GddSchemeParams.from_components(gdd, oa)
    # An untagged GDD is checked as index 1, the only index the delivery
    # array is built for, and the scheme records that index, so its bundle
    # always writes gdd.lambda.
    if gdd.index is None:
        gdd = dataclasses.replace(gdd, index=1)
    require_match(verify_gdd(gdd, params.strength, gdd.index), "GDD")
    require_match(verify_oa(oa, oa.strength, oa.index), "OA")
    if gdd.index != 1:
        raise UnsupportedParametersError("delivery construction requires a GDD of index 1")
    q = oa.num_symbols
    require_room(oa.num_rows * math.comb(gdd.block_size, gdd.strength), gdd.num_blocks,
                 gdd.num_groups, q)

    def text(digits):  # the symbol vector: "221", or "(1,10,2)" past 9
        return [compact_str(v, "()") for v in (digits + 1).tolist()]

    placement, user_nodes, delivery = coordinate_arrays(
        np.array(oa.rows) - 1, q, np.arange(q), np.array(gdd.blocks) - 1, gdd.strength,
        text, "column")
    return ArrayScheme(
        topology={"gdd": gdd, "oa": oa},
        row_labels=tiled_labels(range(1, oa.num_rows + 1), gdd.block_size, params.strength),
        user_blocks=gdd.blocks,
        node_placement=placement,
        user_nodes=user_nodes,
        user_delivery=delivery,
        claims=params,
    )

