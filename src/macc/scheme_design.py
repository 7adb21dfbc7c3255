"""Multiaccess caching schemes over a t-design access topology.

The cache side uses the classical subset placement: a file is split into one
subfile per size-``cached_nodes`` subset D of the nodes, each subfile into one
packet per t-subset T of the access positions, and node ``g`` stores the
packets with ``g in D``.  A user attached to block B retrieves everything its
L nodes hold, and the delivery array assigns the remaining cells the message
id D + B(T) (plus a copy counter when the design index exceeds 1), shown
as its points, "123", with ",2" for a second copy.  The
arrays come from ``simulate.coordinate_arrays`` over the D-subset indicators.

Row order everywhere is T-major: all D's in lexicographic order under the
first T, then the next T.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import Design, require_match, verify_t_design
from .errors import InvalidInputError, InvalidParametersError
from .pda import Pda
from .render import compact_str
from .simulate import ArrayScheme, Claims, coordinate_arrays, require_room, tiled_labels


@dataclass(frozen=True)
class DesignSchemeParams(Claims):
    num_nodes: int        # node count
    access_degree: int    # L, nodes per user
    strength: int         # t
    index: int            # design index lambda
    cached_nodes: int     # subset size defining one subfile

    def __post_init__(self):
        g, l, t, lam, mu = (
            self.num_nodes, self.access_degree, self.strength, self.index, self.cached_nodes,
        )
        if not 1 <= t <= l <= g:
            raise InvalidParametersError(f"need 1 <= t <= L <= nodes, got {(t, l, g)}")
        if lam < 1:
            raise InvalidParametersError("design index must be >= 1")
        if not 0 <= mu <= g - l:
            raise InvalidParametersError(
                f"cached_nodes must satisfy 0 <= cached_nodes <= nodes - L = {g - l}, got {mu}"
            )
        if lam * math.comb(g, t) % math.comb(l, t):
            raise InvalidParametersError(
                f"user count lambda*C({g},{t})/C({l},{t}) is not an integer"
            )

    @property
    def num_users(self) -> int:
        return self.index * math.comb(self.num_nodes, self.strength) // math.comb(
            self.access_degree, self.strength
        )

    @property
    def subpacketization(self) -> int:
        return math.comb(self.num_nodes, self.cached_nodes) * math.comb(
            self.access_degree, self.strength
        )

    @property
    def coverage_ratio(self) -> Fraction:
        """Fraction of the library a user can retrieve across its L nodes."""
        g, l, mu = self.num_nodes, self.access_degree, self.cached_nodes
        return 1 - Fraction(math.comb(g - l, mu), math.comb(g, mu))

    @property
    def message_bound(self) -> int:
        g, l, t, mu = self.num_nodes, self.access_degree, self.strength, self.cached_nodes
        if mu == 0:  # pure unicast: one message per (t-subset, copy) pair, exactly
            return self.index * math.comb(g, t)
        return self.index * math.comb(g, t + mu) - self.num_users * math.comb(l, t + mu)

    @property
    def guaranteed_known(self) -> int:
        return self.index * redundancy_count(self)

    @classmethod
    def from_design(cls, design: Design, cached_nodes: int):
        if design.strength is None or design.index is None:
            raise InvalidInputError("design carries no (strength, index) tag")
        return cls(
            num_nodes=design.num_points,
            access_degree=design.block_size,
            strength=design.strength,
            index=design.index,
            cached_nodes=cached_nodes,
        )


def _arrays(params: DesignSchemeParams, blocks) -> tuple:
    """C, user nodes and Q: base row D is the indicator of the subset D,
    node g is the pair (g, 1) and block B the pairs (b, 1), so a missed
    cell's id vector is the indicator of D + B(T).  For index > 1 the copies
    are counted per D, as D fixes the split (D, B(T))."""
    g, mu, t = params.num_nodes, params.cached_nodes, params.strength
    subsets = np.array(list(itertools.combinations(range(g), mu)), dtype=np.intp)
    base = (subsets[:, :, None] == np.arange(g)).any(axis=1)
    blocks = np.asarray(blocks, dtype=np.int64).reshape(-1, params.access_degree) - 1
    users = np.stack([blocks, np.ones_like(blocks)], axis=2)

    def text(digits):  # the points of D + B(T): "123", or "{1,10}" past 9
        return list(map(compact_str, (np.nonzero(digits)[1].reshape(-1, mu + t) + 1).tolist()))

    return coordinate_arrays(base, 2, [1], users, t, text, "base" if params.index > 1 else None)


# Kept only because the benchmark tracer wraps the next three by name.
def build_node_placement(design: Design, cached_nodes: int) -> np.ndarray:
    """C, F x nodes: row (D, T) stars node g iff g is in D."""
    return build_scheme(design, cached_nodes).node_placement


def build_user_retrieve(design: Design, cached_nodes: int) -> np.ndarray:
    """U, F x users: row (D, T) stars user B iff B meets D, as Q does."""
    return build_scheme(design, cached_nodes).user_retrieve


def build_user_delivery(design: Design, cached_nodes: int) -> Pda:
    """Q: the cell at row (D, T), column B is a star when B meets D, else
    the id D + B(T), with a copy number for index > 1 (see ``_arrays``)."""
    return build_scheme(design, cached_nodes).user_delivery


def build_scheme(design: Design, cached_nodes: int) -> ArrayScheme:
    params = DesignSchemeParams.from_design(design, cached_nodes)
    require_match(verify_t_design(design, params.strength, params.index), "design")
    g, l, t, mu = params.num_nodes, params.access_degree, params.strength, cached_nodes
    require_room(params.subpacketization, design.num_blocks, g, 2)
    placement, user_nodes, delivery = _arrays(params, design.blocks)
    return ArrayScheme(
        topology={"design": design},
        row_labels=tiled_labels(list(itertools.combinations(range(1, g + 1), mu)), l, t),
        user_blocks=design.blocks,
        node_placement=placement,
        user_nodes=user_nodes,
        user_delivery=delivery,
        claims=params,
    )


def redundancy_count(params: DesignSchemeParams) -> int:
    """Per-user count of message subsets meeting the user's block in at least
    t+1 but fewer than t+cached_nodes points; those multicasts are already
    reconstructible from the user's cache."""
    g, l, t, mu = (
        params.num_nodes, params.access_degree, params.strength, params.cached_nodes,
    )
    if mu < 1:
        return 0
    return sum(
        math.comb(l, t + i) * math.comb(g - l, mu - i) for i in range(1, mu)
    )

