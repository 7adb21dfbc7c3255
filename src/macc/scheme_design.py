"""Multiaccess caching schemes over a t-design access topology.

The cache side uses the classical subset placement: a file is split into one
subfile per size-``cached_nodes`` subset D of the nodes, each subfile into one
packet per t-subset T of the access positions, and node ``g`` stores the
packets with ``g in D``.  A user attached to block B retrieves everything its
L nodes hold, and the delivery array assigns the remaining cells the message
id D + B(T) (plus a copy counter when the design index exceeds 1).  The
arrays come from ``simulate.coordinate_arrays`` over the D-subset indicators.

Row order everywhere is T-major: all D's in lexicographic order under the
first T, then the next T.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .designs import Design, require_match, verify_t_design
from .errors import InvalidInputError, InvalidParametersError
from .pda import CountedSubsetId, Pda, SubsetId
from .simulate import ArrayScheme, coordinate_arrays, reach, tiled_labels


@dataclass(frozen=True)
class DesignSchemeParams:
    num_nodes: int        # node count
    access_degree: int    # L, nodes per user
    strength: int         # t
    index: int            # design index lambda
    cached_nodes: int     # subset size defining one subfile
    num_files: int

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
        if self.num_files < 1:
            raise InvalidParametersError("need at least one file")

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
    def stars_per_user(self) -> int:
        g, l, mu = self.num_nodes, self.access_degree, self.cached_nodes
        return (math.comb(g, mu) - math.comb(g - l, mu)) * math.comb(l, self.strength)

    @property
    def memory_ratio(self) -> Fraction:
        return Fraction(self.cached_nodes, self.num_nodes)

    @classmethod
    def from_design(cls, design: Design, cached_nodes: int, num_files: Optional[int] = None):
        if design.strength is None or design.index is None:
            raise InvalidInputError("design carries no (strength, index) tag")
        params = cls(
            num_nodes=design.num_points,
            access_degree=design.block_size,
            strength=design.strength,
            index=design.index,
            cached_nodes=cached_nodes,
            num_files=num_files if num_files is not None else 1,
        )
        return params if num_files is not None else replace(params, num_files=params.num_users)


def row_labels(params: DesignSchemeParams) -> tuple:
    """(D, T) row labels, T-major then D lexicographic."""
    subsets = list(itertools.combinations(range(1, params.num_nodes + 1), params.cached_nodes))
    return tiled_labels(subsets, params.access_degree, params.strength)


def _arrays(params: DesignSchemeParams, blocks, delivery: bool = True) -> tuple:
    """C, user nodes and (with ``delivery``) Q: base row D is the indicator
    of the subset D, node g is the pair (g, 1) and block B the pairs (b, 1),
    so a missed cell's id vector is the indicator of D + B(T).  For index
    > 1 the copies are counted per D, as D fixes the split (D, B(T))."""
    g, mu, t = params.num_nodes, params.cached_nodes, params.strength
    subsets = np.array(list(itertools.combinations(range(g), mu)), dtype=np.intp)
    base = (subsets[:, :, None] == np.arange(g)).any(axis=1)
    blocks = np.asarray(blocks, dtype=np.int64).reshape(-1, params.access_degree) - 1
    users = np.stack([blocks, np.ones_like(blocks)], axis=2)

    def ids(digits, copy):
        points = map(tuple, (np.nonzero(digits)[1].reshape(-1, mu + t) + 1).tolist())
        return map(SubsetId, points) if copy is None else map(CountedSubsetId, points, copy.tolist())

    return coordinate_arrays(base, 2, [1], users, t, ids if delivery else None,
                             "base" if params.index > 1 else None)


# Kept only because the benchmark tracer wraps the next three by name.
def build_node_placement(params: DesignSchemeParams) -> np.ndarray:
    """F x nodes boolean grid; row (D, T) stars node g iff g is in D: the
    D-subset indicator, once per T."""
    return _arrays(params, (), delivery=False)[0]


def build_user_retrieve(design: Design, cached_nodes: int) -> np.ndarray:
    """F x users boolean grid U; row (D, T) stars user B iff B meets D.
    These are the stars of the delivery array."""
    params = DesignSchemeParams.from_design(design, cached_nodes)
    return reach(*_arrays(params, design.blocks, delivery=False)[:2])


def build_user_delivery(design: Design, cached_nodes: int) -> Pda:
    """Delivery array: the cell at row (D, T), column B is a star when B meets
    D; otherwise it carries the subset D + B(T).

    For index 1 the subset alone is the message id.  For index > 1 every id is
    the pair (D + B(T), copy), where the copy number counts occurrences of the
    split (D, B(T)) scanning columns left to right and each column top to
    bottom.
    """
    return _arrays(DesignSchemeParams.from_design(design, cached_nodes), design.blocks)[2]


def build_scheme(design: Design, cached_nodes: int, num_files: Optional[int] = None) -> ArrayScheme:
    params = DesignSchemeParams.from_design(design, cached_nodes, num_files)
    require_match(verify_t_design(design, params.strength, params.index), "design")
    placement, user_nodes, delivery = _arrays(params, design.blocks)
    g, l, t, mu = params.num_nodes, params.access_degree, params.strength, cached_nodes
    if mu == 0:  # pure unicast: one message per (t-subset, copy) pair, exactly
        bound = params.index * math.comb(g, t)
    else:
        bound = params.index * math.comb(g, t + mu) - params.num_users * math.comb(l, t + mu)
    return ArrayScheme(
        params=params,
        topology={"design": design},
        row_labels=row_labels(params),
        user_blocks=design.blocks,
        node_placement=placement,
        user_nodes=user_nodes,
        user_delivery=delivery,
        message_bound=bound,
        guaranteed_known=params.index * redundancy_count(params),
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


def achievable_load(params: DesignSchemeParams) -> Fraction:
    """Worst-case delivery load after replacing the multicast batch with an
    erasure-coded batch that skips the per-user reconstructible messages.

    With no caching the closed form degenerates; the scheme then unicasts
    every packet and the load equals the user count.
    """
    g, l, t, lam, mu = (
        params.num_nodes, params.access_degree, params.strength,
        params.index, params.cached_nodes,
    )
    if mu == 0:
        return Fraction(params.num_users)
    numerator = (
        lam * math.comb(g, t + mu)
        - lam * redundancy_count(params)
        - params.num_users * math.comb(l, t + mu)
    )
    return Fraction(numerator, math.comb(g, mu) * math.comb(l, t))


def shared_link_tradeoff(params: DesignSchemeParams):
    """(memory ratio, load) of the scheme re-read as a single shared-link
    system where each user's cache is its retrievable content."""
    g, l, mu = params.num_nodes, params.access_degree, params.cached_nodes
    memory = 1 - Fraction(math.comb(g - l, mu), math.comb(g, mu))
    return memory, achievable_load(params)
