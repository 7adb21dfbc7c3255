"""Topology objects in an order-free form, for tests that compare two
constructions up to the order of their blocks or classes, and delivery
arrays as rows of id labels or as integer key grids."""

from dataclasses import replace

from macc.designs import ResolvableDesign
from macc.pda import STAR, Pda


def canonical(obj):
    """A design or GDD with its blocks sorted, or a resolvable design with
    the blocks of each class sorted."""
    if isinstance(obj, ResolvableDesign):
        return replace(obj, parallel_classes=tuple(tuple(sorted(c)) for c in obj.parallel_classes))
    return replace(obj, blocks=tuple(sorted(obj.blocks)))


def pda_cells(pda) -> tuple:
    """The rows of a delivery array, each cell its id label or STAR."""
    return tuple(map(tuple, pda.relabel([*pda.ids, STAR])))


def grid_pda(keys) -> Pda:
    """The PDA of an F x K integer key grid, -1 a star, where cells with
    equal keys share an id."""
    return Pda.from_keys(keys >= 0, keys[keys >= 0])
