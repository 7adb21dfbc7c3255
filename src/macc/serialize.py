"""JSON interchange for designs, arrays, schemes, and reports.

All point and symbol indices are 1-based.  Delivery arrays serialize with
canonical integer ids; star cells serialize as the string "*", null grid
cells as JSON null.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .designs import Design, GroupDivisibleDesign, OrthogonalArray
from .errors import InvalidInputError
from .pda import Pda, STAR
from .scheme_design import DesignCachingScheme, achievable_load, shared_link_tradeoff
from .scheme_gdd import GddCachingScheme, gdd_tradeoff


def fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def design_to_obj(design: Design) -> dict:
    obj = {"type": "design", "points": design.num_points,
           "blocks": [list(b) for b in design.blocks]}
    if design.strength is not None:
        obj["t"] = design.strength
    if design.index is not None:
        obj["lambda"] = design.index
    return obj


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require(obj, kind: str, **fields) -> None:
    """Reject ``obj`` unless it is a JSON object holding every named field,
    each an instance of the type given for it."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{kind} must be a JSON object, not {type(obj).__name__}")
    for key, want in fields.items():
        if key not in obj:
            raise InvalidInputError(f"{kind} has no {key!r} field")
        if not isinstance(obj[key], want):
            raise InvalidInputError(
                f"{kind} field {key!r} is {type(obj[key]).__name__}, not {want.__name__}"
            )


def design_from_obj(obj: dict) -> Design:
    _require(obj, "design", points=object, blocks=list)
    blocks = tuple(tuple(b) for b in obj["blocks"])
    if not _is_int(obj["points"]):
        raise InvalidInputError(f"design point count {obj['points']!r} is not an integer")
    for n, block in enumerate(blocks, start=1):
        bad = [x for x in block if not _is_int(x)]
        if bad:
            raise InvalidInputError(f"design block {n}: point {bad[0]!r} is not an integer")
    return Design(
        obj["points"], blocks, strength=obj.get("t"), index=obj.get("lambda"),
    )


def gdd_to_obj(gdd: GroupDivisibleDesign) -> dict:
    obj = {"type": "gdd", "m": gdd.num_groups, "q": gdd.group_size,
           "blocks": [[list(p) for p in b] for b in gdd.blocks]}
    if gdd.strength is not None:
        obj["t"] = gdd.strength
    if gdd.index is not None:
        obj["lambda"] = gdd.index
    return obj


def gdd_from_obj(obj: dict) -> GroupDivisibleDesign:
    _require(obj, "gdd", m=object, q=object, blocks=list)
    return GroupDivisibleDesign(
        obj["m"], obj["q"],
        tuple(tuple(tuple(p) for p in b) for b in obj["blocks"]),
        strength=obj.get("t"), index=obj.get("lambda"),
    )


def oa_to_obj(oa: OrthogonalArray) -> dict:
    return {"type": "oa", "q": oa.num_symbols, "s": oa.strength,
            "lambda": oa.index, "rows": [list(r) for r in oa.rows]}


def oa_from_obj(obj: dict) -> OrthogonalArray:
    _require(obj, "oa", q=object, s=object, rows=list)
    return OrthogonalArray(
        obj["q"], obj["s"], obj.get("lambda", obj.get("index", 1)),
        tuple(tuple(r) for r in obj["rows"]),
    )


def pda_to_obj(pda: Pda) -> dict:
    return {
        "type": "pda", "F": pda.num_rows, "K": pda.num_cols,
        "cells": pda.relabel([*range(1, pda.num_ids + 1), "*"]),
    }


def pda_from_obj(obj: dict) -> Pda:
    _require(obj, "pda", F=object, K=object, cells=list)
    cells = []
    for j, row in enumerate(obj["cells"], start=1):
        for k, c in enumerate(row, start=1):
            if c != "*" and not _is_int(c):
                raise InvalidInputError(
                    f"PDA cell ({j}, {k}) is {c!r}, not '*' or an integer"
                )
        cells.append([STAR if c == "*" else c for c in row])
    pda = Pda(cells)
    if pda.num_rows != obj["F"] or pda.num_cols != obj["K"]:
        raise InvalidInputError("PDA dimensions disagree with the F/K header")
    return pda


def _grid_to_obj(grid) -> list:
    return [["*" if x else None for x in row] for row in grid.tolist()]


def scheme_to_obj(scheme) -> dict:
    base = {
        "C": _grid_to_obj(scheme.node_placement),
        "U": _grid_to_obj(scheme.user_retrieve),
        "Q": pda_to_obj(scheme.user_delivery),
    }
    if isinstance(scheme, DesignCachingScheme):
        p = scheme.params
        summary = {
            "K": p.num_users, "F": p.subpacketization, "Z": p.stars_per_user,
            "S_counted": scheme.counted_messages, "S_bound": scheme.message_bound,
            "S_below_bound": scheme.counted_messages < scheme.message_bound,
            "guaranteed_known": scheme.guaranteed_known,
            "load_plain": fraction_str(Fraction(scheme.counted_messages, p.subpacketization)),
            "load_reduced": fraction_str(achievable_load(p)),
            "shared_link_memory": fraction_str(shared_link_tradeoff(p)[0]),
        }
        params = {
            "kind": "design", "nodes": p.num_nodes, "L": p.access_degree,
            "t": p.strength, "lambda": p.index, "cached_nodes": p.cached_nodes,
            "files": p.num_files,
        }
        base["design"] = design_to_obj(scheme.design)
    elif isinstance(scheme, GddCachingScheme):
        p = scheme.params
        trade = gdd_tradeoff(p)
        summary = {
            "K": p.num_users, "F": p.subpacketization, "Z": p.stars_per_user,
            "S_counted": scheme.counted_messages, "S_bound": scheme.message_bound,
            "S_below_bound": scheme.counted_messages < scheme.message_bound,
            "guaranteed_known": scheme.guaranteed_known,
            "load_plain": fraction_str(Fraction(scheme.counted_messages, p.subpacketization)),
            "node_memory_ratio": fraction_str(trade.node_memory_ratio),
            "coverage_ratio": fraction_str(trade.coverage_ratio),
            "load_bound": fraction_str(trade.load),
        }
        params = {
            "kind": "gdd", "m": p.num_groups, "q": p.group_size, "L": p.access_degree,
            "t": p.strength, "s": p.placement_strength, "files": p.num_files,
        }
        base["gdd"] = gdd_to_obj(scheme.gdd)
        base["oa"] = oa_to_obj(scheme.oa)
    else:
        raise InvalidInputError(f"unknown scheme type {type(scheme)!r}")
    return {"type": "scheme", "params": params, "summary": summary, **base}


def report_to_obj(report) -> dict:
    out = {}
    for key, val in vars(report).items():
        if isinstance(val, Fraction):
            out[key] = fraction_str(val)
        elif isinstance(val, (tuple, frozenset)):
            out[key] = list(val)
        elif isinstance(val, dict):
            out[key] = {
                str(k): fraction_str(v) if isinstance(v, Fraction) else v
                for k, v in val.items()
            }
        else:
            out[key] = val
    return out


def load_object(path):
    """Parse one of the interchange files into its toolkit object."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    _require(obj, str(path))
    kind = obj.get("type")
    loaders = {
        "design": design_from_obj,
        "gdd": gdd_from_obj,
        "oa": oa_from_obj,
        "pda": pda_from_obj,
    }
    if kind not in loaders:
        raise InvalidInputError(f"unknown object type {kind!r}")
    return loaders[kind](obj)


def dump_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=False)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
