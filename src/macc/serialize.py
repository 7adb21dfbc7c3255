"""JSON interchange for designs, arrays, schemes, and reports.

All point and symbol indices are 1-based.  Delivery arrays serialize with
canonical integer ids; star cells serialize as the string "*", null grid
cells as JSON null.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import Design, GroupDivisibleDesign, OrthogonalArray, int_text
from .errors import InvalidInputError
from .pda import Pda, STAR
from .scheme_design import achievable_load, shared_link_tradeoff
from .scheme_gdd import gdd_tradeoff


def fraction_str(x: Fraction) -> str:
    text = int_text(x.numerator)
    return f"{text}/{int_text(x.denominator)}" if x.denominator != 1 else text


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


def _require(obj, kind: str, /, **fields) -> None:
    """Reject ``obj`` unless it is a JSON object holding every named field,
    each an instance of the type given for it (``int`` excludes bool)."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{kind} must be a JSON object, not {type(obj).__name__}")
    for key, want in fields.items():
        if key not in obj:
            raise InvalidInputError(f"{kind} has no {key!r} field")
        value = obj[key]
        if not isinstance(value, want) or (want is int and isinstance(value, bool)):
            raise InvalidInputError(
                f"{kind} field {key!r} is {type(value).__name__}, not {want.__name__}"
            )


def _tags(obj: dict, kind: str, *keys) -> dict:
    """The optional integer tags ``keys`` that ``obj`` carries."""
    tags = {key: obj[key] for key in keys if key in obj}
    _require(tags, kind, **dict.fromkeys(tags, int))
    return tags


def _int_tuples(value, kind: str, path: str, depth: int, width=None) -> tuple:
    """``value`` as tuples of integers nested ``depth`` lists deep, each
    innermost list ``width`` long when given.  The error names the first bad
    entry by its path, e.g. ``blocks[0][1]``."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{kind} {path} is {type(value).__name__}, not a list")
    if depth > 1:
        return tuple(_int_tuples(v, kind, f"{path}[{i}]", depth - 1, width)
                     for i, v in enumerate(value))
    for i, x in enumerate(value):
        if not _is_int(x):
            raise InvalidInputError(f"{kind} {path}[{i}] is {x!r}, not an integer")
    if width is not None and len(value) != width:
        raise InvalidInputError(f"{kind} {path} has {len(value)} entries, not {width}")
    return tuple(value)


def design_from_obj(obj: dict) -> Design:
    _require(obj, "design", points=int, blocks=list)
    tags = _tags(obj, "design", "t", "lambda")
    return Design(
        obj["points"], _int_tuples(obj["blocks"], "design", "blocks", 2),
        strength=tags.get("t"), index=tags.get("lambda"),
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
    _require(obj, "gdd", m=int, q=int, blocks=list)
    tags = _tags(obj, "gdd", "t", "lambda")
    return GroupDivisibleDesign(
        obj["m"], obj["q"], _int_tuples(obj["blocks"], "gdd", "blocks", 3, width=2),
        strength=tags.get("t"), index=tags.get("lambda"),
    )


def oa_to_obj(oa: OrthogonalArray) -> dict:
    return {"type": "oa", "q": oa.num_symbols, "s": oa.strength,
            "lambda": oa.index, "rows": [list(r) for r in oa.rows]}


def oa_from_obj(obj: dict) -> OrthogonalArray:
    _require(obj, "oa", q=int, s=int, rows=list)
    tags = _tags(obj, "oa", "lambda", "index")
    return OrthogonalArray(
        obj["q"], obj["s"], tags.get("lambda", tags.get("index", 1)),
        _int_tuples(obj["rows"], "oa", "rows", 2),
    )


@dataclass(frozen=True)
class CodeGrid:
    """A JSON list of rows held as codes: cell (j, k) is the JSON text
    ``texts[codes[j, k]]``, a negative code counting from the end of
    ``texts``.  ``dump_json`` writes it without a Python object per cell;
    ``codes`` is a 2-d integer array with at least one row and column."""

    codes: np.ndarray
    texts: tuple


def placement_to_obj(placement: np.ndarray) -> CodeGrid:
    """The node-placement grid C: "*" where a node caches a packet, else null."""
    return CodeGrid(placement.view(np.int8), ("null", '"*"'))


def pda_to_obj(pda: Pda) -> dict:
    return {
        "type": "pda", "F": pda.num_rows, "K": pda.num_cols,
        "cells": CodeGrid(pda.grid, (*map(str, range(1, pda.num_ids + 1)), '"*"')),
    }


def pda_from_obj(obj: dict) -> Pda:
    _require(obj, "pda", F=int, K=int, cells=list)
    cells = []
    for j, row in enumerate(obj["cells"], start=1):
        if not isinstance(row, list) or len(row) != obj["K"]:
            raise InvalidInputError(f"pda cells[{j - 1}] is not a list of {obj['K']} entries")
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


# The JSON writer of each topology input a scheme carries.
_TOPOLOGY_WRITERS = {"design": design_to_obj, "gdd": gdd_to_obj, "oa": oa_to_obj}


def scheme_to_obj(scheme) -> dict:
    p = scheme.params
    summary = {
        "K": p.num_users, "F": p.subpacketization, "Z": p.stars_per_user,
        "S_counted": scheme.counted_messages, "S_bound": scheme.message_bound,
        "S_below_bound": scheme.counted_messages < scheme.message_bound,
        "guaranteed_known": scheme.guaranteed_known,
        "load_plain": fraction_str(Fraction(scheme.counted_messages, p.subpacketization)),
    }
    if "design" in scheme.topology:
        summary["load_reduced"] = fraction_str(achievable_load(p))
        summary["shared_link_memory"] = fraction_str(shared_link_tradeoff(p)[0])
        params = {
            "kind": "design", "nodes": p.num_nodes, "L": p.access_degree,
            "t": p.strength, "lambda": p.index, "cached_nodes": p.cached_nodes,
            "files": p.num_files,
        }
    else:
        trade = gdd_tradeoff(p)
        summary["node_memory_ratio"] = fraction_str(trade.node_memory_ratio)
        summary["coverage_ratio"] = fraction_str(trade.coverage_ratio)
        summary["load_bound"] = fraction_str(trade.load)
        params = {
            "kind": "gdd", "m": p.num_groups, "q": p.group_size, "L": p.access_degree,
            "t": p.strength, "s": p.placement_strength, "files": p.num_files,
        }
    return {
        "type": "scheme", "params": params, "summary": summary,
        "C": placement_to_obj(scheme.node_placement), "Q": pda_to_obj(scheme.user_delivery),
        **{key: _TOPOLOGY_WRITERS[key](obj) for key, obj in scheme.topology.items()},
    }


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


def object_from_obj(obj, source: str = "object"):
    """Build the toolkit object an interchange JSON value describes;
    ``source`` names the value in errors."""
    _require(obj, source)
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


def read_json(path):
    """The JSON value in the file at ``path``.  A file that cannot be read,
    or is not UTF-8 JSON (or holds an integer of more than 4300 digits),
    raises InvalidInputError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, long ints
        raise InvalidInputError(f"{path} is not UTF-8 JSON: {exc}") from None


def load_object(path):
    """Parse one of the interchange files into its toolkit object."""
    return object_from_obj(read_json(path), str(path))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _key(key) -> str:
    """A dict key as json.dumps writes it: a non-string scalar key becomes
    its JSON text, then the key is quoted."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key)
    return json.dumps(key)


def _encode(obj, indent: str, parts: list) -> None:
    """Append to ``parts`` the text ``json.dumps`` with ``indent=2`` gives
    ``obj`` when it is nested at ``indent``."""
    if isinstance(obj, CodeGrid):
        _encode_grid(obj, indent, parts)
        return
    if not isinstance(obj, (list, tuple, dict)):
        parts.append(json.dumps(obj))
        return
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        for n, (key, value) in enumerate(obj.items()):
            parts.append(("{\n" + inner if n == 0 else sep) + _key(key) + ": ")
            _encode(value, inner, parts)
        parts.append("\n" + indent + "}")
    elif _SCALARS.issuperset(map(type, obj)):
        # A list of scalars, such as a design block, is one call to the C
        # encoder, which json.dumps skips whenever an indent is set; its item
        # separator carries the newline and the indent.
        row = json.dumps(obj, separators=(sep, ": "))
        parts.append("[\n" + inner + row[1:-1] + "\n" + indent + "]")
    else:
        for n, item in enumerate(obj):
            parts.append("[\n" + inner if n == 0 else sep)
            _encode(item, inner, parts)
        parts.append("\n" + indent + "]")


# Grid cells gathered per block of rows; a bundle's Q cell pads to 16 bytes.
# Blocks of 2^16 cells wrote the complete:16,3 mu=5 bundle no faster and
# raised its peak RSS by 2.3 MB.
_GRID_BLOCK_CELLS = 1 << 14


def _encode_grid(grid: CodeGrid, indent: str, parts: list) -> None:
    """Append the text of ``grid`` nested at ``indent``.  Each cell text is
    stored with its leading separator in a zero-padded byte table; a block
    of rows is one gather from it plus a closing piece per row, and the
    padding is dropped on the way to the text."""
    inner = indent + "  "
    pieces = [",\n" + inner + "  " + text for text in grid.texts]
    pieces += ["\n" + inner + "],\n" + inner, "\n" + inner + "]"]  # row ends: inner, last
    width = max(map(len, pieces))
    table = np.frombuffer(
        "".join(p.ljust(width, "\0") for p in pieces).encode("ascii"), np.uint8
    ).reshape(len(pieces), width)
    table, (close, last) = table[:-2], table[-2:]
    rows, cols = grid.codes.shape
    step = max(1, _GRID_BLOCK_CELLS // cols)
    parts.append("[\n" + inner)
    for start in range(0, rows, step):
        codes = grid.codes[start:start + step]
        cells = np.empty((len(codes), cols + 1, width), np.uint8)
        # "wrap" reads a negative code from the end of the table
        np.take(table, codes, axis=0, out=cells[:, :cols], mode="wrap")
        cells[:, cols] = close
        cells[:, 0, 0] = ord("[")  # the first cell's separator opens the row
        if start + step >= rows:
            cells[-1, cols] = last
        parts.append(cells[cells != 0].tobytes().decode("ascii"))
    parts.append("\n" + indent + "]")


# Characters encoded per write.  One write of the whole text encodes a
# second full copy: `macc scheme` writing the 33,586,463-byte complete:16,3
# mu=5 bundle peaks at 145 MB RSS that way and at 114 MB in slices.
_WRITE_CHARS = 1 << 20


def dump_json(obj, path=None) -> str:
    """The text of ``json.dumps`` with ``indent=2``, byte for byte, without
    its per-item chunk list; with ``path``, also write the text and a
    newline there."""
    parts = []
    _encode(obj, "", parts)
    text = "".join(parts)
    del parts
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), _WRITE_CHARS):
                fh.write(text[start:start + _WRITE_CHARS])
            fh.write("\n")
    return text
