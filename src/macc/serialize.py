"""JSON interchange for designs, arrays, schemes, and reports.

All point and symbol indices are 1-based.  Delivery arrays serialize with
canonical integer ids; star cells serialize as the string "*", null grid
cells as JSON null.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .designs import Design, GroupDivisibleDesign, OrthogonalArray, int_text, is_int
from .errors import InvalidInputError
from .pda import Pda, STAR, pda_stats


def fraction_str(x: Fraction) -> str:
    text = int_text(x.numerator)
    return f"{text}/{int_text(x.denominator)}" if x.denominator != 1 else text


def design_to_obj(design: Design) -> dict:
    obj = {"type": "design", "points": design.num_points,
           "blocks": _symbol_grid(design.blocks, design.num_points)}
    if design.strength is not None:
        obj["t"] = design.strength
    if design.index is not None:
        obj["lambda"] = design.index
    return obj


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
        if not is_int(x):
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
           "blocks": _point_grid(gdd.blocks, gdd.num_groups, gdd.group_size)}
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
            "lambda": oa.index, "rows": _symbol_grid(oa.rows, oa.num_symbols)}


def oa_from_obj(obj: dict) -> OrthogonalArray:
    _require(obj, "oa", q=int, s=int, rows=list)
    tags = _tags(obj, "oa", "lambda")
    return OrthogonalArray(
        obj["q"], obj["s"], tags.get("lambda", 1),
        _int_tuples(obj["rows"], "oa", "rows", 2),
    )


@dataclass(frozen=True)
class CodeGrid:
    """A JSON list of rows held as codes: cell (j, k) is the JSON text
    ``texts[codes[j, k]]``, a negative code counting from the end of
    ``texts``, written as ``json.dumps(indent=2)`` nests it (each line
    break of a text followed by the cell's indent).  ``dump_json`` writes
    it without a Python object per cell; ``codes`` is a 2-d integer array
    with at least one row and column."""

    codes: np.ndarray
    texts: tuple


def _symbol_grid(rows: tuple, count: int):
    """Equal-length rows of symbols 1..count as a CodeGrid, symbol x held
    as code x - 1.  Rows with fewer cells than symbols (rows of no symbols
    among them) stay lists, so the table of texts never outgrows the grid."""
    if len(rows) * len(rows[0]) < count:
        return [list(r) for r in rows]
    return CodeGrid(np.array(rows, dtype=np.min_scalar_type(count)) - 1,
                    tuple(map(str, range(1, count + 1))))


def _point_grid(blocks: tuple, m: int, q: int):
    """GDD blocks (of one size) as a CodeGrid of their points, point (u, v)
    held as code (u - 1) q + v - 1 and written as the list [u, v]; as in
    ``_symbol_grid``, blocks with fewer points than the frame stay lists."""
    if len(blocks) * len(blocks[0]) < m * q:
        return [[list(p) for p in b] for b in blocks]
    points = np.array(blocks, dtype=np.int64)
    codes = (points[..., 0] - 1) * q + points[..., 1] - 1
    texts = tuple(json.dumps([u, v], indent=2) for u in range(1, m + 1) for v in range(1, q + 1))
    return CodeGrid(codes.astype(np.min_scalar_type(m * q - 1)), texts)


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
            if c != "*" and not is_int(c):
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
    """The scheme bundle.  K, F, Z, S, the plain load and the memory ratios
    are read off the arrays C and Q; S_bound, guaranteed_known and the
    reduced load or load bound are the paper's closed forms, read off the
    scheme's claims, which are also the parameters the bundle records."""
    p, stats = scheme.claims, pda_stats(scheme.user_delivery)
    f, z, s = stats.subpacketization, stats.stars_per_column, stats.num_messages
    summary = {
        "K": stats.num_users, "F": f, "Z": z,
        "S_counted": s, "S_bound": p.message_bound,
        "S_below_bound": s < p.message_bound,
        "guaranteed_known": p.guaranteed_known,
        "load_plain": fraction_str(stats.load),
    }
    if "design" in scheme.topology:
        summary["load_reduced"] = fraction_str(p.load)
        summary["shared_link_memory"] = fraction_str(Fraction(z, f))
        params = {
            "kind": "design", "nodes": p.num_nodes, "L": p.access_degree,
            "t": p.strength, "lambda": p.index, "cached_nodes": p.cached_nodes,
        }
    else:
        node_stars = int(np.count_nonzero(scheme.node_placement[:, 0]))
        summary["node_memory_ratio"] = fraction_str(Fraction(node_stars, f))
        summary["coverage_ratio"] = fraction_str(Fraction(z, f))
        summary["load_bound"] = fraction_str(p.load)
        params = {
            "kind": "gdd", "m": p.num_groups, "q": p.group_size, "L": p.access_degree,
            "t": p.strength, "s": p.placement_strength,
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
        elif isinstance(val, tuple):
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


# Grid cells gathered per block of rows; a bundle's Q cell pads to 16 bytes.
# Blocks of 2^16 cells wrote the complete:16,3 mu=5 bundle no faster and
# raised its peak RSS by 2.3 MB.
_GRID_BLOCK_CELLS = 1 << 14


def _encode_grid(grid: CodeGrid, indent: str):
    """Yield the text of ``grid`` nested at ``indent`` as ASCII bytes.  Each
    cell text is stored with its leading separator in a zero-padded byte
    table; a block of rows is one gather from it plus a closing piece per
    row, and the padding is dropped on the way to the text."""
    inner = indent + "  "
    pieces = [",\n" + inner + "  " + text.replace("\n", "\n" + inner + "  ")
              for text in grid.texts]
    pieces += ["\n" + inner + "],\n" + inner, "\n" + inner + "]"]  # row ends: inner, last
    width = max(map(len, pieces))
    table = np.frombuffer(
        "".join(p.ljust(width, "\0") for p in pieces).encode("ascii"), np.uint8
    ).reshape(len(pieces), width)
    table, (close, last) = table[:-2], table[-2:]
    rows, cols = grid.codes.shape
    step = max(1, _GRID_BLOCK_CELLS // cols)
    yield ("[\n" + inner).encode("ascii")
    for start in range(0, rows, step):
        codes = grid.codes[start:start + step]
        cells = np.empty((len(codes), cols + 1, width), np.uint8)
        # "wrap" reads a negative code from the end of the table
        np.take(table, codes, axis=0, out=cells[:, :cols], mode="wrap")
        cells[:, cols] = close
        cells[:, 0, 0] = ord("[")  # the first cell's separator opens the row
        if start + step >= rows:
            cells[-1, cols] = last
        yield cells[cells != 0].tobytes()
    yield ("\n" + indent + "]").encode("ascii")


# The string json.dumps writes in place of a grid on the n-th try.
_MARKER = "\0CodeGrid {}"


def _chunks(pieces: list, grids: list):
    """Yield the text as ASCII bytes (``json.dumps`` escapes to ASCII): the
    pieces, and between them each grid's text at the indent of its line."""
    yield pieces[0].encode("ascii")
    for grid, before, piece in zip(grids, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from _encode_grid(grid, line[:len(line) - len(line.lstrip(" "))])
        yield piece.encode("ascii")


def dump_json(obj, path=None) -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte, where a
    ``CodeGrid`` writes as its list of rows; with ``path``, write the text
    and a newline there block by block, never holding the whole text, and
    return "".  ``json.dumps`` writes each grid as a marker string, where
    the grid's text then goes.  A string in ``obj`` that writes as the
    marker shows as one marker too many, and the text is written again with
    the next marker.  This runs before the file is opened, so an object
    that cannot be written raises TypeError and leaves no file."""
    for n in itertools.count():
        marker, grids = _MARKER.format(n), []

        def park(value):
            if not isinstance(value, CodeGrid):
                raise TypeError(f"Object of type {type(value).__name__} "
                                f"is not JSON serializable")
            grids.append(value)
            return marker

        pieces = json.dumps(obj, indent=2, default=park).split(json.dumps(marker))
        # json's indenting encoder is a reference cycle that keeps ``park``
        # until the next collection: take the grids out of its list, so
        # that they go when the caller drops them.
        parked = grids.copy()
        grids.clear()
        if len(pieces) == len(parked) + 1:
            break
    chunks = _chunks(pieces, parked)
    if path is None:
        return b"".join(chunks).decode("ascii")
    with open(path, "wb") as fh:
        fh.writelines(chunks)
        fh.write(b"\n")
    return ""
