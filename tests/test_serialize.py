import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from macc.designs import (
    Design, GroupDivisibleDesign, OrthogonalArray, catalog_design, catalog_gdd, complete_design,
    linear_oa, transversal_gdd,
)
from macc import serialize
from macc.errors import InvalidInputError
from macc.scheme_design import build_scheme
from macc.serialize import (
    CodeGrid,
    design_from_obj,
    design_to_obj,
    dump_json,
    gdd_from_obj,
    gdd_to_obj,
    object_from_obj,
    oa_from_obj,
    oa_to_obj,
    scheme_to_obj,
)

SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text()
)
KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(KEYS, kids)),
    max_leaves=40,
)


class TestDumpJson:
    # json.dumps(indent=2) is the oracle the writer must match byte for byte.
    @settings(max_examples=400)
    @given(JSON_VALUES)
    @example([1, True, None, "*"])
    @example({"C": [["*", None], [None, "*"]], "Q": {"cells": [[1, "*"], []]}})
    @example([[], {}, [[]], [{}], ()])
    @example({"é": "ü☃", 1: 1.5, 2.5: float("nan"), None: float("-inf"), False: 1e300})
    def test_matches_json_dumps_indent_2(self, value):
        assert dump_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        {"a": {1, 2}}, [[1, object()]], [1, [2], {3}], {(1, 2): 0},
    ], ids=["set-value", "object-in-row", "set-in-mixed-list", "tuple-key"])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            dump_json(value)

    @pytest.mark.parametrize("block", ["cell", "row", "default"])
    def test_file_is_returned_text_plus_newline(self, tmp_path, monkeypatch, block):
        # one cell per block makes each row a block; 7 cells is one row of
        # the fano bundle's widest grid, Q
        if block != "default":
            monkeypatch.setattr(serialize, "_GRID_BLOCK_CELLS", 1 if block == "cell" else 7)
        obj, path = scheme_to_obj(build_scheme(catalog_design("fano-7-3-1"), 1)), tmp_path / "s.json"
        assert dump_json(obj, path) == ""
        assert path.read_bytes() == (dump_json(obj) + "\n").encode("ascii")

    def test_unserializable_leaves_no_file(self, tmp_path):
        path = tmp_path / "a.json"
        with pytest.raises(TypeError):
            dump_json({"a": {1}}, path)
        assert not path.exists()

    def test_write_holds_no_full_copy_of_the_text(self, tmp_path):
        # joining the whole text and encoding it again in slices traces a
        # peak of twice the file's size
        obj, path = scheme_to_obj(build_scheme(complete_design(13, 3), 4)), tmp_path / "b.json"
        tracemalloc.start()
        try:
            dump_json(obj, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size == 2_823_261
        assert peak < size / 2


@st.composite
def code_grids(draw):
    """A CodeGrid of 1-6 rows by 1-7 columns, its list form, and the grid
    nested 0-3 containers deep beside other values."""
    tokens = draw(st.lists(st.integers(0, 10**6) | st.just("*") | st.none(),
                           min_size=1, max_size=5, unique=True))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    codes = draw(st.lists(st.lists(st.integers(-len(tokens), len(tokens) - 1),
                                   min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    grid = CodeGrid(np.array(codes, dtype=draw(st.sampled_from([np.int8, np.int32]))),
                    tuple(map(json.dumps, tokens)))
    value, listed = grid, [[tokens[c] for c in row] for row in codes]
    for in_dict in draw(st.lists(st.booleans(), max_size=3)):
        if in_dict:
            value, listed = ({"F": rows, "cells": v, "K": cols} for v in (value, listed))
        else:
            value, listed = ([v, None] for v in (value, listed))
    return value, listed, rows, cols


def assert_writes_as(value, text, path):
    """``dump_json(value)`` is ``text``, and the file it writes at ``path``
    is ``text`` and a newline."""
    assert dump_json(value) == text
    assert dump_json(value, path) == ""
    assert path.read_bytes() == (text + "\n").encode("ascii")


class TestCodeGrid:
    @pytest.mark.parametrize("block", ["row", "half", "default"])
    @settings(max_examples=150)
    @given(code_grids())
    def test_matches_json_dumps_of_list_form(self, tmp_path_factory, block, drawn):
        value, listed, rows, cols = drawn
        with pytest.MonkeyPatch.context() as monkeypatch:
            if block != "default":
                # one row per block, or the first half of the rows in one block
                monkeypatch.setattr(serialize, "_GRID_BLOCK_CELLS",
                                    cols * (1 if block == "row" else (rows + 1) // 2))
            # each example writes the same file afresh
            path = tmp_path_factory.getbasetemp() / "grid.json"
            assert_writes_as(value, json.dumps(listed, indent=2), path)

    @pytest.mark.parametrize("place", [
        lambda m, g: {"C": g, "s": m},
        lambda m, g: {m: g, "Q": [g, m]},
        lambda m, g: [m, {"x": [m, g]}],
        lambda m, g: [g, 'a"' + m, m + '"'],
        lambda m, g: [m, serialize._MARKER.format(1), g, {m: serialize._MARKER.format(2)}],
        lambda m, g: {"only": m},
    ], ids=["value", "key", "nested", "quote-adjacent", "next-markers", "no-grid"])
    def test_marker_strings_write_as_json_dumps(self, tmp_path, place):
        # a string equal to the splice marker, or holding its JSON text, is
        # written as itself and never replaced by a grid
        grid = CodeGrid(np.array([[0, 1], [1, 0]], np.int8), ("null", '"*"'))
        value = place(serialize._MARKER.format(0), grid)
        listed = place(serialize._MARKER.format(0), [[None, "*"], ["*", None]])
        assert_writes_as(value, json.dumps(listed, indent=2), tmp_path / "m.json")


class TestLoaderValidation:
    @pytest.mark.parametrize("blocks, where", [
        ([5, 6], "blocks[0]"),
        ([[1, 2, 4], "x"], "blocks[1]"),
        ([[1, 2, 4], [2, "3", 5]], "blocks[1][1]"),
        ([[1, 2, 4], [2, True, 5]], "blocks[1][1]"),
        ([[1, 2, 4], [2, [3], 5]], "blocks[1][1]"),
    ], ids=["int-block", "str-block", "str-point", "bool-point", "list-point"])
    def test_design_names_bad_entry(self, blocks, where):
        with pytest.raises(InvalidInputError, match=re.escape(f"design {where} ")):
            design_from_obj({"type": "design", "points": 7, "blocks": blocks})

    @pytest.mark.parametrize("blocks, where", [
        ([7], "blocks[0]"),
        ([[[1, 1], 2]], "blocks[0][1]"),
        ([[[1, 1], [2]]], "blocks[0][1]"),
        ([[[1, 1], [2, 1, 1]]], "blocks[0][1]"),
        ([[[1, 1], [2, "1"]]], "blocks[0][1][1]"),
    ], ids=["int-block", "int-point", "short-point", "long-point", "str-coordinate"])
    def test_gdd_names_bad_entry(self, blocks, where):
        with pytest.raises(InvalidInputError, match=re.escape(f"gdd {where} ")):
            gdd_from_obj({"type": "gdd", "m": 3, "q": 2, "blocks": blocks})

    @pytest.mark.parametrize("rows, where", [
        ([1, 2], "rows[0]"),
        ([[1, 1], [1, None]], "rows[1][1]"),
    ], ids=["int-row", "null-entry"])
    def test_oa_names_bad_entry(self, rows, where):
        with pytest.raises(InvalidInputError, match=re.escape(f"oa {where} ")):
            oa_from_obj({"type": "oa", "q": 2, "s": 1, "rows": rows})

    @pytest.mark.parametrize("obj", [
        {"type": "gdd", "m": "3", "q": 2, "blocks": [[[1, 1]]]},
        {"type": "oa", "q": 2, "s": 1.0, "rows": [[1], [2]]},
        {"type": "design", "points": None, "blocks": [[1]]},
    ], ids=["gdd-m", "oa-s", "design-points"])
    def test_non_integer_header_is_rejected(self, obj):
        with pytest.raises(InvalidInputError, match="not int"):
            object_from_obj(obj)

    @pytest.mark.parametrize("to_obj, value", [
        (design_to_obj, catalog_design("fano-7-3-1")),
        (gdd_to_obj, catalog_gdd("gdd-3-2-3-1")),
        (oa_to_obj, linear_oa(3, 3, 2)),
        (oa_to_obj, OrthogonalArray(2, 0, 1, ((),))),
        (design_to_obj, Design(10**30, ((1, 10**30),))),
    ], ids=["design", "gdd", "oa", "oa-no-columns", "design-sparse-points"])
    def test_round_trip(self, to_obj, value):
        # the design and OA writers hold their rows as a CodeGrid, which
        # only dump_json turns into lists
        assert object_from_obj(json.loads(dump_json(to_obj(value)))) == value

    @pytest.mark.parametrize("to_obj, value, key", [
        (design_to_obj, catalog_design("fano-7-3-1"), "blocks"),
        (oa_to_obj, linear_oa(3, 3, 2), "rows"),
        (oa_to_obj, OrthogonalArray(2, 0, 1, ((),)), "rows"),
        # more points than cells: written as lists, with no table of 10^30 texts
        (design_to_obj, Design(10**30, ((1, 10**30),)), "blocks"),
        # GDD points are [group, slot] lists, each written across lines
        (gdd_to_obj, transversal_gdd(3, 3, 2), "blocks"),
        (gdd_to_obj, GroupDivisibleDesign(12, 10, (((1, 1), (2, 10)),)), "blocks"),
    ], ids=["design", "oa", "oa-no-columns", "design-sparse-points", "gdd",
            "gdd-sparse-points"])
    def test_rows_write_as_json_dumps_of_lists(self, to_obj, value, key):
        obj = to_obj(value)
        lists = [list(r) for r in getattr(value, key)]
        assert dump_json(obj) == json.dumps({**obj, key: lists}, indent=2)

    def test_gdd_points_are_held_as_codes(self):
        # one code per point, and one text per point of the 3 x 3 frame
        grid = gdd_to_obj(transversal_gdd(3, 3, 2))["blocks"]
        assert isinstance(grid, CodeGrid) and grid.codes.dtype == np.uint8
        assert len(grid.texts) == 9 and grid.texts[5] == "[\n  2,\n  3\n]"
