"""Plain-text table rendering for arrays and schemes.

Cells are padded to column width and joined with two spaces; lines carry no
trailing whitespace.  Labels mirror the source tables: user columns read
U_124 (point blocks) or U_11,21 (group blocks), rows read {3},{1,2} for
(subset, positions) labels and (3,{1,2}) for (OA row, positions) labels.
"""

from __future__ import annotations

from .pda import Pda


def subset_str(elements) -> str:
    return "{" + ",".join(str(x) for x in elements) + "}"


def compact_str(values, brackets: str = "{}") -> str:
    """The values run together when each is one digit, else listed in
    ``brackets``: "123", "{1,10}"."""
    if all(x <= 9 for x in values):
        return "".join(map(str, values))
    return brackets[0] + ",".join(map(str, values)) + brackets[1]


def point_block_label(block) -> str:
    return "U_" + compact_str(block)


def group_block_label(block) -> str:
    return "U_" + ",".join(f"{u}{v}" if u <= 9 and v <= 9 else f"({u},{v})" for u, v in block)


def design_row_label(label) -> str:
    d, t = label
    return f"{subset_str(d)},{subset_str(t)}"


def oa_row_label(label) -> str:
    j, t = label
    return f"({j},{subset_str(t)})"


def render_table(col_labels, row_labels, cell_strs, corner: str = "") -> str:
    head = [corner] + list(col_labels)
    body = [[lab] + list(row) for lab, row in zip(row_labels, cell_strs)]
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in [head] + body
    ]
    return "\n".join(lines)


def render_pda(pda: Pda, row_labels=None, col_labels=None, corner: str = "") -> str:
    cells = pda.relabel([*map(str, pda.labels()), "*"])
    if row_labels is None:
        row_labels = [str(j) for j in range(1, pda.num_rows + 1)]
    if col_labels is None:
        col_labels = [str(k) for k in range(1, pda.num_cols + 1)]
    return render_table(col_labels, row_labels, cells, corner)


def render_scheme_delivery(scheme) -> str:
    if "design" in scheme.topology:
        row_label, col_label, corner = design_row_label, point_block_label, "D,T"
    else:
        row_label, col_label, corner = oa_row_label, group_block_label, "j,T"
    return render_pda(
        scheme.user_delivery,
        row_labels=[row_label(l) for l in scheme.row_labels],
        col_labels=[col_label(b) for b in scheme.user_blocks],
        corner=corner,
    )
