"""Plain-text table rendering for arrays and schemes.

Cells are padded to column width and joined with two spaces; lines carry no
trailing whitespace.  Labels mirror the source tables: user columns read
U_124 (point blocks) or U_11,21 (group blocks), rows read {3},{1,2} for
(subset, positions) labels and (3,{1,2}) for (OA row, positions) labels.
"""

from __future__ import annotations

from .pda import CountedVectorId, Pda


def subset_str(elements) -> str:
    return "{" + ",".join(str(x) for x in elements) + "}"


def point_block_label(block) -> str:
    if all(x <= 9 for x in block):
        return "U_" + "".join(str(x) for x in block)
    return "U_" + subset_str(block)


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


def pda_cell_strings(pda: Pda) -> list:
    show_copy = any(
        isinstance(i, CountedVectorId) and i.copy > 1 for i in pda.ids
    )
    return pda.relabel([
        *(i.display(show_copy) if isinstance(i, CountedVectorId) else str(i) for i in pda.ids),
        "*",
    ])


def render_pda(pda: Pda, row_labels=None, col_labels=None, corner: str = "") -> str:
    cells = pda_cell_strings(pda)
    if row_labels is None:
        row_labels = [str(j) for j in range(1, pda.num_rows + 1)]
    if col_labels is None:
        col_labels = [str(k) for k in range(1, pda.num_cols + 1)]
    return render_table(col_labels, row_labels, cells, corner)


def render_design_scheme_delivery(scheme) -> str:
    return render_pda(
        scheme.user_delivery,
        row_labels=[design_row_label(l) for l in scheme.row_labels],
        col_labels=[point_block_label(b) for b in scheme.user_blocks],
        corner="D,T",
    )


def render_gdd_scheme_delivery(scheme) -> str:
    return render_pda(
        scheme.user_delivery,
        row_labels=[oa_row_label(l) for l in scheme.row_labels],
        col_labels=[group_block_label(b) for b in scheme.user_blocks],
        corner="j,T",
    )


def render_scheme_delivery(scheme) -> str:
    from .scheme_design import DesignCachingScheme

    if isinstance(scheme, DesignCachingScheme):
        return render_design_scheme_delivery(scheme)
    return render_gdd_scheme_delivery(scheme)
