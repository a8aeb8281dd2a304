"""ASCII, markdown and HTML rendering of experiment results.

``repro-alloc reproduce`` prints the ASCII tables, so the regenerated
figures can be read off the console (or ``figures/*.txt``, their committed
full-scale text) directly; the values are the same series the paper plots
as bar charts (Figures 8-10, 14-15) and box plots (11-13).  The
``repro-alloc report`` subcommand additionally renders the same data as
markdown or a standalone HTML page per figure.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List, Mapping, Sequence

from repro.experiments.stats import DistributionSummary


def _format_cell(value: float, width: int = 8) -> str:
    """Format a numeric cell (NaN prints as '-')."""
    if value != value:  # NaN
        return "-".rjust(width)
    return f"{value:.3f}".rjust(width)


def render_table(
    rows: Mapping[str, Mapping],
    columns: Sequence,
    row_header: str = "allocator",
    column_format=str,
) -> str:
    """Render a nested mapping ``rows[row][column] -> value`` as a table."""
    column_labels = [column_format(c) for c in columns]
    width = max([len(row_header)] + [len(str(r)) for r in rows])
    header = str(row_header).ljust(width) + " | " + " ".join(label.rjust(8) for label in column_labels)
    separator = "-" * len(header)
    lines = [header, separator]
    for row_name, row in rows.items():
        cells = " ".join(_format_cell(row.get(column, float("nan"))) for column in columns)
        lines.append(str(row_name).ljust(width) + " | " + cells)
    return "\n".join(lines)


def render_distribution_table(
    table: Mapping[str, Mapping[int, DistributionSummary]],
    register_counts: Sequence[int],
) -> str:
    """Render distribution summaries as ``median [p25, p75] (max)`` cells."""
    width = max(len("allocator"), max((len(str(a)) for a in table), default=0))
    header = (
        "allocator".ljust(width)
        + " | "
        + " ".join(f"{count:>24}" for count in register_counts)
    )
    lines = [header, "-" * len(header)]
    for allocator, by_count in table.items():
        cells = []
        for count in register_counts:
            summary = by_count.get(count)
            if summary is None or summary.count == 0:
                cells.append("-".rjust(24))
            else:
                cells.append(
                    f"{summary.median:.2f} [{summary.p25:.2f},{summary.p75:.2f}] <{summary.maximum:.2f}".rjust(24)
                )
        lines.append(str(allocator).ljust(width) + " | " + " ".join(cells))
    return "\n".join(lines)


def render_figure(title: str, body: str) -> str:
    """Wrap a rendered table with a titled banner."""
    banner = "=" * max(len(title), 20)
    return f"{banner}\n{title}\n{banner}\n{body}\n"


def render_key_values(values: Dict[str, float]) -> str:
    """Render a flat mapping of named scalars."""
    width = max((len(k) for k in values), default=0)
    return "\n".join(f"{key.ljust(width)} : {value}" for key, value in values.items())


def render_cache_split(manifest) -> str:
    """Per-allocator store cache hit/miss table of one :class:`RunManifest`.

    Manifests written before ``cache_by_allocator`` existed render a single
    line falling back to the run-level totals.
    """
    split = getattr(manifest, "cache_by_allocator", None) or {}
    if not split:
        return (
            f"cache split unavailable (pre-split manifest): "
            f"{manifest.cells_cached}/{manifest.cells_total} cells cached"
        )
    width = max(len("allocator"), max(len(name) for name in split))
    header = f"{'allocator'.ljust(width)} | {'hit':>6} {'miss':>6} {'rate':>6}"
    lines = [header, "-" * len(header)]
    for name in sorted(split):
        hits = int(split[name].get("hit", 0))
        misses = int(split[name].get("miss", 0))
        total = hits + misses
        rate = hits / total if total else 1.0
        lines.append(f"{name.ljust(width)} | {hits:>6d} {misses:>6d} {rate:>6.3f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# markdown / HTML reports
# ---------------------------------------------------------------------- #
def _ordered_columns(rows: Mapping[str, Mapping]) -> List:
    """Union of the inner-mapping keys, in first-appearance order."""
    columns: List = []
    for row in rows.values():
        for column in row:
            if column not in columns:
                columns.append(column)
    return columns


def _column_label(column) -> str:
    """Integer columns are register counts; label them ``R=<n>``."""
    return f"R={column}" if isinstance(column, int) else str(column)


def _figure_table_cells(result) -> "tuple[List[str], List[List[str]]] | None":
    """Flatten a :class:`FigureResult` into header + string rows, if tabular.

    Mean-cost figures carry ``series[row][column] -> float``; distribution
    figures carry ``distributions[allocator][R] -> DistributionSummary``
    (rendered as ``median [p25, p75] <max>``).  Irregular results (the
    companion studies) return ``None`` and fall back to the ASCII rendering.
    """
    if result.distributions:
        rows = result.distributions
        columns = _ordered_columns(rows)
        header = ["allocator"] + [_column_label(c) for c in columns]
        body = []
        for name, by_column in rows.items():
            cells = [str(name)]
            for column in columns:
                summary = by_column.get(column)
                if summary is None or summary.count == 0:
                    cells.append("-")
                else:
                    cells.append(
                        f"{summary.median:.3f} [{summary.p25:.3f}, {summary.p75:.3f}] <{summary.maximum:.3f}"
                    )
            body.append(cells)
        return header, body
    if result.series and all(
        isinstance(row, Mapping) and all(isinstance(v, (int, float)) for v in row.values())
        for row in result.series.values()
    ):
        rows = result.series
        columns = _ordered_columns(rows)
        header = [""] + [_column_label(c) for c in columns]
        body = []
        for name, row in rows.items():
            cells = [str(name)]
            for column in columns:
                value = row.get(column, float("nan"))
                cells.append("-" if value != value else f"{value:.3f}")
            body.append(cells)
        return header, body
    return None


def render_markdown_report(result) -> str:
    """Render a :class:`~repro.experiments.figures.FigureResult` as markdown."""
    lines = [f"# {result.title}", ""]
    table = _figure_table_cells(result)
    if table is None:
        lines += ["```", result.rendered.rstrip("\n"), "```"]
    else:
        header, body = table
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join([" --- "] * len(header)) + "|")
        for cells in body:
            lines.append("| " + " | ".join(cells) + " |")
    if result.unbounded_records:
        lines += ["", f"*Excluded {result.unbounded_records} unbounded record(s) "
                      "(heuristic spilled although the optimum did not).*"]
    lines += ["", f"*Records: {len(result.records)}.*", ""]
    return "\n".join(lines)


def render_html_report(result) -> str:
    """Render a :class:`~repro.experiments.figures.FigureResult` as a standalone HTML page."""
    title = _html.escape(result.title)
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{title}</title>",
        "<style>table{border-collapse:collapse}th,td{border:1px solid #999;"
        "padding:4px 8px;text-align:right}th:first-child,td:first-child{text-align:left}</style>",
        "</head><body>",
        f"<h1>{title}</h1>",
    ]
    table = _figure_table_cells(result)
    if table is None:
        parts.append(f"<pre>{_html.escape(result.rendered)}</pre>")
    else:
        header, body = table
        parts.append("<table>")
        parts.append("<tr>" + "".join(f"<th>{_html.escape(c)}</th>" for c in header) + "</tr>")
        for cells in body:
            parts.append("<tr>" + "".join(f"<td>{_html.escape(c)}</td>" for c in cells) + "</tr>")
        parts.append("</table>")
    if result.unbounded_records:
        parts.append(
            f"<p><em>Excluded {result.unbounded_records} unbounded record(s).</em></p>"
        )
    parts.append(f"<p><em>Records: {len(result.records)}.</em></p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
