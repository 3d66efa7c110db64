"""Deterministic CSV emission: header row mandatory, '.' decimals, floats in
shortest round-trip form, so identical data gives identical bytes."""

from __future__ import annotations

import csv


def format_cell(x) -> str:
    if hasattr(x, "item"):  # a numpy scalar, np.float64 (a float) included
        return format_cell(x.item())
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: str, header: list[str], rows: list[list]) -> str:
    """Write the table to `path`, whose directory must exist."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(x) for x in row])
    return path
