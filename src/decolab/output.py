"""Deterministic text serialization for curves, fields, and reports.

Identical inputs must produce byte-identical files: floats are always
written with 17 significant digits, metadata carries a hash of the run
configuration instead of timestamps, and ordering is fixed everywhere.
"""

import hashlib
from pathlib import Path

import numpy as np

DELIMITED = "delimited-text"
STRUCTURED = "structured-text"
FORMATS = (DELIMITED, STRUCTURED)


def format_float(x: float) -> str:
    """17 significant digits, enough to round-trip any double exactly."""
    return f"{float(x):.16e}"


def config_hash(text: str) -> str:
    """Stable identity of a run configuration: sha256 of its text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def data_extension(fmt: str) -> str:
    if fmt == DELIMITED:
        return ".csv"
    if fmt == STRUCTURED:
        return ".txt"
    raise ValueError(f"unknown format {fmt!r}")


def _format_row(row) -> str:
    return ",".join(format_float(v) for v in row)


def write_table(path: Path, meta: dict, columns: list[str], rows, fmt: str) -> None:
    """Write one table of float columns in the requested format.

    delimited-text: '#' key = value header lines, then bare comma-separated
    rows (numpy.loadtxt-friendly).  structured-text: [meta] and [data]
    sections with one indexed key per row.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size and rows.shape[1] != len(columns):
        raise ValueError(f"{rows.shape[1]} columns of data for {len(columns)} names")
    lines = []
    if fmt == DELIMITED:
        for key, value in meta.items():
            lines.append(f"# {key} = {value}")
        lines.append(f"# columns = {','.join(columns)}")
        for row in rows:
            lines.append(_format_row(row))
    elif fmt == STRUCTURED:
        lines.append("[meta]")
        for key, value in meta.items():
            lines.append(f"{key} = {value}")
        lines.append(f"columns = {','.join(columns)}")
        lines.append(f"rows = {rows.shape[0] if rows.size else 0}")
        lines.append("[data]")
        for i, row in enumerate(rows):
            lines.append(f"r{i} = {_format_row(row)}")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sections(path: Path, sections: dict) -> None:
    """Write a key-value document with [section] headers (reports, summaries)."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
