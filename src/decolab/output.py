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

# rows formatted per string operation by write_table; bounds the text held
# in memory at once
BLOCK_ROWS = 4096


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


def write_table(path: Path, meta: dict, columns: list[str], rows, fmt: str) -> None:
    """Write one table of float columns in the requested format.

    delimited-text: '#' key = value header lines, then bare comma-separated
    rows (numpy.loadtxt-friendly).  structured-text: [meta] and [data]
    sections with one indexed key per row.  Data with no values, such as an
    empty list, is a table of no rows.

    Rows are formatted BLOCK_ROWS at a time, each block by one `%`
    operation: "%.16e" and format_float's f-string share CPython's double
    formatter, so the bytes are those of format_float, number by number.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if not rows.size:
        rows = rows.reshape(0, len(columns))
    if rows.shape[1] != len(columns):
        raise ValueError(f"{rows.shape[1]} columns of data for {len(columns)} names")
    line = ",".join(["%.16e"] * len(columns)) + "\n"
    if fmt == DELIMITED:
        header = [f"# {key} = {value}" for key, value in meta.items()]
        header.append(f"# columns = {','.join(columns)}")
    elif fmt == STRUCTURED:
        header = ["[meta]", *(f"{key} = {value}" for key, value in meta.items())]
        header += [f"columns = {','.join(columns)}", f"rows = {rows.shape[0]}", "[data]"]
        line = "r%d = " + line
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header) + "\n")
        for start in range(0, rows.shape[0], BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            if fmt == STRUCTURED:  # the row index rides along as a leading column, for "%d"
                block = np.column_stack([np.arange(start, start + block.shape[0]), block])
            handle.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def write_sections(path: Path, sections: dict) -> None:
    """Write a key-value document with [section] headers (reports, summaries)."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
