"""Shared test helpers."""

import numpy as np


def read_table(path) -> np.ndarray:
    """Load a delimited-text table back into a float array."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def reference_float(x: float) -> str:
    """The per-number formatter tables were once written with, kept as the
    reference for output.write_table's block formatting."""
    return f"{float(x):.16e}"


def reference_table_text(meta: dict, columns: list, rows, fmt: str) -> str:
    """The text of a table as the per-row, per-number writer produced it;
    rows must have shape (n, len(columns))."""
    rows = np.asarray(rows, dtype=float)
    assert rows.ndim == 2 and rows.shape[1] == len(columns)
    cells = [",".join(reference_float(v) for v in row) for row in rows]
    if fmt == "delimited-text":
        lines = [f"# {key} = {value}" for key, value in meta.items()]
        lines.append(f"# columns = {','.join(columns)}")
        lines += cells
    else:
        lines = ["[meta]", *(f"{key} = {value}" for key, value in meta.items())]
        lines += [f"columns = {','.join(columns)}", f"rows = {len(cells)}", "[data]"]
        lines += [f"r{i} = {cell}" for i, cell in enumerate(cells)]
    return "\n".join(lines) + "\n"
