"""Shared test helpers."""

import numpy as np

from decolab.core import NATURAL
from decolab.spin_bloch import nbar


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


def bloch_rhs(spec, state, constants=NATURAL) -> np.ndarray:
    """(dP_x, dP_y, dP_z)/dt of the damped Bloch equations in spin_bloch's
    docstring: the rate equations the closed form and RK4 are held to."""
    p = np.asarray(state, dtype=float)
    rate = spec.gamma * (2.0 * nbar(spec.omega, spec.temperature, constants) + 1.0)
    return np.array([-0.5 * rate * p[0], -0.5 * rate * p[1], -rate * p[2] - spec.gamma])


def reference_steps(t_end: float, dt: float) -> tuple[list, list]:
    """(step sizes, times) of the loop RK4 once stepped with, kept as the
    reference for oracle._step_plan."""
    steps, times = [], [0.0]
    t, stop = 0.0, t_end - 1e-12 * max(t_end, 1.0)
    while t < stop:
        h = min(dt, t_end - t)
        t += h
        steps.append(h)
        times.append(t)
    return steps, times
