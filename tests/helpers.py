"""Shared test helpers."""

import numpy as np


def read_table(path) -> np.ndarray:
    """Load a delimited-text table back into a float array."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
