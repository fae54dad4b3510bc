"""Two-level system damped by a thermal bath: Bloch relaxation in closed form.

Worked in the interaction picture with pure damping (no coherent precession
term), so the polarization components decay independently:

    dP_x,y/dt = -(gamma/2)(2 nbar + 1) P_x,y
    dP_z/dt   = -gamma (2 nbar + 1) P_z - gamma

Longitudinal relaxation runs at 1/T1 = gamma (2 nbar + 1) toward the thermal
polarization P0 = -1/(2 nbar + 1) = -tanh(hbar omega / 2 k T); transverse
coherences decay at half that rate, T2 = 2 T1, with no extra dephasing
channel in this model.  The density matrix is rho = (1 + P . sigma)/2 in the
basis where the upper level is index 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NATURAL,
    PhysicalConstants,
    StateInvariantError,
    fail_closed,
    float_map,
    require_finite,
    require_non_negative,
    require_positive,
)

_DENSITY_TOL = 1e-8  # trace, hermiticity and eigenvalue bound of check_density_matrix


@dataclass(frozen=True)
class SpinBathSpec:
    """Damping rate gamma, level splitting omega, bath temperature.

    g_n and mu0 (g-factor and magneton) only give the saturation
    magnetization m0 written to equilibrium.txt, and may be left unset.
    """

    gamma: float
    omega: float
    temperature: float
    g_n: float | None = None
    mu0: float | None = None

    def __post_init__(self):
        require_finite(self)
        require_positive("gamma", self.gamma)
        require_positive("omega", self.omega)
        require_non_negative("temperature", self.temperature)


def nbar(omega: float, temperature: float, constants: PhysicalConstants = NATURAL) -> float:
    """Thermal occupation [exp(hbar omega / k T) - 1]^-1; exactly 0 at T = 0."""
    require_positive("omega", omega)
    require_non_negative("temperature", temperature)
    if temperature == 0.0:
        return 0.0
    x = constants.hbar * omega / (constants.k_boltzmann * temperature)
    # e^-x / (1 - e^-x): stable for x tiny and x huge alike
    return math.exp(-x) / (-math.expm1(-x))


def equilibrium_polarization(spec: SpinBathSpec, constants: PhysicalConstants = NATURAL) -> float:
    """Thermal P0 = -1/(2 nbar + 1); equals -tanh(hbar omega / 2 k T)."""
    return -1.0 / (2.0 * nbar(spec.omega, spec.temperature, constants) + 1.0)


@fail_closed
def relaxation_times(spec: SpinBathSpec, constants: PhysicalConstants = NATURAL) -> tuple[float, float]:
    """(T1, T2) with 1/T1 = gamma (2 nbar + 1) and T2 = 2 T1.

    At T = 0 this leaves T1 = 1/gamma, the spontaneous-decay value; heating
    the bath only ever shortens both times.
    """
    t1 = 1.0 / (spec.gamma * (2.0 * nbar(spec.omega, spec.temperature, constants) + 1.0))
    return t1, 2.0 * t1


@fail_closed
def bloch_evolve(spec: SpinBathSpec, initial, t, constants: PhysicalConstants = NATURAL) -> np.ndarray:
    """Closed-form polarization at time t from the given initial vector.

        P_z(t)    = P0 + (P_z(0) - P0) exp(-t/T1)
        P_x,y(t)  = P_x,y(0) exp(-t/T2)

    t may be a float, giving shape (3,), or an array of times, giving one
    row per time, shape t.shape + (3,).  Every exponential is math.exp of
    the same float quotient, so a row equals the scalar call at its time.
    A negative or NaN time raises ValueError.
    """
    p0vec = np.asarray(initial, dtype=float)
    if p0vec.shape != (3,):
        raise ValueError(f"initial must have shape (3,), got {p0vec.shape}")
    times = np.asarray(t, dtype=float)
    if not np.all(times >= 0):
        raise ValueError(f"t must be non-negative, got {float(np.min(times))}")
    p_eq = equilibrium_polarization(spec, constants)
    t1, t2 = relaxation_times(spec, constants)
    # math.exp, not np.exp: the two round differently on a few percent of
    # float64 inputs, and the written trajectories are pinned bit for bit
    decay2 = float_map(math.exp, -times / t2)
    decay1 = float_map(math.exp, -times / t1)
    return np.stack([
        p0vec[0] * decay2,
        p0vec[1] * decay2,
        p_eq + (p0vec[2] - p_eq) * decay1,
    ], axis=-1)


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise StateInvariantError unless rho is a valid 2x2 density matrix.

    rho may also be a stack of shape (..., 2, 2), such as a trajectory;
    then every matrix in it must pass.  Checks, each to within 1e-8, unit
    trace, hermiticity, and that both eigenvalues lie in [0, 1] (closed
    form for a 2x2 Hermitian matrix; no linear-algebra machinery needed).
    Each deviation is tested as `not (deviation <= 1e-8)`, so a NaN fails it.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise StateInvariantError(f"density matrix must be 2x2, got shape {rho.shape}")
    a, b, c, d = rho[..., 0, 0], rho[..., 0, 1], rho[..., 1, 0], rho[..., 1, 1]
    trace_dev = np.max(np.abs(a + d - 1.0))
    if not trace_dev <= _DENSITY_TOL:
        raise StateInvariantError(f"trace deviates from 1 by {trace_dev:.3e}")
    herm = np.max([
        np.max(np.abs(b - np.conj(c))), np.max(np.abs(a.imag)), np.max(np.abs(d.imag))
    ])
    if not herm <= _DENSITY_TOL:
        raise StateInvariantError(f"hermiticity violated by {herm:.3e}")
    mean = 0.5 * (a.real + d.real)
    radius = np.sqrt((0.5 * (a.real - d.real)) ** 2 + np.abs(b) ** 2)
    lo, hi = np.min(mean - radius), np.max(mean + radius)
    if not (lo >= -_DENSITY_TOL and hi <= 1.0 + _DENSITY_TOL):
        raise StateInvariantError(
            f"eigenvalues [{lo:.6g}, {hi:.6g}] outside [0, 1] beyond tolerance"
        )


def density_from_polarization(state) -> np.ndarray:
    """rho = (1 + P . sigma)/2 as an explicit 2x2 complex matrix.

    Diagonal entries are (1 +/- P_z)/2; the off-diagonals are P_-/2 and
    P_+/2 with P_+- = P_x +/- i P_y (no constant offset enters them).
    A stack of vectors, shape (..., 3), gives a stack of matrices,
    shape (..., 2, 2).  A vector longer than 1, or with a NaN component,
    raises StateInvariantError.
    """
    p = np.asarray(state, dtype=float)
    if p.shape[-1:] != (3,):
        raise ValueError(f"state must have shape (3,) or (..., 3), got {p.shape}")
    norm = np.sqrt(np.max(np.einsum("...i,...i->...", p, p)))
    if not norm <= 1.0 + 1e-10:
        raise StateInvariantError(f"|P| = {norm:.12g} exceeds 1")
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    rho = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5 * (1.0 + pz)
    rho[..., 0, 1] = 0.5 * (px - 1.0j * py)
    rho[..., 1, 0] = 0.5 * (px + 1.0j * py)
    rho[..., 1, 1] = 0.5 * (1.0 - pz)
    return rho


def saturation_magnetization(spec: SpinBathSpec, constants: PhysicalConstants = NATURAL) -> float:
    """Equilibrium M_z reached from any initial state: -mu0 (g_n/2) P0."""
    missing = [name for name in ("g_n", "mu0") if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"magnetization needs magnetic parameters; missing {', '.join(missing)}")
    return -spec.mu0 * spec.g_n / 2.0 * equilibrium_polarization(spec, constants)
