"""Independent numerical checks for the closed-form results.

Two deliberately simple workhorses live here: an adaptive Simpson quadrature
(for normalization and overlap integrals) and a fixed-step fourth-order
Runge-Kutta integrator (for driving the raw two-level master equation).
Neither shares any code with the analytic formulas they are used to verify,
which is the point: agreement between the two routes is the evidence.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import NATURAL, ConvergenceError, PhysicalConstants
from .spin_bloch import SIGMA_MINUS, SIGMA_PLUS, check_density_matrix, nbar

EVALUATION_BUDGET = 10_000_000


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> QuadratureResult:
    """Adaptive-Simpson integral of f over [a, b].

    Classic interval bisection: each panel is accepted once the Richardson
    error estimate |S_fine - S_coarse|/15 drops below its share of the
    tolerance, and the extrapolated value is accumulated.  Raises
    ConvergenceError if the global evaluation budget (1e7 calls) runs out.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    evals = 0

    def call(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > EVALUATION_BUDGET:
            raise ConvergenceError(
                f"quadrature exhausted its budget of {EVALUATION_BUDGET} evaluations"
            )
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"integrand returned non-finite value {y!r} at x = {x!r}")
        return y

    def simpson(fa: float, fm: float, fb: float, width: float) -> float:
        return width / 6.0 * (fa + 4.0 * fm + fb)

    m = 0.5 * (a + b)
    fa, fm, fb = call(a), call(m), call(b)
    whole = simpson(fa, fm, fb, b - a)

    total = 0.0
    err_total = 0.0
    # stack of (a, b, fa, fm, fb, coarse_estimate, panel_tolerance, depth);
    # panels are only accepted beyond depth 2 so an accidentally small
    # coarse/fine agreement on an unresolved oscillation cannot slip through
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, b0, fa, fm, fb, coarse, panel_tol, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = call(lm), call(rm)
        half = 0.5 * (b0 - a0)
        left = simpson(fa, flm, fm, half)
        right = simpson(fm, frm, fb, half)
        delta = left + right - coarse
        if depth >= 2 and abs(delta) <= panel_tol:
            total += left + right + delta / 15.0
            # conservative: the Richardson step leaves far less than |delta|
            err_total += abs(delta)
        else:
            stack.append((a0, m0, fa, flm, fm, left, 0.5 * panel_tol, depth + 1))
            stack.append((m0, b0, fm, frm, fb, right, 0.5 * panel_tol, depth + 1))
    return QuadratureResult(value=total, error_estimate=err_total, evaluations=evals)


def _dissipator(jump: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """2 L rho L+ - L+L rho - rho L+L for the jump operator L."""
    dagger = jump.conj().T
    decay = dagger @ jump
    return 2.0 * (jump @ rho @ dagger) - decay @ rho - rho @ decay


def _rates(spec, constants: PhysicalConstants) -> tuple[float, float]:
    """(down, up): the prefactors (gamma/2)(1 + nbar) and (gamma/2) nbar."""
    n = nbar(spec.omega, spec.temperature, constants)
    return 0.5 * spec.gamma * (1.0 + n), 0.5 * spec.gamma * n


def lindblad_rhs(spec, rho: np.ndarray, constants: PhysicalConstants = NATURAL) -> np.ndarray:
    """Raw master-equation generator for the damped two-level system.

        drho/dt = (gamma/2)(1 + nbar)(2 s- rho s+ - s+ s- rho - rho s+ s-)
                + (gamma/2) nbar    (2 s+ rho s- - s- s+ rho - rho s- s+)

    Built literally from the ladder-operator products so it stays an
    independent route to the Bloch solution, not a restatement of it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"rho must be 2x2, got shape {rho.shape}")
    down, up = _rates(spec, constants)
    return down * _dissipator(SIGMA_MINUS, rho) + up * _dissipator(SIGMA_PLUS, rho)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record: times, states (one per step), step size."""

    times: np.ndarray
    states: np.ndarray
    step: float


# bound used when sanity-checking states produced by integration
_TRAJECTORY_TOL = 1e-8


def _check_trajectory(states: np.ndarray) -> None:
    check_density_matrix(
        states, trace_tol=_TRAJECTORY_TOL, herm_tol=_TRAJECTORY_TOL, eigen_tol=_TRAJECTORY_TOL
    )


def integrate_rk4(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    initial,
    t_end: float,
    dt: float,
    check: Callable[[np.ndarray], None] | str | None = "auto",
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step.

    Parameters
    ----------
    rhs : callable
        Right side f(t, y); y may be any numpy-compatible array (complex
        2x2 density matrices and real Bloch 3-vectors both work).
    initial : array-like
        State at t = 0.
    t_end, dt : float
        Integration horizon and step; a shorter final step covers any
        remainder when dt does not divide t_end.
    check : callable, "auto", or None
        Trajectory validator, called once after the last step with the
        stacked states (shape (steps + 1,) + initial shape).  The default
        "auto" applies density-matrix bounds (tolerance 1e-8) to every
        state when the state is a complex 2x2 matrix, so a too-large step
        surfaces as an invariant violation instead of silently producing
        garbage.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if t_end > 0 and dt > t_end:
        raise ValueError(f"dt = {dt} exceeds t_end = {t_end}")

    y = np.array(initial, dtype=complex if np.iscomplexobj(initial) else float)
    if check == "auto":
        check = _check_trajectory if y.shape == (2, 2) and np.iscomplexobj(y) else None

    times = [0.0]
    states = [y.copy()]
    t = 0.0
    while t < t_end - 1e-12 * max(t_end, 1.0):
        h = min(dt, t_end - t)
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        states.append(y.copy())
    states = np.array(states)
    if check is not None:
        check(states)
    return Trajectory(times=np.array(times), states=states, step=dt)


def integrate_lindblad(
    spec,
    rho0: np.ndarray,
    t_end: float,
    dt: float,
    constants: PhysicalConstants = NATURAL,
) -> Trajectory:
    """Drive the raw master equation from rho0 by RK4 and check the trajectory.

    The generator acts on vec(rho) as down * D + up * U, with the 4x4
    superoperators D and U built by applying the ladder-operator
    dissipators of `lindblad_rhs` to the basis matrices.  Every row of D
    and U has one nonzero entry, +-1 or +-2, so the matrix-vector product
    is exact under any summation order and each step rounds exactly as RK4
    on `lindblad_rhs` does.  The states are checked against the
    density-matrix bounds (tolerance 1e-8) once, after the last step.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError(f"rho0 must be 2x2, got shape {rho0.shape}")
    down, up = _rates(spec, constants)
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    # rows 0-3: D = decay by s-, rows 4-7: U = excitation by s+
    ops = np.vstack([
        np.column_stack([_dissipator(jump, e).ravel() for e in basis])
        for jump in (SIGMA_MINUS, SIGMA_PLUS)
    ])

    def rhs(t, v):
        w = ops @ v
        return down * w[:4] + up * w[4:]

    traj = integrate_rk4(rhs, rho0.ravel(), t_end, dt, check=None)
    states = traj.states.reshape(-1, 2, 2)
    _check_trajectory(states)
    return Trajectory(times=traj.times, states=states, step=dt)


def lindblad_bloch_deviation(
    spec,
    initial_polarization,
    t_end: float,
    dt: float,
    constants: PhysicalConstants = NATURAL,
) -> float:
    """Max entrywise gap between the integrated master equation and the
    closed-form Bloch solution, over every recorded sample (NaN if any
    gap is NaN)."""
    from .spin_bloch import bloch_evolve, density_from_polarization

    p0 = np.asarray(initial_polarization, dtype=float)
    traj = integrate_lindblad(spec, density_from_polarization(p0), t_end, dt, constants)
    gap = density_from_polarization(bloch_evolve(spec, p0, traj.times, constants))
    gap -= traj.states
    return float(np.max(np.abs(gap)))
