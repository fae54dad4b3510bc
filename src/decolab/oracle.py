"""Independent numerical checks for the closed-form results.

Two deliberately simple workhorses live here: an adaptive Simpson quadrature
(for normalization and overlap integrals) and a fixed-step fourth-order
Runge-Kutta integrator.  Agreement of two routes is evidence only if they
share no code, and one link remains: the master equation's rates read
`spin_bloch.nbar`, as the Bloch law does, so an error there reaches both.
selftest's `detailed_balance` holds those rates to exp(-hbar omega/kT),
computed without `nbar`; `check_density_matrix`, the other import from
`spin_bloch`, bounds states and computes no law.  The quadrature stops at
EVALUATION_BUDGET evaluations and RK4 at STEP_BUDGET steps.

The raw two-level master equation is driven by its own RK4 loop on Python
floats, one recurrence per real component of vec(rho), because numpy call
overhead on 4-element arrays would dominate it.  Every product in the
generator is a real rate times an entry and every sum is entrywise, so real
and imaginary parts never mix, and each recurrence rounds exactly as
`integrate_rk4` on `lindblad_rhs` does, up to the sign of a zero; see
`integrate_lindblad`.
"""

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import NATURAL, ConvergenceError, PhysicalConstants, require_non_negative, require_positive
from .spin_bloch import check_density_matrix, nbar

EVALUATION_BUDGET = 10_000_000
STEP_BUDGET = 1_000_000  # RK4 steps one integrator call may take

# ladder operators in the basis where the upper level is index 0
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


def _nonfinite(xs, ys) -> ValueError:
    x, y = next((x, y) for x, y in zip(xs, ys) if not math.isfinite(y))
    return ValueError(f"integrand returned non-finite value {y!r} at x = {x!r}")


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> QuadratureResult:
    """Adaptive-Simpson integral of f over [a, b].

    Classic interval bisection: each panel is accepted once the Richardson
    error estimate |S_fine - S_coarse|/15 drops below its share of the
    tolerance, and the extrapolated value is accumulated.  `evaluations` is
    3 (a, midpoint, b) plus 2 per panel examined (its quarter points).
    Raises ValueError at a non-finite value, and ConvergenceError before
    the evaluations would pass the global budget (1e7 calls).
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    require_positive("tolerance", tol)
    exhausted = f"quadrature exhausted its budget of {EVALUATION_BUDGET} evaluations"
    evals = 3
    if evals > EVALUATION_BUDGET:
        raise ConvergenceError(exhausted)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise _nonfinite((a, m, b), (fa, fm, fb))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    total = 0.0
    err_total = 0.0
    # stack of (a, b, fa, fm, fb, coarse_estimate, panel_tolerance, depth);
    # panels are only accepted beyond depth 2 so an accidentally small
    # coarse/fine agreement on an unresolved oscillation cannot slip through
    stack = [(a, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        if evals + 2 > EVALUATION_BUDGET:
            raise ConvergenceError(exhausted)
        evals += 2
        a0, b0, fa, fm, fb, coarse, panel_tol, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        if not (math.isfinite(flm) and math.isfinite(frm)):
            raise _nonfinite((lm, rm), (flm, frm))
        sixth = 0.5 * (b0 - a0) / 6.0  # Simpson's width / 6 for each half
        left = sixth * (fa + 4.0 * flm + fm)
        right = sixth * (fm + 4.0 * frm + fb)
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
    """Fixed-step integration record: times and states, one per step."""

    times: np.ndarray
    states: np.ndarray


def _step_plan(t_end: float, dt: float) -> tuple[int, tuple, np.ndarray]:
    """RK4's steps to t_end, (n, tail, times): n steps of dt, then in `tail`
    a short step t_end - t if t is still below t_end less 1e-12 max(t_end, 1),
    the margin for round-off in the sum.  times are 0 and t after each step,
    summed left to right by np.cumsum, so each equals `t += h` bit for bit.
    A horizon of more than STEP_BUDGET steps raises ConvergenceError before
    any array is built."""
    require_positive("dt", dt)
    require_non_negative("t_end", t_end)
    if t_end > 0 and dt > t_end:
        raise ValueError(f"dt = {dt} exceeds t_end = {t_end}")
    if t_end / dt > STEP_BUDGET:
        raise ConvergenceError(
            f"t_end = {t_end:g} in steps of dt = {dt:g} takes {t_end / dt:.4g} RK4 steps, "
            f"above the budget of {STEP_BUDGET}"
        )
    stop = t_end - 1e-12 * max(t_end, 1.0)
    times = np.cumsum(np.concatenate(([0.0], np.full(int(t_end / dt) + 2, dt))))
    n = np.count_nonzero((times < stop) & (t_end - times >= dt))  # steps of min(dt, t_end - t)
    tail = (t_end - float(times[n]),) if times[n] < stop else ()
    times[n + 1:n + 1 + len(tail)] = [times[n] + h for h in tail]
    return n, tail, times[:n + 1 + len(tail)]


def integrate_rk4(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    initial,
    t_end: float,
    dt: float,
) -> Trajectory:
    """Classical fourth-order Runge-Kutta with a fixed step.

    It checks no invariant of the state; `integrate_lindblad` holds its
    own density matrices to their bounds.

    Parameters
    ----------
    rhs : callable
        Right side f(t, y); y may be any numpy-compatible array (complex
        2x2 density matrices and real Bloch 3-vectors both work).
    initial : array-like
        State at t = 0.
    t_end, dt : float
        Integration horizon and step; `_step_plan` sets the steps, at most
        STEP_BUDGET of them.
    """
    n, tail, times = _step_plan(t_end, dt)
    y = np.array(initial, dtype=complex if np.iscomplexobj(initial) else float)
    states = [y.copy()]
    for t, h in zip(times.tolist(), itertools.chain(itertools.repeat(dt, n), tail)):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y.copy())
    return Trajectory(times=times, states=np.array(states))


def _superoperator(jump: np.ndarray) -> np.ndarray:
    """4x4 matrix of the dissipator of `jump` acting on vec(rho) (row-major)."""
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return np.column_stack([_dissipator(jump, e).ravel() for e in basis])


def _kernel_coefficients(down_op: np.ndarray, up_op: np.ndarray) -> tuple[float, ...]:
    """(a0, b0, a1, b1, a2, b2) = D[0,0], U[0,3], D[1,1], U[1,1], D[2,2], U[2,2],
    the entries of D and U that `integrate_lindblad` reads.

    Raises ValueError naming the first row at which D or U differs from the
    form the kernel steps: those entries, each kept only if real and in
    +-1, +-2, zeros elsewhere, and row 3 row 0 negated.
    """
    tables = np.array([down_op, up_op], dtype=complex)
    at = ((0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 2, 2), (0, 3, 1, 1, 2, 2))
    read = tables[at]
    form = np.zeros_like(tables)
    form[at] = np.where(np.isin(read, (-2.0, -1.0, 1.0, 2.0)), read, 0.0)
    form[:, 3] = -form[:, 0]
    rows = np.flatnonzero(np.any(tables != form, axis=(0, 2)))
    if rows.size:
        raise ValueError(
            f"superoperator row {rows[0]} is D {tables[0, rows[0]]}, U {tables[1, rows[0]]}; "
            f"the scalar kernel needs D {form[0, rows[0]].real}, U {form[1, rows[0]].real}"
        )
    return tuple(read.real.tolist())


@functools.cache
def _lindblad_coefficients() -> tuple[float, ...]:
    """`_kernel_coefficients` of the SIGMA_MINUS and SIGMA_PLUS tables, built
    and checked on the first call; they depend on no input."""
    return _kernel_coefficients(_superoperator(SIGMA_MINUS), _superoperator(SIGMA_PLUS))


def _population_run(y0: float, y3: float, d: float, u: float, steps) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on a real part of (rho00, rho11): row 0 is d*y0 + u*y3, row 3 minus it."""
    out0, out3 = array("d", [y0]), array("d", [y3])
    for h, half, sixth in steps:
        p = d * y0 + u * y3
        q = d * (y0 + half * p) + u * (y3 - half * p)
        r = d * (y0 + half * q) + u * (y3 - half * q)
        s = d * (y0 + h * r) + u * (y3 - h * r)
        k = sixth * (((p + 2.0 * q) + 2.0 * r) + s)
        y0, y3 = y0 + k, y3 - k
        out0.append(y0)
        out3.append(y3)
    return np.frombuffer(out0), np.frombuffer(out3)


def _coherence_run(y: float, d: float, u: float, steps) -> np.ndarray:
    """RK4 on one real component of a coherence, whose row is d*y + u*y."""
    out = array("d", [y])
    for h, half, sixth in steps:
        p = d * y + u * y
        v = y + half * p
        q = d * v + u * v
        v = y + half * q
        r = d * v + u * v
        v = y + h * r
        y = y + sixth * (((p + 2.0 * q) + 2.0 * r) + (d * v + u * v))
        out.append(y)
    return np.frombuffer(out)


def integrate_lindblad(
    spec, rho0: np.ndarray, t_end: float, dt: float, constants: PhysicalConstants = NATURAL
) -> Trajectory:
    """Drive the raw master equation from rho0 by RK4 and check the trajectory.

    The generator acts on vec(rho) as down * D + up * U, D and U the
    superoperators of `lindblad_rhs`'s dissipators.  `_kernel_coefficients`
    checks that they hold only the six entries the kernel reads, each 0,
    +-1 or +-2, plus row 3 = -row 0.  Those entries are folded into the rates,
    (c*down)*v for down*(c*v), both one rounding of one product, and row 3
    takes row 0's increments negated (round-to-nearest is symmetric).
    Every product is a real rate times an entry, which numpy rounds
    component by component, and every sum is entrywise, so RK4 runs as
    float recurrences with `integrate_rk4`'s stage order: the real and the
    imaginary population pair, and one per real component of rho01 and of
    rho10 (rho0 need not be Hermitian).  Each state equals RK4 on
    `lindblad_rhs` bit for bit, up to the sign of a zero.  A zero start
    stays zero, and the map is odd, so only each distinct nonzero
    (|start|, rates) is stepped.  rho0 and then every state are held to
    `check_density_matrix`'s bound (1e-8).  A horizon that needs more than
    STEP_BUDGET (10^6) steps raises ConvergenceError (`_step_plan`); a
    trajectory peaks at about 105 bytes per step.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError(f"rho0 must be 2x2, got shape {rho0.shape}")
    n, tail, times = _step_plan(t_end, dt)
    check_density_matrix(rho0)
    down, up = _rates(spec, constants)
    d0, u0, d1, u1, d2, u2 = (c * r for c, r in zip(_lindblad_coefficients(), (down, up) * 3))
    full, last = (dt, 0.5 * dt, dt / 6.0), [(h, 0.5 * h, h / 6.0) for h in tail]

    def steps():
        return itertools.chain(itertools.repeat(full, n), last)

    states = np.zeros((len(times), 4), dtype=complex)  # vec(rho) of each state
    runs = {}
    for part, start in ((states.real, rho0.real.ravel()), (states.imag, rho0.imag.ravel())):
        y0, y1, y2, y3 = start.tolist()
        if y0 or y3:
            part[:, 0], part[:, 3] = _population_run(y0, y3, d0, u0, steps())
        for column, y, d, u in ((1, y1, d1, u1), (2, y2, d2, u2)):
            if y:
                if (key := (abs(y), d, u)) not in runs:
                    runs[key] = _coherence_run(abs(y), d, u, steps())
                part[:, column] = runs[key] if y > 0 else -runs[key]
    states = states.reshape(-1, 2, 2)
    del runs  # copied into states: freed before the check's temporaries
    check_density_matrix(states)
    return Trajectory(times=times, states=states)
