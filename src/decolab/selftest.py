"""Built-in oracle battery behind `decolab selftest`.

Exercises the numerical workhorses against problems with known answers and
the closed-form physics against its independent recovery routes.  The
normalization, ratio-identity and Lindblad-vs-Bloch checks call the same
deviation functions, with the same tolerances, as `run --verify`, here on
seeded random cases.  Each check reports its worst deviation and
tolerance; the CLI prints one line per check and exits nonzero if any
fails.  Worst deviations are taken with np.max, which keeps a NaN where
Python's max can drop it, so a NaN deviation fails its check.
"""

import math

import numpy as np

from . import cat_free, oracle, spin_bloch
from .core import NATURAL, CatSpec, Check
from .runner import (
    LINDBLAD_TOL,
    NORMALIZATION_TOL,
    RATIO_TOL,
    lindblad_bloch_deviation,
    normalization_deviation,
    ratio_identity_deviation,
)
from .spin_bloch import SpinBathSpec


def _quadrature_polynomial() -> Check:
    res = oracle.integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-12)
    return Check("quadrature_polynomial", abs(res.value - 1.0 / 3.0), 1e-12)


def _quadrature_gaussian() -> Check:
    res = oracle.integrate_adaptive(
        lambda x: cat_free.single_packet_prob(1.7, x), -13.5, 13.5, tol=1e-10
    )
    return Check("quadrature_gaussian", abs(res.value - 1.0), 1e-8)


def _quadrature_odd() -> Check:
    res = oracle.integrate_adaptive(lambda x: x ** 3 * math.exp(x * x), -1.0, 1.0, tol=1e-11)
    return Check("quadrature_odd", abs(res.value), 1e-10)


def _decay_error(dt: float) -> float:
    """|y(1) - 1/e| for RK4 on y' = -y from y(0) = 1 with step dt."""
    traj = oracle.integrate_rk4(lambda t, y: -y, 1.0, 1.0, dt)
    return abs(float(traj.states[-1]) - math.exp(-1.0))


def _rk4_exponential() -> Check:
    return Check("rk4_exponential", _decay_error(1e-3), 1e-10)


def _rk4_order() -> Check:
    ratio = _decay_error(0.1) / _decay_error(0.05)
    # fourth order: halving the step should cut the error ~16x
    dev = 0.0 if 12.0 <= ratio <= 20.0 else min(abs(ratio - 12.0), abs(ratio - 20.0))
    return Check("rk4_order", dev, 0.0)


def _rk4_no_coupling() -> Check:
    rho0 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    traj = oracle.integrate_rk4(lambda t, y: np.zeros_like(y), rho0, 1.0, 0.01)
    return Check(
        "rk4_no_coupling", float(np.max(np.abs(traj.states[-1] - rho0))), 1e-14
    )


_SPIN = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.0 / (2.0 * math.log(3.0)))


def _random_polarizations(seed: int, count: int):
    """Seeded vectors drawn from the cube, pulled just inside the unit ball."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.uniform(-1.0, 1.0, 3)
        n = np.linalg.norm(p)
        if n > 1.0:
            p /= n * 1.0001
        yield p


def _lindblad_fixed_point() -> Check:
    p0 = spin_bloch.equilibrium_polarization(_SPIN)
    rho_eq = spin_bloch.density_from_polarization([0.0, 0.0, p0])
    rhs = oracle.lindblad_rhs(_SPIN, rho_eq)
    return Check("lindblad_fixed_point", float(np.max(np.abs(rhs))), 1e-14)


def _lindblad_traceless() -> Check:
    gaps = []
    for p in _random_polarizations(7, 10):
        rhs = oracle.lindblad_rhs(_SPIN, spin_bloch.density_from_polarization(p))
        gaps.append(abs(complex(rhs[0, 0] + rhs[1, 1])))
    return Check("lindblad_traceless", float(np.max(gaps)), 1e-14)


def _lindblad_vs_bloch() -> Check:
    t1, _ = spin_bloch.relaxation_times(_SPIN)
    gaps = [
        lindblad_bloch_deviation(_SPIN, p, 5.0 * t1, t1 / 200.0)
        for p in _random_polarizations(11, 5)
    ]
    return Check("lindblad_vs_bloch", float(np.max(gaps)), LINDBLAD_TOL)


def _trace_preservation() -> Check:
    t1, _ = spin_bloch.relaxation_times(_SPIN)
    traj = oracle.integrate_lindblad(
        _SPIN, spin_bloch.density_from_polarization([0.4, -0.3, 0.5]), 5.0 * t1, t1 / 200.0
    )
    gap = (traj.states[:, 0, 0] + traj.states[:, 1, 1]) - 1.0
    # np.hypot rounds as the scalar abs() of a complex does; np.abs does not
    return Check("trace_preservation", float(np.max(np.hypot(gap.real, gap.imag))), 1e-10)


def _detailed_balance() -> Check:
    """The oracle's up/down rate ratio against exp(-hbar omega/kT) (relative)
    and P0 against -tanh(hbar omega/2kT), both computed here from the spec,
    at _SPIN and at hbar omega/kT = 0.8.  The rates are the real population
    entries of the generator applied to each pure level."""
    gaps = []
    for spec in (_SPIN, SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.25)):
        x = NATURAL.hbar * spec.omega / (NATURAL.k_boltzmann * spec.temperature)
        up = oracle.lindblad_rhs(spec, np.diag([0.0, 1.0]))[0, 0].real
        down = oracle.lindblad_rhs(spec, np.diag([1.0, 0.0]))[1, 1].real
        gaps.append(abs(up / down - math.exp(-x)) / math.exp(-x))
        gaps.append(abs(spin_bloch.equilibrium_polarization(spec) + math.tanh(0.5 * x)))
    return Check("detailed_balance", float(np.max(gaps)), 1e-12)


def _random_cats(seed: int, count: int):
    """Seeded (spec, kinematics, t) cases in a hot, weakly damped ohmic bath."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec = CatSpec(
            mass=rng.uniform(0.5, 2.0),
            sigma=rng.uniform(0.7, 1.5),
            d=rng.uniform(0.0, 5.0),
        )
        kin = cat_free.ohmic_high_t_kinematics(spec.mass, rng.uniform(0.5, 4.0), 0.01)
        yield spec, kin, rng.uniform(0.0, 1.0)


def _ratio_identity() -> Check:
    gaps = [ratio_identity_deviation(spec, kin, t) for spec, kin, t in _random_cats(13, 8)]
    return Check("attenuation_ratio_identity", float(np.max(gaps)), RATIO_TOL)


def _normalization() -> Check:
    gaps = [
        normalization_deviation(spec, cat_free.cat_pointwise(spec, kin, t))
        for spec, kin, t in _random_cats(17, 4)
    ]
    return Check("cat_normalization", float(np.max(gaps)), NORMALIZATION_TOL)


_CHECKS = (
    _quadrature_polynomial,
    _quadrature_gaussian,
    _quadrature_odd,
    _rk4_exponential,
    _rk4_order,
    _rk4_no_coupling,
    _lindblad_fixed_point,
    _lindblad_traceless,
    _lindblad_vs_bloch,
    _trace_preservation,
    _ratio_identity,
    _normalization,
    _detailed_balance,
)


def run_selftest() -> list:
    """Run every check; deterministic (fixed seeds throughout)."""
    return [check() for check in _CHECKS]
