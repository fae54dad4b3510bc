"""Built-in oracle battery behind `decolab selftest`.

Exercises the numerical workhorses against problems with known answers and
the closed-form physics against its independent recovery routes.  Each
check reports its worst deviation and tolerance; the CLI prints one line
per check and exits nonzero if any fails.  Worst deviations are taken with
np.max, which keeps a NaN where Python's max can drop it, so a NaN
deviation fails its check.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cat_free, oracle, spin_bloch
from .core import NATURAL, CatSpec
from .spin_bloch import IDENTITY2, PAULI_Z, SpinBathSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _quadrature_polynomial() -> CheckResult:
    res = oracle.integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-12)
    return CheckResult("quadrature_polynomial", abs(res.value - 1.0 / 3.0), 1e-12)


def _quadrature_gaussian() -> CheckResult:
    res = oracle.integrate_adaptive(
        lambda x: cat_free.single_packet_prob(1.7, x), -13.5, 13.5, tol=1e-10
    )
    return CheckResult("quadrature_gaussian", abs(res.value - 1.0), 1e-8)


def _quadrature_odd() -> CheckResult:
    res = oracle.integrate_adaptive(lambda x: x ** 3 * math.exp(x * x), -1.0, 1.0, tol=1e-11)
    return CheckResult("quadrature_odd", abs(res.value), 1e-10)


def _rk4_exponential() -> CheckResult:
    traj = oracle.integrate_rk4(lambda t, y: -y, 1.0, 1.0, 1e-3)
    return CheckResult("rk4_exponential", abs(float(traj.states[-1]) - math.exp(-1.0)), 1e-10)


def _rk4_order() -> CheckResult:
    def err(dt):
        traj = oracle.integrate_rk4(lambda t, y: -y, 1.0, 1.0, dt)
        return abs(float(traj.states[-1]) - math.exp(-1.0))

    ratio = err(0.1) / err(0.05)
    # fourth order: halving the step should cut the error ~16x
    dev = 0.0 if 12.0 <= ratio <= 20.0 else min(abs(ratio - 12.0), abs(ratio - 20.0))
    return CheckResult("rk4_order", dev, 0.0)


def _rk4_no_coupling() -> CheckResult:
    rho0 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]], dtype=complex)
    traj = oracle.integrate_rk4(lambda t, y: np.zeros_like(y), rho0, 1.0, 0.01)
    return CheckResult(
        "rk4_no_coupling", float(np.max(np.abs(traj.states[-1] - rho0))), 1e-14
    )


_SPIN = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.0 / (2.0 * math.log(3.0)))


def _lindblad_fixed_point() -> CheckResult:
    p0 = spin_bloch.equilibrium_polarization(_SPIN)
    rho_eq = 0.5 * (IDENTITY2 + p0 * PAULI_Z)
    rhs = oracle.lindblad_rhs(_SPIN, rho_eq)
    return CheckResult("lindblad_fixed_point", float(np.max(np.abs(rhs))), 1e-14)


def _lindblad_traceless() -> CheckResult:
    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, 3)
        n = np.linalg.norm(p)
        if n > 1.0:
            p /= n * 1.0001
        rhs = oracle.lindblad_rhs(_SPIN, spin_bloch.density_from_polarization(p))
        gaps.append(abs(complex(rhs[0, 0] + rhs[1, 1])))
    return CheckResult("lindblad_traceless", float(np.max(gaps)), 1e-14)


def _lindblad_vs_bloch() -> CheckResult:
    rng = np.random.default_rng(11)
    t1, _ = spin_bloch.relaxation_times(_SPIN)
    gaps = []
    for _ in range(5):
        p = rng.uniform(-1.0, 1.0, 3)
        n = np.linalg.norm(p)
        if n > 1.0:
            p /= n * 1.0001
        gaps.append(oracle.lindblad_bloch_deviation(_SPIN, p, 5.0 * t1, t1 / 200.0))
    return CheckResult("lindblad_vs_bloch", float(np.max(gaps)), 1e-6)


def _trace_preservation() -> CheckResult:
    t1, _ = spin_bloch.relaxation_times(_SPIN)
    traj = oracle.integrate_lindblad(
        _SPIN, spin_bloch.density_from_polarization([0.4, -0.3, 0.5]), 5.0 * t1, t1 / 200.0
    )
    worst = float(np.max([abs(complex(s[0, 0] + s[1, 1]) - 1.0) for s in traj.states]))
    return CheckResult("trace_preservation", worst, 1e-10)


def _ratio_identity() -> CheckResult:
    rng = np.random.default_rng(13)
    gaps = []
    for _ in range(8):
        spec = CatSpec(
            mass=rng.uniform(0.5, 2.0),
            sigma=rng.uniform(0.7, 1.5),
            d=rng.uniform(0.0, 5.0),
        )
        kin = cat_free.ohmic_high_t_kinematics(spec.mass, rng.uniform(0.5, 4.0), 0.01)
        t = rng.uniform(0.0, 1.0)
        field = cat_free.cat_probability(spec, kin, t)
        recovered = cat_free.attenuation_from_field(field).value
        exact = cat_free.attenuation_exact(spec, kin, t)
        gaps.append(abs(recovered - exact) / exact)
    return CheckResult("attenuation_ratio_identity", float(np.max(gaps)), 1e-10)


def _normalization() -> CheckResult:
    rng = np.random.default_rng(17)
    gaps = []
    for _ in range(4):
        spec = CatSpec(
            mass=rng.uniform(0.5, 2.0),
            sigma=rng.uniform(0.7, 1.5),
            d=rng.uniform(0.0, 5.0),
        )
        kin = cat_free.ohmic_high_t_kinematics(spec.mass, rng.uniform(0.5, 4.0), 0.01)
        t = rng.uniform(0.0, 1.0)
        pw = cat_free.cat_pointwise(spec, kin, t)
        half = spec.d / 2.0 + 10.0 * math.sqrt(pw.w2)
        res = oracle.integrate_adaptive(pw.total, -half, half, tol=1e-9)
        gaps.append(abs(res.value - 1.0))
    return CheckResult("cat_normalization", float(np.max(gaps)), 1e-6)


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
)


def run_selftest() -> list:
    """Run every check; deterministic (fixed seeds throughout)."""
    return [check() for check in _CHECKS]
