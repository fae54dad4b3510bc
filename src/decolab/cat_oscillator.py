"""Cat states in a harmonic well: periodic fringe collapse and revival.

For two coherent-state packets separated by d in an oscillator of frequency
omega, thermal contact attenuates the fringes by

    a(t) = exp[ -m omega d^2 cos^2(omega t) / (2 hbar sinh(hbar omega / k T)) ]

The cos^2 makes the loss periodic: a returns to exactly 1 whenever
cos(omega t) = 0, i.e. at t_n = (2n+1) pi / 2 omega, and touches its floor
at multiples of pi/omega, exp(-K) with K = `exponent_prefactor`.  Near a
revival and at high temperature the decay reduces to the free-particle
Gaussian law, a = exp(`cat_free.log_attenuation_high_t`), at the
ground-state width sigma^2 = hbar / 2 m omega.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NATURAL,
    PhysicalConstants,
    RegimeBreakdownError,
    fail_closed,
    float_map,
    require_finite,
    require_non_negative,
    require_positive,
)


@dataclass(frozen=True)
class OscillatorSpec:
    """Harmonic trap parameters plus bath temperature.

    temperature must be positive: the thermal occupation factor the decay
    law divides by vanishes at T = 0, so that limit is rejected rather
    than silently returning a(t) = 1.
    """

    mass: float
    omega: float
    d: float
    temperature: float

    def __post_init__(self):
        require_finite(self)
        require_positive("mass", self.mass)
        require_positive("omega", self.omega)
        require_non_negative("separation d", self.d)
        if self.temperature <= 0:
            raise ValueError(
                f"temperature must be positive, got {self.temperature} "
                "(the T = 0 limit of the decay law is singular)"
            )


def _inverse_sinh(x: float) -> float:
    # 1/sinh(x) = 2 e^-x / (1 - e^-2x); stable for any x > 0, no overflow
    require_positive("hbar omega / kT", x)
    return 2.0 * math.exp(-x) / (-math.expm1(-2.0 * x))


@fail_closed
def attenuation_oscillator(
    spec: OscillatorSpec, t: float | np.ndarray, constants: PhysicalConstants = NATURAL
):
    """Periodic attenuation factor a(t); equals 1 exactly at revivals.

    t may be a float or an array of times; an array gives, bit for bit,
    what a loop of scalar calls would (cos and exp run per sample).
    RegimeBreakdownError names the first t where omega t overflows.
    """
    x = constants.hbar * spec.omega / (constants.k_boltzmann * spec.temperature)
    with np.errstate(over="ignore"):
        wt = spec.omega * t
    if not np.all(np.isfinite(wt)):
        t_bad = float(np.ravel(t)[np.argmin(np.isfinite(np.ravel(wt)))])
        raise RegimeBreakdownError(f"omega t overflows at t = {t_bad:g} (omega = {spec.omega:g})")
    cos_wt = float_map(math.cos, wt)
    expo = (
        -spec.mass * spec.omega * spec.d ** 2 * cos_wt * cos_wt
        / (2.0 * constants.hbar)
        * _inverse_sinh(x)
    )
    return float_map(math.exp, expo)


def exponent_prefactor(spec: OscillatorSpec, constants: PhysicalConstants = NATURAL) -> float:
    """K = m omega d^2 / (2 hbar sinh(hbar omega / k T)), so a(t) = exp(-K cos^2(omega t))
    and the floor of the cycle is exp(-K), where cos^2(omega t) = 1 (t = 0, pi/omega, ...)."""
    x = constants.hbar * spec.omega / (constants.k_boltzmann * spec.temperature)
    return spec.mass * spec.omega * spec.d ** 2 / (2.0 * constants.hbar) * _inverse_sinh(x)


def revival_times(spec: OscillatorSpec, n_max: int) -> np.ndarray:
    """First n_max times (2n+1) pi / 2 omega at which the fringes fully revive."""
    require_non_negative("n_max", n_max)
    quarter_period = math.pi / spec.omega
    return (np.arange(n_max) + 0.5) * quarter_period
