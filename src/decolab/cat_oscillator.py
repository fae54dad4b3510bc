"""Cat states in a harmonic well: periodic fringe collapse and revival.

For two coherent-state packets separated by d in an oscillator of frequency
omega, thermal contact attenuates the fringes by

    a(t) = exp[ -m omega d^2 cos^2(omega t) / (2 hbar sinh(hbar omega / k T)) ]

The cos^2 makes the loss periodic: a returns to exactly 1 whenever
cos(omega t) = 0, i.e. at t_n = (2n+1) pi / 2 omega, and touches its floor
at multiples of pi/omega.  Near a revival and at high temperature the decay
reduces to the free-particle Gaussian law, which this module can check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import NATURAL, CatSpec, PhysicalConstants, float_map, require_finite
from .cat_free import attenuation_high_t, high_t_decoherence_time


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
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.d < 0:
            raise ValueError(f"separation d must be non-negative, got {self.d}")
        if self.temperature <= 0:
            raise ValueError(
                f"temperature must be positive, got {self.temperature} "
                "(the T = 0 limit of the decay law is singular)"
            )


def coherent_width(spec: OscillatorSpec, constants: PhysicalConstants = NATURAL) -> float:
    """Ground-state packet width sigma = sqrt(hbar / 2 m omega)."""
    return math.sqrt(constants.hbar / (2.0 * spec.mass * spec.omega))


def _inverse_sinh(x: float) -> float:
    # 1/sinh(x) = 2 e^-x / (1 - e^-2x); stable for any x > 0, no overflow
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    return 2.0 * math.exp(-x) / (-math.expm1(-2.0 * x))


def attenuation_oscillator(
    spec: OscillatorSpec, t: float | np.ndarray, constants: PhysicalConstants = NATURAL
):
    """Periodic attenuation factor a(t); equals 1 exactly at revivals.

    t may be a float or an array of times; an array gives, bit for bit,
    what a loop of scalar calls would (cos and exp run per sample).
    """
    x = constants.hbar * spec.omega / (constants.k_boltzmann * spec.temperature)
    cos_wt = float_map(math.cos, spec.omega * t)
    expo = (
        -spec.mass * spec.omega * spec.d ** 2 * cos_wt * cos_wt
        / (2.0 * constants.hbar)
        * _inverse_sinh(x)
    )
    return float_map(math.exp, expo)


def minimum_attenuation(spec: OscillatorSpec, constants: PhysicalConstants = NATURAL) -> float:
    """Floor of the cycle, reached where cos^2(omega t) = 1 (t = 0, pi/omega, ...)."""
    x = constants.hbar * spec.omega / (constants.k_boltzmann * spec.temperature)
    return math.exp(
        -spec.mass * spec.omega * spec.d ** 2 / (2.0 * constants.hbar) * _inverse_sinh(x)
    )


def revival_times(spec: OscillatorSpec, n_max: int) -> np.ndarray:
    """First n_max times (2n+1) pi / 2 omega at which the fringes fully revive."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    quarter_period = math.pi / spec.omega
    return (np.arange(n_max) + 0.5) * quarter_period


@dataclass(frozen=True)
class FreeParticleLimitReport:
    """Comparison of the oscillator decay near its first revival with the
    free-particle high-temperature law at matched packet width."""

    delta_t: np.ndarray
    oscillator: np.ndarray
    free_particle: np.ndarray
    relative_difference: np.ndarray
    max_relative_difference: float
    classicality: float          # k T / hbar omega
    max_omega_delta_t: float
    regime_ok: bool
    notes: tuple[str, ...]


# validated envelope for the reduction: high temperature, small phase excursion
_MIN_CLASSICALITY = 1e3
_MAX_PHASE = 1e-2


def free_particle_limit_check(
    spec: OscillatorSpec,
    delta_t_grid: np.ndarray,
    constants: PhysicalConstants = NATURAL,
) -> FreeParticleLimitReport:
    """Evaluate a(t0 + dt) against exp(-(dt/tau_d)^2) around t0 = pi/2 omega.

    The free-particle law is evaluated with the packet width locked to the
    oscillator ground state, sigma^2 = hbar / 2 m omega.  Agreement is only
    expected for k T / hbar omega >= 1e3 and omega dt <= 1e-2; outside that
    envelope the report flags regime_ok = False and explains why.
    """
    delta_t = np.asarray(delta_t_grid, dtype=float)
    if delta_t.ndim != 1 or delta_t.size == 0:
        raise ValueError("delta_t_grid must be a non-empty 1-d array")
    t0 = math.pi / (2.0 * spec.omega)
    cat = CatSpec(mass=spec.mass, sigma=coherent_width(spec, constants), d=spec.d)

    osc = attenuation_oscillator(spec, t0 + delta_t, constants)
    free = attenuation_high_t(cat, spec.temperature, delta_t, constants)
    # an underflowed reference leaves the comparison meaningless, not small
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(free > 0.0, np.abs(osc - free) / free, np.inf)

    classicality = (
        constants.k_boltzmann * spec.temperature / (constants.hbar * spec.omega)
    )
    max_phase = float(np.max(np.abs(delta_t))) * spec.omega
    notes = []
    if classicality < _MIN_CLASSICALITY:
        notes.append(
            f"kT/(hbar omega) = {classicality:.3g} below {_MIN_CLASSICALITY:g}; "
            "the free-particle reduction is not expected to hold"
        )
    if max_phase > _MAX_PHASE:
        notes.append(
            f"max omega dt = {max_phase:.3g} above {_MAX_PHASE:g}; "
            "the expansion around the revival is not controlled"
        )
    return FreeParticleLimitReport(
        delta_t=delta_t,
        oscillator=osc,
        free_particle=free,
        relative_difference=rel,
        max_relative_difference=float(np.max(rel)),
        classicality=classicality,
        max_omega_delta_t=max_phase,
        regime_ok=not notes,
        notes=tuple(notes),
    )


def matched_decoherence_time(
    spec: OscillatorSpec, constants: PhysicalConstants = NATURAL
) -> float:
    """tau_d of the matched free-particle law (width locked to the ground state)."""
    cat = CatSpec(mass=spec.mass, sigma=coherent_width(spec, constants), d=spec.d)
    return high_t_decoherence_time(cat, spec.temperature, constants)
