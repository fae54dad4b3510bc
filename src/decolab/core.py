"""Shared parameter records, unit handling, and characteristic scales.

All formulas in this package are written for either natural units
(hbar = k_B = 1, the default) or CGS units.  A PhysicalConstants record
selects between the two; every function that needs hbar or k_B takes one.
"""

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

KB_CGS = 1.380649e-16                      # erg/K
HBAR_CGS = 6.62607015e-27 / (2.0 * math.pi)  # erg s


class RegimeBreakdownError(ValueError):
    """A closed-form expression was evaluated where it stops being well defined."""


class StateInvariantError(ValueError):
    """A density matrix or polarization vector violated its defining bounds."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine exhausted its evaluation budget."""


class ConfigError(ValueError):
    """A run configuration failed to parse or validate."""


class RegimeValidityWarning(UserWarning):
    """A formula was evaluated outside the regime it was derived for.

    These warn rather than fail: probing the edge of a regime is a
    legitimate use, but the result should not be trusted blindly.
    """


@dataclass(frozen=True)
class Check:
    """A cross-check's worst deviation and its bound; a NaN deviation fails."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def require_finite(record) -> None:
    """Raise ValueError naming the first field of a spec record that is set but not finite."""
    for item in fields(record):
        value = getattr(record, item.name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{item.name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit-system selector carrying hbar and Boltzmann's constant."""

    hbar: float
    k_boltzmann: float
    unit_system: str

    def __post_init__(self):
        if self.unit_system not in ("natural", "cgs"):
            raise ValueError(f"unit_system must be 'natural' or 'cgs', got {self.unit_system!r}")
        if self.hbar <= 0 or self.k_boltzmann <= 0:
            raise ValueError("hbar and k_boltzmann must be positive")
        if self.unit_system == "natural" and (self.hbar != 1.0 or self.k_boltzmann != 1.0):
            raise ValueError("natural units require hbar = k_boltzmann = 1")

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        return cls(1.0, 1.0, "natural")

    @classmethod
    def cgs(cls) -> "PhysicalConstants":
        return cls(HBAR_CGS, KB_CGS, "cgs")


NATURAL = PhysicalConstants.natural()
CGS = PhysicalConstants.cgs()


@dataclass(frozen=True)
class CatSpec:
    """Two-Gaussian superposition: packet width sigma, center separation d.

    Each packet has initial variance sigma**2; the centers sit at +/- d/2.
    """

    mass: float
    sigma: float
    d: float

    def __post_init__(self):
        require_finite(self)
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.d < 0:
            raise ValueError(f"separation d must be non-negative, got {self.d}")


@dataclass(frozen=True)
class ReservoirSpec:
    """Ohmic-bath parameters: relaxation rate gamma, temperature, coupling zeta.

    zeta defaults to gamma * mass; pass it explicitly only to override.
    """

    gamma: float
    temperature: float
    zeta: float | None = None

    def __post_init__(self):
        require_finite(self)
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be non-negative, got {self.temperature}")
        if self.zeta is not None and self.zeta < 0:
            raise ValueError(f"zeta must be non-negative, got {self.zeta}")

    def zeta_for(self, mass: float) -> float:
        """Coupling strength zeta = gamma * mass unless set explicitly."""
        if self.zeta is not None:
            return self.zeta
        return self.gamma * mass


def thermal_de_broglie(mass: float, temperature: float, constants: PhysicalConstants = NATURAL) -> float:
    """Thermal de Broglie wavelength hbar / sqrt(m k T).

    Sets the length scale below which a thermal environment resolves
    spatial separations.  For a 1 g mass at room temperature it is of
    order 5e-21 cm, which is why macroscopic superpositions lose
    interference essentially instantly.
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return constants.hbar / math.sqrt(mass * constants.k_boltzmann * temperature)


def classicality_ratio(temperature: float, gamma: float, constants: PhysicalConstants = NATURAL) -> float:
    """Dimensionless ratio k T / (hbar gamma) separating thermal and damping scales.

    Large values mean thermal fluctuations dominate dissipation, the
    regime where decoherence is fast compared with relaxation.  Evaluated
    exactly; in CGS, k/hbar is about 1.31e11 per second per kelvin, so
    quick estimates that round this to 1e11 are ~30% low.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return constants.k_boltzmann * temperature / (constants.hbar * gamma)


def float_map(fn, x):
    """fn applied to each element of x as a Python float, so that an array
    rounds exactly as a loop of scalar calls does (math.exp, math.cos and
    float ** round differently from their numpy counterparts on some
    inputs).  A float in gives a float out; an array keeps its shape."""
    if np.ndim(x) == 0:
        return fn(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def warn_regime(message: str) -> None:
    # stacklevel=3: point at the physics-function caller, not this helper
    warnings.warn(RegimeValidityWarning(message), stacklevel=3)
