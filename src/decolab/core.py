"""Shared parameter records, unit handling, and characteristic scales.

The formulas in this package are unit-blind: every function that needs
hbar or k_B takes a PhysicalConstants record holding their values.  NATURAL
(hbar = k_B = 1, the default) and CGS are built here, and UNIT_SYSTEMS
names them for a config's unit_system; any other system is
PhysicalConstants(hbar, k_boltzmann).
"""

import functools
import itertools
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


def require_positive(name: str, value) -> None:
    """Raise ValueError "<name> must be positive, got <value>" if value <= 0;
    a NaN passes, as every comparison with it is False."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def require_non_negative(name: str, value) -> None:
    """Raise ValueError "<name> must be non-negative, got <value>" if value < 0;
    a NaN passes."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class PhysicalConstants:
    """The values of hbar and Boltzmann's constant in one unit system."""

    hbar: float
    k_boltzmann: float

    def __post_init__(self):
        if self.hbar <= 0 or self.k_boltzmann <= 0:
            raise ValueError("hbar and k_boltzmann must be positive")


NATURAL = PhysicalConstants(1.0, 1.0)
CGS = PhysicalConstants(HBAR_CGS, KB_CGS)
UNIT_SYSTEMS = {"natural": NATURAL, "cgs": CGS}  # a config's unit_system names one


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
        require_positive("mass", self.mass)
        require_positive("sigma", self.sigma)
        require_non_negative("separation d", self.d)
        if self.d * self.d == math.inf:
            raise ValueError(f"separation d = {self.d:g} overflows when squared")


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
        require_non_negative("gamma", self.gamma)
        require_non_negative("temperature", self.temperature)
        if self.zeta is not None:
            require_non_negative("zeta", self.zeta)

    def zeta_for(self, mass: float) -> float:
        """Coupling strength zeta = gamma * mass unless set explicitly."""
        if self.zeta is not None:
            return self.zeta
        return self.gamma * mass


def fail_closed(law):
    """Wrap law so that it raises RegimeBreakdownError, naming the law, where
    its float arithmetic leaves the representable range: an OverflowError or
    ZeroDivisionError from Python floats, or a NaN or infinite result."""

    @functools.wraps(law)
    def checked(*args, **kwargs):
        try:
            result = law(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise RegimeBreakdownError(f"{law.__name__} left the float range ({exc})") from None
        if not np.all(np.isfinite(result)):
            raise RegimeBreakdownError(f"{law.__name__} left the float range (a non-finite value)")
        return result

    return checked


@fail_closed
def thermal_de_broglie(mass: float, temperature: float, constants: PhysicalConstants = NATURAL) -> float:
    """Thermal de Broglie wavelength hbar / sqrt(m k T).

    Sets the length scale below which a thermal environment resolves
    spatial separations.  For a 1 g mass at room temperature it is of
    order 5e-21 cm, which is why macroscopic superpositions lose
    interference essentially instantly.
    """
    require_positive("mass", mass)
    require_positive("temperature", temperature)
    return constants.hbar / math.sqrt(mass * constants.k_boltzmann * temperature)


@fail_closed
def classicality_ratio(temperature: float, gamma: float, constants: PhysicalConstants = NATURAL) -> float:
    """Dimensionless ratio k T / (hbar gamma) separating thermal and damping scales.

    Large values mean thermal fluctuations dominate dissipation, the
    regime where decoherence is fast compared with relaxation.  Evaluated
    exactly; in CGS, k/hbar is about 1.31e11 per second per kelvin, so
    quick estimates that round this to 1e11 are ~30% low.
    """
    require_positive("temperature", temperature)
    require_positive("gamma", gamma)
    return constants.k_boltzmann * temperature / (constants.hbar * gamma)


FLOAT_MAP_CHUNK = 8192


def float_map(fn, x):
    """fn applied to each element of x as a Python float, so that an array
    rounds exactly as a loop of scalar calls does (math.exp, math.cos and
    float ** round differently from their numpy counterparts on some
    inputs).  A float in gives a float out; an array keeps its shape.

    The elements go through fn in chunks of FLOAT_MAP_CHUNK (8,192) values,
    so only one chunk at a time exists as Python floats (about 32 bytes per
    value, 0.26 MB per chunk) beside the 8-byte-per-value result; the whole
    array as a list would cost four times the result.  A non-contiguous x
    is first copied, 8 bytes per value.  An exception from fn propagates
    unchanged, raised at the same element as by a plain loop.
    """
    if np.ndim(x) == 0:
        return fn(float(x))
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    chunks = (flat[i:i + FLOAT_MAP_CHUNK].tolist() for i in range(0, flat.size, FLOAT_MAP_CHUNK))
    values = itertools.chain.from_iterable(map(fn, chunk) for chunk in chunks)
    return np.fromiter(values, float, count=flat.size).reshape(x.shape)


def warn_regime(message: str) -> None:
    # stacklevel=3: point at the physics-function caller, not this helper
    warnings.warn(RegimeValidityWarning(message), stacklevel=3)
