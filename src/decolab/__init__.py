"""decolab: closed-form decoherence models with built-in numerical verification.

Three model families share a small core:

- cat_free: two-Gaussian superpositions of a free particle, their
  interference term, and the attenuation laws for Ohmic reservoirs.
- cat_oscillator: the same superposition in a harmonic well, where the
  attenuation is periodic and fully revives twice per cycle.
- spin_bloch: a damped two-level system and its Bloch relaxation in
  closed form.

The oracle module carries the independent numerics used to cross-check
the closed forms: adaptive quadrature, fixed-step RK4, and the raw
two-level master equation the Bloch solution must agree with.  The CLI
exposes runs, regime comparisons, and a selftest battery.
"""

from .core import (
    CGS,
    NATURAL,
    CatSpec,
    ConfigError,
    ConvergenceError,
    PhysicalConstants,
    RegimeBreakdownError,
    RegimeValidityWarning,
    ReservoirSpec,
    StateInvariantError,
    classicality_ratio,
    thermal_de_broglie,
)
from .cat_free import (
    CatField,
    ReservoirKinematics,
    attenuation_from_field,
    cat_probability,
    free_kinematics,
    high_t_decoherence_time,
    log_attenuation_decoupled_high_t,
    log_attenuation_exact,
    log_attenuation_from_terms,
    log_attenuation_high_t,
    log_attenuation_low_t,
    low_t_time_constant,
    normalization_constant,
    ohmic_high_t_kinematics,
    packet_variance,
    single_packet_prob,
)
from .cat_oscillator import (
    OscillatorSpec,
    attenuation_oscillator,
    revival_times,
)
from .spin_bloch import (
    SpinBathSpec,
    bloch_evolve,
    density_from_polarization,
    equilibrium_polarization,
    nbar,
    relaxation_times,
)
from .oracle import (
    QuadratureResult,
    Trajectory,
    integrate_adaptive,
    integrate_lindblad,
    integrate_rk4,
    lindblad_rhs,
)
from .config import RunConfig, load_config, parse_config
from .runner import RunReport, compare_regimes, run

__version__ = "0.1.0"
