"""Free-particle cat states: two Gaussian packets and their interference term.

The probability density of the superposition is

    P(x,t) = N^2 [ P0(x-d/2,t) + P0(x+d/2,t)
                   + 2 exp(-d^2/8w^2) a(t) P0(x,t) cos(theta) ]

with P0 a normalized Gaussian of variance w^2(t), N the overlap-corrected
normalization, theta = c(t) x d / (4 sigma^2 w^2) a position-dependent phase,
and a(t) the attenuation factor that multiplies the interference fringe.
Everything an environment does to the fringes enters through two kinematic
functions of the reservoir model: the commutator magnitude c(t) (where
[x(0), x(t)] = i c(t)) and the mean-square displacement s(t).

a(t) in closed form is exp(-s d^2 / 8 sigma^2 w^2); equivalently it is the
ratio of the interference envelope to the geometric mean of the two direct
terms, and the two definitions agree identically.

The attenuation laws take t as a float or as an array of times: a float
gives a float, and an array gives the array a loop of scalar calls would,
bit for bit, with the same warnings in the same order.  Sums, products and
quotients run in numpy in the scalar code's order (elementwise ufuncs round
as Python floats do); exp, log, cos and powers run per sample through
`core.float_map`.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    NATURAL,
    CatSpec,
    PhysicalConstants,
    RegimeBreakdownError,
    classicality_ratio,
    float_map,
    thermal_de_broglie,
    warn_regime,
)

EULER_GAMMA = 0.5772156649015329

# ratio below which "much greater than" conditions trigger a warning
_SCALE_SEPARATION = 10.0


@dataclass(frozen=True)
class ReservoirKinematics:
    """Reservoir model reduced to the two functions the cat state needs.

    Parameters
    ----------
    c : callable
        Commutator magnitude c(t), from [x(0), x(t)] = i c(t).
    s : callable
        Mean-square displacement <(x(t) - x(0))^2>.
        Both take a float; to evaluate the attenuation over an array of
        times they must also take that array and return one of its shape.
    validity : (float, float)
        Time window the closed forms were derived for.  Evaluation outside
        it warns but proceeds.
    label : str
        Short name used in warnings and output metadata.

    Both functions must satisfy c(0) = 0 and s(0) = 0, with s(t) >= 0.
    """

    c: Callable[[float], float]
    s: Callable[[float], float]
    validity: tuple[float, float] = (0.0, math.inf)
    label: str = "custom"

    def __post_init__(self):
        lo, hi = self.validity
        if not lo < hi:
            raise ValueError(f"validity window must be non-empty, got {self.validity}")
        if abs(self.c(lo)) > 1e-12 or abs(self.s(lo)) > 1e-12:
            raise ValueError("kinematics must satisfy c = s = 0 at the start of validity")

    def check_time(self, t: float | np.ndarray) -> None:
        """Warn once for each t outside the validity window, in order."""
        lo, hi = self.validity
        times = np.atleast_1d(np.asarray(t, dtype=float))
        for value in times[~((lo <= times) & (times < hi))].tolist():
            warn_regime(
                f"t = {value:g} lies outside the validity window [{lo:g}, {hi:g}) "
                f"of the {self.label} kinematics"
            )


def _constant_like(t, value: float):
    # value at every t: a float for a float, an array of t's shape otherwise
    return np.full(np.shape(t), value) if np.ndim(t) else value


def _interpolator(times: np.ndarray, values: np.ndarray):
    def at(t):
        out = np.interp(t, times, values)
        return out if np.ndim(out) else float(out)
    return at


def free_kinematics(mass: float, constants: PhysicalConstants = NATURAL) -> ReservoirKinematics:
    """Isolated particle: c(t) = hbar t / m, s(t) = 0."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    hbar_over_m = constants.hbar / mass
    return ReservoirKinematics(
        c=lambda t: hbar_over_m * t,
        s=lambda t: _constant_like(t, 0.0),
        validity=(0.0, math.inf),
        label="free",
    )


def ohmic_high_t_kinematics(
    mass: float,
    temperature: float,
    gamma: float,
    constants: PhysicalConstants = NATURAL,
) -> ReservoirKinematics:
    """High-temperature Ohmic bath before relaxation sets in.

    c(t) keeps its free form hbar t / m while the packet spreads thermally,
    s(t) = (k T / m) t^2.  Derived for k T >> hbar gamma and t << 1/gamma,
    so the validity window ends at 1/gamma (gamma = 0 leaves it unbounded).
    """
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if gamma > 0 and classicality_ratio(temperature, gamma, constants) < _SCALE_SEPARATION:
        warn_regime(
            f"kT/(hbar gamma) = {classicality_ratio(temperature, gamma, constants):.3g} "
            "is not large; the high-temperature form is unreliable here"
        )
    hbar_over_m = constants.hbar / mass
    kt_over_m = constants.k_boltzmann * temperature / mass
    upper = 1.0 / gamma if gamma > 0 else math.inf
    return ReservoirKinematics(
        c=lambda t: hbar_over_m * t,
        s=lambda t: kt_over_m * t * t,
        validity=(0.0, upper),
        label="ohmic-high-t",
    )


def tabulated_kinematics(
    times: np.ndarray,
    c_values: np.ndarray,
    s_values: np.ndarray,
    label: str = "tabulated",
) -> ReservoirKinematics:
    """Kinematics from sampled (t, c, s) tables, linearly interpolated.

    The tables must start at t = 0 with c = s = 0 and keep s >= 0; the
    validity window is the tabulated range.
    """
    times = np.asarray(times, dtype=float)
    c_values = np.asarray(c_values, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two samples")
    if times.shape != c_values.shape or times.shape != s_values.shape:
        raise ValueError("times, c_values, s_values must have matching shapes")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if times[0] != 0.0:
        raise ValueError("tables must start at t = 0")
    if np.any(s_values < 0):
        raise ValueError("mean-square displacement samples must be non-negative")
    return ReservoirKinematics(
        c=_interpolator(times, c_values),
        s=_interpolator(times, s_values),
        validity=(0.0, float(times[-1])),
        label=label,
    )


def _kinematics_at(kin: ReservoirKinematics, sigma: float, t, check_s: bool):
    """c(t), s(t) and w^2(t) for a float or an array of t.

    Warns for each t outside the validity window, in order, as a loop of
    scalar evaluations would: that loop stops at the first t where w^2 is
    not positive (or, with check_s, s is negative), after warning for it,
    and raises RegimeBreakdownError naming it.  Cannot fail for the shipped
    kinematics; guards user-supplied ones.
    """
    c = kin.c(t)
    s = kin.s(t)
    w2 = sigma * sigma + (c * c) / (4.0 * sigma * sigma) + s
    broken = ~(np.asarray(w2) > 0.0)
    if check_s:
        broken = broken | (np.asarray(s) < 0)
    broken = np.atleast_1d(broken)
    if not broken.any():
        kin.check_time(t)
        return c, s, w2
    i = int(np.argmax(broken))
    t_i, s_i, w2_i = (float(np.atleast_1d(v)[i]) for v in (t, s, w2))
    kin.check_time(np.atleast_1d(t)[: i + 1])
    if not w2_i > 0.0:
        raise RegimeBreakdownError(f"packet variance w^2 = {w2_i:g} is not positive at t = {t_i:g}")
    raise RegimeBreakdownError(f"mean-square displacement s = {s_i:g} is negative at t = {t_i:g}")


def packet_variance(kin: ReservoirKinematics, sigma: float, t: float | np.ndarray):
    """Spread packet variance w^2(t) = sigma^2 + c(t)^2 / 4 sigma^2 + s(t)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return _kinematics_at(kin, sigma, t, check_s=False)[2]


def single_packet_prob(w2: float, x):
    """Normalized Gaussian density (2 pi w^2)^(-1/2) exp(-x^2 / 2 w^2)."""
    if w2 <= 0:
        raise ValueError(f"variance must be positive, got {w2}")
    x = np.asarray(x, dtype=float)
    out = np.exp(-x * x / (2.0 * w2)) / math.sqrt(2.0 * math.pi * w2)
    return out if out.ndim else float(out)


def normalization_constant(sigma: float, d: float) -> float:
    """Overlap-corrected norm N = [2 (1 + exp(-d^2/8 sigma^2))]^(-1/2).

    Approaches 1/2 for fully overlapping packets (d = 0) and 1/sqrt(2)
    for well-separated ones.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if d < 0:
        raise ValueError(f"separation d must be non-negative, got {d}")
    return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-d * d / (8.0 * sigma * sigma))))


@dataclass(frozen=True)
class _CatCoefficients:
    # time-dependent scalars shared by the vector and scalar evaluators
    w2: float
    n2: float                 # N^2
    attenuation: float        # a(t)
    envelope_factor: float    # exp(-d^2/8w^2) * a(t)
    phase_slope: float        # theta(x) = phase_slope * x


def _log_attenuation(spec: CatSpec, kin: ReservoirKinematics, t):
    # c(t), w^2(t) and log a(t) = -s d^2 / 8 sigma^2 w^2
    sigma2 = spec.sigma * spec.sigma
    c, s, w2 = _kinematics_at(kin, spec.sigma, t, check_s=True)
    d2 = spec.d * spec.d
    return c, w2, -s * d2 / (8.0 * sigma2 * w2)


def _coefficients(spec: CatSpec, kin: ReservoirKinematics, t: float) -> _CatCoefficients:
    sigma2 = spec.sigma * spec.sigma
    c, w2, log_a = _log_attenuation(spec, kin, t)
    d2 = spec.d * spec.d
    n = normalization_constant(spec.sigma, spec.d)
    a = math.exp(log_a)
    return _CatCoefficients(
        w2=w2,
        n2=n * n,
        attenuation=a,
        envelope_factor=math.exp(-d2 / (8.0 * w2)) * a,
        phase_slope=c * spec.d / (4.0 * sigma2 * w2),
    )


@dataclass(frozen=True)
class CatField:
    """Sampled probability density of the superposition at one instant.

    p1 and p2 are the direct packet terms (already carrying N^2), envelope
    is the positive interference amplitude P_I, and interference is the
    signed term P_I cos(theta) that actually enters the sum:

        total = p1 + p2 + 2 * interference   (pointwise)
    """

    x: np.ndarray
    time: float
    w2: float
    p1: np.ndarray
    p2: np.ndarray
    envelope: np.ndarray
    interference: np.ndarray
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.p1 + self.p2 + 2.0 * self.interference)


def default_grid(spec: CatSpec, w2: float, n_points: int = 2048) -> np.ndarray:
    """Uniform x grid covering both packets out to six spread widths."""
    half = spec.d / 2.0 + 6.0 * math.sqrt(w2)
    return np.linspace(-half, half, n_points)


def cat_probability(
    spec: CatSpec,
    kin: ReservoirKinematics,
    t: float,
    x_grid: np.ndarray | None = None,
) -> CatField:
    """Evaluate the superposition density on a grid at time t.

    Parameters
    ----------
    spec : CatSpec
        Packet width and separation.
    kin : ReservoirKinematics
        Reservoir model supplying c(t) and s(t).
    t : float
        Evaluation time (warns outside kin.validity).
    x_grid : ndarray, optional
        Sample positions; defaults to default_grid(spec, w2).
    """
    coef = _coefficients(spec, kin, t)
    if x_grid is None:
        x_grid = default_grid(spec, coef.w2)
    else:
        x_grid = np.asarray(x_grid, dtype=float)
    half_d = spec.d / 2.0
    p1 = coef.n2 * single_packet_prob(coef.w2, x_grid - half_d)
    p2 = coef.n2 * single_packet_prob(coef.w2, x_grid + half_d)
    envelope = coef.n2 * coef.envelope_factor * single_packet_prob(coef.w2, x_grid)
    interference = envelope * np.cos(coef.phase_slope * x_grid)
    return CatField(
        x=x_grid, time=t, w2=coef.w2,
        p1=p1, p2=p2, envelope=envelope, interference=interference,
    )


@dataclass(frozen=True)
class CatPointwise:
    """Scalar evaluators of the density and its three terms, for quadrature."""

    w2: float
    total: Callable[[float], float]
    p1: Callable[[float], float]
    p2: Callable[[float], float]
    interference: Callable[[float], float]


def cat_pointwise(spec: CatSpec, kin: ReservoirKinematics, t: float) -> CatPointwise:
    """Build cheap scalar closures over the time-dependent coefficients."""
    coef = _coefficients(spec, kin, t)
    w2 = coef.w2
    norm = coef.n2 / math.sqrt(2.0 * math.pi * w2)
    inv2w2 = 1.0 / (2.0 * w2)
    half_d = spec.d / 2.0
    env = coef.envelope_factor
    slope = coef.phase_slope
    exp = math.exp
    cos = math.cos

    def p1(x: float) -> float:
        dx = x - half_d
        return norm * exp(-dx * dx * inv2w2)

    def p2(x: float) -> float:
        dx = x + half_d
        return norm * exp(-dx * dx * inv2w2)

    def interference(x: float) -> float:
        return norm * env * exp(-x * x * inv2w2) * cos(slope * x)

    def total(x: float) -> float:
        return p1(x) + p2(x) + 2.0 * interference(x)

    return CatPointwise(w2=w2, total=total, p1=p1, p2=p2, interference=interference)


def log_attenuation_exact(spec: CatSpec, kin: ReservoirKinematics, t: float | np.ndarray):
    """log a(t) = -s(t) d^2 / 8 sigma^2 w^2(t), finite where a(t) underflows to 0."""
    return _log_attenuation(spec, kin, t)[2]


def attenuation_exact(spec: CatSpec, kin: ReservoirKinematics, t: float | np.ndarray):
    """Fringe attenuation a(t) = exp(-s(t) d^2 / 8 sigma^2 w^2(t)).

    Equals 1 whenever s(t) = 0: packet spreading alone never costs
    fringe contrast, only environmental displacement noise does.
    """
    return float_map(math.exp, log_attenuation_exact(spec, kin, t))


class FieldRatio(NamedTuple):
    """Grid-recovered attenuation: mean ratio, its spread, points used."""

    value: float
    max_deviation: float
    n_points: int


def attenuation_from_field(field: CatField) -> FieldRatio:
    """Recover a(t) from a sampled field as envelope / sqrt(p1 * p2).

    The ratio is independent of x, so it is averaged over the grid and the
    largest pointwise deviation from the mean is reported.  Points where
    the product p1 * p2 underflows (extreme |x|) are excluded.
    """
    product = field.p1 * field.p2
    usable = product > 1e-290
    if not np.any(usable):
        raise ValueError("no grid points with resolvable packet overlap")
    ratio = field.envelope[usable] / np.sqrt(product[usable])
    value = float(np.mean(ratio))
    return FieldRatio(
        value=value,
        max_deviation=float(np.max(np.abs(ratio - value))),
        n_points=int(np.count_nonzero(usable)),
    )


def high_t_decoherence_time(
    spec: CatSpec, temperature: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Gaussian decay time tau_d = sqrt(8) sigma^2 / (d sqrt(k T / m)).

    Shrinks with separation: doubling d quarters the time the fringes
    survive contact with a high-temperature bath.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if spec.d == 0:
        raise ValueError("decoherence time is undefined for zero separation")
    vth = math.sqrt(constants.k_boltzmann * temperature / spec.mass)
    return math.sqrt(8.0) * spec.sigma * spec.sigma / (vth * spec.d)


def _warn_separation_scales(
    spec: CatSpec, temperature: float, constants: PhysicalConstants
) -> None:
    lam = thermal_de_broglie(spec.mass, temperature, constants)
    if spec.d < _SCALE_SEPARATION * lam:
        warn_regime(
            f"separation d = {spec.d:g} is not large against the thermal "
            f"wavelength {lam:.3g}; the high-temperature decay law needs d >> lambda_th"
        )
    if spec.d < _SCALE_SEPARATION * spec.sigma:
        warn_regime(
            f"separation d = {spec.d:g} is not large against the packet "
            f"width sigma = {spec.sigma:g}; the high-temperature decay law needs d >> sigma"
        )


def _first_out_of_range(t: np.ndarray, horizon: float | None) -> int | None:
    """Index of the first t < 0 or t >= horizon (None: no horizon), where a
    loop of scalar calls raises; None if there is no such t."""
    failed = t < 0
    if horizon is not None:
        failed |= t >= horizon
    return int(np.argmax(failed)) if failed.any() else None


def _out_of_range_error(t: float, horizon: float, expansion: str) -> ValueError:
    if t < 0:
        return ValueError(f"t must be non-negative, got {t}")
    return RegimeBreakdownError(
        f"t = {t:g} reaches m/zeta = {horizon:g}; the {expansion} expansion has broken down"
    )


def attenuation_high_t(
    spec: CatSpec,
    temperature: float,
    t: float | np.ndarray,
    constants: PhysicalConstants = NATURAL,
):
    """Entangled high-temperature decay a(t) = exp(-(t/tau_d)^2).

    This is the closed form with the packet variance frozen at sigma^2,
    valid for separations large against both the packet width and the
    thermal wavelength (warns when either ratio drops below 10).
    """
    if spec.d == 0:
        return _constant_like(t, 1.0)
    _warn_separation_scales(spec, temperature, constants)
    tau_d = high_t_decoherence_time(spec, temperature, constants)
    return float_map(lambda q: math.exp(-q ** 2), t / tau_d)


def low_t_time_constant(
    spec: CatSpec, zeta: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Dissipative time constant tau_0 = (m sigma^2 / d) sqrt(8 pi / hbar zeta)."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if spec.d == 0:
        raise ValueError("time constant is undefined for zero separation")
    return (spec.mass * spec.sigma * spec.sigma / spec.d) * math.sqrt(
        8.0 * math.pi / (constants.hbar * zeta)
    )


def attenuation_low_t(
    spec: CatSpec,
    zeta: float,
    t: float | np.ndarray,
    constants: PhysicalConstants = NATURAL,
):
    """Low-temperature (dissipation-driven) attenuation.

        a(t) = exp[ (t/tau_0)^2 (log(zeta t / m) + gamma_E - 3/2) ]

    Hard-limited to t < m/zeta, where the bracket is negative and a < 1.
    The derivation also assumes t above a short-time cutoff that is not
    pinned down quantitatively, so small-t values carry a warning (once
    per call).  An array stops at its first t < 0 or t >= m/zeta and
    raises for it.
    """
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    times = np.asarray(t, dtype=float)
    flat = np.atleast_1d(times)
    horizon = spec.mass / zeta
    stop = _first_out_of_range(flat, horizon)
    if stop != 0 and flat.size:
        warn_regime(
            "the low-temperature form is derived for t above a short-time "
            "cutoff that is not specified quantitatively; treat small-t values with care"
        )
    if stop is not None:
        raise _out_of_range_error(float(flat[stop]), horizon, "low-temperature")
    out = np.ones(times.shape)  # t = 0 stays 1: t^2 log t -> 0
    moving = times != 0.0
    if moving.any():
        tau0 = low_t_time_constant(spec, zeta, constants)
        tm = times[moving]
        bracket = float_map(math.log, zeta * tm / spec.mass) + EULER_GAMMA - 1.5
        out[moving] = float_map(math.exp, float_map(lambda q: q ** 2, tm / tau0) * bracket)
    return out if out.ndim else float(out)


def decoupled_decoherence_time(
    spec: CatSpec, zeta: float, temperature: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Narrow-packet limit of the decoupled decay: tau_d = 3 hbar^2 / (zeta k T d^2)."""
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if spec.d == 0:
        raise ValueError("decoherence time is undefined for zero separation")
    return 3.0 * constants.hbar ** 2 / (zeta * constants.k_boltzmann * temperature * spec.d ** 2)


def attenuation_decoupled_high_t(
    spec: CatSpec,
    zeta: float,
    temperature: float,
    t: float | np.ndarray,
    constants: PhysicalConstants = NATURAL,
):
    """High-temperature decay for a state prepared uncorrelated with the bath.

        a(t) = exp[ -zeta k T d^2 t^3 / (12 m^2 sigma^4 + 3 hbar^2 t^2) ]

    Cubic rather than quadratic at early times, and switching off the
    coupling (zeta = 0) removes the decay entirely.  Valid for t below
    m/zeta (hard error there; warns once for each t above a tenth of it).
    An array stops at its first t < 0 or t >= m/zeta and raises for it.
    """
    if zeta < 0:
        raise ValueError(f"zeta must be non-negative, got {zeta}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    flat = np.atleast_1d(np.asarray(t, dtype=float))
    horizon = spec.mass / zeta if zeta else None
    stop = _first_out_of_range(flat, horizon)
    if horizon is not None:
        for value in flat[:stop][flat[:stop] > 0.1 * horizon].tolist():
            warn_regime(
                f"t = {value:g} is a sizable fraction of m/zeta = {horizon:g}; "
                "the weak-damping result is approximate here"
            )
    if stop is not None:
        raise _out_of_range_error(float(flat[stop]), horizon, "weak-damping")
    if zeta == 0.0:
        return _constant_like(t, 1.0)
    kT = constants.k_boltzmann * temperature
    num = zeta * kT * spec.d ** 2 * float_map(lambda q: q ** 3, t)
    den = 12.0 * (spec.mass * spec.sigma * spec.sigma) ** 2 + 3.0 * float_map(
        lambda q: q ** 2, constants.hbar * t
    )
    return float_map(math.exp, -num / den)
