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

Each attenuation law returns log a(t), finite where a(t) underflows to 0;
a = exp(log a) is taken per sample (`core.float_map`) where it is written
or compared.  The laws take t as a float or as an array of times: a float
gives a float, and an array gives, bit for bit, the values a loop of scalar
calls would.  An array is checked once per call: a t that breaks a law's
bounds raises the scalar call's error for the first such t, before any
warning; each regime warning is then issued once, naming the first t it
concerns and how many it covers.  Sums, products and quotients run in numpy
in the scalar code's order (elementwise ufuncs round as Python floats do);
exp, log, cos and powers run per sample through `core.float_map`.
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
    fail_closed,
    float_map,
    require_non_negative,
    require_positive,
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
        """Warn once if any t lies outside the validity window (see _warn_times)."""
        lo, hi = self.validity
        times = np.ravel(np.asarray(t, dtype=float))
        _warn_times(
            times[~((lo <= times) & (times < hi))],
            f"lies outside the validity window [{lo:g}, {hi:g}) of the {self.label} kinematics",
        )


def _warn_times(times: np.ndarray, text: str) -> None:
    """One regime warning "t = <first of times> <text>", counting the times
    when there are several; none for an empty array."""
    if times.size:
        count = f" (first of {times.size} such times)" if times.size > 1 else ""
        warn_regime(f"t = {float(times[0]):g} {text}{count}")


def _constant_like(t, value: float):
    # value at every t: a float for a float, an array of t's shape otherwise
    return np.full(np.shape(t), value) if np.ndim(t) else value


def free_kinematics(mass: float, constants: PhysicalConstants = NATURAL) -> ReservoirKinematics:
    """Isolated particle: c(t) = hbar t / m, s(t) = 0."""
    require_positive("mass", mass)
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
    require_positive("mass", mass)
    require_positive("temperature", temperature)
    require_non_negative("gamma", gamma)
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


def _kinematics_at(kin: ReservoirKinematics, sigma: float, t):
    """c(t), s(t) and w^2(t) for a float or an array of t.

    Raises RegimeBreakdownError if sigma^2 underflows to 0, then for the
    first t where w^2 is not positive (NaN included) or overflows, or s is
    negative, before any warning; then warns once if any t lies outside the
    validity window.  An overflow on the way to w^2 leaves it non-finite
    and raises no numpy warning.  Past sigma^2, the built-in kinematics
    fail these tests only by overflow.
    """
    if not sigma * sigma > 0.0:
        raise RegimeBreakdownError(f"packet width sigma = {sigma:g} underflows to 0 when squared")
    with np.errstate(over="ignore", invalid="ignore"):
        c = kin.c(t)
        s = kin.s(t)
        w2 = sigma * sigma + (c * c) / (4.0 * sigma * sigma) + s
    broken = np.ravel(~(np.isfinite(w2) & (np.asarray(w2) > 0.0)) | (np.asarray(s) < 0))
    if broken.any():
        i = int(np.argmax(broken))
        t_i, s_i, w2_i = (float(np.ravel(v)[i]) for v in (t, s, w2))
        if w2_i == math.inf:
            raise RegimeBreakdownError(f"packet variance w^2 overflows to inf at t = {t_i:g}")
        if not w2_i > 0.0:
            raise RegimeBreakdownError(f"packet variance w^2 = {w2_i:g} is not positive at t = {t_i:g}")
        raise RegimeBreakdownError(f"mean-square displacement s = {s_i:g} is negative at t = {t_i:g}")
    kin.check_time(t)
    return c, s, w2


def packet_variance(kin: ReservoirKinematics, sigma: float, t: float | np.ndarray):
    """Spread packet variance w^2(t) = sigma^2 + c(t)^2 / 4 sigma^2 + s(t)."""
    require_positive("sigma", sigma)
    return _kinematics_at(kin, sigma, t)[2]


def single_packet_prob(w2: float, x):
    """Normalized Gaussian density (2 pi w^2)^(-1/2) exp(-x^2 / 2 w^2)."""
    require_positive("variance", w2)
    x = np.asarray(x, dtype=float)
    out = np.exp(-x * x / (2.0 * w2)) / math.sqrt(2.0 * math.pi * w2)
    return out if out.ndim else float(out)


def normalization_constant(sigma: float, d: float) -> float:
    """Overlap-corrected norm N = [2 (1 + exp(-d^2/8 sigma^2))]^(-1/2).

    Approaches 1/2 for fully overlapping packets (d = 0) and 1/sqrt(2)
    for well-separated ones.
    """
    require_positive("sigma", sigma)
    require_non_negative("separation d", d)
    return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-d * d / (8.0 * sigma * sigma))))


@dataclass(frozen=True)
class _CatCoefficients:
    # time-dependent scalars shared by the vector and scalar evaluators
    w2: float
    n2: float                 # N^2
    envelope_factor: float    # exp(-d^2/8w^2) * a(t)
    phase_slope: float        # theta(x) = phase_slope * x


def _log_attenuation(spec: CatSpec, s, w2):
    # log a(t) = -s d^2 / 8 sigma^2 w^2 from s(t) and w^2(t).  Where s d^2 or
    # 8 sigma^2 w^2 overflows, log a is -(s/w^2) d^2 / sigma^2 / 8 instead:
    # the same law, whose partial products stay in range while log a does,
    # as s <= w^2.  An underflowed 8 sigma^2 w^2 still leaves log a
    # non-finite for the law's fail-closed check, with no numpy warning
    sigma2 = spec.sigma * spec.sigma
    d2 = spec.d * spec.d
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        num = -s * d2
        den = 8.0 * sigma2 * w2
        log_a = num / den
        overflowed = ~(np.isfinite(num) & np.isfinite(den))
        if overflowed.any():
            rescaled = -(s / w2) * d2 / sigma2 / 8.0
            log_a = np.where(overflowed, rescaled, log_a) if np.ndim(log_a) else rescaled
    return log_a


def _coefficients(spec: CatSpec, kin: ReservoirKinematics, t: float) -> _CatCoefficients:
    sigma2 = spec.sigma * spec.sigma
    c, s, w2 = _kinematics_at(kin, spec.sigma, t)
    if not 4.0 * sigma2 * w2 > 0.0:  # log a and the phase slope divide Python floats by it
        raise RegimeBreakdownError(
            f"4 sigma^2 w^2 underflows to 0 at t = {t:g} (sigma = {spec.sigma:g}, w^2 = {w2:g})"
        )
    w, half_d = math.sqrt(w2), spec.d / 2.0
    if half_d - 10.0 * w == half_d + 10.0 * w:  # each packet's +-10 w span is one float
        raise RegimeBreakdownError(
            f"packet width w = {w:g} is below the float spacing of d/2 = {half_d:g} at "
            f"t = {t:g}: d/2 +- 10 w is one float, so no x grid resolves the packets"
        )
    d2 = spec.d * spec.d
    n = normalization_constant(spec.sigma, spec.d)
    return _CatCoefficients(
        w2=w2,
        n2=n * n,
        envelope_factor=math.exp(-d2 / (8.0 * w2)) * math.exp(_log_attenuation(spec, s, w2)),
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
    # far out on a wide grid x^2 / 2 w^2 overflows where the density
    # rightly underflows to 0; the phase below stays unguarded
    with np.errstate(over="ignore"):
        p1 = coef.n2 * single_packet_prob(coef.w2, x_grid - half_d)
        p2 = coef.n2 * single_packet_prob(coef.w2, x_grid + half_d)
        envelope = coef.n2 * coef.envelope_factor * single_packet_prob(coef.w2, x_grid)
    interference = envelope * np.cos(coef.phase_slope * x_grid)
    return CatField(
        x=x_grid, w2=coef.w2,
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

    def total(x: float) -> float:  # p1(x) + p2(x) + 2.0 * interference(x), inlined
        dx, ex = x - half_d, x + half_d
        return (norm * exp(-dx * dx * inv2w2) + norm * exp(-ex * ex * inv2w2)
                + 2.0 * (norm * env * exp(-x * x * inv2w2) * cos(slope * x)))

    return CatPointwise(w2=w2, total=total, p1=p1, p2=p2, interference=interference)


@fail_closed
def log_attenuation_exact(spec: CatSpec, kin: ReservoirKinematics, t: float | np.ndarray):
    """log a(t) = -s(t) d^2 / 8 sigma^2 w^2(t), finite where a(t) underflows to 0,
    and 0 whenever s(t) = 0: packet spreading alone never costs fringe
    contrast, only environmental displacement noise does."""
    _, s, w2 = _kinematics_at(kin, spec.sigma, t)
    return _log_attenuation(spec, s, w2)


def resolvable_overlap(field: CatField) -> np.ndarray:
    """Grid points where p1 * p2 is resolvable, far above the underflow at
    extreme |x| or large separations."""
    return field.p1 * field.p2 > 1e-290


def attenuation_from_field(field: CatField) -> float:
    """Recover a(t) from a sampled field as envelope / sqrt(p1 * p2).

    The ratio is independent of x, so it is averaged over the grid.  Points
    where the product p1 * p2 underflows (extreme |x|) are excluded; with
    none left, use log_attenuation_from_terms.
    """
    usable = resolvable_overlap(field)
    if not np.any(usable):
        raise ValueError("no grid points with resolvable packet overlap")
    return float(np.mean(field.envelope[usable] / np.sqrt(field.p1[usable] * field.p2[usable])))


def log_attenuation_from_terms(
    spec: CatSpec, kin: ReservoirKinematics, t: float, x_grid: np.ndarray
) -> tuple[float, float]:
    """Recover log a(t) as log envelope - (log p1 + log p2) / 2 on a grid.

    Each term is evaluated in the log domain from the same coefficients as
    cat_probability, so the recovery stays finite where p1 * p2 underflows
    at every grid point (a separation of hundreds of widths).  Averaged
    over the grid like attenuation_from_field.  Returns (log a, rounding):
    the terms, up to about d^2/2w^2, cancel down to log a, and floating
    point alone may leave up to `rounding` in it, half an ulp of the
    largest term for each of 16 roundings per grid point (squares counted
    twice) and one more per level of the mean's pairwise sum.
    """
    _, s, w2 = _kinematics_at(kin, spec.sigma, t)
    log_a = _log_attenuation(spec, s, w2)
    n = normalization_constant(spec.sigma, spec.d)
    log_norm = math.log(n * n) - 0.5 * math.log(2.0 * math.pi * w2)
    x = np.asarray(x_grid, dtype=float)
    inv2w2 = 1.0 / (2.0 * w2)
    half_d = spec.d / 2.0
    log_p1 = log_norm - (x - half_d) ** 2 * inv2w2
    log_p2 = log_norm - (x + half_d) ** 2 * inv2w2
    log_envelope = log_norm + (log_a - spec.d * spec.d / (8.0 * w2)) - x * x * inv2w2
    largest = max(float(np.max(np.abs(term))) for term in (log_p1, log_p2, log_envelope))
    rounding = (16 + x.size.bit_length()) * 2.0 ** -53 * largest
    return float(np.mean(log_envelope - 0.5 * (log_p1 + log_p2))), rounding


@fail_closed
def high_t_decoherence_time(
    spec: CatSpec, temperature: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Gaussian decay time tau_d = sqrt(8) sigma^2 / (d sqrt(k T / m)).

    Shrinks with separation: doubling d quarters the time the fringes
    survive contact with a high-temperature bath.
    """
    require_positive("temperature", temperature)
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


def _check_horizon(t, horizon: float, expansion: str) -> np.ndarray:
    """t as a flat float array, once no t is negative or reaches the horizon
    m/zeta; raises, as a scalar call would, for the first that does."""
    flat = np.ravel(np.asarray(t, dtype=float))
    failed = (flat < 0) | (flat >= horizon)
    if failed.any():
        bad = float(flat[np.argmax(failed)])
        if bad < 0:
            raise ValueError(f"t must be non-negative, got {bad}")
        raise RegimeBreakdownError(
            f"t = {bad:g} reaches m/zeta = {horizon:g}; the {expansion} expansion has broken down"
        )
    return flat


@fail_closed
def log_attenuation_high_t(
    spec: CatSpec,
    temperature: float,
    t: float | np.ndarray,
    constants: PhysicalConstants = NATURAL,
):
    """log a(t) = -(t/tau_d)^2 of the entangled high-temperature decay.

    This is the closed form with the packet variance frozen at sigma^2,
    valid for separations large against both the packet width and the
    thermal wavelength (warns when either ratio drops below 10).  With
    d = 0 there is no fringe to lose: log a = 0.
    """
    if spec.d == 0:
        return _constant_like(t, 0.0)
    _warn_separation_scales(spec, temperature, constants)
    tau_d = high_t_decoherence_time(spec, temperature, constants)
    return -float_map(lambda q: q ** 2, t / tau_d)


def low_t_time_constant(
    spec: CatSpec, zeta: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Dissipative time constant tau_0 = (m sigma^2 / d) sqrt(8 pi / hbar zeta)."""
    require_positive("zeta", zeta)
    if spec.d == 0:
        raise ValueError("time constant is undefined for zero separation")
    return (spec.mass * spec.sigma * spec.sigma / spec.d) * math.sqrt(
        8.0 * math.pi / (constants.hbar * zeta)
    )


@fail_closed
def log_attenuation_low_t(
    spec: CatSpec,
    zeta: float,
    t: float | np.ndarray,
    constants: PhysicalConstants = NATURAL,
):
    """log a(t) of the low-temperature (dissipation-driven) law

        a(t) = exp[ (t/tau_0)^2 (log(zeta t / m) + gamma_E - 3/2) ],

    finite where a(t) underflows to 0.  Hard-limited to t < m/zeta, where
    the bracket is negative and a < 1.  The derivation also assumes t above
    a short-time cutoff that is not pinned down quantitatively, so small-t
    values carry a warning (once per call).  An array with any t < 0 or
    t >= m/zeta, or where zeta t / m underflows to 0 at a t > 0, raises for
    the first such t, before the warning.  With d = 0 there is no fringe
    to lose: log a = 0.
    """
    require_positive("zeta", zeta)
    flat = _check_horizon(t, spec.mass / zeta, "low-temperature")
    ratio = zeta * flat / spec.mass  # the bracket takes its log
    underflowed = (ratio == 0.0) & (flat != 0.0)
    if spec.d != 0 and underflowed.any():
        raise RegimeBreakdownError(
            f"zeta t / m underflows to 0 at t = {float(flat[np.argmax(underflowed)]):g} "
            f"(zeta = {zeta:g}, m = {spec.mass:g})"
        )
    if flat.size:
        warn_regime(
            "the low-temperature form is derived for t above a short-time "
            "cutoff that is not specified quantitatively; treat small-t values with care"
        )
    out = np.zeros(flat.shape)  # t = 0 stays 0: t^2 log t -> 0
    moving = flat != 0.0
    if moving.any() and spec.d != 0:
        tau0 = low_t_time_constant(spec, zeta, constants)
        bracket = float_map(math.log, ratio[moving]) + EULER_GAMMA - 1.5
        out[moving] = float_map(lambda q: q ** 2, flat[moving] / tau0) * bracket
    return out.reshape(np.shape(t)) if np.ndim(t) else float(out[0])


@fail_closed
def log_attenuation_decoupled_high_t(
    spec: CatSpec,
    zeta: float,
    temperature: float,
    t: float | np.ndarray,
    constants: PhysicalConstants = NATURAL,
):
    """log a(t) of the high-temperature decay of a state prepared uncorrelated
    with the bath, a(t) = exp[-zeta k T d^2 t^3 / (12 m^2 sigma^4 + 3 hbar^2 t^2)],
    finite where a(t) underflows to 0.  Cubic rather than quadratic at early
    times; zeta = 0 switches off the coupling and the decay.  Valid for t
    below m/zeta (hard error there; above a tenth of it, warns once per call,
    naming the first such t and how many there are).  An array with any
    t < 0 or t >= m/zeta raises for the first such t, before any warning."""
    require_non_negative("zeta", zeta)
    require_positive("temperature", temperature)
    horizon = spec.mass / zeta if zeta else math.inf
    flat = _check_horizon(t, horizon, "weak-damping")
    _warn_times(
        flat[flat > 0.1 * horizon],
        f"is a sizable fraction of m/zeta = {horizon:g}; the weak-damping result is approximate here",
    )
    if zeta == 0.0:
        return _constant_like(t, 0.0)
    kT = constants.k_boltzmann * temperature
    num = zeta * kT * spec.d ** 2 * float_map(lambda q: q ** 3, t)
    den = 12.0 * (spec.mass * spec.sigma * spec.sigma) ** 2 + 3.0 * float_map(
        lambda q: q ** 2, constants.hbar * t
    )
    return -num / den


class Regime(NamedTuple):
    """A free-cat regime: the bath keys it reads, and either the
    kinematics(cat, bath, constants) of its whole density or, where it
    defines only the fringe attenuation, its law log_attenuation(cat, bath,
    t, constants).  A regime that reads temperature needs it positive; one
    that reads zeta couples to the bath and needs gamma or zeta."""

    reads: tuple[str, ...]
    kinematics: Callable | None = None
    log_attenuation: Callable | None = None


# the lambdas look each law up when called, so a patched module attribute is the one run
REGIMES = {
    "free": Regime((), kinematics=lambda cat, bath, constants: free_kinematics(cat.mass, constants)),
    "ohmic-high-t": Regime(("temperature", "gamma"), kinematics=lambda cat, bath, constants: (
        ohmic_high_t_kinematics(cat.mass, bath.temperature, bath.gamma, constants))),
    "low-t": Regime(("gamma", "zeta"), log_attenuation=lambda cat, bath, t, constants: (
        log_attenuation_low_t(cat, bath.zeta_for(cat.mass), t, constants))),
    "decoupled-high-t": Regime(
        ("temperature", "gamma", "zeta"),
        log_attenuation=lambda cat, bath, t, constants: log_attenuation_decoupled_high_t(
            cat, bath.zeta_for(cat.mass), bath.temperature, t, constants)),
}
