"""Execute a RunConfig: evaluate the model, write files, assemble a report.

Every run writes its data files plus a structured-text report.txt.  With
verification enabled the report also carries the mode's checks, and the
run only counts as passed if every check lands inside its tolerance:
free-cat runs `attenuation_bounds`, and with snapshots of a regime that has
a density also `normalization`, `term_time_invariance` and
`attenuation_ratio_identity`; oscillator-cat runs `revival_unity` (where a
float time resolves a revival) and `minimum_closed_form`; spin runs
`lindblad_vs_analytic`.  `run` picks the mode's runner by the type of
`config.params`.  `selftest` computes its normalization, ratio-identity
and Lindblad checks with the deviation functions and tolerances defined
here.
"""

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cat_free, cat_oscillator, oracle, spin_bloch
from .config import MAX_SAMPLES, FreeCatParams, OscillatorParams, RunConfig, SpinParams
from .core import NATURAL, CatSpec, Check, ConfigError, PhysicalConstants, blocks, float_map, warn_regime
from .output import config_hash, data_extension, format_float, write_sections, write_table

NORMALIZATION_TOL = 1e-6
TERM_INVARIANCE_TOL = 1e-6
RATIO_TOL = 1e-10
BOUNDS_TOL = 1e-12
REVIVAL_TOL = 1e-15
MINIMUM_TOL = 1e-12
LINDBLAD_TOL = 1e-6
QUADRATURE_TOL = 1e-9


@dataclass
class RunReport:
    output_dir: str
    files: list
    warnings: list
    verification: list | None

    @property
    def passed(self) -> bool:
        return self.verification is None or all(check.passed for check in self.verification)


@contextmanager
def recorded_warnings():
    """Yield a list that, once the block exits, holds each distinct warning
    message raised inside it, in the order first seen.  An exception that
    leaves the block carries the same list as its `warnings` attribute."""
    texts = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield texts
        except Exception as exc:
            if not hasattr(exc, "warnings"):  # an inner block's list holds them
                exc.warnings = texts
            raise
        finally:
            texts.extend(dict.fromkeys(str(w.message) for w in caught))


def _time_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(config.t_start, config.t_end, config.n_samples)


def _base_meta(config: RunConfig, kind: str) -> dict:
    return {
        "kind": kind,
        "config_sha256": config_hash(config.source_text),
        "mode": config.mode,
        "unit_system": config.unit_system,
    }


def _write_data(config: RunConfig, stem: str, kind: str, columns: list, rows, **meta) -> str:
    """Write one data table into the output directory in the run's format,
    its metadata the base entries followed by `meta`; returns the file name."""
    name = stem + data_extension(config.fmt)
    meta = {**_base_meta(config, kind), **meta}
    write_table(Path(config.output_dir) / name, meta, columns, rows, config.fmt)
    return name


def _run_free_cat(config: RunConfig):
    params = config.params
    constants = config.constants
    times = _time_grid(config)

    regime = cat_free.REGIMES[params.regime]
    kin = None
    if regime.kinematics is not None:
        kin = regime.kinematics(params.cat, params.reservoir, constants)
        log_curve = cat_free.log_attenuation_exact(params.cat, kin, times)
    else:
        log_curve = regime.log_attenuation(params.cat, params.reservoir, times, constants)
    curve = float_map(math.exp, log_curve)  # a per sample, as a loop of math.exp would
    files = [_write_data(config, "attenuation", "attenuation-curve", ["t", "a"],
                         np.column_stack([times, curve]), regime=params.regime)]

    snap_times = np.linspace(config.t_start, config.t_end, params.snapshots) if params.snapshots else []
    if kin is None and params.snapshots:
        warnings.warn(
            f"regime {params.regime!r} defines only the attenuation factor, not the "
            "coordinate-space density; snapshots skipped"
        )
    elif kin is not None:
        files.extend(_write_snapshot(config, kin, i, float(t)) for i, t in enumerate(snap_times))

    checks = None
    if config.verify:
        checks = [_bounds_check(log_curve)]
        if kin is not None and params.snapshots:
            checks.extend(field_checks(params.cat, kin, snap_times))
    return files, checks


def _write_snapshot(config: RunConfig, kin, i: int, t: float) -> str:
    """Evaluate and write snapshot i, the cat density at time t, one
    `core.blocks` block of x values at a time; returns the file name.  Its
    grid and table are freed on return, before the next snapshot is
    evaluated."""
    params = config.params
    w2 = cat_free.packet_variance(kin, params.cat.sigma, t)
    rows = np.empty((params.x_samples, 5))
    rows[:, 0] = (cat_free.default_grid(params.cat, w2, params.x_samples) if params.x_min is None
                  else np.linspace(params.x_min, params.x_max, params.x_samples))
    for block in blocks(rows):
        field = cat_free.cat_probability(params.cat, kin, t, block[:, 0])
        block[:, 1:] = np.column_stack([field.total, field.p1, field.p2, field.interference])
    columns = ["x", "P_total", "P1", "P2", "P_interference_term"]
    return _write_data(
        config, f"catfield_{i:02d}", "cat-field", columns, rows,
        regime=params.regime, time=format_float(t), w2=format_float(w2),
    )


def _bounds_check(log_curve: np.ndarray) -> Check:
    # a must stay inside (0, 1], judged on log a <= 0, which stays finite
    # where a underflows to 0.0; the deviation is the worst excursion.
    # log a(0) is -0.0, which reads as 0.0 here, a NaN is kept, and a
    # -inf (a = 0 exactly) reads as inf
    top = float(np.max(log_curve))
    dev = 0.0 if top <= 0.0 else top
    if np.any(log_curve == -math.inf):
        dev = math.inf
    return Check("attenuation_bounds", dev, BOUNDS_TOL)


def _cat_integral(spec: CatSpec, pw, f) -> float:
    # +-10 w around a term's centre holds it to far below the quadrature
    # tolerance (e^-50); +-(d/2 + 10 w) holds all three.  `pw` exists only
    # where d/2 +- 10 w is more than one float (`cat_free._coefficients`)
    w = math.sqrt(pw.w2)
    if spec.d / 2.0 <= 20.0 * w:
        half = spec.d / 2.0 + 10.0 * w
        return oracle.integrate_adaptive(f, -half, half, tol=QUADRATURE_TOL).value
    # packets so far apart that the first samples of one interval would step
    # over them: one interval per term, at -d/2, 0 (interference) and d/2.
    # A left fold: sum() of floats is compensated from Python 3.12 on
    total = 0.0
    for centre in (-spec.d / 2.0, 0.0, spec.d / 2.0):
        total += oracle.integrate_adaptive(
            f, centre - 10.0 * w, centre + 10.0 * w, tol=QUADRATURE_TOL / 3.0
        ).value
    return total


def normalization_deviation(spec: CatSpec, pw) -> float:
    """|integral of P(x) dx - 1| by adaptive quadrature, for the density whose
    scalar evaluators `cat_free.cat_pointwise` returned as pw."""
    return abs(_cat_integral(spec, pw, pw.total) - 1.0)


def ratio_identity_deviation(spec: CatSpec, kin, t: float) -> tuple[float, float]:
    """(gap, rounding): the gap between a(t) recovered from the sampled field
    and the closed form, relative to the closed form (absolute once it is
    below 1e-100), and what floating point alone may leave in it.  Where
    p1 p2 underflows at every grid point, log a(t) is recovered from
    log-domain terms, the gap is |recovered - exact| in log a, to first
    order the same relative gap, and rounding is that route's bound (see
    `cat_free.log_attenuation_from_terms`).  Elsewhere the field's exponents
    stay below about 1,700 and rounding is taken as 0."""
    field = cat_free.cat_probability(spec, kin, t)
    log_exact = cat_free.log_attenuation_exact(spec, kin, t)
    if not np.any(cat_free.resolvable_overlap(field)):
        recovered, rounding = cat_free.log_attenuation_from_terms(spec, kin, t, field.x)
        return abs(recovered - log_exact), rounding
    exact = math.exp(log_exact)
    gap = abs(cat_free.attenuation_from_field(field) - exact)
    return (gap / exact if exact > 1e-100 else gap), 0.0


def _bloch_blocks(spec, p0, times, constants: PhysicalConstants):
    """Yield the closed-form polarization and density matrices (P, rho) at each of `blocks(times)`."""
    for block in blocks(times):
        p = spin_bloch.bloch_evolve(spec, p0, block, constants)
        yield p, spin_bloch.density_from_polarization(p)


def lindblad_bloch_deviation(
    spec, initial_polarization, t_end: float, dt: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Max entrywise gap between the integrated master equation and the
    closed-form Bloch solution, over every recorded sample (NaN if any
    gap is NaN).  The closed form is built and compared block by block
    (`_bloch_blocks`), so beside the trajectory it costs one block."""
    p0 = np.asarray(initial_polarization, dtype=float)
    rho0 = spin_bloch.density_from_polarization(p0)
    traj = oracle.integrate_lindblad(spec, rho0, t_end, dt, constants)
    block_maxima = []
    for (_, gap), states in zip(_bloch_blocks(spec, p0, traj.times, constants), blocks(traj.states)):
        gap -= states  # in place: no third block array
        block_maxima.append(np.max(np.abs(gap)))
    return float(np.max(block_maxima))  # np.max keeps a NaN, where Python's max can drop it


def field_checks(spec: CatSpec, kin, times) -> list:
    """Normalization, term time-invariance and ratio-identity checks of the
    cat density at each of `times`: the worst deviation of each.  A snapshot
    whose ratio-identity rounding exceeds RATIO_TOL is left out of that
    check, with one regime warning; with none left, the check is omitted."""
    norm_devs = []
    ratio_devs = []
    left_out = []  # (t, d/w, rounding) of each snapshot left out of the ratio identity
    term_integrals = []  # one row per snapshot: P1, P2 and the interference term
    for t in times:
        pw = cat_free.cat_pointwise(spec, kin, float(t))
        norm_devs.append(normalization_deviation(spec, pw))
        term_integrals.append([
            _cat_integral(spec, pw, pw.p1),
            _cat_integral(spec, pw, pw.p2),
            2.0 * _cat_integral(spec, pw, pw.interference),
        ])
        gap, rounding = ratio_identity_deviation(spec, kin, float(t))
        if rounding > RATIO_TOL:
            left_out.append((float(t), spec.d / math.sqrt(pw.w2), rounding))
        else:
            ratio_devs.append(gap)

    # np.max and np.ptp keep a NaN, where Python's max and min can drop it
    invariance_dev = float(np.max(np.ptp(term_integrals, axis=0)))
    checks = [
        Check("normalization", float(np.max(norm_devs)), NORMALIZATION_TOL),
        Check("term_time_invariance", invariance_dev, TERM_INVARIANCE_TOL),
    ]
    if left_out:
        t, d_over_w, rounding = left_out[0]
        count = f" (first of {len(left_out)} such snapshots)" if len(left_out) > 1 else ""
        warn_regime(
            f"rounding may leave up to {rounding:.3g} in the log-domain ratio identity at snapshot "
            f"t = {t:g} (d/w = {d_over_w:.4g}), above its tolerance {RATIO_TOL:g}; left out of "
            f"attenuation_ratio_identity{count}"
        )
    if ratio_devs:
        checks.append(Check("attenuation_ratio_identity", float(np.max(ratio_devs)), RATIO_TOL))
    return checks


def _run_oscillator(config: RunConfig):
    params = config.params
    spec = params.spec
    constants = config.constants
    if params.n_revivals is not None:
        n = params.n_revivals
    else:
        # revivals inside the sampled window, capped while still a float:
        # omega * end may overflow to inf
        count = np.floor(spec.omega * config.t_end / math.pi + 0.5)
        if count > MAX_SAMPLES:
            raise ConfigError(
                f"end = {config.t_end:g} and omega = {spec.omega:g} hold {count:.0f} revivals, "
                f"above the cap of {MAX_SAMPLES}; set n_revivals"
            )
        n = int(count)
    rows = np.empty((config.n_samples, 2))
    rows[:, 0] = _time_grid(config)
    for block in blocks(rows):
        block[:, 1] = cat_oscillator.attenuation_oscillator(spec, block[:, 0], constants)
    files = [_write_data(config, "attenuation", "attenuation-curve", ["t", "a"], rows)]

    revivals = cat_oscillator.revival_times(spec, n)
    files.append(_write_data(config, "revivals", "revival-times", ["t_revival"], revivals[:, None]))

    checks = None
    if config.verify:
        checks = []
        # the float omega t nearest a revival lies about a spacing from it,
        # where K cos^2 is ~K spacing^2: above REVIVAL_TOL no float time resolves it
        k = cat_oscillator.exponent_prefactor(spec, constants)
        resolvable = k * np.spacing(spec.omega * revivals) ** 2 <= REVIVAL_TOL
        if not np.all(resolvable):
            warn_regime(
                f"revival t = {revivals[~resolvable][0]:g} and later are narrower than the "
                f"float spacing of omega t (K = {k:.4g}); left out of revival_unity"
            )
        if np.any(resolvable):
            at_revivals = cat_oscillator.attenuation_oscillator(spec, revivals[resolvable], constants)
            dev = float(np.max(np.abs(at_revivals - 1.0)))
            checks.append(Check("revival_unity", dev, REVIVAL_TOL))
        dev = abs(cat_oscillator.attenuation_oscillator(spec, 0.0, constants) - math.exp(-k))
        checks.append(Check("minimum_closed_form", dev, MINIMUM_TOL))
    return files, checks


def _run_spin(config: RunConfig):
    params = config.params
    spec = params.spec
    constants = config.constants
    rows = np.empty((config.n_samples, 7))
    rows[:, 0] = _time_grid(config)
    closed_form = _bloch_blocks(spec, params.initial, rows[:, 0], constants)
    for block, (p, rho) in zip(blocks(rows), closed_form):
        block[:, 1:4], block[:, 4], block[:, 5] = p, rho[:, 0, 0].real, rho[:, 1, 1].real
        # np.hypot rounds as the scalar abs() of a complex does; numpy's
        # vectorised complex abs does not, and the written columns are pinned
        block[:, 6] = np.hypot(rho[:, 0, 1].real, rho[:, 0, 1].imag)
    columns = ["t", "P_x", "P_y", "P_z", "rho_pp", "rho_mm", "abs_rho_pm"]
    files = [_write_data(config, "bloch_trajectory", "bloch-trajectory", columns, rows)]

    t1, t2 = spin_bloch.relaxation_times(spec, constants)
    summary = {
        "nbar": format_float(spin_bloch.nbar(spec.omega, spec.temperature, constants)),
        "p0": format_float(spin_bloch.equilibrium_polarization(spec, constants)),
        "t1": format_float(t1),
        "t2": format_float(t2),
    }
    if spec.g_n is not None and spec.mu0 is not None:
        summary["m0"] = format_float(spin_bloch.saturation_magnetization(spec, constants))
    write_sections(Path(config.output_dir) / "equilibrium.txt", {
        "meta": _base_meta(config, "equilibrium-summary"),
        "equilibrium": summary,
    })
    files.append("equilibrium.txt")

    checks = None
    if config.verify:
        dt = min(t1, config.t_end) / 400.0
        dev = lindblad_bloch_deviation(spec, params.initial, config.t_end, dt, constants)
        checks = [Check("lindblad_vs_analytic", dev, LINDBLAD_TOL)]
    return files, checks


_RUNNERS = {FreeCatParams: _run_free_cat, OscillatorParams: _run_oscillator, SpinParams: _run_spin}


def run(config: RunConfig) -> RunReport:
    """Execute one configuration and write all of its outputs."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").unlink(missing_ok=True)  # a run that raises leaves no old report
    with recorded_warnings() as collected:
        files, checks = _RUNNERS[type(config.params)](config)

    report = RunReport(
        output_dir=str(out),
        files=files,
        warnings=collected,
        verification=checks,
    )
    _write_report(config, out, report)
    return report


def _write_report(config: RunConfig, out: Path, report: RunReport) -> None:
    sections = {
        "report": {
            "mode": config.mode,
            "config_sha256": config_hash(config.source_text),
            "unit_system": config.unit_system,
            "format": config.fmt,
            "verify": str(config.verify).lower(),
            "status": "pass" if report.passed else "fail",
        },
        "files": {f"f{i}": name for i, name in enumerate(report.files)},
        "warnings": {f"w{i}": text for i, text in enumerate(report.warnings)},
    }
    if report.verification is not None:
        ver = {}
        for i, check in enumerate(report.verification):
            ver[f"c{i}_name"] = check.name
            ver[f"c{i}_deviation"] = format_float(check.deviation)
            ver[f"c{i}_tolerance"] = format_float(check.tolerance)
            ver[f"c{i}_pass"] = str(check.passed).lower()
        sections["verification"] = ver
    write_sections(out / "report.txt", sections)


def compare_regimes(config: RunConfig) -> Path:
    """Tabulate entangled high-T decay against the decoupled-start decay.

    Needs a free-cat config whose regime supplies a positive temperature
    and a resolvable coupling zeta (gamma works too, via zeta = gamma m).
    Returns the path of the written table.
    """
    if not isinstance(config.params, FreeCatParams):
        raise ConfigError(f"compare-regimes needs a free-cat config, got mode {config.mode!r}")
    params = config.params
    if params.reservoir.temperature <= 0:
        raise ConfigError(
            f"compare-regimes needs a positive temperature; regime {params.regime!r} "
            "does not provide one"
        )
    constants = config.constants
    zeta = params.reservoir.zeta_for(params.cat.mass)
    times = _time_grid(config)
    temperature = params.reservoir.temperature
    entangled = float_map(math.exp, cat_free.log_attenuation_high_t(
        params.cat, temperature, times, constants))
    decoupled = float_map(math.exp, cat_free.log_attenuation_decoupled_high_t(
        params.cat, zeta, temperature, times, constants))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = ["t", "a_high_t_entangled", "a_decoupled_hpz"]
    rows = np.column_stack([times, entangled, decoupled])
    return out / _write_data(
        config, "regime_comparison", "regime-comparison", columns, rows, zeta=format_float(zeta)
    )
