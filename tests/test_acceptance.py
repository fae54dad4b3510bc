"""Acceptance battery: one test per headline guarantee, at its stated tolerance.

Each test prints a single summary line; run with -v (or -s) to see them.
The random sweeps are seeded, so every run exercises the same configurations.
"""

import math
import textwrap
import warnings

import numpy as np
import pytest

from decolab.cat_free import (
    CatSpec,
    cat_pointwise,
    free_kinematics,
    high_t_decoherence_time,
    log_attenuation_decoupled_high_t,
    log_attenuation_exact,
    log_attenuation_high_t,
    log_attenuation_low_t,
    ohmic_high_t_kinematics,
)
from decolab.cat_oscillator import (
    OscillatorSpec,
    attenuation_oscillator,
    exponent_prefactor,
    revival_times,
)
from decolab.cli import main
from decolab.core import CGS, RegimeValidityWarning, classicality_ratio, thermal_de_broglie
from decolab.oracle import integrate_rk4, lindblad_rhs
from decolab.runner import (
    NORMALIZATION_TOL,
    RATIO_TOL,
    TERM_INVARIANCE_TOL,
    _cat_integral,
    field_checks,
    lindblad_bloch_deviation,
    ratio_identity_deviation,
)
from decolab.spin_bloch import (
    SpinBathSpec,
    bloch_evolve,
    density_from_polarization,
    equilibrium_polarization,
    nbar,
    relaxation_times,
)
from helpers import bloch_rhs


def summary(line: str) -> None:
    print(f"[acceptance] {line}")


def random_cat_configs(n: int, seed: int = 2024):
    """Seeded sweep over both coordinate-space regimes."""
    rng = np.random.default_rng(seed)
    configs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeValidityWarning)
        for _ in range(n):
            spec = CatSpec(
                mass=rng.uniform(0.8, 1.5),
                sigma=rng.uniform(0.7, 1.5),
                d=rng.uniform(0.0, 4.0),
            )
            if rng.random() < 0.5:
                kin = free_kinematics(spec.mass)
                regime = "free"
            else:
                kin = ohmic_high_t_kinematics(
                    spec.mass, rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.05)
                )
                regime = "ohmic-high-t"
            times = np.sort(rng.uniform(0.0, 1.2, size=10))
            configs.append((spec, kin, regime, times))
    return configs


class TestCriterion1:
    def test_c1_headline_numbers(self):
        # thermal wavelength of one gram at room temperature
        lam = thermal_de_broglie(1.0, 300.0, CGS)
        assert lam == pytest.approx(5.2e-21, rel=1e-2)

        # a centimeter of separation measured in that wavelength
        assert 1.0 / lam == pytest.approx(2e20, rel=5e-2)

        # fringe weight relative to the direct terms at d = 5 sigma,
        # recovered by quadrature of the actual density
        spec = CatSpec(mass=1.0, sigma=1.0, d=5.0)
        point = cat_pointwise(spec, free_kinematics(1.0), 0.3)
        direct = _cat_integral(spec, point, lambda x: point.p1(x) + point.p2(x))
        fringe = _cat_integral(spec, point, lambda x: 2.0 * point.interference(x))
        assert fringe / direct == pytest.approx(4.4e-2, rel=2e-2)

        # cold dilute benchmark sits near 1.31, not at the rounded 1
        assert classicality_ratio(1.0, 1e11, CGS) == pytest.approx(1.31, rel=1e-2)

        summary(
            "criterion 1: PASS (wavelength, separation ratio, fringe weight, "
            "classicality benchmark)"
        )


class TestCriterion2:
    def test_c2_normalization_and_term_invariance(self):
        configs = random_cat_configs(50)
        worst_norm = 0.0
        worst_invariance = 0.0
        for spec, kin, _, times in configs:
            norm, invariance, ratio = field_checks(spec, kin, times)
            assert (norm.name, invariance.name) == ("normalization", "term_time_invariance")
            assert ratio.deviation < RATIO_TOL  # the third shipped check holds here too
            worst_norm = max(worst_norm, norm.deviation)
            worst_invariance = max(worst_invariance, invariance.deviation)
        assert worst_norm < NORMALIZATION_TOL
        assert worst_invariance < TERM_INVARIANCE_TOL
        summary(
            f"criterion 2: PASS (50 configs x 10 times: max |norm - 1| = {worst_norm:.2e}, "
            f"max term-integral drift = {worst_invariance:.2e}, both < 1e-6)"
        )

    @pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="a depth-2 Simpson panel much wider than w passes by chance (ROADMAP item 4)",
    )
    def test_c2_term_invariance_on_a_wide_snapshot_sweep(self):
        # `perfbench/run.py --workload scaled --seed 107`'s snapshot config: the
        # P1 integral at snapshot 98 is off by 2.1e-6 with an estimate of 2.8e-10
        spec = CatSpec(mass=1.3719348955861697, sigma=1.477824805540521, d=3.631170255699146)
        kin = ohmic_high_t_kinematics(spec.mass, 2.1888208253025616, 0.01)
        times = np.linspace(0.0, 0.6232409798346791, 100)
        _, invariance, _ = field_checks(spec, kin, times)
        assert invariance.passed, invariance


class TestCriterion3:
    def test_c3_attenuation_ratio_identity(self):
        configs = random_cat_configs(50, seed=509)
        worst = 0.0
        for spec, kin, _, times in configs:
            assert log_attenuation_exact(spec, kin, 0.0) == 0.0
            for t in times:
                exact = math.exp(log_attenuation_exact(spec, kin, float(t)))
                assert 0.0 < exact <= 1.0
                gap, _ = ratio_identity_deviation(spec, kin, float(t))
                worst = max(worst, gap)
        assert worst < RATIO_TOL
        summary(
            f"criterion 3: PASS (field-recovered vs closed-form attenuation, "
            f"max rel dev = {worst:.2e} < 1e-10; a(0) = 1 and 0 < a <= 1 throughout)"
        )


class TestCriterion4:
    def test_c4_regime_laws(self):
        # high-T law is exactly Gaussian in time with the predicted constant
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        temperature = 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            tau = high_t_decoherence_time(spec, temperature)
            times = np.linspace(0.0, 2.0, 41)
            log_a = np.array([log_attenuation_high_t(spec, temperature, float(t)) for t in times])
        coeffs = np.polyfit(times, log_a, 2)
        residual = np.max(np.abs(np.polyval(coeffs, times) - log_a))
        assert residual < 1e-10
        assert coeffs[0] == pytest.approx(-1.0 / tau ** 2, rel=1e-8)
        assert abs(coeffs[1]) < 1e-10 and abs(coeffs[2]) < 1e-10

        # low-T law reproduces its frozen reference point
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            low = math.exp(log_attenuation_low_t(CatSpec(mass=1.0, sigma=1.0, d=1.0), zeta=1.0, t=0.1))
        assert low == pytest.approx(0.99871748940112128, rel=1e-12)

        # decoupled-start law: narrow packets decay as a plain exponential,
        # with tau = 3 hbar^2 / (zeta k T d^2)
        narrow = CatSpec(mass=1.0, sigma=1e-3, d=2.0)
        zeta = 0.5
        tau_dec = 3.0 / (zeta * temperature * narrow.d ** 2)
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            for t in (0.05, 0.3, 0.9, 1.6):
                a = math.exp(log_attenuation_decoupled_high_t(narrow, zeta, temperature, t))
                worst = max(worst, abs(a / math.exp(-t / tau_dec) - 1.0))
        assert worst < 1e-8

        # and with the reservoir switched off nothing decays
        for t in (0.1, 1.0, 7.0):
            assert log_attenuation_decoupled_high_t(spec, 0.0, temperature, t) == 0.0

        summary(
            f"criterion 4: PASS (high-T log-quadratic residual {residual:.2e} with "
            f"coefficient -1/tau_d^2; low-T frozen point; decoupled narrow-packet "
            f"exponential within {worst:.2e})"
        )


class TestCriterion5:
    def test_c5_oscillator_revivals_and_limit(self):
        # moderate bath: the minimum is a plain number, not an underflow
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=2.0, temperature=0.8)

        worst_revival = max(
            abs(attenuation_oscillator(spec, float(t)) - 1.0) for t in revival_times(spec, 8)
        )
        assert worst_revival <= 1e-15

        floor = math.exp(-exponent_prefactor(spec))
        assert floor > 0.1
        worst_min = max(
            abs(attenuation_oscillator(spec, k * math.pi / spec.omega) - floor)
            for k in range(3)
        )
        assert worst_min < 1e-12

        # hot shallow trap around a quarter period looks like free spreading:
        # at kT / hbar omega = 1e3 and omega dt <= 1e-2, the high-T law at the
        # ground-state width sigma^2 = hbar / 2 m omega
        hot = OscillatorSpec(mass=1.0, omega=1.0, d=10.0, temperature=1e3)
        ground = CatSpec(mass=hot.mass, sigma=math.sqrt(0.5 / (hot.mass * hot.omega)), d=hot.d)
        delta = np.linspace(-1e-2, 1e-2, 41)
        osc = attenuation_oscillator(hot, math.pi / (2.0 * hot.omega) + delta)
        free = np.exp(log_attenuation_high_t(ground, hot.temperature, delta))
        limit = float(np.max(np.abs(osc - free) / free))
        assert limit < 1e-2

        summary(
            f"criterion 5: PASS (revival deviation {worst_revival:.1e} <= 1e-15, "
            f"minimum closed form within {worst_min:.1e}, free-particle limit "
            f"agrees to {limit:.2e} < 1e-2)"
        )


class TestCriterion6:
    def test_c6_spin_closed_forms(self):
        rng = np.random.default_rng(31)
        worst_p0 = 0.0
        for _ in range(60):
            spec = SpinBathSpec(
                gamma=rng.uniform(0.2, 3.0),
                omega=rng.uniform(0.2, 3.0),
                temperature=10.0 ** rng.uniform(-1.5, 2.0),
            )
            via_occupation = equilibrium_polarization(spec)
            via_tanh = -math.tanh(
                0.5 * spec.omega / spec.temperature
            )
            worst_p0 = max(worst_p0, abs(via_occupation - via_tanh))
            t1, t2 = relaxation_times(spec)
            assert t2 == 2.0 * t1
        assert worst_p0 < 1e-12

        # fitted decay rates of populations vs coherences differ by exactly two
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.0 / (2.0 * math.log(3.0)))
        t1, t2 = relaxation_times(spec)
        p_eq = equilibrium_polarization(spec)
        times = np.linspace(0.0, 3.0 * t1, 120)
        traj = np.array([bloch_evolve(spec, [0.6, 0.3, 0.2], t) for t in times])
        rho_pp_excess = 0.5 * (traj[:, 2] - p_eq)
        coherence = 0.5 * np.hypot(traj[:, 0], traj[:, 1])
        rate_diag = -np.polyfit(times, np.log(rho_pp_excess), 1)[0]
        rate_offdiag = -np.polyfit(times, np.log(coherence), 1)[0]
        assert rate_diag / rate_offdiag == pytest.approx(2.0, abs=1e-6)

        # the closed-form trajectory satisfies the rate equation pointwise
        h = 1e-4 * t1
        worst_residual = 0.0
        for t in np.linspace(h, 3.0 * t1, 25):
            plus = bloch_evolve(spec, [0.6, 0.3, 0.2], t + h)
            minus = bloch_evolve(spec, [0.6, 0.3, 0.2], t - h)
            derivative = (plus - minus) / (2.0 * h)
            rhs = bloch_rhs(spec, bloch_evolve(spec, [0.6, 0.3, 0.2], t))
            worst_residual = max(worst_residual, float(np.max(np.abs(derivative - rhs))))
        assert worst_residual < 1e-8

        summary(
            f"criterion 6: PASS (equilibrium closed forms agree to {worst_p0:.1e}, "
            f"T2 = 2 T1 exactly, population/coherence rate ratio = 2 +- 1e-6, "
            f"rate-equation residual {worst_residual:.1e} < 1e-8)"
        )


class TestCriterion7:
    def test_c7_master_equation_integration(self):
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.0 / (2.0 * math.log(3.0)))
        t1, _ = relaxation_times(spec)

        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            p0 = direction * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
            dev = lindblad_bloch_deviation(spec, p0, 5.0 * t1, t1 / 200.0)
            worst = max(worst, dev)
        assert worst < 1e-6

        rho_eq = density_from_polarization([0.0, 0.0, equilibrium_polarization(spec)])
        fixed_point = float(np.max(np.abs(lindblad_rhs(spec, rho_eq))))
        assert fixed_point < 1e-14

        def rk4_error(h):
            traj = integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, h)
            return abs(traj.states[-1][0] - math.exp(-1.0))

        ratio = rk4_error(0.1) / rk4_error(0.05)
        assert 12.0 <= ratio <= 20.0

        summary(
            f"criterion 7: PASS (20 random states: master equation vs closed form "
            f"within {worst:.2e} < 1e-6, fixed-point residual {fixed_point:.1e}, "
            f"step-halving error ratio {ratio:.2f} in [12, 20])"
        )


class TestCriterion8:
    CONFIG = textwrap.dedent(
        """
        [run]
        mode = free-cat

        [time]
        end = 1.0
        samples = 40

        [free-cat]
        mass = 1.0
        sigma = 1.0
        d = 3.0
        regime = ohmic-high-t
        temperature = 2.0
        gamma = 0.0
        snapshots = 3
        x_samples = 256
        """
    )

    def test_c8_cli_selftest_and_determinism(self, tmp_path, capsys):
        assert main(["selftest"]) == 0
        selftest_out = capsys.readouterr().out
        assert "FAIL" not in selftest_out

        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "first", tmp_path / "second"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        capsys.readouterr()

        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert any(name.startswith("catfield") for name in names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

        summary(
            f"criterion 8: PASS (selftest exit 0; re-run produced byte-identical "
            f"copies of {len(names)} files)"
        )
