"""Superposition in a harmonic trap: periodic attenuation and revivals."""

import math
import warnings

import numpy as np
import pytest

from decolab.cat_oscillator import (
    OscillatorSpec,
    attenuation_oscillator,
    exponent_prefactor,
    revival_times,
)
from decolab.cat_free import CatSpec, log_attenuation_high_t
from decolab.core import RegimeBreakdownError

# sinh(ln(1 + sqrt(2))) = 1 exactly, so this temperature makes the
# thermal factor unity and the minimum attenuation exp(-m w d^2 / 2 hbar)
T_UNIT_SINH = 1.0 / 0.8813735870195430


def unit_sinh_spec(d=2.0):
    return OscillatorSpec(mass=1.0, omega=1.0, d=d, temperature=T_UNIT_SINH)


class TestOscillatorSpec:
    def test_zero_temperature_rejected(self):
        with pytest.raises(ValueError):
            OscillatorSpec(mass=1.0, omega=1.0, d=1.0, temperature=0.0)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            OscillatorSpec(mass=-1.0, omega=1.0, d=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            OscillatorSpec(mass=1.0, omega=0.0, d=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            OscillatorSpec(mass=1.0, omega=1.0, d=-1.0, temperature=1.0)

    @pytest.mark.parametrize("field,value", [
        ("mass", math.nan), ("mass", math.inf), ("omega", math.nan), ("omega", math.inf),
        ("d", math.nan), ("d", math.inf), ("temperature", math.nan), ("temperature", math.inf),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        # unchecked, d = nan would give an all-NaN attenuation curve
        params = {"mass": 1.0, "omega": 1.0, "d": 1.0, "temperature": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            OscillatorSpec(**params)

    def test_separation_whose_square_overflows_is_refused(self):
        # d^2 = inf: attenuation_oscillator raised "left the float range
        # ((34, 'Numerical result out of range'))", naming no input
        with pytest.raises(ValueError, match=r"^separation d = 1e\+200 overflows when squared$"):
            OscillatorSpec(mass=1e-300, omega=1.0, d=1e200, temperature=1.0)
        OscillatorSpec(mass=1.0, omega=1.0, d=1e154, temperature=1.0)  # d^2 = 1e308 is finite


class TestAttenuation:
    def test_initial_minimum_value(self):
        # cos^2 = 1 at t = 0; with sinh = 1 the exponent is -m w d^2 / (2 hbar) = -2
        a = attenuation_oscillator(unit_sinh_spec(), 0.0)
        assert a == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_inverse_e_example(self):
        # with sinh = 1 and d = sqrt(2) the exponent is exactly -1
        a = attenuation_oscillator(unit_sinh_spec(d=math.sqrt(2.0)), 0.0)
        assert a == pytest.approx(0.36787944117144233, rel=1e-13)

    def test_no_separation(self):
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=0.0, temperature=1.0)
        assert all(
            attenuation_oscillator(spec, t) == 1.0 for t in np.linspace(0.0, 10.0, 50)
        )

    def test_periodicity(self):
        spec = OscillatorSpec(mass=1.3, omega=0.8, d=1.7, temperature=0.6)
        period = math.pi / spec.omega
        for t in (0.13, 0.6, 2.9):
            a0 = attenuation_oscillator(spec, t)
            a1 = attenuation_oscillator(spec, t + period)
            assert a1 == pytest.approx(a0, rel=1e-12)

    def test_bounded_by_minimum_and_one(self):
        spec = OscillatorSpec(mass=1.0, omega=2.0, d=2.5, temperature=0.8)
        floor = math.exp(-exponent_prefactor(spec))
        a = np.array([attenuation_oscillator(spec, t) for t in np.linspace(0.0, 12.0, 400)])
        assert np.all(a <= 1.0)
        assert np.all(a >= floor - 1e-15)

    def test_cold_bath_saturates_at_full_contrast_loss_scale(self):
        # hbar w / k T huge: 1/sinh underflows smoothly, no overflow error
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=2.0, temperature=1e-7)
        a = attenuation_oscillator(spec, 0.3)
        assert a == 1.0

    def test_moderately_cold_bath_is_finite(self):
        # x = 800 would overflow sinh directly; the stable form must not
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=2.0, temperature=1.0 / 800.0)
        a = attenuation_oscillator(spec, 0.2)
        assert math.isfinite(a)
        assert 0.0 < a <= 1.0

    @pytest.mark.parametrize("t, first", [
        (1e300, "1e+300"),
        (np.array([0.0, 1.0, 1e299, 2e300]), "1e+299"),
    ], ids=["float", "array"])
    def test_overflowing_omega_t_names_omega_and_the_first_time(self, t, first):
        # math.cos(inf) raised a bare "math domain error" naming neither
        spec = OscillatorSpec(mass=1.0, omega=1e10, d=1.0, temperature=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning before the error
            with pytest.raises(RegimeBreakdownError) as info:
                attenuation_oscillator(spec, t)
        assert str(info.value) == f"omega t overflows at t = {first} (omega = 1e+10)"

    def test_hot_bath_decoheres_deeply(self):
        # small x: 1/sinh ~ 1/x = kT/(hbar w), minimum plunges
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=2.0, temperature=1e2)
        expected = math.exp(-2.0 * 1e2)
        assert math.exp(-exponent_prefactor(spec)) > 0.0
        assert math.exp(-exponent_prefactor(spec)) == pytest.approx(expected, rel=1e-2)


class TestMinimumAndRevivals:
    def test_minimum_is_attenuation_at_zero(self):
        spec = OscillatorSpec(mass=0.9, omega=1.4, d=2.2, temperature=1.1)
        assert math.exp(-exponent_prefactor(spec)) == pytest.approx(
            attenuation_oscillator(spec, 0.0), rel=1e-14
        )
        assert math.exp(-exponent_prefactor(spec)) == pytest.approx(
            attenuation_oscillator(spec, math.pi / spec.omega), rel=1e-12
        )

    def test_minimum_decreases_with_separation(self):
        specs = [OscillatorSpec(1.0, 1.0, d, 1.0) for d in (0.5, 1.0, 2.0, 4.0)]
        values = [math.exp(-exponent_prefactor(spec)) for spec in specs]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_revival_instants(self):
        spec = OscillatorSpec(mass=1.0, omega=2.0, d=3.0, temperature=0.7)
        times = revival_times(spec, 4)
        expected = [(n + 0.5) * math.pi / 2.0 for n in range(4)]
        np.testing.assert_allclose(times, expected, rtol=1e-15)

    def test_contrast_returns_exactly(self):
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=5.0, temperature=0.5)
        for t in revival_times(spec, 8):
            assert abs(attenuation_oscillator(spec, t) - 1.0) <= 1e-15

    def test_empty_and_invalid_counts(self):
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=1.0, temperature=1.0)
        assert revival_times(spec, 0).size == 0
        with pytest.raises(ValueError):
            revival_times(spec, -1)


def free_particle_gap(spec, delta_t):
    """Largest relative gap between a(pi/2 omega + dt) and the free-particle
    high-temperature law at the ground-state width sigma^2 = hbar / 2 m omega."""
    ground = CatSpec(mass=spec.mass, sigma=math.sqrt(0.5 / (spec.mass * spec.omega)), d=spec.d)
    osc = attenuation_oscillator(spec, math.pi / (2.0 * spec.omega) + delta_t)
    free = np.exp(log_attenuation_high_t(ground, spec.temperature, delta_t))
    return float(np.max(np.abs(osc - free) / free))


class TestFreeParticleLimit:
    # kT / hbar omega = 1e3 and omega dt <= 1e-2: the reduction holds there
    def test_agreement_in_validity_envelope(self):
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=10.0, temperature=1e3)
        assert free_particle_gap(spec, np.linspace(-1e-2, 1e-2, 21)) < 1e-2

    def test_tighter_window_agrees_better(self):
        spec = OscillatorSpec(mass=1.0, omega=1.0, d=10.0, temperature=1e3)
        wide = free_particle_gap(spec, np.linspace(-1e-2, 1e-2, 11))
        narrow = free_particle_gap(spec, np.linspace(-2e-3, 2e-3, 11))
        assert narrow < wide
