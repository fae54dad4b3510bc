"""Two-packet superposition: spreading, interference, attenuation regimes."""

import math
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab.core import (
    CGS,
    HBAR_CGS,
    KB_CGS,
    NATURAL,
    CatSpec,
    RegimeBreakdownError,
    RegimeValidityWarning,
    float_map,
)
from decolab.cat_free import (
    ReservoirKinematics,
    attenuation_from_field,
    cat_pointwise,
    cat_probability,
    default_grid,
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
    resolvable_overlap,
    single_packet_prob,
)
from decolab import runner
from decolab.oracle import integrate_adaptive
from decolab.runner import RATIO_TOL, _cat_integral, ratio_identity_deviation

# frozen reference values (40-digit arithmetic)
EXP_M25_8 = 0.043936933623407417      # exp(-25/8), fringe suppression at d = 5 sigma
INV_SQRT_2PI = 0.3989422804014327
LOW_T_AT_TENTH = 0.99871748940112128  # m = zeta = sigma = d = 1, t = 0.1


def still_kinematics(s):
    """Kinematics with no commutator growth, for closed-form variance checks."""
    return ReservoirKinematics(c=lambda t: 0.0, s=s, label="still")


class TestKinematics:
    def test_free_commutator(self):
        kin = free_kinematics(mass=2.0)
        assert kin.c(1.0) == 0.5
        assert kin.s(3.7) == 0.0
        assert kin.validity == (0.0, math.inf)

    def test_ohmic_high_t(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            kin = ohmic_high_t_kinematics(mass=1.0, temperature=1.0, gamma=0.1)
        assert kin.c(2.0) == 2.0
        assert kin.s(3.0) == pytest.approx(9.0, rel=1e-15)
        assert kin.validity == (0.0, 10.0)

    def test_ohmic_zero_gamma_unbounded(self):
        kin = ohmic_high_t_kinematics(mass=1.0, temperature=1.0, gamma=0.0)
        assert kin.validity[1] == math.inf

    def test_ohmic_warns_when_not_classical(self):
        # kT/(hbar gamma) = 1, far below the factor-10 margin
        with pytest.warns(RegimeValidityWarning):
            ohmic_high_t_kinematics(mass=1.0, temperature=1.0, gamma=1.0)

    def test_check_time_outside_validity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            kin = ohmic_high_t_kinematics(mass=1.0, temperature=1.0, gamma=0.1)
        with pytest.warns(RegimeValidityWarning):
            kin.check_time(20.0)

    def test_initial_conditions_enforced(self):
        with pytest.raises(ValueError):
            ReservoirKinematics(c=lambda t: 1.0, s=lambda t: 0.0, label="bad c")
        with pytest.raises(ValueError):
            ReservoirKinematics(c=lambda t: 0.0, s=lambda t: 0.5, label="bad s")


class TestPacketVariance:
    def test_free_spreading(self):
        # sigma = 1, m = 1/2: c = 2t, w2 = 1 + t^2
        kin = free_kinematics(mass=0.5)
        spec_sigma = 1.0
        assert packet_variance(kin, spec_sigma, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert packet_variance(kin, spec_sigma, 0.0) == 1.0

    def test_diffusive_term_adds(self):
        # commutator switched off, s = t^2: w2(2) = 1 + 4
        kin = still_kinematics(lambda t: t * t)
        assert packet_variance(kin, 1.0, 2.0) == pytest.approx(5.0, rel=1e-15)

    def test_never_below_initial_width(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            kin = ohmic_high_t_kinematics(mass=1.3, temperature=2.0, gamma=0.02)
        rng = np.random.default_rng(42)
        for _ in range(50):
            sigma = rng.uniform(0.3, 2.0)
            t = rng.uniform(0.0, 3.0)
            assert packet_variance(kin, sigma, t) >= sigma ** 2

    def test_breakdown_on_nonpositive_variance(self):
        bad = still_kinematics(lambda t: -2.0 * t)
        with pytest.raises(RegimeBreakdownError):
            packet_variance(bad, 1.0, 1.0)

    @pytest.mark.parametrize("t, first", [(1.0, "1"), (np.array([0.0, 0.5, 1.0]), "0.5")],
                             ids=["float", "array"])
    def test_breakdown_on_overflowing_variance(self, t, first):
        # c = 1e300 t squares past the float range; no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RegimeBreakdownError, match=rf"^packet variance w\^2 overflows to inf at t = {first}$"):
                packet_variance(free_kinematics(mass=1e-300), 1.0, t)


class TestSinglePacket:
    def test_peak_value(self):
        assert single_packet_prob(1.0, 0.0) == pytest.approx(INV_SQRT_2PI, rel=1e-15)

    def test_normalized(self):
        result = integrate_adaptive(lambda x: single_packet_prob(2.5, x), -20.0, 20.0, tol=1e-10)
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            single_packet_prob(0.0, 1.0)


class TestNormalizationConstant:
    def test_limits(self):
        assert normalization_constant(1.0, 0.0) == 0.5
        wide = normalization_constant(1.0, 100.0)
        assert wide == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_overlap_value(self):
        n = normalization_constant(1.0, 5.0)
        assert n * n == pytest.approx(0.5 / (1.0 + EXP_M25_8), rel=1e-13)


class TestCatField:
    def test_total_is_sum_of_terms(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=3.0)
        field = cat_probability(spec, free_kinematics(1.0), 0.7)
        np.testing.assert_allclose(
            field.total, field.p1 + field.p2 + 2.0 * field.interference, rtol=0, atol=1e-18
        )

    def test_matches_direct_formula(self):
        # independent transcription of the density at a handful of points
        spec = CatSpec(mass=2.0, sigma=0.9, d=2.4)
        kin = free_kinematics(spec.mass)
        t = 1.3
        sig2 = spec.sigma ** 2
        c = t / spec.mass  # hbar t / m in natural units
        w2 = sig2 + c * c / (4.0 * sig2)
        n2 = 0.5 / (1.0 + math.exp(-spec.d ** 2 / (8.0 * sig2)))
        xs = np.array([-1.7, -0.2, 0.0, 0.55, 2.1])
        field = cat_probability(spec, kin, t, x_grid=xs)
        for i, x in enumerate(xs):
            g = lambda u: math.exp(-u * u / (2 * w2)) / math.sqrt(2 * math.pi * w2)
            direct = n2 * (
                g(x - spec.d / 2)
                + g(x + spec.d / 2)
                + 2.0
                * math.exp(-spec.d ** 2 / (8 * w2))
                * g(x)
                * math.cos(c * x * spec.d / (4 * sig2 * w2))
            )
            assert field.total[i] == pytest.approx(direct, rel=1e-13)

    def test_pointwise_agrees_with_grid(self):
        spec = CatSpec(mass=1.0, sigma=1.2, d=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            kin = ohmic_high_t_kinematics(mass=1.0, temperature=1.5, gamma=0.0)
        t = 0.8
        point = cat_pointwise(spec, kin, t)
        xs = np.linspace(-4.0, 4.0, 17)
        field = cat_probability(spec, kin, t, x_grid=xs)
        for i, x in enumerate(xs):
            assert point.total(x) == pytest.approx(field.total[i], rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        x=st.one_of(st.floats(-20.0, 20.0), st.floats(allow_nan=False, allow_infinity=False)),
    )
    def test_pointwise_total_is_the_sum_of_its_terms_bit_for_bit(self, seed, x):
        rng = np.random.default_rng(seed)
        spec = CatSpec(
            mass=rng.uniform(0.5, 2.0), sigma=rng.uniform(0.3, 1.5), d=rng.uniform(0.0, 10.0)
        )
        if rng.random() < 0.5:
            kin = free_kinematics(spec.mass)
        else:
            kin = ohmic_high_t_kinematics(spec.mass, rng.uniform(0.5, 4.0), 0.01)
        point = cat_pointwise(spec, kin, rng.uniform(0.0, 1.5))

        def outcome(f):
            # the hex of the value, or the error both routes raise (cos of inf)
            try:
                return f(x).hex()
            except ValueError as exc:
                return repr(exc)

        assert outcome(point.total) == outcome(
            lambda x: point.p1(x) + point.p2(x) + 2.0 * point.interference(x)
        )

    def test_default_grid_covers_tails(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=6.0)
        kin = free_kinematics(1.0)
        field = cat_probability(spec, kin, 0.5)
        w = math.sqrt(field.w2)
        assert field.x[0] <= -(spec.d / 2 + 6 * w) + 1e-12
        assert field.x[-1] >= (spec.d / 2 + 6 * w) - 1e-12
        assert field.x.size == 2048

    def test_degenerate_single_packet(self):
        # d = 0 collapses to one Gaussian of variance w2
        spec = CatSpec(mass=1.0, sigma=1.0, d=0.0)
        field = cat_probability(spec, free_kinematics(1.0), 0.6)
        expected = single_packet_prob(field.w2, field.x)
        np.testing.assert_allclose(field.total, expected, rtol=1e-12)


class TestQuadratureNormalization:
    def _norm(self, spec, kin, t):
        point = cat_pointwise(spec, kin, t)
        return _cat_integral(spec, point, point.total)

    def test_unit_mass_at_rest(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=5.0)
        value = self._norm(spec, free_kinematics(1.0), 0.0)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_spread_interfering_state(self):
        spec = CatSpec(mass=0.7, sigma=0.8, d=3.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            kin = ohmic_high_t_kinematics(mass=0.7, temperature=2.0, gamma=0.03)
        value = self._norm(spec, kin, 1.1)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_fringe_weight_is_conserved(self):
        # the interference term integrates to 2 N^2 exp(-d^2/8 sigma^2) at every time
        spec = CatSpec(mass=1.0, sigma=1.0, d=4.0)
        kin = free_kinematics(1.0)
        n = normalization_constant(spec.sigma, spec.d)
        expected = 2.0 * n * n * math.exp(-spec.d ** 2 / (8.0 * spec.sigma ** 2))
        for t in (0.0, 0.5, 1.7):
            point = cat_pointwise(spec, kin, t)
            value = _cat_integral(spec, point, lambda x: 2.0 * point.interference(x))
            assert value == pytest.approx(expected, abs=1e-8)

    def test_fringe_to_direct_ratio_at_five_sigma(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=5.0)
        kin = free_kinematics(1.0)
        t = 0.4
        point = cat_pointwise(spec, kin, t)
        direct = _cat_integral(spec, point, lambda x: point.p1(x) + point.p2(x))
        fringe = _cat_integral(spec, point, lambda x: 2.0 * point.interference(x))
        assert fringe / direct == pytest.approx(EXP_M25_8, rel=1e-6)

    def test_far_apart_windows_add_as_a_left_fold(self, monkeypatch):
        # d/2 > 20 w: three windows; compensated summation would give 1e-17
        values = iter([1.0, 1e-17, -1.0])
        monkeypatch.setattr(
            runner.oracle, "integrate_adaptive",
            lambda *args, **kwargs: types.SimpleNamespace(value=next(values)),
        )
        spec = CatSpec(mass=1.0, sigma=1.0, d=100.0)
        assert _cat_integral(spec, types.SimpleNamespace(w2=1.0), None) == 0.0


class TestAttenuationExact:
    def test_quarter_decade_example(self):
        # sigma = 1, d = 2, s = 1, c = 0 gives w2 = 2 and a = exp(-1/4)
        kin = still_kinematics(lambda t: min(t, 1.0))
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        assert log_attenuation_exact(spec, kin, 1.0) == -0.25
        assert math.exp(log_attenuation_exact(spec, kin, 1.0)) == pytest.approx(
            0.7788007830714049, rel=1e-15
        )

    def test_free_evolution_keeps_full_contrast(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=4.0)
        kin = free_kinematics(1.0)
        for t in (0.0, 0.3, 2.0, 7.5):
            assert log_attenuation_exact(spec, kin, t) == 0.0

    def test_bounds_and_initial_value(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            spec = CatSpec(
                mass=rng.uniform(0.5, 2.0),
                sigma=rng.uniform(0.5, 1.5),
                d=rng.uniform(0.0, 5.0),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeValidityWarning)
                kin = ohmic_high_t_kinematics(
                    spec.mass, rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.05)
                )
            assert log_attenuation_exact(spec, kin, 0.0) == 0.0
            a = math.exp(log_attenuation_exact(spec, kin, rng.uniform(0.0, 2.0)))
            assert 0.0 < a <= 1.0

    @pytest.mark.parametrize("sigma, d, times", [
        (1.0, 1e100, [0.0, 0.1, 0.5]),  # s d^2 overflows
        (1e154, 1e154, [0.0, 1.0, 10.0]),  # 8 sigma^2 w^2 overflows
    ], ids=["numerator", "denominator"])
    def test_log_form_stays_in_range_where_its_product_overflows(self, sigma, d, times):
        # log a = -(s/w^2) d^2 / 8 sigma^2 is finite there; the float and the
        # array path agree, and no numpy warning leaks
        spec = CatSpec(mass=1.0, sigma=sigma, d=d)
        kin = ohmic_high_t_kinematics(1.0, 1e300, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = log_attenuation_exact(spec, kin, np.array(times))
            pointwise = [log_attenuation_exact(spec, kin, t) for t in times]
        assert all(type(value) is float for value in pointwise)
        assert curve.tolist() == pointwise
        for t, value in zip(times, pointwise):
            s, w2 = 1e300 * t * t, sigma * sigma + t * t / (4.0 * sigma * sigma) + 1e300 * t * t
            assert value == pytest.approx(-(s / w2) * (d / sigma) ** 2 / 8.0, rel=1e-14)

    @pytest.mark.parametrize("evaluate", [cat_probability, cat_pointwise])
    def test_underflowed_sigma2_w2_is_a_regime_breakdown(self, evaluate):
        # sigma^2 w^2 = 1e-400 at t = 0: log a and the phase slope divided
        # Python floats by 0 and raised a bare ZeroDivisionError
        spec = CatSpec(mass=1.0, sigma=1e-100, d=1.0)
        with pytest.raises(RegimeBreakdownError, match=r"^4 sigma\^2 w\^2 underflows to 0 at t = 0 "):
            evaluate(spec, free_kinematics(1.0), 0.0)

    def test_monotone_decay_in_high_t_reservoir(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            kin = ohmic_high_t_kinematics(1.0, 2.0, 0.0)
        times = np.linspace(0.0, 3.0, 40)
        values = [math.exp(log_attenuation_exact(spec, kin, t)) for t in times]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestFieldRatioRecovery:
    @staticmethod
    def pointwise_ratio(field):
        usable = resolvable_overlap(field)
        return field.envelope[usable] / np.sqrt(field.p1[usable] * field.p2[usable])

    def test_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = CatSpec(
                mass=rng.uniform(0.5, 2.0),
                sigma=rng.uniform(0.7, 1.5),
                d=rng.uniform(0.5, 4.0),
            )
            if rng.random() < 0.5:
                kin = free_kinematics(spec.mass)
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RegimeValidityWarning)
                    kin = ohmic_high_t_kinematics(
                        spec.mass, rng.uniform(0.5, 3.0), rng.uniform(0.0, 0.05)
                    )
            t = rng.uniform(0.0, 1.5)
            field = cat_probability(spec, kin, t)
            ratio = attenuation_from_field(field)
            exact = math.exp(log_attenuation_exact(spec, kin, t))
            assert abs(ratio / exact - 1.0) < 1e-10
            # the ratio is independent of x at every usable grid point
            assert np.max(np.abs(self.pointwise_ratio(field) - ratio)) < 1e-9

    def test_single_packet_has_unit_ratio(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=0.0)
        field = cat_probability(spec, free_kinematics(1.0), 0.4)
        assert attenuation_from_field(field) == pytest.approx(1.0, rel=1e-12)

    def test_log_domain_terms_match_the_grid_ratio(self):
        spec = CatSpec(mass=1.3, sigma=0.9, d=3.0)
        kin = ohmic_high_t_kinematics(spec.mass, 2.0, 0.01)
        field = cat_probability(spec, kin, 0.8)
        recovered, rounding = log_attenuation_from_terms(spec, kin, 0.8, field.x)
        assert recovered == pytest.approx(math.log(attenuation_from_field(field)), abs=1e-10)
        assert 0.0 < rounding < 1e-12  # terms of a few units

    def test_log_domain_terms_recover_an_underflowed_fringe(self):
        # 400 widths apart: p1 p2 underflows everywhere and a(t) itself is 0.0
        spec = CatSpec(mass=1.0, sigma=1.0, d=400.0)
        kin = ohmic_high_t_kinematics(1.0, 2.0, 0.01)
        field = cat_probability(spec, kin, 2.0)
        with pytest.raises(ValueError, match="no grid points"):
            attenuation_from_field(field)
        exact = log_attenuation_exact(spec, kin, 2.0)
        assert math.exp(exact) == 0.0
        recovered, rounding = log_attenuation_from_terms(spec, kin, 2.0, field.x)
        assert exact == pytest.approx(-16000.0, rel=1e-12)
        assert abs(recovered - exact) <= rounding < RATIO_TOL
        # the log-domain ratio is independent of x, point by point
        pointwise = [log_attenuation_from_terms(spec, kin, 2.0, field.x[i:i + 1])[0]
                     for i in range(0, field.x.size, 97)]
        assert np.max(np.abs(np.array(pointwise) - recovered)) < 1e-9

    def test_ratio_identity_is_absolute_below_1e_100(self):
        # a = 2.8e-136 while every grid point still resolves p1 p2
        spec = CatSpec(mass=1.0, sigma=1.0, d=50.0)
        kin = ohmic_high_t_kinematics(1.0, 1000.0, 0.0)
        field = cat_probability(spec, kin, 1.0)
        assert np.all(resolvable_overlap(field))
        assert log_attenuation_exact(spec, kin, 1.0) == pytest.approx(-312.1, abs=0.05)
        assert 0.0 < math.exp(log_attenuation_exact(spec, kin, 1.0)) < 1e-100
        deviation, rounding = ratio_identity_deviation(spec, kin, 1.0)
        assert rounding == 0.0  # the grid route
        # the absolute gap is ~1e-152; a relative one would be ~1e-16
        assert deviation < 1e-140
        assert deviation < RATIO_TOL


class TestHighTemperatureLaw:
    def test_characteristic_time(self):
        # sigma = 1, d = 2, kT/m = 2: tau_d = sqrt(8)/2/sqrt(2) = 1
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            tau = high_t_decoherence_time(spec, 2.0)
        assert tau == pytest.approx(1.0, rel=1e-15)

    def test_gaussian_time_profile(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            tau = high_t_decoherence_time(spec, 2.0)
            for t in (0.0, 0.4, 1.0, 2.3):
                log_a = log_attenuation_high_t(spec, 2.0, t)
                assert log_a == pytest.approx(-((t / tau) ** 2), rel=1e-14)

    def test_scaling_with_separation(self):
        # tau_d falls like 1/d, so the exponent grows like d^2
        base = CatSpec(mass=1.0, sigma=1.0, d=20.0)
        double = CatSpec(mass=1.0, sigma=1.0, d=40.0)
        assert high_t_decoherence_time(double, 1e-4) == pytest.approx(
            0.5 * high_t_decoherence_time(base, 1e-4), rel=1e-14
        )

    def test_no_separation_no_decay(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=0.0)
        assert log_attenuation_high_t(spec, 5.0, 3.0) == 0.0

    def test_warns_when_scales_not_separated(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)  # d only 2 sigma
        with pytest.warns(RegimeValidityWarning):
            log_attenuation_high_t(spec, 2.0, 0.5)

    def test_silent_when_separation_is_wide(self):
        # d = 50 sigma and d = 50 lambda_th: no complaint expected
        spec = CatSpec(mass=1.0, sigma=0.02, d=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeValidityWarning)
            log_attenuation_high_t(spec, 2500.0, 0.001)

    def test_cgs_round_trip(self):
        # rescaled natural inputs reproduce the cgs evaluation
        mass, sigma, d, temperature, t = 1e-12, 1e-5, 1e-4, 300.0, 1.4e-5
        spec_cgs = CatSpec(mass=mass, sigma=sigma, d=d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            a_cgs = math.exp(log_attenuation_high_t(spec_cgs, temperature, t, CGS))
            spec_nat = CatSpec(mass=mass, sigma=sigma / math.sqrt(HBAR_CGS), d=d / math.sqrt(HBAR_CGS))
            a_nat = math.exp(log_attenuation_high_t(spec_nat, KB_CGS * temperature / HBAR_CGS, t))
        assert 0.1 < a_cgs < 0.9  # parameters chosen so the decay is mid-flight
        assert a_nat == pytest.approx(a_cgs, rel=1e-10)


class TestLowTemperatureLaw:
    def test_frozen_point(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=1.0)
        with pytest.warns(RegimeValidityWarning):
            a = math.exp(log_attenuation_low_t(spec, zeta=1.0, t=0.1))
        assert a == pytest.approx(LOW_T_AT_TENTH, rel=1e-13)

    def test_time_constant(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=1.0)
        assert low_t_time_constant(spec, zeta=1.0) == pytest.approx(
            math.sqrt(8.0 * math.pi), rel=1e-15
        )

    def test_start_at_unity(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=1.0)
        with pytest.warns(RegimeValidityWarning):
            assert math.exp(log_attenuation_low_t(spec, zeta=1.0, t=0.0)) == 1.0

    def test_horizon_is_hard(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=1.0)
        with pytest.raises(RegimeBreakdownError):
            log_attenuation_low_t(spec, zeta=2.0, t=0.5)

    def test_rejects_nonpositive_coupling(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=1.0)
        with pytest.raises(ValueError):
            log_attenuation_low_t(spec, zeta=0.0, t=0.1)

    def test_log_form_is_the_exponent(self):
        # a scalar call is the array's sample, bit for bit; the log stays
        # finite where a(t) underflows to 0.0
        spec = CatSpec(mass=1.0, sigma=0.01, d=400.0)
        t = np.linspace(0.0, 0.9, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            log_a = log_attenuation_low_t(spec, 1.0, t)
            assert np.array_equal(log_a, [log_attenuation_low_t(spec, 1.0, v) for v in t])
            assert log_attenuation_low_t(spec, 1.0, 0.0) == 0.0
        assert np.all(np.isfinite(log_a)) and np.any(float_map(math.exp, log_a) == 0.0)

    @pytest.mark.parametrize("t, first", [(0.5, "0.5"), (np.array([0.0, 0.25, 0.5]), "0.25")],
                             ids=["float", "array"])
    def test_underflowed_zeta_t_over_m_is_a_regime_breakdown(self, t, first):
        # zeta t / m is 1e-600 t: its log raised a bare "math domain error";
        # now refused before the short-time warning
        spec = CatSpec(mass=1e300, sigma=1.0, d=1.0)
        message = rf"^zeta t / m underflows to 0 at t = {first} \(zeta = 1e-300, m = 1e\+300\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RegimeBreakdownError, match=message):
                log_attenuation_low_t(spec, 1e-300, t)
        with pytest.warns(RegimeValidityWarning, match="short-time cutoff"):
            assert np.all(log_attenuation_low_t(CatSpec(1e300, 1.0, 0.0), 1e-300, t) == 0.0)

    def test_zero_separation_loses_nothing(self):
        # d = 0 leaves no fringe, as in log_attenuation_high_t; the horizon
        # still holds and the short-time warning is still issued
        spec = CatSpec(mass=1.0, sigma=1.0, d=0.0)
        with pytest.warns(RegimeValidityWarning, match="short-time cutoff"):
            log_a = log_attenuation_low_t(spec, 1.0, np.linspace(0.0, 0.9, 7))
        assert log_a.tolist() == [0.0] * 7
        with pytest.raises(RegimeBreakdownError):
            log_attenuation_low_t(spec, 2.0, 0.5)


class TestDecoupledHighTemperatureLaw:
    def test_zero_coupling_keeps_contrast(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        assert log_attenuation_decoupled_high_t(spec, 0.0, 3.0, 0.7) == 0.0

    def test_narrow_packet_limit(self):
        # sigma -> 0 collapses the law to plain exponential decay, with
        # tau = 3 hbar^2 / (zeta k T d^2)
        spec = CatSpec(mass=1.0, sigma=1e-3, d=2.0)
        zeta, temperature = 0.5, 2.0
        tau = 3.0 / (zeta * temperature * spec.d ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeValidityWarning)
            for t in (0.05, 0.4, 1.2):
                a = math.exp(log_attenuation_decoupled_high_t(spec, zeta, temperature, t))
                assert a == pytest.approx(math.exp(-t / tau), rel=1e-8)

    def test_horizon_and_warning(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        with pytest.raises(RegimeBreakdownError):
            log_attenuation_decoupled_high_t(spec, 0.5, 2.0, 2.0)
        with pytest.warns(RegimeValidityWarning):
            log_attenuation_decoupled_high_t(spec, 0.5, 2.0, 1.0)

    def test_log_form_is_the_exponent(self):
        # a scalar call is the array's sample, bit for bit; the log stays
        # finite where a(t) underflows to 0.0
        spec = CatSpec(mass=1.0, sigma=0.01, d=400.0)
        t = np.linspace(0.0, 0.09, 40)
        log_a = log_attenuation_decoupled_high_t(spec, 1.0, 2.0, t)
        loop = [log_attenuation_decoupled_high_t(spec, 1.0, 2.0, v) for v in t]
        assert np.array_equal(log_a, loop)
        assert np.all(np.isfinite(log_a)) and np.any(float_map(math.exp, log_a) == 0.0)
        assert log_attenuation_decoupled_high_t(spec, 0.0, 2.0, 0.7) == 0.0

    def test_early_cubic_growth(self):
        # short times: -ln a ~ zeta k T d^2 t^3 / (12 m^2 sigma^4)
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        zeta, temperature, t = 0.2, 1.5, 1e-3
        log_a = log_attenuation_decoupled_high_t(spec, zeta, temperature, t)
        predicted = zeta * temperature * 4.0 * t ** 3 / 12.0
        assert -log_a == pytest.approx(predicted, rel=1e-5)


class TestDefaultGrid:
    def test_requested_size(self):
        spec = CatSpec(mass=1.0, sigma=1.0, d=2.0)
        grid = default_grid(spec, 1.5, n_points=301)
        assert grid.size == 301
        assert grid[0] == -grid[-1]


@pytest.mark.parametrize("call, message", [
    (lambda: ReservoirKinematics(c=abs, s=abs, validity=(1.0, 1.0)),
     "validity window must be non-empty, got (1.0, 1.0)"),
    (lambda: free_kinematics(0.0), "mass must be positive, got 0.0"),
    (lambda: ohmic_high_t_kinematics(-1.0, 1.0, 0.0), "mass must be positive, got -1.0"),
    (lambda: ohmic_high_t_kinematics(1.0, 0.0, 0.0), "temperature must be positive, got 0.0"),
    (lambda: ohmic_high_t_kinematics(1.0, 1.0, -0.5), "gamma must be non-negative, got -0.5"),
    (lambda: packet_variance(free_kinematics(1.0), 0.0, 1.0), "sigma must be positive, got 0.0"),
    (lambda: normalization_constant(-1.0, 1.0), "sigma must be positive, got -1.0"),
    (lambda: normalization_constant(1.0, -2.0), "separation d must be non-negative, got -2.0"),
    (lambda: CatSpec(1.0, 1.0, 1e200), "separation d = 1e+200 overflows when squared"),
    (lambda: high_t_decoherence_time(CatSpec(1.0, 1.0, 1.0), 0.0), "temperature must be positive, got 0.0"),
    (lambda: high_t_decoherence_time(CatSpec(1.0, 1.0, 0.0), 1.0), "undefined for zero separation"),
    (lambda: low_t_time_constant(CatSpec(1.0, 1.0, 1.0), 0.0), "zeta must be positive, got 0.0"),
    (lambda: low_t_time_constant(CatSpec(1.0, 1.0, 0.0), 1.0), "undefined for zero separation"),
    (lambda: log_attenuation_decoupled_high_t(CatSpec(1.0, 1.0, 1.0), -1.0, 1.0, 0.1),
     "zeta must be non-negative, got -1.0"),
    (lambda: log_attenuation_decoupled_high_t(CatSpec(1.0, 1.0, 1.0), 1.0, 0.0, 0.1),
     "temperature must be positive, got 0.0"),
], ids=[
    "validity", "free-mass", "ohmic-mass", "ohmic-temperature", "ohmic-gamma",
    "variance-sigma", "norm-sigma", "norm-d", "spec-d", "tau-d-temperature", "tau-d-separation",
    "tau-0-zeta", "tau-0-separation", "decoupled-zeta", "decoupled-temperature",
])
def test_refusal_names_the_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
