"""Two-level system relaxing into a thermal bath."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decolab.core import CGS, NATURAL, StateInvariantError
from decolab.spin_bloch import (
    SpinBathSpec,
    bloch_evolve,
    check_density_matrix,
    density_from_polarization,
    equilibrium_polarization,
    nbar,
    relaxation_times,
    saturation_magnetization,
)
from helpers import bloch_rhs

# hbar w / k T = 2 ln 3 puts the bath occupation at exactly 1/8
T_EIGHTH = 1.0 / (2.0 * math.log(3.0))
PZ_AT_T1 = -0.50569644706284614  # relaxation from P_z(0) = 0 after one T1


def eighth_spec(gamma=1.0, **extra):
    return SpinBathSpec(gamma=gamma, omega=1.0, temperature=T_EIGHTH, **extra)


class TestSpinBathSpec:
    def test_validation(self):
        SpinBathSpec(gamma=1.0, omega=1.0, temperature=0.0)  # T = 0 is allowed
        with pytest.raises(ValueError):
            SpinBathSpec(gamma=0.0, omega=1.0, temperature=1.0)
        with pytest.raises(ValueError):
            SpinBathSpec(gamma=1.0, omega=-1.0, temperature=1.0)
        with pytest.raises(ValueError):
            SpinBathSpec(gamma=1.0, omega=1.0, temperature=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("gamma", math.inf), ("omega", math.nan), ("omega", math.inf),
        ("temperature", math.nan), ("temperature", math.inf), ("g_n", math.nan), ("mu0", math.inf),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        # unchecked, temperature = inf would end in a bare ZeroDivisionError
        # inside nbar, and gamma = nan in an all-NaN trajectory
        params = {"gamma": 1.0, "omega": 1.0, "temperature": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            SpinBathSpec(**params)

    def test_half_specified_magnetics_fail_at_use(self):
        # constructing with only g_n is fine; asking for magnetization is not
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.0, g_n=2.0)
        with pytest.raises(ValueError, match="mu0"):
            saturation_magnetization(spec)


class TestOccupation:
    def test_exact_eighth(self):
        assert nbar(1.0, T_EIGHTH) == pytest.approx(0.125, rel=1e-14)

    def test_exact_unity(self):
        # hbar w / k T = ln 2 gives 1/(2 - 1) = 1
        assert nbar(1.0, 1.0 / math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_zero_temperature(self):
        assert nbar(1.0, 0.0) == 0.0

    def test_hot_limit(self):
        # kT >> hbar w: occupation approaches kT/(hbar w) - 1/2
        x = 1e-6
        assert nbar(1.0, 1.0 / x) == pytest.approx(1.0 / x - 0.5, rel=1e-6)

    def test_cold_tail_no_overflow(self):
        n = nbar(1.0, 1.0 / 700.0)
        assert n > 0.0
        assert n == pytest.approx(math.exp(-700.0), rel=1e-12)


class TestEquilibrium:
    def test_frozen_polarization(self):
        assert equilibrium_polarization(eighth_spec()) == pytest.approx(-0.8, rel=1e-14)

    def test_two_closed_forms_agree(self):
        # -1/(2 nbar + 1) and -tanh(hbar w / 2 k T) are the same number
        rng = np.random.default_rng(5)
        for _ in range(100):
            omega = rng.uniform(0.1, 10.0)
            temperature = 10.0 ** rng.uniform(-2.0, 3.0)
            spec = SpinBathSpec(gamma=1.0, omega=omega, temperature=temperature)
            via_nbar = equilibrium_polarization(spec)
            via_tanh = -math.tanh(0.5 * omega / temperature)
            assert via_nbar == pytest.approx(via_tanh, rel=1e-12)

    def test_zero_temperature_fully_polarized(self):
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=0.0)
        assert equilibrium_polarization(spec) == -1.0

    def test_hot_bath_depolarizes(self):
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1e8)
        assert abs(equilibrium_polarization(spec)) < 1e-7


class TestRelaxationTimes:
    def test_frozen_values(self):
        t1, t2 = relaxation_times(eighth_spec())
        assert t1 == pytest.approx(0.8, rel=1e-14)
        assert t2 == pytest.approx(1.6, rel=1e-14)

    def test_transverse_is_twice_longitudinal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = SpinBathSpec(
                gamma=rng.uniform(0.1, 5.0),
                omega=rng.uniform(0.1, 5.0),
                temperature=rng.uniform(0.0, 20.0),
            )
            t1, t2 = relaxation_times(spec)
            assert t2 == 2.0 * t1

    def test_zero_temperature_rate(self):
        spec = SpinBathSpec(gamma=0.4, omega=1.0, temperature=0.0)
        t1, _ = relaxation_times(spec)
        assert t1 == pytest.approx(2.5, rel=1e-14)


class TestBlochDynamics:
    def test_fixed_point(self):
        spec = eighth_spec()
        p_eq = np.array([0.0, 0.0, equilibrium_polarization(spec)])
        rhs = bloch_rhs(spec, p_eq)
        assert np.max(np.abs(rhs)) < 1e-14

    def test_relaxation_from_depolarized(self):
        value = bloch_evolve(eighth_spec(), [0.0, 0.0, 0.0], 0.8)
        assert value[2] == pytest.approx(PZ_AT_T1, rel=1e-14)
        assert value[0] == 0.0 and value[1] == 0.0

    def test_identity_at_zero_time(self):
        initial = np.array([0.3, -0.4, 0.5])
        np.testing.assert_array_equal(bloch_evolve(eighth_spec(), initial, 0.0), initial)

    def test_solves_the_rate_equation(self):
        # central difference of the closed form against the generator
        spec = eighth_spec(gamma=0.7)
        t1, _ = relaxation_times(spec)
        initial = np.array([0.4, 0.1, 0.6])
        h = 1e-4 * t1
        for t in (0.2 * t1, t1, 2.7 * t1):
            plus = bloch_evolve(spec, initial, t + h)
            minus = bloch_evolve(spec, initial, t - h)
            derivative = (plus - minus) / (2.0 * h)
            residual = derivative - bloch_rhs(spec, bloch_evolve(spec, initial, t))
            assert np.max(np.abs(residual)) < 1e-8

    def test_transverse_and_longitudinal_rates_differ_by_two(self):
        spec = eighth_spec()
        t1, t2 = relaxation_times(spec)
        p_eq = equilibrium_polarization(spec)
        times = np.linspace(0.05 * t1, 3.0 * t1, 60)
        traj = np.array([bloch_evolve(spec, [0.6, 0.0, 0.2], t) for t in times])
        rate_t = -np.polyfit(times, np.log(traj[:, 0]), 1)[0]
        rate_l = -np.polyfit(times, np.log(traj[:, 2] - p_eq), 1)[0]
        assert rate_l / rate_t == pytest.approx(2.0, abs=1e-9)
        assert rate_t == pytest.approx(1.0 / t2, rel=1e-9)

    def test_time_array_matches_scalar_calls(self):
        # the array form must reproduce the scalar one bit for bit, in any
        # bath: the written trajectories are pinned to it
        initial = np.array([0.6, -0.25, 0.2])
        baths = (eighth_spec(gamma=0.7), SpinBathSpec(1.3, 1.0, 0.0), SpinBathSpec(1.0, 1.0, 1e4))
        for spec in baths:
            times = np.linspace(0.0, 9.0, 257)
            stacked = np.array([bloch_evolve(spec, initial, float(t)) for t in times])
            assert np.array_equal(bloch_evolve(spec, initial, times), stacked)
        with pytest.raises(ValueError):
            bloch_evolve(eighth_spec(), initial, np.array([0.0, -1e-3]))

    def test_nan_time_is_rejected(self):
        # every comparison with NaN is False; a NaN time must not pass as non-negative
        initial = np.array([0.6, -0.25, 0.2])
        with pytest.raises(ValueError):
            bloch_evolve(eighth_spec(), initial, math.nan)
        with pytest.raises(ValueError):
            bloch_evolve(eighth_spec(), initial, np.array([0.0, math.nan, 1.0]))

    @given(
        px=st.floats(-0.6, 0.6),
        py=st.floats(-0.6, 0.6),
        pz=st.floats(-0.6, 0.6),
        t=st.floats(0.0, 20.0),
    )
    def test_ball_is_invariant(self, px, py, pz, t):
        spec = eighth_spec()
        moved = bloch_evolve(spec, [px, py, pz], t)
        start = math.sqrt(px * px + py * py + pz * pz)
        bound = max(start, abs(equilibrium_polarization(spec)))
        assert np.linalg.norm(moved) <= bound + 1e-12


class TestDensityMatrixMap:
    def test_matrix_entries(self):
        px, py, pz = 0.2, -0.4, 0.6
        rho = density_from_polarization([px, py, pz])
        assert rho[0, 0] == pytest.approx(0.5 * (1 + pz), rel=1e-15)
        assert rho[1, 1] == pytest.approx(0.5 * (1 - pz), rel=1e-15)
        assert rho[0, 1] == pytest.approx(0.5 * (px - 1j * py), rel=1e-15)
        assert rho[1, 0] == pytest.approx(0.5 * (px + 1j * py), rel=1e-15)
        assert np.trace(rho) == 1.0

    def test_rejects_outside_ball(self):
        with pytest.raises(StateInvariantError):
            density_from_polarization([1.0, 1.0, 1.0])

    def test_rejects_nan_polarization(self):
        with pytest.raises(StateInvariantError):
            density_from_polarization([math.nan, 0.0, 0.0])
        with pytest.raises(StateInvariantError):
            density_from_polarization([[0.1, 0.0, 0.0], [0.0, 0.0, math.nan]])

    def test_pure_state_on_sphere_passes(self):
        p = np.array([0.6, 0.0, 0.8])  # unit length
        check_density_matrix(density_from_polarization(p))

    def test_stack_matches_scalar_calls(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-0.57, 0.57, size=(200, 3))
        stacked = np.array([density_from_polarization(row) for row in p])
        assert np.array_equal(density_from_polarization(p), stacked)
        with pytest.raises(StateInvariantError):
            density_from_polarization(np.vstack([p, [1.0, 1.0, 1.0]]))


class TestDensityMatrixCheck:
    def test_nan_matrix_fails(self):
        # every comparison with NaN is False; the check must not read that as a pass
        with pytest.raises(StateInvariantError):
            check_density_matrix(np.full((2, 2), np.nan, dtype=complex))

    def test_stack_passes_when_every_state_is_valid(self):
        p = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.8], [0.1, -0.2, 0.3]])
        check_density_matrix(density_from_polarization(p))

    def test_one_nan_state_fails_the_trajectory(self):
        states = density_from_polarization(np.zeros((5, 3)))
        states[3, 0, 1] = np.nan
        with pytest.raises(StateInvariantError):
            check_density_matrix(states)

    def test_one_bad_state_fails_the_trajectory(self):
        states = density_from_polarization(np.zeros((4, 3)))
        states[2] = [[1.5, 0.0], [0.0, -0.5]]  # negative weight
        with pytest.raises(StateInvariantError, match="eigenvalues"):
            check_density_matrix(states)

    def test_shape(self):
        with pytest.raises(StateInvariantError):
            check_density_matrix(np.eye(3))

    @pytest.mark.parametrize("broken, message", [
        (lambda e: [[0.5 + e, 0.0], [0.0, 0.5]], "trace deviates"),
        (lambda e: [[0.5, e], [0.0, 0.5]], "hermiticity violated"),
        (lambda e: [[1.0 + e, 0.0], [0.0, -e]], "eigenvalues"),
    ], ids=["trace", "hermiticity", "eigenvalues"])
    def test_one_bound_for_every_invariant(self, broken, message):
        # each invariant is held to 1e-8: half of it passes, twice it fails
        check_density_matrix(np.array(broken(5e-9), dtype=complex))
        with pytest.raises(StateInvariantError, match=message):
            check_density_matrix(np.array(broken(2e-8), dtype=complex))


class TestMagnetization:
    def magnetic_spec(self):
        return eighth_spec(g_n=2.0, mu0=3.0)

    def test_requires_magnetic_parameters(self):
        with pytest.raises(ValueError, match="missing g_n, mu0$"):
            saturation_magnetization(eighth_spec())

    def test_zero_polarization(self):
        # kT = 1e8 hbar omega leaves P0 = -5e-9, and M0 = -mu0 (g_n/2) P0 = 1.5e-8
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1e8, g_n=2.0, mu0=3.0)
        assert abs(saturation_magnetization(spec)) < 3.0 * 1e-8

    def test_signs_and_magnitudes(self):
        # -mu0 (g/2) P0: along the field for g_n > 0, against it for g_n < 0
        assert saturation_magnetization(self.magnetic_spec()) > 0.0
        flipped = saturation_magnetization(eighth_spec(g_n=-2.0, mu0=3.0))
        assert flipped == -saturation_magnetization(self.magnetic_spec())
        assert saturation_magnetization(eighth_spec(g_n=1.0, mu0=0.5)) == pytest.approx(
            0.5 * 0.5 * 0.8, rel=1e-14
        )

    def test_saturation_value(self):
        spec = self.magnetic_spec()
        msat = saturation_magnetization(spec)
        assert msat == pytest.approx(3.0 * 0.8, rel=1e-13)  # positive for P0 < 0
        # late-time longitudinal magnetization -mu0 (g_n/2) P_z approaches it
        late = bloch_evolve(spec, [0.0, 0.0, 0.0], 40.0)
        assert -spec.mu0 * spec.g_n / 2.0 * late[2] == pytest.approx(msat, rel=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: nbar(0.0, 1.0), "omega must be positive, got 0.0"),
    (lambda: nbar(1.0, -1.0), "temperature must be non-negative, got -1.0"),
    (lambda: bloch_evolve(eighth_spec(), [0.0, 0.0], 1.0), "initial must have shape (3,), got (2,)"),
    (lambda: density_from_polarization([0.0, 0.0]), "state must have shape (3,) or (..., 3), got (2,)"),
], ids=["nbar-omega", "nbar-temperature", "bloch-initial", "density-state"])
def test_refusal_names_the_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
