"""Independent numerical routes: adaptive quadrature, RK4, raw master equation."""

import ast
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab import oracle, runner
from decolab.cat_free import cat_pointwise, free_kinematics
from decolab.config import load_config
from decolab.core import CatSpec, ConvergenceError, StateInvariantError
from decolab.oracle import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    Trajectory,
    _kernel_coefficients,
    _step_plan,
    _superoperator,
    integrate_adaptive,
    integrate_lindblad,
    integrate_rk4,
    lindblad_rhs,
)
from decolab.runner import lindblad_bloch_deviation
from decolab.spin_bloch import (
    SpinBathSpec,
    bloch_evolve,
    density_from_polarization,
    equilibrium_polarization,
    nbar,
    relaxation_times,
)
from helpers import bloch_rhs, reference_steps

SPIN = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1.0 / (2.0 * math.log(3.0)))


class TestQuadrature:
    def test_low_order_polynomial_is_cheap(self):
        res = integrate_adaptive(lambda x: x * x, 0.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert res.evaluations <= 32  # Simpson is exact for cubics

    def test_quintic(self):
        res = integrate_adaptive(lambda x: x ** 5, 0.0, 2.0, tol=1e-12)
        assert res.value == pytest.approx(64.0 / 6.0, abs=1e-10)

    def test_gaussian(self):
        res = integrate_adaptive(
            lambda x: math.exp(-x * x / 2.0), -10.0, 10.0, tol=1e-10
        )
        assert res.value == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-9)

    def test_odd_integrand_cancels(self):
        res = integrate_adaptive(lambda x: x ** 3 * math.exp(-abs(x)), -5.0, 5.0, tol=1e-10)
        assert abs(res.value) < 1e-9

    def test_oscillatory(self):
        res = integrate_adaptive(lambda x: math.cos(50.0 * x), 0.0, 10.0, tol=1e-10)
        exact = math.sin(500.0) / 50.0
        assert res.value == pytest.approx(exact, abs=1e-9)

    def test_error_contract(self):
        # |result - exact| must stay within max(tol, reported estimate)
        cases = [
            (lambda x: math.exp(-x * x / 2.0), -8.0, 8.0, math.sqrt(2.0 * math.pi)),
            (lambda x: math.cos(50.0 * x), 0.0, 10.0, math.sin(500.0) / 50.0),
            (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, 2.0 * math.atan(4.0)),
        ]
        for f, a, b, exact in cases:
            for tol in (1e-6, 1e-8, 1e-10):
                res = integrate_adaptive(f, a, b, tol=tol)
                assert abs(res.value - exact) <= max(tol, res.error_estimate)

    def test_tightening_tolerance_tightens_answer(self):
        errors = []
        for tol in (1e-4, 1e-7, 1e-10):
            res = integrate_adaptive(lambda x: math.cos(7.0 * x) ** 2, 0.0, 3.0, tol=tol)
            exact = 1.5 + math.sin(42.0) / 28.0
            errors.append(abs(res.value - exact))
        assert errors[2] <= errors[0] + 1e-15
        assert errors[2] < 1e-10

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, tol=1e-8)

    def test_nonfinite_integrand(self):
        with pytest.raises(ValueError):
            integrate_adaptive(
                lambda x: float("nan") if abs(x) < 0.25 else 1.0, -1.0, 1.0, tol=1e-8
            )
        cases = [
            (lambda x: abs(x - 0.5) < 0.1, 0.5),  # the initial midpoint
            (lambda x: 0.2 < x < 0.3 or 0.7 < x < 0.8, 0.25),  # a panel's left quarter point
            (lambda x: 0.7 < x < 0.8, 0.75),  # a panel's right quarter point
        ]
        for bad, first in cases:
            with pytest.raises(ValueError, match=rf"non-finite value nan at x = {first!r}$"):
                integrate_adaptive(lambda x: math.nan if bad(x) else 1.0, 0.0, 1.0, tol=1e-8)

    def test_budget_exhaustion(self, monkeypatch):
        # a discontinuity the refinement can never resolve to 1e-14; a small
        # budget keeps the test fast, the mechanism is the same
        import decolab.oracle as oracle_mod

        for budget in (2, 3, 500, 501):
            monkeypatch.setattr(oracle_mod, "EVALUATION_BUDGET", budget)
            f = CountingIntegrand(lambda x: 0.0 if x < math.pi / 10.0 else 1.0)
            with pytest.raises(ConvergenceError, match=f"budget of {budget} evaluations"):
                integrate_adaptive(f, 0.0, 1.0, tol=1e-14)
            assert f.calls <= budget

    @pytest.mark.parametrize(
        "g, a, b, tol",
        [
            (lambda x: 3.0 * x ** 4 - x + 2.0, -1.0, 2.0, 1e-12),
            (lambda x: math.cos(50.0 * x), 0.0, 10.0, 1e-10),
        ],
    )
    def test_evaluations_count_the_calls(self, g, a, b, tol):
        f = CountingIntegrand(g)
        assert integrate_adaptive(f, a, b, tol=tol).evaluations == f.calls

    def test_evaluations_count_the_calls_of_windowed_cat_integrals(self, monkeypatch):
        # d/2 > 20 w: one window per term, three quadratures in all
        spec = CatSpec(mass=1.0, sigma=0.2, d=12.0)
        pw = cat_pointwise(spec, free_kinematics(1.0), 0.0)
        assert spec.d / 2.0 > 20.0 * math.sqrt(pw.w2)
        results = []

        def recorded(*args, **kwargs):
            results.append(integrate_adaptive(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(runner.oracle, "integrate_adaptive", recorded)
        f = CountingIntegrand(pw.total)
        assert abs(runner._cat_integral(spec, pw, f) - 1.0) < 1e-9
        assert len(results) == 3
        assert sum(r.evaluations for r in results) == f.calls

    def test_result_bits_are_pinned(self):
        res = integrate_adaptive(lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, tol=1e-10)
        assert (res.value.hex(), res.error_estimate.hex(), res.evaluations) == (
            "0x1.5368c951e9cf5p+1", "0x1.6cb6846000000p-35", 2745
        )


class CountingIntegrand:
    """Wraps g and counts the calls made to it."""

    def __init__(self, g):
        self.g = g
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.g(x)


class TestMasterEquationGenerator:
    def test_zero_temperature_decay_rates(self):
        # cold bath, excited state: population leaves at rate gamma
        cold = SpinBathSpec(gamma=0.5, omega=1.0, temperature=0.0)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        drho = lindblad_rhs(cold, rho)
        assert drho[0, 0].real == pytest.approx(-0.5, rel=1e-14)
        assert drho[1, 1].real == pytest.approx(0.5, rel=1e-14)

    def test_coherence_decay_rate(self):
        # off-diagonals decay at half the total rate
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        drho = lindblad_rhs(SPIN, rho)
        rate = SPIN.gamma * (2.0 * nbar(SPIN.omega, SPIN.temperature) + 1.0)
        assert drho[0, 1] == pytest.approx(-0.5 * rate * 0.5, rel=1e-13)

    def test_thermal_state_is_stationary(self):
        for temperature in (0.0, 0.3, 2.0, 50.0):
            spec = SpinBathSpec(gamma=1.3, omega=1.0, temperature=temperature)
            rho_eq = density_from_polarization(
                [0.0, 0.0, equilibrium_polarization(spec)]
            )
            assert np.max(np.abs(lindblad_rhs(spec, rho_eq))) < 1e-14

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = rng.uniform(-1.0, 1.0, size=3)
            p *= rng.uniform(0.0, 0.99) / max(np.linalg.norm(p), 1e-12)
            drho = lindblad_rhs(SPIN, density_from_polarization(p))
            assert abs(np.trace(drho)) < 1e-14
            assert np.max(np.abs(drho - drho.conj().T)) < 1e-14

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lindblad_rhs(SPIN, np.eye(3, dtype=complex))


class TestRK4:
    def test_scalar_exponential(self):
        traj = integrate_rk4(lambda t, y: -y, np.array([1.0]), 2.0, 1e-3)
        assert traj.states[-1][0] == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_fourth_order_convergence(self):
        def err(h):
            traj = integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, h)
            return abs(traj.states[-1][0] - math.exp(-1.0))

        ratio = err(0.1) / err(0.05)
        assert 12.0 <= ratio <= 20.0

    def test_zero_generator_is_constant(self):
        rho0 = density_from_polarization([0.3, 0.1, -0.2])
        traj = integrate_rk4(lambda t, y: np.zeros_like(y), rho0, 1.0, 0.25)
        np.testing.assert_allclose(traj.states[-1], rho0, rtol=0, atol=1e-14)

    def test_sampling_layout(self):
        traj = integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, 0.25)
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)

    def test_partial_final_step(self):
        traj = integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, 0.3)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.times.size == 5  # three full steps and one remainder
        assert traj.states[-1][0] == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, 2.0)

    def test_bloch_vector_route_matches_closed_form(self):
        # fine-step three-component integration against the analytic solution
        t1, _ = relaxation_times(SPIN)
        initial = np.array([0.5, -0.3, 0.4])
        traj = integrate_rk4(
            lambda t, p: bloch_rhs(SPIN, p), initial, 5.0 * t1, t1 / 1e4
        )
        final = bloch_evolve(SPIN, initial, traj.times[-1])
        np.testing.assert_allclose(traj.states[-1], final, rtol=0, atol=1e-6)


def assert_plan_matches_reference(t_end, dt):
    n, tail, times = _step_plan(t_end, dt)
    steps, reference_times = reference_steps(t_end, dt)
    assert np.array([dt] * n + list(tail)).tobytes() == np.array(steps).tobytes()
    assert times.tobytes() == np.array(reference_times).tobytes()
    return n, tail


class TestStepPlan:
    """The plan both integrators step by, held to the loop it replaced."""

    @pytest.mark.parametrize("t_end, dt, full, short", [
        (3.0, 0.375, 8, False),          # dt divides t_end exactly
        (1.0, 0.1, 10, False),           # the tenth sum of 0.1 falls short of 1 by an ulp
        (1.0 + 1e-13, 0.25, 4, False),   # remainder below the 1e-12 margin, t_end > 1
        (0.5 + 1e-13, 0.125, 4, False),  # the same below 1, where the margin is absolute
        (0.3, 0.07, 4, True),            # t_end < 1 with a short final step
        (7.3, 0.7, 10, True),            # t_end > 1 with a short final step
        (2.5, 2.5, 1, False),            # dt == t_end
        (0.0, 0.1, 0, False),            # t_end = 0: the start alone
    ])
    def test_fixed_cases(self, t_end, dt, full, short):
        n, tail = assert_plan_matches_reference(t_end, dt)
        assert (n, len(tail)) == (full, int(short))

    @settings(max_examples=200, deadline=None)
    @given(
        t_end=st.floats(1e-9, 1e6),
        per_step=st.one_of(st.integers(1, 3000).map(float), st.floats(1.0, 3000.0)),
    )
    def test_matches_the_reference_loop(self, t_end, per_step):
        assert_plan_matches_reference(t_end, t_end / per_step)

    def test_rk4_refuses_a_horizon_past_the_budget(self):
        calls = []
        message = "takes 1e+07 RK4 steps, above the budget of 1000000"
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            integrate_rk4(lambda t, y: calls.append(t) or -y, np.array([1.0]), 1.0, 1e-7)
        assert calls == []

    def test_both_integrators_take_the_planned_times(self):
        _, reference_times = reference_steps(1.0, 0.3)
        rk4 = integrate_rk4(lambda t, y: -y, np.array([1.0]), 1.0, 0.3)
        lindblad = integrate_lindblad(SPIN, density_from_polarization([0.2, 0.1, 0.3]), 1.0, 0.3)
        for traj in (rk4, lindblad):
            assert traj.times.tobytes() == np.array(reference_times).tobytes()


def assert_matches_raw_generator(spec, rho0, t_end, dt):
    # reference: generic RK4 on the literal 2x2 generator, one call per stage
    fast = integrate_lindblad(spec, rho0, t_end, dt)
    reference = integrate_rk4(lambda t, rho: lindblad_rhs(spec, rho), rho0, t_end, dt)
    assert np.array_equal(fast.times, reference.times)
    assert np.array_equal(fast.states, reference.states)
    return fast


def count_runs(monkeypatch):
    """The name of each float recurrence `integrate_lindblad` steps, in order."""
    runs = []
    for name in ("_population_run", "_coherence_run"):
        def counted(*args, name=name, run=getattr(oracle, name)):
            runs.append(name)
            return run(*args)
        monkeypatch.setattr(oracle, name, counted)
    return runs


class TestLindbladIntegration:
    @pytest.mark.parametrize("temperature", [0.0, SPIN.temperature, 1e4])
    def test_superoperator_route_is_bit_identical_to_raw_generator(self, temperature):
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=temperature)
        t1, _ = relaxation_times(spec)
        rho0 = density_from_polarization([0.4, -0.3, 0.5])
        assert_matches_raw_generator(spec, rho0, 5.0 * t1, t1 / 200.0)

    def test_bit_identical_on_the_shipped_spin_bath(self):
        # the bath, start and step of `run configs/spin.cfg --verify`
        config = load_config(pathlib.Path(__file__).parent.parent / "configs" / "spin.cfg")
        spec = config.params.spec
        t1, _ = relaxation_times(spec)
        rho0 = density_from_polarization(config.params.initial)
        traj = assert_matches_raw_generator(spec, rho0, config.t_end, min(t1, config.t_end) / 400.0)
        assert traj.times.size > 6000

    def test_bit_identical_with_a_short_final_step(self):
        t1, _ = relaxation_times(SPIN)
        rho0 = density_from_polarization([0.2, 0.5, -0.1])
        traj = assert_matches_raw_generator(SPIN, rho0, 3.0 * t1, 0.08 * t1)
        steps = np.diff(traj.times)
        assert steps[-1] == pytest.approx(0.5 * steps[0], rel=1e-9)  # 37.5 steps

    @settings(max_examples=12, deadline=None)
    @given(
        temperature=st.one_of(st.just(0.0), st.floats(0.05, 30.0)),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        radius=st.floats(0.0, 0.999),
        per_t1=st.integers(1, 8),
        full_steps=st.integers(1, 60),
        remainder=st.floats(0.05, 0.95),
    )
    def test_bit_identical_to_raw_generator_property(
        self, temperature, direction, radius, per_t1, full_steps, remainder
    ):
        # any bath, any start inside the Bloch ball, a short final step; steps
        # stay coarse (t1/8 or longer) because at fine steps RK4's combination
        # absorbs most one-ulp differences in a stage, which would hide a
        # kernel that rounds differently
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=temperature)
        t1, _ = relaxation_times(spec)
        norm = float(np.linalg.norm(direction))
        p = np.array(direction) * (radius / norm) if norm > 1e-3 else np.zeros(3)
        dt = t1 / per_t1
        traj = assert_matches_raw_generator(
            spec, density_from_polarization(p), (full_steps + remainder) * dt, dt
        )
        assert np.diff(traj.times)[-1] < 0.96 * dt

    def test_bit_identical_through_subnormal_populations(self):
        # at T = 0 the upper population decays into the subnormal range
        spec = SpinBathSpec(gamma=1.0, omega=1.0, temperature=0.0)
        t1, _ = relaxation_times(spec)
        rho0 = density_from_polarization([0.3, -0.2, 0.9])
        traj = assert_matches_raw_generator(spec, rho0, 760.0 * t1, 0.5 * t1)
        upper = np.abs(traj.states[:, 0, 0].real)
        assert np.count_nonzero((upper > 0.0) & (upper < np.finfo(float).tiny)) > 50

    @pytest.mark.parametrize(
        "op_index, row, entries",
        [
            (0, 3, [-2.0, 0.0, 0.0, 0.0]),  # row 3 equal to row 0, not negated
            (1, 3, [0.0, 0.0, 0.0, -1.0]),  # row 3 coefficient not -b0
            (0, 3, [0.0, 0.0, 0.0, 2.0]),   # row 3 on another column than row 0
            (0, 1, [0.0, 0.0, -1.0, 0.0]),  # rho01 driven by rho10
            (1, 2, [0.0, -1.0, 0.0, 0.0]),  # rho10 driven by rho01
            (0, 0, [0.0, 0.0, 0.0, -2.0]),  # population row on the wrong column
        ],
        ids=["row3-not-negated", "row3-coefficient", "row3-column",
             "row1-coupled", "row2-coupled", "row0-column"],
    )
    def test_kernel_needs_negated_populations_and_uncoupled_coherences(
        self, op_index, row, entries
    ):
        ops = [_superoperator(SIGMA_MINUS), _superoperator(SIGMA_PLUS)]
        assert _kernel_coefficients(*ops) == (-2.0, 2.0, -1.0, -1.0, -1.0, -1.0)
        ops[op_index][row] = entries
        with pytest.raises(ValueError, match=f"superoperator row {row}"):
            _kernel_coefficients(*ops)

    def test_second_call_builds_no_table(self, monkeypatch):
        # D and U depend on no input: built and checked once, not per call
        rho0 = density_from_polarization([0.2, 0.1, 0.3])
        first = integrate_lindblad(SPIN, rho0, 1.0, 0.1)
        builds = []

        def counting_superoperator(jump):
            builds.append(jump)
            return _superoperator(jump)

        monkeypatch.setattr(oracle, "_superoperator", counting_superoperator)
        second = integrate_lindblad(SPIN, rho0, 1.0, 0.1)
        assert builds == []
        assert second.states.tobytes() == first.states.tobytes()

    def test_coherences_keep_their_own_recurrences(self):
        # rho10 is not rebuilt as conj(rho01): a start off Hermitian by far
        # less than the check's tolerance still matches the raw generator
        rho0 = density_from_polarization([0.2, 0.5, -0.1])
        rho0[1, 0] += complex(3e-12, -1e-12)
        traj = assert_matches_raw_generator(SPIN, rho0, 2.0, 0.05)
        assert not np.array_equal(traj.states[:, 1, 0], traj.states[:, 0, 1].conj())

    @pytest.mark.parametrize(
        "polarization, coherence_runs",
        [([0.8, 0.0, 0.1], 1), ([0.0, 0.0, 0.0], 0), ([-0.5, 0.5, 0.0], 1)],
        ids=["zero-p_y", "all-zero", "opposite-signs"],
    )
    def test_bit_identical_with_zero_and_mirrored_components(
        self, polarization, coherence_runs, monkeypatch
    ):
        # zero components are not stepped; -v reuses the run of +v, negated
        t1, _ = relaxation_times(SPIN)
        runs = count_runs(monkeypatch)
        rho0 = density_from_polarization(polarization)
        assert_matches_raw_generator(SPIN, rho0, 3.0 * t1, t1 / 7.0)
        assert runs.count("_coherence_run") == coherence_runs

    def test_bit_identical_with_imaginary_populations(self):
        # the populations' imaginary pair runs its own recurrence
        rho0 = density_from_polarization([0.3, -0.2, 0.4])
        rho0[0, 0] += 1e-12j
        rho0[1, 1] -= 1e-12j
        traj = assert_matches_raw_generator(SPIN, rho0, 2.0, 0.05)
        assert np.all(traj.states[:, 0, 0].imag != 0.0)

    def test_shipped_start_steps_one_pair_and_one_coherence(self, monkeypatch):
        # p_y = 0: the populations' imaginary parts and Im rho01, Im rho10 stay
        # zero, and Re rho10 = Re rho01 reuses its run
        config = load_config(pathlib.Path(__file__).parent.parent / "configs" / "spin.cfg")
        spec = config.params.spec
        t1, _ = relaxation_times(spec)
        runs = count_runs(monkeypatch)
        rho0 = density_from_polarization(config.params.initial)
        integrate_lindblad(spec, rho0, config.t_end, min(t1, config.t_end) / 400.0)
        assert sorted(runs) == ["_coherence_run", "_population_run"]

    def test_invalid_start_fails_before_any_step(self, monkeypatch):
        runs = count_runs(monkeypatch)
        rho0 = 2.0 * density_from_polarization([0.2, 0.0, 0.1])
        with pytest.raises(StateInvariantError, match="trace"):
            integrate_lindblad(SPIN, rho0, 10.0, 1e-3)
        assert runs == []

    def test_step_budget_fails_before_any_step(self, monkeypatch):
        # 10^7 steps would peak at about 1.05 GB
        runs = count_runs(monkeypatch)
        rho0 = density_from_polarization([0.2, 0.0, 0.1])
        message = "t_end = 1 in steps of dt = 1e-07 takes 1e+07 RK4 steps, above the budget of 1000000"
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            integrate_lindblad(SPIN, rho0, 1.0, 1e-7)
        assert runs == []
        assert oracle.STEP_BUDGET == 10**6

    def test_nan_in_rho0_fails_the_check(self):
        rho0 = density_from_polarization([0.2, 0.0, 0.1])
        rho0[0, 1] = complex(math.nan, 0.0)
        with pytest.raises(StateInvariantError):
            integrate_lindblad(SPIN, rho0, 1.0, 0.1)

    @pytest.mark.parametrize(
        "row",
        [[-2.0, 1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 1.0j, 0.0, 0.0]],
        ids=["two-entries", "inexact-coefficient", "imaginary"],
    )
    def test_kernel_table_needs_one_exact_entry_per_row(self, row):
        # the scalar kernel's exactness rests on this form of D and U
        down, up = _superoperator(SIGMA_MINUS), _superoperator(SIGMA_PLUS)
        down[1] = row
        with pytest.raises(ValueError, match="superoperator row 1"):
            _kernel_coefficients(down, up)

    def test_deviation_is_the_max_over_samples(self):
        t1, _ = relaxation_times(SPIN)
        p0 = np.array([0.4, 0.2, -0.3])
        traj = integrate_lindblad(SPIN, density_from_polarization(p0), 2.0 * t1, t1 / 50.0)
        per_sample = [
            np.max(np.abs(rho - density_from_polarization(bloch_evolve(SPIN, p0, float(t)))))
            for t, rho in zip(traj.times, traj.states)
        ]
        assert lindblad_bloch_deviation(SPIN, p0, 2.0 * t1, t1 / 50.0) == max(per_sample)

    def test_deviation_does_not_depend_on_the_block_size(self, monkeypatch):
        t1, _ = relaxation_times(SPIN)
        args = (SPIN, [0.4, 0.2, -0.3], 2.0 * t1, t1 / 50.0)
        whole = lindblad_bloch_deviation(*args)  # 101 states: one block
        monkeypatch.setattr(runner, "GAP_BLOCK", 7)
        assert lindblad_bloch_deviation(*args) == whole

    def test_deviation_keeps_a_nan_in_any_block(self, monkeypatch):
        t1, _ = relaxation_times(SPIN)
        p0 = [0.4, 0.2, -0.3]
        traj = integrate_lindblad(SPIN, density_from_polarization(p0), 2.0 * t1, t1 / 50.0)
        traj.states[30, 0, 1] = complex(math.nan, 0.0)  # in the fifth block of 7 states
        monkeypatch.setattr(oracle, "integrate_lindblad", lambda *args: traj)
        monkeypatch.setattr(runner, "GAP_BLOCK", 7)
        assert math.isnan(lindblad_bloch_deviation(SPIN, p0, 2.0 * t1, t1 / 50.0))

    def test_deviation_peaks_where_the_trajectory_does(self):
        # the closed form is compared block by block, so checking 20,000 RK4
        # steps costs no more memory than integrating them
        t1, _ = relaxation_times(SPIN)
        p0 = [0.4, 0.2, -0.3]

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bare = traced_peak(
            lambda: integrate_lindblad(SPIN, density_from_polarization(p0), 50.0 * t1, t1 / 400.0)
        )
        checked = traced_peak(lambda: lindblad_bloch_deviation(SPIN, p0, 50.0 * t1, t1 / 400.0))
        assert checked <= 1.05 * bare, (checked, bare)

    def test_reckless_step_fails_the_check(self):
        t1, _ = relaxation_times(SPIN)
        rho0 = density_from_polarization([0.0, 0.0, 0.9])
        with pytest.raises(StateInvariantError):
            integrate_lindblad(SPIN, rho0, 100.0 * t1, 50.0 * t1)

    def test_matches_bloch_solution(self):
        t1, _ = relaxation_times(SPIN)
        dev = lindblad_bloch_deviation(SPIN, [0.4, 0.2, -0.3], 5.0 * t1, t1 / 200.0)
        assert dev < 1e-6

    def test_stays_at_equilibrium(self):
        t1, _ = relaxation_times(SPIN)
        rho_eq = density_from_polarization([0.0, 0.0, equilibrium_polarization(SPIN)])
        traj = integrate_lindblad(SPIN, rho_eq, 2.0 * t1, t1 / 100.0)
        np.testing.assert_allclose(traj.states[-1], rho_eq, rtol=0, atol=1e-13)

    def test_relaxes_to_equilibrium_in_hot_bath(self):
        # ten relaxation times leave a residual well under the check tolerance
        hot = SpinBathSpec(gamma=1.0, omega=1.0, temperature=1e4)
        t1, _ = relaxation_times(hot)
        rho_eq = density_from_polarization([0.0, 0.0, equilibrium_polarization(hot)])
        traj = integrate_lindblad(
            hot, density_from_polarization([0.0, 0.0, 0.0]), 10.0 * t1, t1 / 100.0
        )
        assert np.max(np.abs(traj.states[-1] - rho_eq)) < 1e-8

    def test_trace_preserved_along_trajectory(self):
        t1, _ = relaxation_times(SPIN)
        traj = integrate_lindblad(
            SPIN, density_from_polarization([0.2, 0.5, 0.1]), 3.0 * t1, t1 / 150.0
        )
        traces = np.einsum("tii->t", traj.states)
        np.testing.assert_allclose(traces.real, 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(traces.imag, 0.0, rtol=0, atol=1e-12)

    def test_trajectory_record(self):
        traj = integrate_lindblad(
            SPIN, density_from_polarization([0.0, 0.0, 0.0]), 0.4, 0.1
        )
        assert isinstance(traj, Trajectory)
        assert traj.states.shape == (5, 2, 2)
        assert traj.times[0] == 0.0


def test_integration_peaks_near_what_it_returns():
    # the trajectory holds 72 bytes per step (complex states and times); the
    # runs' float buffers and the density check's temporaries come on top
    t1, _ = relaxation_times(SPIN)
    rho0 = density_from_polarization([0.4, 0.2, -0.3])
    tracemalloc.start()
    try:
        traj = integrate_lindblad(SPIN, rho0, 50.0 * t1, t1 / 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = traj.times.size - 1
    assert steps == 20_000
    assert peak <= 120 * steps, peak / steps


@pytest.mark.parametrize("call, message", [
    (lambda: integrate_adaptive(math.exp, 0.0, 1.0, tol=0.0), "tolerance must be positive, got 0.0"),
    (lambda: integrate_rk4(lambda t, y: -y, 1.0, -1.0, 0.1), "t_end must be non-negative, got -1.0"),
    (lambda: integrate_lindblad(SpinBathSpec(1.0, 1.0, 1.0), np.eye(3) / 3.0, 1.0, 0.1),
     "rho0 must be 2x2, got shape (3, 3)"),
], ids=["tolerance", "t_end", "rho0-shape"])
def test_refusal_names_the_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestIndependence:
    """The oracle must share no code with the closed forms it verifies."""

    def test_oracle_imports_no_closed_form(self):
        tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
        in_functions = [
            node.lineno
            for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert in_functions == []
        # (source module, bound name) of every import; `from . import x` has source ""
        imported = [
            (node.module or "", alias.name) if isinstance(node, ast.ImportFrom)
            else (alias.name, alias.name)
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        from_spin_bloch = []
        for module, name in imported:
            touched = {*module.split("."), *name.split(".")}
            assert not touched & {"cat_free", "cat_oscillator"}, (module, name)
            if "spin_bloch" in touched:
                from_spin_bloch.append(name)
        assert sorted(from_spin_bloch) == ["check_density_matrix", "nbar"]
