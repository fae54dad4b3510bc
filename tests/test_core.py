"""Constants, parameter records, and characteristic scales."""

import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import decolab
from decolab.core import (
    BLOCK_ROWS,
    CGS,
    HBAR_CGS,
    KB_CGS,
    NATURAL,
    UNIT_SYSTEMS,
    CatSpec,
    PhysicalConstants,
    RegimeBreakdownError,
    ReservoirSpec,
    classicality_ratio,
    fail_closed,
    float_map,
    require_non_negative,
    require_positive,
    thermal_de_broglie,
)
from decolab.cat_free import cat_probability, free_kinematics, high_t_decoherence_time, packet_variance
from decolab.spin_bloch import SpinBathSpec, relaxation_times

# frozen with 40-digit arithmetic from the defining constants
LAMBDA_1G_300K = 5.1817194115067113e-21
CLASSICALITY_1K_1E11 = 1.3092033912698900


class TestPhysicalConstants:
    def test_natural_is_unity(self):
        assert NATURAL.hbar == 1.0
        assert NATURAL.k_boltzmann == 1.0
        assert UNIT_SYSTEMS == {"natural": NATURAL, "cgs": CGS}

    def test_cgs_values(self):
        assert CGS.hbar == pytest.approx(6.62607015e-27 / (2 * math.pi), rel=1e-15)
        assert CGS.k_boltzmann == 1.380649e-16
        assert CGS.hbar == HBAR_CGS
        assert CGS.k_boltzmann == KB_CGS

    def test_positive_constants_required(self):
        with pytest.raises(ValueError):
            PhysicalConstants(0.0, 1.0)


class TestSpecs:
    def test_cat_spec_validation(self):
        CatSpec(mass=1.0, sigma=1.0, d=0.0)  # d = 0 is legal
        with pytest.raises(ValueError):
            CatSpec(mass=0.0, sigma=1.0, d=1.0)
        with pytest.raises(ValueError):
            CatSpec(mass=1.0, sigma=-1.0, d=1.0)
        with pytest.raises(ValueError):
            CatSpec(mass=1.0, sigma=1.0, d=-0.1)

    def test_reservoir_spec_validation(self):
        ReservoirSpec(gamma=0.0, temperature=0.0)
        with pytest.raises(ValueError):
            ReservoirSpec(gamma=-1.0, temperature=1.0)
        with pytest.raises(ValueError):
            ReservoirSpec(gamma=1.0, temperature=-1.0)
        with pytest.raises(ValueError):
            ReservoirSpec(gamma=1.0, temperature=1.0, zeta=-0.5)

    @pytest.mark.parametrize("field,value", [
        ("mass", math.nan), ("mass", math.inf), ("sigma", math.inf), ("sigma", math.nan),
        ("d", math.nan), ("d", math.inf),
    ])
    def test_cat_spec_refuses_non_finite(self, field, value):
        params = {"mass": 1.0, "sigma": 1.0, "d": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            CatSpec(**params)

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("gamma", math.inf), ("temperature", math.inf),
        ("temperature", math.nan), ("zeta", math.nan), ("zeta", math.inf),
    ])
    def test_reservoir_spec_refuses_non_finite(self, field, value):
        params = {"gamma": 1.0, "temperature": 1.0, "zeta": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            ReservoirSpec(**params)

    def test_zeta_defaults_to_gamma_mass(self):
        res = ReservoirSpec(gamma=0.25, temperature=1.0)
        assert res.zeta_for(4.0) == 1.0
        override = ReservoirSpec(gamma=0.25, temperature=1.0, zeta=7.0)
        assert override.zeta_for(4.0) == 7.0

    def test_underflowed_gamma_mass_is_refused(self):
        # zeta = 0 would switch the coupling off silently: decoupled-high-t
        # returned log a = 0, low-t refused "zeta must be positive"
        res = ReservoirSpec(gamma=1e-200, temperature=1.0)
        message = "zeta = gamma * mass underflows to 0 (gamma = 1e-200, mass = 1e-200)"
        with pytest.raises(RegimeBreakdownError, match=re.escape(message)):
            res.zeta_for(1e-200)
        assert ReservoirSpec(gamma=0.0, temperature=1.0).zeta_for(1e-200) == 0.0
        assert ReservoirSpec(gamma=1e-200, temperature=1.0, zeta=0.5).zeta_for(1e-200) == 0.5


class TestThermalDeBroglie:
    def test_natural_unity(self):
        assert thermal_de_broglie(1.0, 1.0) == 1.0

    def test_gram_room_temperature(self):
        lam = thermal_de_broglie(1.0, 300.0, CGS)
        assert lam == pytest.approx(LAMBDA_1G_300K, rel=1e-12)

    def test_centimeter_separation_ratio(self):
        lam = thermal_de_broglie(1.0, 300.0, CGS)
        assert 1.0 / lam == pytest.approx(1.9298613463696322e20, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            thermal_de_broglie(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_de_broglie(1.0, 0.0)

    @given(
        mass=st.floats(1e-3, 1e3),
        temperature=st.floats(1e-3, 1e3),
    )
    def test_defining_identity(self, mass, temperature):
        # lambda^2 m k T = hbar^2 in any unit system
        for constants in (NATURAL, CGS):
            lam = thermal_de_broglie(mass, temperature, constants)
            lhs = lam * lam * mass * constants.k_boltzmann * temperature
            assert lhs == pytest.approx(constants.hbar ** 2, rel=1e-12)


class TestClassicalityRatio:
    def test_kelvin_benchmark(self):
        ratio = classicality_ratio(1.0, 1e11, CGS)
        assert ratio == pytest.approx(CLASSICALITY_1K_1E11, rel=1e-12)
        # the common back-of-envelope rounding to 1.0 is ~30% off
        assert ratio == pytest.approx(1.31, rel=1e-3)

    def test_natural(self):
        assert classicality_ratio(2.0, 4.0) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classicality_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            classicality_ratio(1.0, 0.0)


class TestSignRefusals:
    @pytest.mark.parametrize("require, value, message", [
        (require_positive, 0.0, "mass must be positive, got 0.0"),
        (require_positive, -2, "mass must be positive, got -2"),
        (require_non_negative, -1e-300, "mass must be non-negative, got -1e-300"),
    ])
    def test_refusal_names_the_value(self, require, value, message):
        with pytest.raises(ValueError) as caught:
            require("mass", value)
        assert type(caught.value) is ValueError and str(caught.value) == message

    def test_nan_and_the_admitted_values_pass(self):
        # a NaN fails no comparison; the law's own fail-closed check meets it
        for value in (math.nan, 5e-324, math.inf):
            require_positive("x", value)
        for value in (math.nan, 0.0, -0.0, math.inf):
            require_non_negative("x", value)

    def test_scalar_sign_refusals_are_written_only_in_core(self):
        # every other "must be positive|non-negative, got" text carries what
        # the helpers cannot: a [section] prefix, a first bad element of an
        # array of t, or the note on the T = 0 limit
        package = pathlib.Path(decolab.__file__).parent
        pattern = re.compile(r'f"(\[\{sec\.name\}\] )?([^"]*?) must be (?:positive|non-negative), got \{')
        sites = sorted(
            (path.stem, found.group(2))
            for path in package.glob("*.py") for found in pattern.finditer(path.read_text())
        )
        assert sites == [
            ("cat_free", "t"), ("cat_oscillator", "temperature"),
            ("config", "hbar_omega_over_kt"), ("config", "n_revivals"), ("config", "snapshots"),
            ("core", "{name}"), ("core", "{name}"), ("spin_bloch", "t"),
        ]


class TestFailClosed:
    @pytest.mark.parametrize("body, cause", [
        (lambda x: 10.0 ** x, ".*out of range.*"),  # the OverflowError's own text
        (lambda x: 1.0 / (x - x), "float division by zero"),
        (lambda x: np.array([1.0, (x - x) * math.inf]), "a non-finite value"),
        (lambda x: np.array([0.0, -math.inf]), "a non-finite value"),
    ], ids=["overflow", "zero-division", "nan", "inf"])
    def test_leaving_the_float_range_raises_naming_the_law(self, body, cause):
        def law(x):
            return body(x)

        with pytest.raises(RegimeBreakdownError) as caught:
            fail_closed(law)(400.0)
        assert re.fullmatch(rf"law left the float range \({cause}\)", str(caught.value))

    def test_finite_results_and_typed_errors_pass_through(self):
        values = np.array([0.0, 5e-324, 1e308])
        law = fail_closed(lambda x: x)
        assert law(values) is values and law(2.5) == 2.5
        assert classicality_ratio.__name__ == "classicality_ratio"
        with pytest.raises(ValueError, match="gamma must be positive"):
            classicality_ratio(1.0, -1.0)

    @pytest.mark.parametrize("call", [
        lambda: packet_variance(free_kinematics(1.0), 1e-200, 0.0),
        lambda: cat_probability(CatSpec(1.0, 1e-200, 1.0), free_kinematics(1.0), 0.0),
        lambda: thermal_de_broglie(5e-324, 5e-324),
        lambda: high_t_decoherence_time(CatSpec(1.0, 1.0, 5e-324), 5e-324),
        lambda: relaxation_times(SpinBathSpec(5e-324, 1.0, 1.0)),
    ], ids=["packet-variance", "cat-probability", "de-broglie", "high-t-time", "relaxation"])
    def test_underflowed_scales_raise_a_typed_error(self, call):
        # these divided by zero, or returned (inf, inf), instead
        with pytest.raises(RegimeBreakdownError):
            call()

    def test_an_underflowed_damping_scale_raises(self):
        # hbar gamma underflows to 0 in CGS, which raised a bare ZeroDivisionError
        with pytest.raises(RegimeBreakdownError, match="classicality_ratio"):
            classicality_ratio(1.0, 5e-324, CGS)


class TestUnitRoundTrip:
    def test_wavelength_rescaling(self):
        # natural-number inputs m~ = m, T~ = kT/hbar give lambda_cgs = lambda_nat sqrt(hbar)
        mass, temperature = 2.5, 140.0
        lam_cgs = thermal_de_broglie(mass, temperature, CGS)
        t_natural = KB_CGS * temperature / HBAR_CGS
        lam_nat = thermal_de_broglie(mass, t_natural, NATURAL)
        assert lam_nat * math.sqrt(HBAR_CGS) == pytest.approx(lam_cgs, rel=1e-10)

    def test_classicality_rescaling(self):
        temperature, gamma = 3.0, 2.2e10
        t_natural = KB_CGS * temperature / HBAR_CGS
        assert classicality_ratio(t_natural, gamma, NATURAL) == pytest.approx(
            classicality_ratio(temperature, gamma, CGS), rel=1e-10
        )


CHUNK = BLOCK_ROWS  # float_map's chunk


def loop_reference(fn, x):
    """fn over x one element at a time, in C order, with no chunking."""
    return np.array([fn(float(v)) for v in x.flat], dtype=float).reshape(x.shape)


def layouts(n):
    """n values as a 1-D, a C-ordered 2-D, a Fortran-ordered 2-D and two
    strided arrays."""
    values = np.random.default_rng(n).normal(scale=3.0, size=2 * n)
    rows = next(r for r in range(math.isqrt(n), 0, -1) if n % r == 0) if n else 3
    grid = values[:n].reshape(rows, -1)
    return {
        "1d": values[:n],
        "2d": grid,
        "fortran": np.asfortranarray(grid),
        "strided": values[::2],
        "strided-2d": values.reshape(rows, -1)[:, ::2],
    }


class TestFloatMap:
    # several chunks, ending one short of, at and one past a seam, and a
    # dozen chunks and a part
    @pytest.mark.parametrize("n", [0, 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 12 * CHUNK + 7])
    @pytest.mark.parametrize(
        "fn", [math.exp, math.cos, lambda q: q ** 3], ids=["exp", "cos", "cube"]
    )
    def test_matches_the_element_loop_across_chunk_seams(self, n, fn):
        for name, x in layouts(n).items():
            assert x.size == n, name
            got = float_map(fn, x)
            want = loop_reference(fn, x)
            assert got.shape == x.shape, name
            assert got.dtype == np.float64, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.array(0.5)])
    def test_zero_dimensional_input_gives_a_float(self, x):
        got = float_map(math.exp, x)
        assert type(got) is float
        assert got == math.exp(0.5)

    def test_error_past_the_first_chunk_is_raised_at_its_element(self):
        x = np.linspace(1.0, 2.0, 12 * CHUNK)
        x[10_000] = -1.0  # in the fifth chunk
        seen = []

        def log(v):
            seen.append(v)
            return math.log(v)

        with pytest.raises(ValueError) as raised:
            float_map(log, x)
        with pytest.raises(ValueError) as expected:
            math.log(-1.0)
        assert str(raised.value) == str(expected.value)
        assert seen == x[:10_001].tolist()

    def test_transient_memory_stays_near_the_result(self):
        # a list of the whole input as Python floats would cost about four
        # times the 8-byte-per-value result; one chunk at a time costs 66 kB
        x = np.linspace(-5.0, 5.0, 10**6)
        tracemalloc.start()
        try:
            out = float_map(math.exp, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * out.nbytes, (peak, out.nbytes)
