"""The attenuation laws over an array of times against a loop of scalar calls.

The loop is the reference: an array call must give the same floats bit for
bit, or the same error with no warning before it.  Its warnings are the
loop's, each cause issued once (see once_per_call).
"""

import math
import re
import warnings

import numpy as np
import pytest

from decolab.cat_free import (
    ReservoirKinematics,
    attenuation_decoupled_high_t,
    attenuation_exact,
    attenuation_high_t,
    free_kinematics,
    log_attenuation_exact,
    log_attenuation_low_t,
    ohmic_high_t_kinematics,
    packet_variance,
    tabulated_kinematics,
)
from decolab.cat_oscillator import OscillatorSpec, attenuation_oscillator
from decolab.core import CGS, NATURAL, CatSpec, RegimeValidityWarning, float_map
from decolab.runner import recorded_warnings

CAT = CatSpec(mass=1.3, sigma=0.8, d=2.5)
TIMES = np.concatenate([[0.0], np.random.default_rng(5).uniform(0.0, 0.9, 400), [0.9]])


def low_t(t):
    """The low-temperature attenuation exp(log a(t)) at zeta = 1.3, per sample."""
    return float_map(math.exp, log_attenuation_low_t(CAT, 1.3, t))


def result_of(call):
    try:
        return call()
    except ValueError as exc:
        return (type(exc), str(exc))


def outcome(call):
    """(result or (error type, text), recorded_warnings() list, every warning
    message) of call(), which is made twice: once per warning recorder."""
    with recorded_warnings() as distinct:
        result = result_of(call)
    with warnings.catch_warnings(record=True) as every:
        warnings.simplefilter("always")
        result_of(call)
    return result, distinct, [str(w.message) for w in every]


def loop(fn, times):
    return np.array([fn(float(t)) for t in times])


PER_TIME = re.compile(r"^t = \S+ ")  # a warning about one time: "t = <value> <cause>"


def once_per_call(messages):
    """A scalar loop's warnings as one array call issues them: each cause
    once, at its first message, which counts the times a per-time cause
    covers when there are several."""
    firsts = {}
    for text in messages:
        cause = PER_TIME.sub("", text)
        first, n = firsts.get(cause, (text, 0))
        firsts[cause] = (first, n + 1)
    return [f"{first} (first of {n} such times)" if n > 1 and PER_TIME.match(first) else first
            for first, n in firsts.values()]


def assert_matches_loop(fn, times):
    """fn(times) equals the loop of fn(t), or raises its error before any
    warning; otherwise it issues once_per_call of the loop's warnings."""
    array, distinct, every = outcome(lambda: fn(times))
    reference, _, ref_every = outcome(lambda: loop(fn, times))
    if isinstance(reference, tuple):
        assert array == reference
        assert every == []
    else:
        assert isinstance(array, np.ndarray) and array.shape == np.shape(times)
        assert np.array_equal(array, reference)
        assert every == once_per_call(ref_every)
    assert distinct == every
    return array, distinct


def ohmic(gamma=0.01, temperature=1.5):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeValidityWarning)
        return ohmic_high_t_kinematics(CAT.mass, temperature, gamma)


class TestAttenuationExact:
    @pytest.mark.parametrize("kin", [
        free_kinematics(CAT.mass),
        free_kinematics(CAT.mass, CGS),
        ohmic(),
        ohmic(gamma=0.0, temperature=40.0),
        tabulated_kinematics(np.linspace(0.0, 1.0, 37), np.linspace(0.0, 0.6, 37),
                             np.linspace(0.0, 1.0, 37) ** 2),
    ], ids=["free", "free-cgs", "ohmic-high-t", "ohmic-hot", "tabulated"])
    def test_array_equals_scalar_loop(self, kin):
        curve, _ = assert_matches_loop(lambda t: attenuation_exact(CAT, kin, t), TIMES)
        assert curve[0] == 1.0
        assert_matches_loop(lambda t: log_attenuation_exact(CAT, kin, t), TIMES)
        assert_matches_loop(lambda t: packet_variance(kin, CAT.sigma, t), TIMES)

    def test_float_in_float_out(self):
        value = attenuation_exact(CAT, ohmic(), 0.5)
        assert type(value) is float
        assert type(log_attenuation_exact(CAT, ohmic(), 0.5)) is float

    def test_one_warning_for_the_times_outside_the_window(self):
        times = np.linspace(0.0, 30.0, 61)  # the window ends at 1/gamma = 10
        _, distinct = assert_matches_loop(lambda t: attenuation_exact(CAT, ohmic(0.1), t), times)
        assert distinct == ["t = 10 lies outside the validity window [0, 10) of the "
                            "ohmic-high-t kinematics (first of 41 such times)"]

    def test_tabulated_past_its_end(self):
        kin = tabulated_kinematics([0.0, 0.5], [0.0, 0.2], [0.0, 0.4], label="short")
        _, distinct = assert_matches_loop(
            lambda t: attenuation_exact(CAT, kin, t), np.linspace(0.0, 1.0, 11)
        )
        assert distinct == ["t = 0.5 lies outside the validity window [0, 0.5) of the "
                            "short kinematics (first of 6 such times)"]

    @pytest.mark.parametrize("evaluate, s, text", [
        (lambda kin, t: attenuation_exact(CAT, kin, t), lambda t: t * (0.5 - t),
         "mean-square displacement s = -0.36 is negative at t = 0.9"),
        (lambda kin, t: packet_variance(kin, CAT.sigma, t), lambda t: -4.0 * t * (t > 0.5),
         "packet variance w^2 = -2.96 is not positive at t = 0.9"),
    ], ids=["negative-s", "negative-w2"])
    def test_breakdown_names_the_first_offending_time(self, evaluate, s, text):
        # the window ends before the breakdown: a loop warns for t = 0.4
        # first, the array call only raises
        kin = ReservoirKinematics(c=lambda t: 0.0 * t, s=s, validity=(0.0, 0.3), label="leaky")
        times = np.array([0.0, 0.2, 0.4, 0.9, 1.0])
        result, distinct = assert_matches_loop(lambda t: evaluate(kin, t), times)
        assert result[1] == text
        assert distinct == []
        with pytest.warns(RegimeValidityWarning, match="t = 0.4 lies outside"):
            evaluate(kin, 0.4)


class TestClosedFormRegimes:
    def test_high_t(self):
        _, distinct = assert_matches_loop(lambda t: attenuation_high_t(CAT, 2.0, t), TIMES)
        assert len(distinct) == 2  # d is not large against sigma nor lambda_th
        assert_matches_loop(lambda t: attenuation_high_t(CAT, 2.0, t, CGS), TIMES * 1e-12)

    def test_high_t_zero_separation(self):
        flat = CatSpec(mass=1.0, sigma=1.0, d=0.0)
        curve, _ = assert_matches_loop(lambda t: attenuation_high_t(flat, 2.0, t), TIMES)
        assert np.all(curve == 1.0)

    def test_low_t(self):
        times = TIMES * (0.99 / 0.9)  # up to just under m/zeta = 1.3 / 1.3
        _, distinct = assert_matches_loop(low_t, times)
        assert len(distinct) == 1

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 2.0, 21),      # reaches m/zeta = 1 at t = 1
        np.array([0.5, -0.25, 2.0]),    # a negative time first
        np.array([2.0, 0.5]),           # breaks down on the first sample
    ], ids=["past-horizon", "negative", "first"])
    def test_low_t_errors(self, times):
        result, distinct = assert_matches_loop(low_t, times)
        assert isinstance(result, tuple) and distinct == []

    @pytest.mark.parametrize("zeta", [0.0, 0.05, 0.4])
    def test_decoupled(self, zeta):
        # with zeta = 0.4, m/zeta = 3.25 and t > 0.325 warns, once per call
        times = TIMES * 3.0
        _, distinct = assert_matches_loop(
            lambda t: attenuation_decoupled_high_t(CAT, zeta, 2.0, t), times
        )
        if zeta:
            late = times[times > 0.1 * CAT.mass / zeta]
            assert late.size > 1 and distinct == [
                f"t = {late[0]:g} is a sizable fraction of m/zeta = {CAT.mass / zeta:g}; the "
                f"weak-damping result is approximate here (first of {late.size} such times)"
            ]
        else:
            assert distinct == []

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 5.0, 51),
        np.array([0.1, 0.5, -1.0, 9.0]),
    ], ids=["past-horizon", "negative"])
    def test_decoupled_errors(self, times):
        result, distinct = assert_matches_loop(
            lambda t: attenuation_decoupled_high_t(CAT, 0.4, 2.0, t), times
        )
        assert isinstance(result, tuple)
        if times[-1] == 5.0:
            assert result[1].startswith("t = 3.3 reaches m/zeta = 3.25")
        assert distinct == []  # the loop warned for t = 0.4 ... 3.2 first

    @pytest.mark.filterwarnings("ignore::decolab.core.RegimeValidityWarning")
    def test_float_in_float_out(self):
        assert type(attenuation_high_t(CAT, 2.0, 0.3)) is float
        assert type(log_attenuation_low_t(CAT, 1.3, 0.3)) is float
        assert log_attenuation_low_t(CAT, 1.3, 0.0) == 0.0
        assert type(attenuation_decoupled_high_t(CAT, 0.4, 2.0, 0.3)) is float
        assert type(attenuation_decoupled_high_t(CAT, 0.0, 2.0, 0.3)) is float


class TestOscillator:
    @pytest.mark.parametrize("spec, constants, scale", [
        (OscillatorSpec(mass=1.7, omega=1.3, d=2.5, temperature=2.0), NATURAL, 40.0),
        (OscillatorSpec(mass=1e-22, omega=1e4, d=1e-6, temperature=1e-3), CGS, 1e-3),
    ], ids=["natural", "cgs"])
    def test_array_equals_scalar_loop(self, spec, constants, scale):
        curve, _ = assert_matches_loop(
            lambda t: attenuation_oscillator(spec, t, constants), TIMES * scale
        )
        assert curve[0] == attenuation_oscillator(spec, 0.0, constants)
        assert type(attenuation_oscillator(spec, 0.3, constants)) is float

    def test_revivals(self):
        spec = OscillatorSpec(mass=1.0, omega=2.0, d=1.5, temperature=0.7)
        revivals = (np.arange(12) + 0.5) * math.pi / spec.omega
        assert_matches_loop(lambda t: attenuation_oscillator(spec, t), revivals)
