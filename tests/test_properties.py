"""Property tests: every public law over any finite spec and finite times.

For any finite spec fields and finite times, each law gives a finite
result of the input's shape, or the spec's record or the law raises a
ValueError subclass.  One call
issues at most one RegimeValidityWarning per cause, a per-time cause
("t = <value> <cause>") counting once whatever its t.

The explicit examples are counterexamples these tests found before the laws
were marked `core.fail_closed`: each raised an OverflowError or a
ZeroDivisionError, or returned NaN.
"""

import math
import re
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from decolab.cat_free import (
    attenuation_decoupled_high_t,
    attenuation_exact,
    attenuation_high_t,
    free_kinematics,
    log_attenuation_exact,
    log_attenuation_low_t,
    ohmic_high_t_kinematics,
)
from decolab.cat_oscillator import OscillatorSpec, attenuation_oscillator
from decolab.core import CGS, NATURAL, CatSpec, RegimeValidityWarning, float_map
from decolab.spin_bloch import SpinBathSpec, bloch_evolve

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
CONSTANTS = st.sampled_from([NATURAL, CGS])
# a float, or an array of 0 to 2 dimensions (0-d and empty included)
TIMES = st.one_of(FINITE, hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5), elements=FINITE,
))
# (mass, sigma, d): CatSpec is built inside the checked call, where a
# refused record counts as a refusal
CATS = st.tuples(POSITIVE, POSITIVE, NON_NEGATIVE)
BALL = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda p: sum(v * v for v in p) <= 1.0)

PER_TIME = re.compile(r"^t = \S+ ")
EXAMPLES = settings(max_examples=300, deadline=None)


def assert_law_holds(call, t, row_shape=()):
    """call() is finite with shape(t) + row_shape, or raises a ValueError
    subclass; either way it repeats no regime warning's cause."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ValueError:
            result = None
    causes = [PER_TIME.sub("", str(w.message)) for w in caught
              if issubclass(w.category, RegimeValidityWarning)]
    assert len(causes) == len(set(causes)), causes
    if result is not None:
        assert np.shape(result) == np.shape(t) + row_shape
        assert np.all(np.isfinite(result)), result
        if not row_shape and isinstance(t, float):
            assert type(result) is float


@EXAMPLES
@given(CATS, st.booleans(), NON_NEGATIVE, POSITIVE, CONSTANTS, TIMES)
@example((1.0, 4.441326964328356e-187, 0.0), False, 0.0, 1.0, NATURAL, 0.0)
@example((1.0, 1.0, 1.3407807929942597e154), False, 0.0, 1.0, NATURAL, 0.0)
@example((1.0, 1.0, 0.0), True, 5e-324, 1.0, CGS, 0.0)
def test_exact_law(cat, ohmic, gamma, temperature, constants, t):
    def kinematics():
        if ohmic:
            return ohmic_high_t_kinematics(cat[0], temperature, gamma, constants)
        return free_kinematics(cat[0], constants)

    assert_law_holds(lambda: attenuation_exact(CatSpec(*cat), kinematics(), t), t)
    assert_law_holds(lambda: log_attenuation_exact(CatSpec(*cat), kinematics(), t), t)


@EXAMPLES
@given(CATS, POSITIVE, CONSTANTS, TIMES)
@example((1.0, 2.0762912235997632e-67, 30235.0), 45643460.0, NATURAL, 8003501996602.0)
def test_high_t_law(cat, temperature, constants, t):
    assert_law_holds(lambda: attenuation_high_t(CatSpec(*cat), temperature, t, constants), t)


@EXAMPLES
@given(CATS, POSITIVE, CONSTANTS, TIMES)
@example((1.0, 1.0, 1.0), 2.2250738585e-313, CGS, 1.0)
def test_low_t_law(cat, zeta, constants, t):
    assert_law_holds(
        lambda: float_map(math.exp, log_attenuation_low_t(CatSpec(*cat), zeta, t, constants)), t
    )


@EXAMPLES
@given(CATS, NON_NEGATIVE, POSITIVE, CONSTANTS, TIMES)
@example((1.0, 4.636780679012277e-110, 0.0), 1.0, 1.0, NATURAL, 0.0)
@example((1.0, 1.157920892373162e77, 0.0), 1.0, 1.0, NATURAL, 0.0)
def test_decoupled_law(cat, zeta, temperature, constants, t):
    assert_law_holds(
        lambda: attenuation_decoupled_high_t(CatSpec(*cat), zeta, temperature, t, constants), t
    )


@EXAMPLES
@given(st.builds(OscillatorSpec, mass=POSITIVE, omega=POSITIVE, d=NON_NEGATIVE,
                 temperature=POSITIVE), CONSTANTS, TIMES)
@example(OscillatorSpec(4.645253296783721e16, 3.86995717996046e291, 0.0, 1.0), NATURAL, 0.0)
@example(OscillatorSpec(1.0, 1.0, 1.3407807929942597e154, 1.0), NATURAL, 0.0)
def test_oscillator_law(spec, constants, t):
    assert_law_holds(lambda: attenuation_oscillator(spec, t, constants), t)


@EXAMPLES
@given(st.builds(SpinBathSpec, gamma=POSITIVE, omega=POSITIVE, temperature=NON_NEGATIVE),
       BALL, CONSTANTS, TIMES)
@example(SpinBathSpec(1.0, 1.1211893078520872e-94, 4.538624845866528e229),
         (0.0, 0.0, 0.0), NATURAL, 0.0)
def test_bloch_law(spec, initial, constants, t):
    assert_law_holds(lambda: bloch_evolve(spec, initial, t, constants), t, row_shape=(3,))
