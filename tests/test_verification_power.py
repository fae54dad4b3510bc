"""What `run --verify` and `selftest` can catch: a planted-error matrix.

Each plant is a one-line error in a closed form, patched into a module
attribute in process.  It runs through `run --verify` on the three shipped
configs plus a low-t and a decoupled-high-t config, and through `selftest`.
A caught plant must fail at least the checks named for it.  A plant that
every check misses is marked xfail(strict=True) with the ROADMAP item meant
to catch it: when that item lands the test passes, the strict mark turns it
red, and the mark goes in the same change.
"""

import dataclasses
import math
import pathlib
import types

import pytest

from decolab import cat_free, cat_oscillator, oracle, runner, selftest, spin_bloch
from decolab.config import load_config, parse_config
from decolab.core import NATURAL

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

LOW_T_CFG = """
[run]
mode = free-cat

[time]
end = 0.5

[free-cat]
mass = 1.0
sigma = 1.0
d = 4.0
regime = low-t
zeta = 1.0
"""

DECOUPLED_CFG = """
[run]
mode = free-cat

[time]
end = 0.09

[free-cat]
mass = 1.0
sigma = 1.0
d = 3.0
regime = decoupled-high-t
temperature = 3.0
zeta = 1.0
"""


def verify_all(out: pathlib.Path) -> tuple[set, dict]:
    """('<run>:<check>' for every check that fails, the data files written).

    Runs the five verified configs into out, then selftest; a run that
    raises counts as '<run>:raised'."""
    configs = {name: load_config(CONFIGS / name) for name in ("free_cat.cfg", "oscillator.cfg", "spin.cfg")}
    configs.update({"low-t": parse_config(LOW_T_CFG), "decoupled-high-t": parse_config(DECOUPLED_CFG)})
    failed = set()
    for name, config in configs.items():
        try:
            report = runner.run(config.with_overrides(verify=True, output_dir=str(out / name)))
        except ValueError:
            failed.add(f"{name}:raised")
            continue
        failed.update(f"{name}:{check.name}" for check in report.verification if not check.passed)
    with runner.recorded_warnings():
        failed.update(f"selftest:{check.name}" for check in selftest.run_selftest() if not check.passed)
    written = {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in out.rglob("*") if path.is_file() and path.name != "report.txt"
    }
    return failed, written


@pytest.fixture(scope="module")
def unplanted(tmp_path_factory):
    return verify_all(tmp_path_factory.mktemp("unplanted"))


def wrap(monkeypatch, module, name, change):
    """Replace module.name by change(original, *args)."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original, *args))


def plant_f1_envelope(monkeypatch):
    # exp(-d^2/4w^2) in place of exp(-d^2/8w^2) in the interference envelope
    def change(coefficients, spec, kin, t):
        coef = coefficients(spec, kin, t)
        extra = math.exp(-spec.d * spec.d / (8.0 * coef.w2))
        return dataclasses.replace(coef, envelope_factor=coef.envelope_factor * extra)
    wrap(monkeypatch, cat_free, "_coefficients", change)


def plant_f1_log_a(monkeypatch):
    # log a = -s d^2 / 4 sigma^2 w^2 in place of -s d^2 / 8 sigma^2 w^2
    def change(log_attenuation, *args):
        c, w2, log_a = log_attenuation(*args)
        return c, w2, 2.0 * log_a
    wrap(monkeypatch, cat_free, "_log_attenuation", change)


def plant_f2(monkeypatch):
    # the ohmic s(t) = (kT/m) t^2 doubled
    def change(kinematics, *args):
        kin = kinematics(*args)
        return dataclasses.replace(kin, s=lambda t, s=kin.s: 2.0 * s(t))
    wrap(monkeypatch, cat_free, "ohmic_high_t_kinematics", change)


def plant_f3(monkeypatch):
    # the fringe phase slope c d / 4 sigma^2 w^2 doubled
    def change(coefficients, *args):
        coef = coefficients(*args)
        return dataclasses.replace(coef, phase_slope=2.0 * coef.phase_slope)
    wrap(monkeypatch, cat_free, "_coefficients", change)


def plant_l1(monkeypatch):
    # the low-t bracket log(zeta t / m) + gamma_E - 1/2 in place of - 3/2
    monkeypatch.setattr(cat_free, "EULER_GAMMA", cat_free.EULER_GAMMA + 1.0)


def plant_l2(monkeypatch):
    # tau_0 with sqrt(4 pi / hbar zeta) in place of sqrt(8 pi / hbar zeta)
    wrap(monkeypatch, cat_free, "low_t_time_constant", lambda tau0, *args: tau0(*args) / math.sqrt(2.0))


def plant_d1(monkeypatch):
    # 6 m^2 sigma^4 in place of 12 m^2 sigma^4 in the decoupled law's
    # denominator: sigma^4 halved, and sigma appears nowhere else in it
    def change(law, spec, *args):
        return law(dataclasses.replace(spec, sigma=spec.sigma * 2.0 ** -0.25), *args)
    wrap(monkeypatch, cat_free, "log_attenuation_decoupled_high_t", change)


def plant_o1(monkeypatch):
    # sinh(hbar omega / 2kT) in place of sinh(hbar omega / kT), in the law and the floor
    wrap(monkeypatch, cat_oscillator, "_inverse_sinh", lambda inverse_sinh, x: inverse_sinh(0.5 * x))


def plant_o2(monkeypatch):
    # sin in place of cos in the oscillator law
    monkeypatch.setattr(cat_oscillator, "math", types.SimpleNamespace(**{**vars(math), "cos": math.sin}))


def plant_s1(monkeypatch):
    # T2 = T1 in place of T2 = 2 T1
    def change(relaxation_times, *args):
        t1, _ = relaxation_times(*args)
        return t1, t1
    wrap(monkeypatch, spin_bloch, "relaxation_times", change)


def plant_s2(monkeypatch):
    # 1/T1 = gamma (2 nbar + 2) in place of gamma (2 nbar + 1)
    def change(relaxation_times, spec, *args):
        t1 = 1.0 / (1.0 / relaxation_times(spec, *args)[0] + spec.gamma)
        return t1, 2.0 * t1
    wrap(monkeypatch, spin_bloch, "relaxation_times", change)


def plant_s3(monkeypatch):
    # a Fermi occupation 1/(e^x + 1) in place of 1/(e^x - 1), in both modules
    def fermi(omega, temperature, constants=NATURAL):
        if temperature == 0.0:
            return 0.0
        return 1.0 / (math.exp(constants.hbar * omega / (constants.k_boltzmann * temperature)) + 1.0)
    monkeypatch.setattr(spin_bloch, "nbar", fermi)
    monkeypatch.setattr(oracle, "nbar", fermi)


def missed(item: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"no check catches it until {item}")


FREE_CAT_FIELD = {"free_cat.cfg:normalization", "free_cat.cfg:term_time_invariance", "selftest:cat_normalization"}
LINDBLAD = {"spin.cfg:lindblad_vs_analytic", "selftest:lindblad_vs_bloch"}

PLANTS = [
    pytest.param(plant_f1_envelope, FREE_CAT_FIELD | {
        "free_cat.cfg:attenuation_ratio_identity", "selftest:attenuation_ratio_identity",
    }, id="F1-envelope"),
    pytest.param(plant_f1_log_a, FREE_CAT_FIELD, id="F1-log-a"),
    pytest.param(plant_f2, set(), id="F2", marks=missed("ROADMAP item 3 (s(t) by fluctuation-dissipation)")),
    pytest.param(plant_f3, FREE_CAT_FIELD, id="F3"),
    pytest.param(plant_l1, set(), id="L1", marks=missed("ROADMAP item 3 (the free-cat density by propagation)")),
    pytest.param(plant_l2, set(), id="L2", marks=missed("ROADMAP item 3 (the free-cat density by propagation)")),
    pytest.param(plant_d1, set(), id="D1", marks=missed("ROADMAP item 3 (the free-cat density by propagation)")),
    pytest.param(plant_o1, set(), id="O1", marks=missed("ROADMAP item 2 (the thermal cat in the Fock basis)")),
    pytest.param(plant_o2, {"oscillator.cfg:revival_unity", "oscillator.cfg:minimum_closed_form"}, id="O2"),
    pytest.param(plant_s1, LINDBLAD, id="S1"),
    pytest.param(plant_s2, LINDBLAD, id="S2"),
    pytest.param(plant_s3, set(), id="S3", marks=missed("ROADMAP item 4 (a spin oracle that shares nothing)")),
]


def test_without_a_plant_every_check_passes(unplanted):
    failed, written = unplanted
    assert failed == set()
    assert len(written) == 12  # curve and five snapshots of free_cat.cfg, two files per other run


@pytest.mark.parametrize("plant, expected", PLANTS)
def test_plant_fails_its_checks(plant, expected, unplanted, monkeypatch, tmp_path):
    plant(monkeypatch)
    failed, written = verify_all(tmp_path)
    if written == unplanted[1]:
        # not an AssertionError, so an xfail cannot absorb a plant that missed its target
        pytest.fail("the plant changed no data file: it did not reach the law")
    assert failed, "every check passed"
    assert expected <= failed
