"""Config parsing: happy paths, defaults, and every rejection branch."""

import dataclasses
import math
import re
import textwrap

import pytest

from decolab.cat_free import REGIMES
from decolab.config import (
    MAX_SAMPLES,
    FreeCatParams,
    OscillatorParams,
    RunConfig,
    SpinParams,
    load_config,
    parse_config,
)
from decolab.core import CGS, NATURAL, ConfigError


def cfg(text: str) -> RunConfig:
    return parse_config(textwrap.dedent(text))


FREE_MINIMAL = textwrap.dedent(
    """
    [run]
    mode = free-cat

    [time]
    end = 2.0

    [free-cat]
    mass = 1.0
    sigma = 1.0
    d = 3.0
    regime = free
    """
)


OSCILLATOR_MINIMAL = textwrap.dedent(
    """
    [run]
    mode = oscillator-cat

    [time]
    end = 2.0

    [oscillator-cat]
    mass = 1.0
    omega = 2.0
    d = 1.5
    """
)


class TestHappyPaths:
    def test_free_cat_defaults(self):
        config = cfg(FREE_MINIMAL)
        assert config.mode == "free-cat"
        assert config.unit_system == "natural"
        assert config.constants is NATURAL
        assert config.t_start == 0.0 and config.t_end == 2.0
        assert config.n_samples == 512
        assert not config.verify
        assert config.fmt == "delimited-text"
        params = config.params
        assert isinstance(params, FreeCatParams)
        assert params.cat.d == 3.0
        assert params.regime == "free"
        assert params.snapshots == 5
        assert params.x_min is None and params.x_samples == 2048

    def test_free_cat_full(self):
        config = cfg(
            """
            [run]
            mode = free-cat
            unit_system = cgs
            format = structured-text
            output_dir = results

            [time]
            start = 0.5
            end = 4.0
            samples = 64

            [free-cat]
            mass = 2.0
            sigma = 0.5
            d = 2.5
            regime = ohmic-high-t
            temperature = 10.0
            gamma = 0.01
            snapshots = 3
            x_min = -8.0
            x_max = 8.0
            x_samples = 400
            """
        )
        assert config.constants is CGS
        assert config.fmt == "structured-text"
        assert config.output_dir == "results"
        assert (config.t_start, config.t_end, config.n_samples) == (0.5, 4.0, 64)
        params = config.params
        assert params.reservoir.temperature == 10.0
        assert params.reservoir.gamma == 0.01
        assert (params.x_min, params.x_max) == (-8.0, 8.0)

    def test_low_t_with_zeta(self):
        config = cfg(
            """
            [run]
            mode = free-cat

            [time]
            end = 0.5

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 1.0
            regime = low-t
            zeta = 0.8
            """
        )
        assert config.params.reservoir.zeta_for(1.0) == 0.8

    def test_oscillator_with_temperature_ratio(self):
        config = cfg(
            """
            [run]
            mode = oscillator-cat

            [time]
            end = 10.0

            [oscillator-cat]
            mass = 1.0
            omega = 2.0
            d = 1.5
            hbar_omega_over_kt = 4.0
            n_revivals = 6
            """
        )
        assert isinstance(config.params, OscillatorParams)
        assert config.mode == "oscillator-cat"
        spec = config.params.spec
        assert spec.temperature == pytest.approx(0.5, rel=1e-15)
        assert config.params.n_revivals == 6

    def test_spin_with_magnetic_parameters(self):
        config = cfg(
            """
            [run]
            mode = spin

            [time]
            end = 5.0

            [spin]
            gamma = 0.5
            omega = 1.0
            temperature = 2.0
            g_n = 5.586
            mu0 = 1.0
            p_x = 0.3
            p_z = -0.4
            """
        )
        params = config.params
        assert isinstance(params, SpinParams)
        assert config.mode == "spin"
        assert params.spec.g_n == 5.586
        assert params.initial == (0.3, 0.0, -0.4)

    def test_inline_comments_ignored(self):
        config = cfg(
            """
            [run]
            mode = free-cat  # the main mode

            [time]
            end = 1.0  ; horizon

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 0.0
            regime = free
            """
        )
        assert config.mode == "free-cat"

    def test_with_overrides(self):
        config = cfg(FREE_MINIMAL)
        out = config.with_overrides(verify=True, output_dir="elsewhere")
        assert out.verify and out.output_dir == "elsewhere"
        assert out.source_text == config.source_text
        # untouched fields carry over
        assert out.t_end == config.t_end


class TestRejections:
    def reject(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            cfg(text)

    def test_missing_run(self):
        self.reject("[time]\nend = 1.0\n", "run")

    def test_missing_time(self):
        self.reject(
            """
            [run]
            mode = free-cat

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 1.0
            regime = free
            """,
            "time",
        )

    def test_missing_mode_block(self):
        self.reject("[run]\nmode = spin\n\n[time]\nend = 1.0\n", "spin")

    def test_unknown_mode(self):
        self.reject("[run]\nmode = waveguide\n\n[time]\nend = 1.0\n", "mode")

    def test_unknown_section(self):
        self.reject(FREE_MINIMAL + "\n[detector]\nefficiency = 0.9\n", "unknown section")

    def test_unknown_key(self):
        self.reject(FREE_MINIMAL.replace("regime = free", "regime = free\nchirp = 2.0"), "chirp")

    def test_second_mode_block(self):
        self.reject(
            FREE_MINIMAL + "\n[spin]\ngamma = 1.0\nomega = 1.0\ntemperature = 1.0\n",
            "exactly one mode block",
        )

    def test_non_numeric_value(self):
        self.reject(FREE_MINIMAL.replace("mass = 1.0", "mass = heavy"), "mass")

    @pytest.mark.parametrize("raw", ["inf", "-inf", "1e999", "nan"])
    def test_non_finite_value(self, raw):
        # refused at the boundary, naming section, key and raw value: inf used
        # to run and pass --verify, nan to fail later as a "packet variance"
        self.reject(
            FREE_MINIMAL.replace("mass = 1.0", f"mass = {raw}"),
            re.escape(f"[free-cat] mass = '{raw}' is not a finite number"),
        )

    @pytest.mark.parametrize("mode, block, text", [
        ("free-cat", "mass = -1.0\nsigma = 1.0\nd = 3.0\nregime = free",
         "mass must be positive, got -1.0"),
        ("oscillator-cat", "mass = 1.0\nomega = 0.0\nd = 1.5\ntemperature = 0.7",
         "omega must be positive, got 0.0"),
        ("spin", "gamma = -1.0\nomega = 1.0\ntemperature = 1.0",
         "gamma must be positive, got -1.0"),
    ], ids=["free-cat", "oscillator-cat", "spin"])
    def test_spec_record_refusal_names_its_section(self, mode, block, text):
        # a value the parser reads but a spec record refuses, such as a
        # negative mass, used to escape as a bare ValueError with no section
        self.reject(
            f"[run]\nmode = {mode}\n\n[time]\nend = 1.0\n\n[{mode}]\n{block}\n",
            re.escape(f"[{mode}] {text}"),
        )

    def test_time_ordering(self):
        self.reject(
            FREE_MINIMAL.replace("end = 2.0", "start = 3.0\nend = 2.0"), "start < end"
        )

    def test_negative_start(self):
        self.reject(FREE_MINIMAL.replace("end = 2.0", "start = -1.0\nend = 2.0"), "start")

    def test_too_few_samples(self):
        self.reject(FREE_MINIMAL.replace("end = 2.0", "end = 2.0\nsamples = 1"), "samples")

    @pytest.mark.parametrize("section, key, anchor", [
        ("time", "samples", "end = 2.0"),
        ("free-cat", "x_samples", "regime = free"),
        ("free-cat", "snapshots", "regime = free"),
        ("oscillator-cat", "n_revivals", "d = 1.5"),
    ])
    def test_sample_counts_are_capped(self, section, key, anchor):
        # refused at the boundary, naming section, key and value; the cap
        # itself still parses (and is not run: each count sizes an array)
        assert MAX_SAMPLES == 10 ** 7
        base = FREE_MINIMAL
        if section == "oscillator-cat":
            base = OSCILLATOR_MINIMAL + "temperature = 1.0\n"
        cfg(base.replace(anchor, f"{anchor}\n{key} = {MAX_SAMPLES}"))
        self.reject(
            base.replace(anchor, f"{anchor}\n{key} = 10000001"),
            re.escape(f"[{section}] {key} = '10000001' exceeds the cap of 10000000"),
        )

    def test_unused_regime_key(self):
        self.reject(
            FREE_MINIMAL.replace("regime = free", "regime = free\ntemperature = 5.0"),
            "not used",
        )

    def test_zeta_not_valid_for_ohmic(self):
        self.reject(
            FREE_MINIMAL.replace("regime = free", "regime = ohmic-high-t\ntemperature = 1.0\nzeta = 0.5"),
            "zeta",
        )

    def test_coupling_regime_needs_gamma_or_zeta(self):
        self.reject(
            FREE_MINIMAL.replace("regime = free", "regime = low-t"), "gamma or zeta"
        )

    def test_high_t_regime_needs_temperature(self):
        self.reject(
            FREE_MINIMAL.replace("regime = free", "regime = ohmic-high-t\ngamma = 0.1"),
            "temperature",
        )

    def test_half_open_window(self):
        self.reject(
            FREE_MINIMAL.replace("regime = free", "regime = free\nx_min = -5.0"),
            "together",
        )

    def test_window_ordering(self):
        self.reject(
            FREE_MINIMAL.replace("regime = free", "regime = free\nx_min = 5.0\nx_max = -5.0"),
            "x_min < x_max",
        )

    def test_both_temperature_forms(self):
        self.reject(
            """
            [run]
            mode = spin

            [time]
            end = 1.0

            [spin]
            gamma = 1.0
            omega = 1.0
            temperature = 1.0
            hbar_omega_over_kt = 2.0
            """,
            "pick one",
        )

    def test_neither_temperature_form(self):
        self.reject(
            "[run]\nmode = spin\n\n[time]\nend = 1.0\n\n[spin]\ngamma = 1.0\nomega = 1.0\n",
            "temperature",
        )

    def test_magnetic_pair_incomplete(self):
        self.reject(
            """
            [run]
            mode = spin

            [time]
            end = 1.0

            [spin]
            gamma = 1.0
            omega = 1.0
            temperature = 1.0
            g_n = 2.0
            """,
            "together",
        )

    def test_initial_polarization_outside_ball(self):
        self.reject(
            """
            [run]
            mode = spin

            [time]
            end = 1.0

            [spin]
            gamma = 1.0
            omega = 1.0
            temperature = 1.0
            p_x = 0.9
            p_z = 0.9
            """,
            "unit ball",
        )

    @pytest.mark.parametrize("build, message", [
        (lambda: cfg(FREE_MINIMAL.replace("regime = free", "regime = free\nsnapshots = -1")),
         "[free-cat] snapshots must be non-negative, got -1"),
        (lambda: cfg(FREE_MINIMAL.replace("regime = free", "regime = free\nx_samples = 1")),
         "[free-cat] x_samples must be at least 2, got 1"),
        (lambda: cfg(OSCILLATOR_MINIMAL + "temperature = 1.0\nn_revivals = 0\n"),
         "[oscillator-cat] n_revivals must be positive, got 0"),
        (lambda: dataclasses.replace(cfg(FREE_MINIMAL), fmt="yaml"),
         "format must be one of ('delimited-text', 'structured-text'), got 'yaml'"),
        (lambda: dataclasses.replace(cfg(FREE_MINIMAL), unit_system="si"),
         "unit_system must be 'natural' or 'cgs', got 'si'"),
        (lambda: cfg(FREE_MINIMAL.replace("mass = 1.0\n", "")),
         "[free-cat] is missing required key 'mass'"),
        (lambda: cfg(FREE_MINIMAL.replace("end = 2.0", "end = 2.0\nsamples = many")),
         "[time] samples = 'many' is not an integer"),
        (lambda: cfg(OSCILLATOR_MINIMAL + "hbar_omega_over_kt = -1.0\n"),
         "[oscillator-cat] hbar_omega_over_kt must be positive, got -1.0"),
    ], ids=[
        "snapshots", "x_samples", "n_revivals", "format", "unit_system",
        "required-key", "integer", "hbar_omega_over_kt",
    ])
    def test_refusal_names_the_bad_value(self, build, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    def test_syntax_error(self):
        self.reject("[run\nmode = spin\n", "syntax")

    def test_verify_is_not_a_config_key(self):
        # verification is asked for by `run --verify` only; the key is refused
        # whatever its value
        for value in ("true", "maybe"):
            self.reject(
                FREE_MINIMAL.replace("mode = free-cat", f"mode = free-cat\nverify = {value}"),
                re.escape("[run] has unknown key(s): verify"),
            )

    def test_bad_format_choice(self):
        self.reject(
            FREE_MINIMAL.replace("mode = free-cat", "mode = free-cat\nformat = yaml"),
            "format",
        )


# the bath keys each free-cat regime reads, in the order the regime
# refusal lists the regimes; the values given for them parse as valid
READS = {
    "free": (),
    "ohmic-high-t": ("temperature", "gamma"),
    "low-t": ("gamma", "zeta"),
    "decoupled-high-t": ("temperature", "gamma", "zeta"),
}
BATH_VALUES = {"temperature": 2.0, "gamma": 0.25, "zeta": 0.5}


class TestRegimeTable:
    def test_rows_in_order(self):
        assert tuple(REGIMES) == tuple(READS)
        with pytest.raises(ConfigError, match=re.escape(
            "[free-cat] regime = 'hot'; expected one of "
            "('free', 'ohmic-high-t', 'low-t', 'decoupled-high-t')"
        )):
            cfg(FREE_MINIMAL.replace("regime = free", "regime = hot"))

    @pytest.mark.parametrize("regime", READS)
    @pytest.mark.parametrize("key", BATH_VALUES)
    def test_each_bath_key_is_read_or_refused(self, regime, key):
        # the keys the regime reads make a valid section; the key under test
        # is added to it, so a refusal can only be about that key
        given = dict.fromkeys(READS[regime] + (key,))
        lines = "".join(f"\n{k} = {BATH_VALUES[k]}" for k in given)
        text = FREE_MINIMAL.replace("regime = free", f"regime = {regime}{lines}")
        if key not in READS[regime]:
            with pytest.raises(ConfigError, match=re.escape(
                f"[free-cat] key {key!r} is not used by regime {regime!r}"
            )):
                cfg(text)
            return
        reservoir = cfg(text).params.reservoir
        assert getattr(reservoir, key) == BATH_VALUES[key]


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(textwrap.dedent(FREE_MINIMAL))
        config = load_config(path)
        assert config.t_end == 2.0
        assert config.source_text == textwrap.dedent(FREE_MINIMAL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="read"):
            load_config(tmp_path / "nope.cfg")
