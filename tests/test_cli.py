"""End-to-end command-line runs against temporary workspaces."""

import ctypes
import hashlib
import math
import pathlib
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import decolab.runner as runner_mod
from decolab.cli import main
from helpers import read_table

SPIN_CFG = """
    [run]
    mode = spin

    [time]
    end = 2.4
    samples = 33

    [spin]
    gamma = 1.0
    omega = 1.0
    hbar_omega_over_kt = 2.1972245773362196
    p_x = 0.4
    p_z = 0.2
"""

FREE_CFG = """
    [run]
    mode = free-cat

    [time]
    end = 1.0
    samples = 41

    [free-cat]
    mass = 1.0
    sigma = 1.0
    d = 3.0
    regime = ohmic-high-t
    temperature = 2.0
    gamma = 0.0
    snapshots = 3
    x_samples = 512
"""

OSC_CFG = """
    [run]
    mode = oscillator-cat

    [time]
    end = 10.0
    samples = 101

    [oscillator-cat]
    mass = 1.0
    omega = 2.0
    d = 1.5
    temperature = 0.7
"""

# a macroscopic cat in CGS units: K = 1.86e34 at the first revival
CGS_OSC_CFG = """
    [run]
    mode = oscillator-cat
    unit_system = cgs

    [time]
    end = 4.0
    samples = 50

    [oscillator-cat]
    mass = 1.0
    omega = 1.0
    d = 1e-3
    temperature = 300.0
"""

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

# a run that raises: sigma^2 underflows to 0, after a bath-validity warning
UNDERFLOW_CFG = """
    [run]
    mode = free-cat

    [time]
    end = 1
    samples = 10

    [free-cat]
    mass = 1
    sigma = 1e-200
    d = 1
    regime = ohmic-high-t
    temperature = 1
    gamma = 1
    snapshots = 0
"""


OVERFLOWING_W2 = "packet variance w^2 overflows to inf at t = 0.111111"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


class TestRunCommand:
    def test_spin_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPIN_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "report.txt" in captured.out

        data = read_table(out / "bloch_trajectory.csv")
        assert data.shape == (33, 7)
        # first row is the configured initial state
        np.testing.assert_allclose(data[0, 1:4], [0.4, 0.0, 0.2], atol=1e-15)
        # transverse component decays by e^{-t/T2}
        t2 = 1.6
        np.testing.assert_allclose(
            data[:, 1], 0.4 * np.exp(-data[:, 0] / t2), rtol=1e-12
        )

        report = (out / "report.txt").read_text()
        assert "status = pass" in report
        assert "mode = spin" in report

        values = {}
        for line in (out / "equilibrium.txt").read_text().splitlines():
            if " = " in line and not line.startswith("["):
                key, _, raw = line.partition(" = ")
                values[key.strip()] = raw.strip()
        assert float(values["nbar"]) == pytest.approx(0.125, rel=1e-12)
        assert float(values["p0"]) == pytest.approx(-0.8, rel=1e-12)
        assert float(values["t2"]) == pytest.approx(2.0 * float(values["t1"]), rel=1e-15)

    def test_spin_verify_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPIN_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "verify lindblad_vs_analytic: PASS" in captured.out
        report = (out / "report.txt").read_text()
        assert "[verification]" in report
        assert "c0_name = lindblad_vs_analytic" in report
        assert "c0_pass = true" in report

    def test_free_cat_run_and_verify(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FREE_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "verify normalization: PASS" in captured.out
        assert "verify attenuation_ratio_identity: PASS" in captured.out

        curve = read_table(out / "attenuation.csv")
        assert curve.shape == (41, 2)
        assert curve[0, 1] == 1.0
        assert np.all(np.diff(curve[:, 1]) <= 1e-15)  # high-T decay is monotone

        field = read_table(out / "catfield_00.csv")
        assert field.shape == (512, 5)
        # t = 0 snapshot integrates to one (crude trapezoid is plenty here)
        x, p = field[:, 0], field[:, 1]
        norm = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(x)))
        assert norm == pytest.approx(1.0, abs=5e-4)

    def test_oscillator_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OSC_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "verify revival_unity: PASS" in captured.out
        assert "verify minimum_closed_form: PASS" in captured.out

        revivals = read_table(out / "revivals.csv")
        expected = [(n + 0.5) * math.pi / 2.0 for n in range(6)]
        np.testing.assert_allclose(revivals[:, 0], expected, rtol=1e-15)

        curve = read_table(out / "attenuation.csv")
        floor = np.min(curve[:, 1])
        assert np.all(curve[:, 1] <= 1.0)
        assert floor > 0.0

    def test_cgs_oscillator_checks_no_revival_it_cannot_resolve(self, tmp_path, capsys):
        # K = m omega d^2 / (2 hbar sinh(hbar omega / kT)) is 1.86e34 here:
        # no float time lands close enough to t_1 = pi/2 for a(t) to read 1
        cfg = write_cfg(tmp_path, CGS_OSC_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "revival_unity" not in captured.out
        assert "verify minimum_closed_form: PASS" in captured.out
        assert captured.err.startswith("warning: revival t = 1.5708 and later")
        assert "K = 1.862e+34" in captured.err
        report = (out / "report.txt").read_text()
        assert "revival_unity" not in report.split("[verification]")[1]
        assert "status = pass" in report

    def test_oscillator_checks_only_its_resolvable_revivals(self, tmp_path, capsys):
        # K = 1e16 and omega = 2: omega t_1 = pi/2 resolves (K spacing^2 =
        # 4.9e-16), omega t_2 = 3 pi/2 does not (7.9e-15)
        cfg = write_cfg(tmp_path, OSC_CFG.replace("d = 1.5", "d = 1e6").replace(
            "temperature = 0.7", "temperature = 2e4\n    n_revivals = 3"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "verify revival_unity: PASS (deviation 0.000e+00" in captured.out
        assert captured.err.startswith("warning: revival t = 2.35619 and later")
        assert read_table(out / "revivals.csv").shape == (3, 1)

    def test_free_regime_verifies(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FREE_CFG.replace("ohmic-high-t", "free").replace(
            "    temperature = 2.0\n    gamma = 0.0\n", ""))
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed
        assert "verify term_time_invariance: PASS" in printed
        assert "regime = free" in (out / "catfield_02.csv").read_text()

    def test_snapshot_grid_spans_x_min_to_x_max(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FREE_CFG + "    x_min = -3.0\n    x_max = 3.0\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        for i in range(3):
            x = read_table(out / f"catfield_{i:02d}.csv")[:, 0]
            assert x.size == 512 and x[0] == -3.0 and x[-1] == 3.0

    def test_structured_format_override(self, tmp_path):
        cfg = write_cfg(tmp_path, SPIN_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--format", "structured-text"]) == 0
        text = (out / "bloch_trajectory.txt").read_text()
        assert "[meta]" in text and "rows = 33" in text

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FREE_CFG)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_verification_failure_sets_exit_code(self, tmp_path, monkeypatch, capsys):
        # squeeze a tolerance to zero so the honest deviation must fail
        monkeypatch.setattr(runner_mod, "LINDBLAD_TOL", 0.0)
        cfg = write_cfg(tmp_path, SPIN_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "status = fail" in (out / "report.txt").read_text()

    def test_nan_deviation_fails_verification(self, tmp_path, monkeypatch, capsys):
        # a NaN ratio on a later snapshot must fail the check, not be dropped
        # by a running max that already holds a finite value
        original = runner_mod.cat_free.attenuation_from_field
        calls = []

        def nan_on_second(field):
            calls.append(field)
            result = original(field)
            return math.nan if len(calls) == 2 else result

        monkeypatch.setattr(runner_mod.cat_free, "attenuation_from_field", nan_on_second)
        cfg = write_cfg(tmp_path, FREE_CFG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 1
        assert len(calls) == 3
        report = (out / "report.txt").read_text()
        assert "c3_name = attenuation_ratio_identity" in report
        assert "c3_deviation = nan" in report
        assert "c3_pass = false" in report
        assert "verify attenuation_ratio_identity: FAIL" in capsys.readouterr().out

    def test_underflowed_fringe_passes_the_bounds_check(self, tmp_path, capsys):
        # d = 400 drives a(t) to 0.0 in floating point while log a stays
        # finite and negative: the fringe is gone, not out of bounds
        cfg = write_cfg(
            tmp_path,
            """
            [run]
            mode = free-cat

            [time]
            end = 2.0
            samples = 100

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 400.0
            regime = ohmic-high-t
            temperature = 2.0
            gamma = 0.01
            snapshots = 0
            """,
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        assert "verify attenuation_bounds: PASS" in capsys.readouterr().out
        assert np.any(read_table(out / "attenuation.csv")[:, 1] == 0.0)
        report = (out / "report.txt").read_text()
        assert "c0_deviation = 0.0000000000000000e+00" in report

    def test_underflowed_low_t_fringe_passes_the_bounds_check(self, tmp_path, capsys):
        # sigma = 0.01 and d = 400 drive the low-t a(t) to 0.0 while its log
        # stays finite; judged on a it read as a 1e-9 excursion and failed
        cfg = write_cfg(
            tmp_path,
            """
            [run]
            mode = free-cat

            [time]
            end = 0.9

            [free-cat]
            mass = 1.0
            sigma = 0.01
            d = 400.0
            regime = low-t
            zeta = 1.0
            """,
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        assert "verify attenuation_bounds: PASS" in capsys.readouterr().out
        assert np.any(read_table(out / "attenuation.csv")[:, 1] == 0.0)
        assert "c0_deviation = 0.0000000000000000e+00" in (out / "report.txt").read_text()

    def test_low_t_cat_without_separation_verifies(self, tmp_path, capsys):
        # d = 0 has no fringe to lose: a = 1 throughout, where the run
        # exited 2 on the time constant's zero-separation refusal
        text = "[run]\nmode = free-cat\n[time]\nend = 0.9\n[free-cat]\n"
        cfg = write_cfg(tmp_path, text + "mass = 1\nsigma = 1\nd = 0\nregime = low-t\nzeta = 1\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        assert "verify attenuation_bounds: PASS" in capsys.readouterr().out
        assert np.all(read_table(out / "attenuation.csv")[:, 1] == 1.0)

    def test_overflowing_product_in_log_a_verifies(self, tmp_path, capsys):
        # s d^2 overflows while log a, about -1.25e199, does not: the curve
        # is written and judged, with no bare numpy warning
        cfg = write_cfg(
            tmp_path,
            """
            [run]
            mode = free-cat

            [time]
            end = 1.5
            samples = 16

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 1e100
            regime = ohmic-high-t
            temperature = 1e300
            gamma = 1
            snapshots = 0
            """,
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "encountered in" not in captured.err
        assert "verify attenuation_bounds: PASS" in captured.out
        assert np.all(read_table(out / "attenuation.csv")[1:, 1] == 0.0)

    def test_underflowed_fringe_with_snapshots_verifies(self, tmp_path, capsys):
        # p1 p2 underflows at every grid point, so the ratio identity is
        # recovered from log-domain terms; the packets, 400 widths apart,
        # are integrated one window each
        cfg = write_cfg(
            tmp_path,
            """
            [run]
            mode = free-cat

            [time]
            end = 2.0

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 400.0
            regime = ohmic-high-t
            temperature = 2.0
            gamma = 0.01
            snapshots = 2
            x_samples = 64
            """,
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed
        assert "verify attenuation_ratio_identity: PASS" in printed
        report = (out / "report.txt").read_text()
        assert "c3_name = attenuation_ratio_identity" in report
        ratio = float(report.split("c3_deviation = ")[1].split()[0])
        assert math.isfinite(ratio) and ratio <= runner_mod.RATIO_TOL

    def test_wide_free_cat_leaves_the_ratio_identity_to_its_rounding_bound(self, tmp_path, capsys):
        # d = 1e4 widths: the log-domain terms, about 5e7, cancel to log a = 0
        # and rounding alone left 1.1e-9 against RATIO_TOL = 1e-10, a FAIL
        text = "[run]\nmode = free-cat\n[time]\nend = 1.5\nsamples = 16\n[free-cat]\n"
        cfg = write_cfg(tmp_path, text + "mass = 1\nsigma = 1\nd = 1e4\nregime = free\n"
                                         "snapshots = 2\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: rounding may leave up to 1.56e-07 in the log-domain ratio identity at "
            "snapshot t = 0 (d/w = 1e+04), above its tolerance 1e-10; left out of "
            "attenuation_ratio_identity (first of 2 such snapshots)"
        ]
        assert "FAIL" not in captured.out and "attenuation_ratio_identity" not in captured.out
        report = (out / "report.txt").read_text()
        assert "c2_name = term_time_invariance" in report and "c3_name" not in report

    def test_bounds_on_log_attenuation_fail_closed(self):
        at_start = runner_mod._bounds_check(np.array([-0.0, math.log(0.5)]))
        assert at_start.passed and math.copysign(1.0, at_start.deviation) == 1.0
        for log_curve in ([-0.0, math.nan], [-0.0, -math.inf], [-0.0, 1e-9]):
            assert not runner_mod._bounds_check(np.array(log_curve)).passed

    def test_recorded_warnings_dedupe_in_linear_time(self):
        # a long free-cat run past its regime's window warns once per sample;
        # a list membership test made the dedupe quadratic in the message count
        start = time.perf_counter()
        with runner_mod.recorded_warnings() as texts:
            for i in range(30_000):
                warnings.warn(f"sample {i}")
                warnings.warn("repeated")
        elapsed = time.perf_counter() - start
        assert texts[:3] == ["sample 0", "repeated", "sample 1"]
        assert len(texts) == 30_001 and texts[-1] == "sample 29999"
        assert elapsed < 1.0

    def test_low_t_regime_skips_snapshots_with_note(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """
            [run]
            mode = free-cat

            [time]
            end = 0.4

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 1.0
            regime = low-t
            zeta = 1.0
            """,
        )
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "snapshots skipped" in captured.err
        assert not list(out.glob("catfield_*"))
        curve = read_table(out / "attenuation.csv")
        assert curve[0, 1] == 1.0
        assert np.all(curve[:, 1] <= 1.0)


class TestErrorExits:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_infinite_mass_is_refused(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FREE_CFG.replace("mass = 1.0", "mass = inf"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--verify", "--out", str(out)]) == 2
        assert "[free-cat] mass = 'inf' is not a finite number" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_negative_mass_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FREE_CFG.replace("mass = 1.0", "mass = -1.0"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: [free-cat] mass must be positive, got -1.0\n"
        assert not out.exists()

    def test_invalid_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[run]\nmode = unknown-thing\n")
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_warnings_of_a_failed_run_print_before_the_error(self, tmp_path, capsys):
        # the bath warns that kT/(hbar gamma) is not large, then sigma^2
        # underflows to 0 and the run raises
        cfg = write_cfg(tmp_path, UNDERFLOW_CFG)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("warning: kT/(hbar gamma) = 1 is not large")
        assert err[1] == "error: packet width sigma = 1e-200 underflows to 0 when squared"

    def test_failed_run_leaves_no_report_of_an_earlier_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, FREE_CFG), "--out", str(out)]) == 0
        assert "status = pass" in (out / "report.txt").read_text()
        assert main(["run", write_cfg(tmp_path, UNDERFLOW_CFG, "bad.cfg"), "--out", str(out)]) == 2
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("cat, message", [
        # c = t / mass: c^2 overflows, so w^2 = inf from the second sample on
        ("mass = 1e-300\nsigma = 1\nd = 2", "error: " + OVERFLOWING_W2),
        # sigma^2 is subnormal, so c^2 / 4 sigma^2 overflows
        ("mass = 1\nsigma = 1e-160\nd = 2", "error: " + OVERFLOWING_W2),
        ("mass = 1\nsigma = 1\nd = 1e200",
         "config error: [free-cat] separation d = 1e+200 overflows when squared"),
    ], ids=["mass", "sigma", "d"])
    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    def test_overflowing_cat_fails_before_any_file(self, tmp_path, capsys, cat, message, verify):
        text = "[run]\nmode = free-cat\n[time]\nend = 1\nsamples = 10\n[free-cat]\n"
        cfg = write_cfg(tmp_path, text + cat + "\nregime = free\nsnapshots = 2\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), *verify]) == 2
        assert capsys.readouterr().err == message + "\n"  # no numpy warning before it
        assert not out.exists() or list(out.iterdir()) == []

    def test_collapsed_quadrature_window_names_the_packet_width(self, tmp_path, capsys):
        # at t = 0, w = 1 beside d/2 = 5e99: d/2 +- 10 w is one float, which
        # the quadrature refused as "need b > a", naming no input
        text = "[run]\nmode = free-cat\n[time]\nend = 1.5\nsamples = 16\n[free-cat]\n"
        cfg = write_cfg(tmp_path, text + (
            "mass = 1\nsigma = 1\nd = 1e100\nregime = ohmic-high-t\n"
            "temperature = 1e300\ngamma = 1\nsnapshots = 3\n"))
        assert main(["run", cfg, "--verify", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "need b > a" not in err
        assert err.splitlines()[-1] == (
            "error: packet width w = 1 is below the float spacing of d/2 = 5e+99 at "
            "snapshot t = 0: the quadrature window d/2 +- 10 w holds one float")

    def test_quadrature_window_of_a_few_floats_stops_at_once(self, tmp_path, capsys):
        # at t = 0, w = 1 beside d/2 = 2.5e15, whose float spacing is 0.5: the
        # bisection reaches neighbouring floats, where it ran on for about
        # 20 s to the budget of 10^7 evaluations
        text = "[run]\nmode = free-cat\n[time]\nend = 1.5\nsamples = 16\n[free-cat]\n"
        cfg = write_cfg(tmp_path, text + (
            "mass = 1\nsigma = 1\nd = 5e15\nregime = ohmic-high-t\n"
            "temperature = 1e300\ngamma = 1\nsnapshots = 3\n"))
        assert main(["run", cfg, "--verify", "--out", str(tmp_path / "out")]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(
            r"error: quadrature panel \[-2499999999999\d+\.\d+, -2499999999999\d+\.\d+\] "
            r"is too narrow to bisect in floating point", last), last

    @pytest.mark.parametrize("regime", ["low-t", "decoupled-high-t\ntemperature = 1"],
                             ids=["low-t", "decoupled-high-t"])
    def test_underflowed_gamma_mass_is_an_error_exit(self, tmp_path, capsys, regime):
        # zeta = gamma m = 1e-400: decoupled-high-t wrote a = 1 throughout,
        # low-t refused "zeta must be positive, got 0.0", naming no key
        text = "[run]\nmode = free-cat\n[time]\nend = 1.0\n[free-cat]\n"
        cfg = write_cfg(
            tmp_path, text + f"mass = 1e-200\nsigma = 1\nd = 1\ngamma = 1e-200\nregime = {regime}\n"
        )
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.endswith(
            "error: zeta = gamma * mass underflows to 0 (gamma = 1e-200, mass = 1e-200)\n")

    def test_exhausted_quadrature_budget_is_an_error_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner_mod.oracle, "EVALUATION_BUDGET", 50)
        cfg = str(pathlib.Path(__file__).parent.parent / "configs" / "free_cat.cfg")
        assert main(["run", cfg, "--out", str(tmp_path / "out"), "--verify"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: quadrature exhausted its budget of 50 evaluations\n")
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_revival_count_past_the_cap_is_a_config_error(self, tmp_path, capsys):
        # end omega / pi = 6.4e7 revivals in the window; refused before any file
        cfg = write_cfg(tmp_path, OSC_CFG.replace("end = 10.0", "end = 1e8"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: end = 1e+08 and omega = 2 hold 63661977 revivals, "
            "above the cap of 10000000; set n_revivals\n"
        )
        assert list(out.iterdir()) == []

    def test_revival_count_past_float_range_is_a_config_error(self, tmp_path, capsys):
        # omega end overflows to inf, which converted to an int escaped as an OverflowError
        text = OSC_CFG.replace("end = 10.0", "end = 2.0e275").replace("omega = 2.0", "omega = 7.6e152")
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, text), "--verify", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: end = 2e+275 and omega = 7.6e+152 hold inf revivals, "
            "above the cap of 10000000; set n_revivals\n"
        )
        assert list(out.iterdir()) == []

    def test_underflowed_hbar_omega_over_kt_is_named(self, tmp_path, capsys):
        # hbar omega / kT = 1e-600 underflows to 0 before the decay law divides by its sinh
        text = OSC_CFG.replace("omega = 2.0", "omega = 1e-300").replace(
            "temperature = 0.7", "temperature = 1e300")
        assert main(["run", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: hbar omega / kT must be positive, got 0.0\n"

    def test_lindblad_step_budget_is_an_error_exit(self, tmp_path, capsys):
        # about 1.6e9 RK4 steps at min(T1, end)/400: refused before the first
        text = (pathlib.Path(__file__).parent.parent / "configs" / "spin.cfg").read_text()
        cfg = write_cfg(tmp_path, text.replace("end = 4.0", "end = 1e6"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--verify"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: t_end = 1e\+06 in steps of dt = \S+ takes \S+ RK4 steps, "
            r"above the budget of 1000000\n", err
        ), err
        assert not (out / "report.txt").exists()

    def test_compare_regimes_rejects_spin(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SPIN_CFG)
        assert main(["compare-regimes", cfg]) == 2
        assert "free-cat" in capsys.readouterr().err


class TestCompareRegimes:
    def test_side_by_side_table(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            """
            [run]
            mode = free-cat
            output_dir = {out}

            [time]
            end = 2.0
            samples = 21

            [free-cat]
            mass = 1.0
            sigma = 1.0
            d = 2.0
            regime = ohmic-high-t
            temperature = 2.0
            gamma = 0.2
            """.format(out=tmp_path / "cmp"),
        )
        assert main(["compare-regimes", cfg]) == 0
        data = read_table(tmp_path / "cmp" / "regime_comparison.csv")
        assert data.shape == (21, 3)
        assert data[0, 1] == 1.0 and data[0, 2] == 1.0
        # both columns decay, at different rates
        assert np.all(np.diff(data[:, 1]) < 0)
        assert np.all(np.diff(data[:, 2]) < 0)
        assert not np.allclose(data[:, 1], data[:, 2])
        # the high-T law warns at each of the 21 samples; each distinct
        # message is printed once
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(set(err))
        assert sum(line.startswith("warning: separation d = 2 is not large") for line in err) == 2


    def test_regime_without_temperature_is_refused(self, tmp_path, capsys):
        cmp = tmp_path / "cmp"
        cfg = write_cfg(tmp_path, LOW_T_CFG.replace("[time]", f"output_dir = {cmp}\n\n    [time]"))
        assert main(["compare-regimes", cfg]) == 2
        assert "needs a positive temperature" in capsys.readouterr().err
        assert not cmp.exists()


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
        assert out.count("selftest ") >= 10

    def test_nan_deviation_fails(self, capsys, monkeypatch):
        import decolab.selftest as selftest_mod

        original = selftest_mod.lindblad_bloch_deviation
        calls = []

        def nan_on_third(*args, **kwargs):
            calls.append(args)
            return math.nan if len(calls) == 3 else original(*args, **kwargs)

        monkeypatch.setattr(selftest_mod, "lindblad_bloch_deviation", nan_on_third)
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "selftest lindblad_vs_bloch: FAIL" in out
        assert out.count("FAIL") == 1


# sha256 of every file the shipped configs write, as first released; a change
# that moves a single bit of a written float or a report line fails here
SHIPPED_DIGESTS = {
    ("free_cat", False): {
        "attenuation.csv": "077c7d9214fa7f1b36d7d6382c50ffe7189b58fd6e8c92da183b56fa83b9fb4b",
        "catfield_00.csv": "99547b0e97e8fb11f1df7e7a4a1ef11b8c16effbf3a219e143f6ef1e7531ed43",
        "catfield_01.csv": "833879743bce9b70befd415842b304fd7517cb2c9c3fccbf7cc60dfac9d89785",
        "catfield_02.csv": "c0c0ec16365abeba15177278a4f77b0f0545c4da198e7c4d0e33c4d3fa5738bf",
        "catfield_03.csv": "91553f57b82f3e98d236328e6fd5d07bbce7bad23d175ac7a4731943aa3a5dd4",
        "catfield_04.csv": "4458e716e765d6b1f1e25215adaf59a1a9156cb67bcda03c8eda5f154b994f61",
        "report.txt": "f102ac1013b088d2a9e66be7108528f897289d39ed9cdcca86c4d7de258f866f",
    },
    ("free_cat", True): {
        "attenuation.csv": "077c7d9214fa7f1b36d7d6382c50ffe7189b58fd6e8c92da183b56fa83b9fb4b",
        "catfield_00.csv": "99547b0e97e8fb11f1df7e7a4a1ef11b8c16effbf3a219e143f6ef1e7531ed43",
        "catfield_01.csv": "833879743bce9b70befd415842b304fd7517cb2c9c3fccbf7cc60dfac9d89785",
        "catfield_02.csv": "c0c0ec16365abeba15177278a4f77b0f0545c4da198e7c4d0e33c4d3fa5738bf",
        "catfield_03.csv": "91553f57b82f3e98d236328e6fd5d07bbce7bad23d175ac7a4731943aa3a5dd4",
        "catfield_04.csv": "4458e716e765d6b1f1e25215adaf59a1a9156cb67bcda03c8eda5f154b994f61",
        "report.txt": "0e8a5369abf621f26a237b900943f99b66ca94553f76f5de6f88b883574059fa",
    },
    ("oscillator", False): {
        "attenuation.csv": "cd3c4291e795e1fe993a558dc3d5a89320808e20a124864df0590a321b5aa9e8",
        "report.txt": "0d9eb2a2e68513a2bbcb76432d2820833f7c0e708b420afa3826a07baae8098c",
        "revivals.csv": "281e652d01fe7bae9ef8019d760a7b7f974b63b0c7dd3c103c68e9be9a15feac",
    },
    ("oscillator", True): {
        "attenuation.csv": "cd3c4291e795e1fe993a558dc3d5a89320808e20a124864df0590a321b5aa9e8",
        "report.txt": "4fa426c1bf8b77a2f83a69fa3193c1e82b2ea5b6668440c5ecb977c52deedd1a",
        "revivals.csv": "281e652d01fe7bae9ef8019d760a7b7f974b63b0c7dd3c103c68e9be9a15feac",
    },
    ("spin", False): {
        "bloch_trajectory.csv": "555afb2ef4947ccb5b50ab5b81ecebb8b893be4069cae66150a029e13e71d38b",
        "equilibrium.txt": "cd4765b7c01e172f77368c646255d8a0d684c1699de343a61a4ee02a3037e648",
        "report.txt": "39eb352fbb5ac9ef8de93fa5b1ca75fca8b2b20a876107aa4beb709f191968f4",
    },
    ("spin", True): {
        "bloch_trajectory.csv": "555afb2ef4947ccb5b50ab5b81ecebb8b893be4069cae66150a029e13e71d38b",
        "equilibrium.txt": "cd4765b7c01e172f77368c646255d8a0d684c1699de343a61a4ee02a3037e648",
        "report.txt": "e681815cb1266af15b0e2d63806c144e4799370bd7db1eb1ef558ff987587271",
    },
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name,verify", sorted(SHIPPED_DIGESTS))
    def test_outputs_match_pinned_digests(self, tmp_path, name, verify):
        cfg = pathlib.Path(__file__).parent.parent / "configs" / f"{name}.cfg"
        argv = ["run", str(cfg), "--out", str(tmp_path)] + (["--verify"] if verify else [])
        assert main(argv) == 0
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        }
        assert written == SHIPPED_DIGESTS[name, verify]

    def test_every_sample_config_runs(self, tmp_path):
        configs = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.cfg"))
        assert len(configs) >= 3
        for i, cfg in enumerate(configs):
            out = tmp_path / f"out{i}"
            assert main(["run", str(cfg), "--out", str(out)]) == 0, cfg.name
            assert (out / "report.txt").exists()


# the attenuation-only regimes and compare-regimes (shipped free_cat.cfg when
# the text is None), pinned as the per-sample loops wrote them:
# name -> (config text, command, written file, sha256)
CURVE_DIGESTS = {
    "low-t": ("""
        [run]
        mode = free-cat

        [time]
        end = 0.9
        samples = 200

        [free-cat]
        mass = 1.0
        sigma = 1.0
        d = 2.0
        regime = low-t
        zeta = 1.0
        snapshots = 0
    """, "run", "attenuation.csv",
        "a4282c82ba1063687e5bfca3b959917ff37fb456a3bc987cd7f5962b4c1b323f"),
    "decoupled-high-t": ("""
        [run]
        mode = free-cat

        [time]
        end = 1.5
        samples = 150

        [free-cat]
        mass = 2.0
        sigma = 1.0
        d = 3.0
        regime = decoupled-high-t
        temperature = 3.0
        zeta = 0.5
        snapshots = 0
    """, "run", "attenuation.csv",
        "697669e63cef25a23562453ba6b28fc4e68ce970c84a33ee0e4b04a22d9ac471"),
    "compare-regimes": (None, "compare-regimes", "out/free_cat/regime_comparison.csv",
                        "b0e43cdb16ca9ad80616f423915a2c1a52973b381ee46d7c775db4dd98e1c86b"),
}


class TestPinnedCurves:
    @pytest.mark.parametrize("name", sorted(CURVE_DIGESTS))
    def test_outputs_match_pinned_digests(self, tmp_path, monkeypatch, name):
        text, command, written, digest = CURVE_DIGESTS[name]
        if text is None:
            cfg = str(pathlib.Path(__file__).parent.parent / "configs" / "free_cat.cfg")
        else:
            cfg = write_cfg(tmp_path, text)
        monkeypatch.chdir(tmp_path)
        argv = [command, cfg] + (["--out", str(tmp_path)] if command == "run" else [])
        assert main(argv) == 0
        assert hashlib.sha256((tmp_path / written).read_bytes()).hexdigest() == digest


# runs of 20,000 samples (and two 20,000-point snapshots), so every per-sample
# law crosses float_map's chunk seams; pinned as the unchunked map wrote them
MULTI_CHUNK_CFGS = {
    "free": """
    [run]
    mode = free-cat

    [time]
    end = 2.0
    samples = 20000

    [free-cat]
    mass = 1.0
    sigma = 1.0
    d = 3.0
    regime = ohmic-high-t
    temperature = 2.0
    gamma = 0.1
    snapshots = 2
    x_samples = 20000
""",
    "osc": """
    [run]
    mode = oscillator-cat

    [time]
    end = 10.0
    samples = 20000

    [oscillator-cat]
    mass = 1.0
    omega = 2.0
    d = 1.5
    temperature = 0.7
""",
    "spin": """
    [run]
    mode = spin

    [time]
    end = 12.0
    samples = 20000

    [spin]
    gamma = 1.0
    omega = 1.0
    hbar_omega_over_kt = 2.1972245773362196
    p_x = 0.4
    p_z = 0.2
""",
}

MULTI_CHUNK_DIGESTS = {
    ("free", False): {
        "attenuation.csv": "7777f9fae764fbca7c71061fd962cc1abbddf74012435694489dbf232c63d982",
        "catfield_00.csv": "7857f78900c4673ce72588b9b92c29dad19466777e1b72b04319d84fd65047f0",
        "catfield_01.csv": "86a16b0cd2220845ed0cc3a666b1ac6bf711317211345914cd8682f2c981c08f",
        "report.txt": "c35658bc9307290b5f3a946d8734ebccf75a6571be5a0d51a2cae83334e9d986",
    },
    ("free", True): {
        "attenuation.csv": "7777f9fae764fbca7c71061fd962cc1abbddf74012435694489dbf232c63d982",
        "catfield_00.csv": "7857f78900c4673ce72588b9b92c29dad19466777e1b72b04319d84fd65047f0",
        "catfield_01.csv": "86a16b0cd2220845ed0cc3a666b1ac6bf711317211345914cd8682f2c981c08f",
        "report.txt": "4aa5b347b353e376bd04baf11e57a2ee78f07d2735c7e2c96b894cb6f54f64f1",
    },
    ("osc", False): {
        "attenuation.csv": "ccc711c3faae8fdae85467369d3c38a9b834e1b5f7bf86d13b3dea1429b019fe",
        "report.txt": "3a1348ce2c8e109b91118f3949eac635241768b011f66de0760b1e5e02257b49",
        "revivals.csv": "1cc1fabe5e3c231909510400893367494bc689e90682626ead76dea40bacf8f6",
    },
    ("osc", True): {
        "attenuation.csv": "ccc711c3faae8fdae85467369d3c38a9b834e1b5f7bf86d13b3dea1429b019fe",
        "report.txt": "29f573fc9941c4a90cb09800fa9f148de4ee325b3b3a549df42f81a7177f68cd",
        "revivals.csv": "1cc1fabe5e3c231909510400893367494bc689e90682626ead76dea40bacf8f6",
    },
    ("spin", False): {
        "bloch_trajectory.csv": "a7771401037173b20c9e7f626f7240262fd9f4167521c8cbad040e3d8f18525d",
        "equilibrium.txt": "20db115ff6a3d670075a0c70e104c2b6d1a4d72c5cfea542940beb83cf33f671",
        "report.txt": "6ba50952042822a7d23577ae8e4942f9f52901adf1b3b11f520e70d4183d5c82",
    },
    ("spin", True): {
        "bloch_trajectory.csv": "a7771401037173b20c9e7f626f7240262fd9f4167521c8cbad040e3d8f18525d",
        "equilibrium.txt": "20db115ff6a3d670075a0c70e104c2b6d1a4d72c5cfea542940beb83cf33f671",
        "report.txt": "4104e06d32b1b7762753ef217e94074b8083b927e8c4996471a9ef37a713f8c4",
    },
}


class TestMultiChunkRuns:
    @pytest.mark.parametrize("name,verify", sorted(MULTI_CHUNK_DIGESTS))
    def test_outputs_match_pinned_digests(self, tmp_path, name, verify):
        cfg = write_cfg(tmp_path, MULTI_CHUNK_CFGS[name])
        out = tmp_path / "out"
        argv = ["run", cfg, "--out", str(out)] + (["--verify"] if verify else [])
        assert main(argv) == 0
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        }
        assert written == MULTI_CHUNK_DIGESTS[name, verify]

    def test_snapshots_do_not_accumulate(self, tmp_path):
        # each snapshot's field and table are freed before the next one is
        # evaluated, so three snapshots peak as high as one
        def traced_peak(snapshots):
            text = FREE_CFG.replace("snapshots = 3", f"snapshots = {snapshots}")
            text = text.replace("x_samples = 512", "x_samples = 200000")
            cfg = write_cfg(tmp_path, text, name=f"s{snapshots}.cfg")
            out = str(tmp_path / f"out{snapshots}")
            tracemalloc.start()
            try:
                assert main(["run", cfg, "--out", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1)  # warm-up: lazy imports and caches of a first run
        one, three = traced_peak(1), traced_peak(3)
        assert three <= 1.1 * one, (three, one)


# the runs whose tables runner fills GAP_BLOCK rows at a time, as configs of n
# rows: a spin trajectory, snapshots on the default and on an x_min/x_max grid
# (n points each), and an oscillator curve
BLOCK_FILLED_CFGS = {
    "spin": lambda n: SPIN_CFG.replace("samples = 33", f"samples = {n}"),
    "snapshot": lambda n: FREE_CFG.replace("x_samples = 512", f"x_samples = {n}"),
    "snapshot-x-range": lambda n: FREE_CFG.replace("x_samples = 512", f"x_samples = {n}")
    + "    x_min = -3.0\n    x_max = 3.0\n",
    "oscillator": lambda n: OSC_CFG.replace("samples = 101", f"samples = {n}"),
}


class TestBlockFilledTables:
    @pytest.mark.parametrize("n", [20, 21, 22])  # one below, at and one above 3 blocks of 7
    @pytest.mark.parametrize("name", sorted(BLOCK_FILLED_CFGS))
    def test_block_boundaries_write_the_same_bytes(self, tmp_path, monkeypatch, name, n):
        cfg = write_cfg(tmp_path, BLOCK_FILLED_CFGS[name](n))

        def written(out):
            assert main(["run", cfg, "--verify", "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        one_block = written(tmp_path / "one")
        monkeypatch.setattr(runner_mod, "GAP_BLOCK", 7)
        assert written(tmp_path / "blocks") == one_block

    @pytest.mark.parametrize("name, limit", [
        ("spin", 90), ("snapshot", 70), ("oscillator", 30),
    ])
    def test_run_peaks_near_its_table(self, tmp_path, name, limit):
        # a run holds its table (8 bytes per cell: 56, 40 and 16 per row),
        # its grid (8 per row, copied into the table's first column) and one
        # block each of the closed form and of write_table's formatting
        def traced_peak(n):
            cfg = write_cfg(tmp_path, BLOCK_FILLED_CFGS[name](n), name=f"{n}.cfg")
            tracemalloc.start()
            try:
                assert main(["run", cfg, "--out", str(tmp_path / f"out{n}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(100)  # warm-up: lazy imports and caches of a first run
        rows = 200_000
        peak = traced_peak(rows)
        assert peak <= limit * rows, peak / rows


# 80,000-sample free-cat runs whose grid passes a regime's bound: half of the
# ohmic-high-t grid lies past its window's end at 1/gamma = 1, and nearly all
# of the decoupled grid past m/zeta / 10 = 0.1, where its law warns; data
# digests taken when every one of those times warned on its own
PAST_WINDOW_RUNS = {
    "ohmic-high-t": ("""
    [run]
    mode = free-cat

    [time]
    end = 2.0
    samples = 80000

    [free-cat]
    mass = 1.0
    sigma = 1.0
    d = 4.0
    regime = ohmic-high-t
    temperature = 200.0
    gamma = 1.0
    snapshots = 2
    x_samples = 256
""", [
        "t = 1.00001 lies outside the validity window [0, 1) of the ohmic-high-t "
        "kinematics (first of 40000 such times)",
        # the snapshot at t = 2, a scalar call
        "t = 2 lies outside the validity window [0, 1) of the ohmic-high-t kinematics",
    ], {
        "attenuation.csv": "05b1e996a75d8dbda3d4095fd24e2b8f2715c84c6a0fa5963fe909f20e82936e",
        "catfield_00.csv": "7bdac76bf7109d3284cb2eaccd6824ed5bf958849d0d079e01cba549451fa35c",
        "catfield_01.csv": "42209d4c84f1c9622277cbddf354efde0c932f2c018edf917721c4a6c8120025",
    }),
    "decoupled-high-t": ("""
    [run]
    mode = free-cat

    [time]
    end = 0.99
    samples = 80000

    [free-cat]
    mass = 1.0
    sigma = 1.0
    d = 3.0
    regime = decoupled-high-t
    temperature = 3.0
    zeta = 1.0
    snapshots = 0
""", [
        "t = 0.100004 is a sizable fraction of m/zeta = 1; the weak-damping result "
        "is approximate here (first of 71919 such times)",
    ], {
        "attenuation.csv": "17cbc0aef6c52409d27b6d7004d509f5d1971388cf791c6d5c011983a369db43",
    }),
}


class TestLongRunsPastTheirWindow:
    @pytest.mark.parametrize("name", sorted(PAST_WINDOW_RUNS))
    @pytest.mark.parametrize("verify", [False, True])
    def test_one_warning_per_cause(self, tmp_path, capsys, name, verify):
        text, expected, digests = PAST_WINDOW_RUNS[name]
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        argv = ["run", cfg, "--out", str(out)] + (["--verify"] if verify else [])
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in expected]
        report = (out / "report.txt").read_text().splitlines()
        assert [line.split(" = ", 1)[1] for line in report if re.match(r"w\d+ = ", line)] == expected
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name != "report.txt"
        }
        assert written == digests


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path, SPIN_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "decolab", "run", cfg, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "report.txt" in proc.stdout


class TestHeapRelease:
    @pytest.mark.skipif(
        sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "malloc_trim"),
        reason="reads /proc/self/status; malloc_trim is glibc's",
    )
    def test_a_command_leaves_no_freed_memory_resident(self, tmp_path):
        # a 500,000-sample free-cat curve frees tens of MB of arrays and
        # buffers; unless main returns them, the C heap keeps about 5 MB resident
        small = write_cfg(tmp_path, FREE_CFG, name="small.cfg")
        big = write_cfg(tmp_path, FREE_CFG.replace("samples = 41", "samples = 500000"), name="big.cfg")
        script = textwrap.dedent("""
            import sys
            from decolab.cli import main

            def resident_mb():
                with open("/proc/self/status") as status:
                    line = next(line for line in status if line.startswith("VmRSS:"))
                return int(line.split()[1]) / 1024

            small, big, out = sys.argv[1:]
            main(["run", small, "--out", out + "/small"])  # lazy imports and tables
            before = resident_mb()
            main(["run", big, "--out", out + "/big"])
            print(before, resident_mb())
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, small, big, str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        before, after = map(float, proc.stdout.split()[-2:])
        assert after - before < 3.0, (before, after)
