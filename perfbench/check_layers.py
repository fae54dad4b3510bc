"""Layer coverage, bypass counts and trace transparency of the benchmark.

    python3 -m pytest perfbench/check_layers.py

The file name keeps it out of a bare `pytest` run: it measures every
workload once untraced and once traced, which takes about a minute.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

# layers each workload is meant to stress; every one must show calls
STRESSED = {
    "shipped": tracer.LAYERS,
    "scaled": ("cli", "config", "runner", "cat_free", "cat_oscillator", "spin_bloch", "oracle", "output"),
}


@pytest.fixture(scope="module")
def measured():
    return {name: run.measure(name, seed=7, seconds=0, trace=True) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_gate_passes_and_tracing_changes_no_output(measured, workload):
    m = measured[workload]
    assert m.failed == 0, [r.failures for r in m.results() if r.failures]
    untraced, traced = m.untraced()[0], m.traced()[0]
    assert [r.digests for _, r in traced.commands] == [r.digests for _, r in untraced.commands]


@pytest.mark.parametrize("workload", sorted(STRESSED))
def test_stressed_layers_show_calls(measured, workload):
    layers = run.per_layer(measured[workload])
    idle = [layer for layer in STRESSED[workload] if layers[f"{layer}.calls"][0] == 0]
    assert idle == []


def test_oracle_counters(measured):
    shipped = run.per_layer(measured["shipped"])
    for name in ("oracle.rk4_steps", "oracle.lindblad_rhs_calls", "oracle.quad_calls"):
        assert shipped[name][0] > 0, name
    scaled = run.per_layer(measured["scaled"])
    assert scaled["oracle.quad_calls"][0] == 400
    assert scaled["output.tables"][0] >= 100


def test_bypass_counts(measured):
    scaled = run.per_layer(measured["scaled"])
    assert scaled["oracle.rk4_steps"][0] == 0
    assert scaled["oracle.lindblad_rhs_calls"][0] == 0
    assert scaled["oracle.lindblad_busy_s"][0] == 0


def test_wrappers_cover_every_lookup_and_come_off():
    run.load_cli(run.ROOT / "src")
    from decolab import cli, oracle, output, runner, spin_bloch

    originals = (runner.write_table, oracle.nbar, spin_bloch.bloch_evolve, cli.run, output.format_float)
    with tracer.Tracer().installed():
        assert runner.write_table.__wrapped__ is originals[0]
        assert runner.format_float.__wrapped__ is originals[4]
        assert oracle.nbar.__wrapped__ is originals[1]
        assert oracle.check_density_matrix.__wrapped__ is not None
        assert spin_bloch.bloch_evolve.__wrapped__ is originals[2]
        assert cli.run.__wrapped__ is originals[3]
        # inside output, per-number formatting is not a layer boundary
        assert output.format_float is originals[4]
    assert (runner.write_table, oracle.nbar, spin_bloch.bloch_evolve, cli.run,
            output.format_float) == originals


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scaled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert not (Path(tmp_path) / ".bench_out").exists()
