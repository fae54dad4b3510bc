"""decolab benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 50 --trace 0

Run from anywhere; the program is imported from the `src/` directory next
to this one and driven in process through `decolab.cli.main`, one command
after another. A run:

1. times set-up: a cold `import decolab.cli` in a fresh interpreter plus
   writing the workload's configs, repeated and reported as a median
   (a few times here, then once after every measured pass);
2. runs one warm-up pass, whose outputs become the reference;
3. runs passes until `--seconds` have gone by and reports the median pass.
   With `--trace 1` untraced and traced passes alternate:
   the traced ones give the per-layer numbers (medians) and their extra
   wall time is the tracing overhead;
4. checks every command (correctness gate, see `execute`), prints every
   metric with its unit and sample count, and ends with one JSON line
   `{"correct", "attempted", "failed", "metrics"}`.

Exits 2 without a result when the program sources are missing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PINNED_DIGESTS = HERE / "shipped_digests.json"

END_TO_END = {
    "pass_s": "s",
    "run_verify_s": "s",
    "run_plain_s": "s",
    "samples_per_s": "1/s",
    "pass_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {"calls": "count", "busy_s": "s", "self_s": "s"}
# counted by the tracer's probes
COUNTERS = {
    "oracle.rk4_steps": "count",
    "oracle.lindblad_rhs_calls": "count",
    "oracle.lindblad_busy_s": "s",
    "oracle.quad_calls": "count",
    "oracle.quad_evals": "count",
    "oracle.quad_busy_s": "s",
    "output.tables": "count",
    "output.rows": "count",
    "output.bytes": "bytes",
}
PER_LAYER = {
    **{f"{layer}.{metric}": unit for layer in tracing.LAYERS for metric, unit in LAYER_METRICS.items()},
    **COUNTERS,
    "oracle.quad_evals_per_call": "evals/call",
    "oracle.check_margin_max": "ratio",
    "trace.overhead_s": "s",
}

CHECK_LINE = re.compile(
    r"^(?:verify|selftest) (\S+): (PASS|FAIL) \(deviation (\S+), tolerance (\S+)\)$"
)

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import decolab.cli\n"
    "print(time.perf_counter() - t0)\n"
    "print(decolab.__file__)\n"
)


class ProgramMissing(Exception):
    """The checkout has no importable decolab sources."""


@dataclass
class CommandResult:
    wall_s: float
    cpu_s: float
    failures: list
    digests: dict
    margins: list


@dataclass
class PassResult:
    traced: bool
    commands: list = field(default_factory=list)
    command_ids: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def wall_s(self, kind=None):
        return sum(r.wall_s for c, r in self.commands if kind is None or c.kind == kind)

    def cpu_s(self):
        return sum(r.cpu_s for _, r in self.commands)


@dataclass
class Measurement:
    workload: str
    seed: int
    setup_samples: list
    commands: list
    warmup: PassResult
    passes: list      # measured passes, after the warm-up
    tracer: object
    peak_rss_mb: float

    @property
    def setup_s(self):
        return statistics.median(self.setup_samples)

    def untraced(self):
        return [p for p in self.passes if not p.traced]

    def traced(self):
        return [p for p in self.passes if p.traced]

    def results(self):
        """Every command result, warm-up included: all of them are gated."""
        return [r for p in [self.warmup, *self.passes] for _, r in p.commands]

    @property
    def attempted(self):
        return len(self.results())

    @property
    def failed(self):
        return sum(1 for r in self.results() if r.failures)


def _is_inside(path, directory):
    return Path(path).resolve().is_relative_to(Path(directory).resolve())


def time_cold_import(src: Path) -> float:
    """Seconds a fresh interpreter spends in `import decolab.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) != 2 or not _is_inside(lines[1], src):
        raise ProgramMissing(f"cannot import decolab from {src}: {done.stderr.strip()[-400:]}")
    return float(lines[0])


def load_cli(src: Path):
    if not (src / "decolab" / "__init__.py").is_file():
        raise ProgramMissing(f"no decolab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import decolab.cli

    if not _is_inside(decolab.cli.__file__, src):
        raise ProgramMissing(f"decolab was imported from {decolab.cli.__file__}, not {src}")
    return decolab.cli


def _margin(deviation: float, tolerance: float) -> float:
    if math.isnan(deviation):
        return math.inf
    if tolerance > 0:
        return deviation / tolerance
    return 0.0 if deviation == 0 else math.inf


def _differing(a: dict, b: dict) -> list:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def _digests(directory: Path) -> dict:
    found = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            found[path.relative_to(directory).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def execute(cli, command, reference=None, pinned=None) -> CommandResult:
    """Run one command through `cli.main` in its own fresh directory and judge it.

    The command fails when it exits nonzero, raises, prints a FAIL check,
    writes or prints anything different from the reference pass, or writes
    data files that differ from the pinned digests.
    """
    shutil.rmtree(command.directory, ignore_errors=True)
    command.directory.mkdir(parents=True)
    out, err = io.StringIO(), io.StringIO()
    failures = []
    previous = os.getcwd()
    os.chdir(command.directory)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(command.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a command that raises is a failed command; the run goes on
        code = None
        failures.append("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        os.chdir(previous)
    if code not in (0, None):
        failures.append(f"exit code {code}")

    margins = []
    for line in out.getvalue().splitlines():
        match = CHECK_LINE.match(line)
        if match:
            name, status, deviation, tolerance = match.groups()
            margins.append(_margin(float(deviation), float(tolerance)))
            if status != "PASS":
                failures.append(f"check {name} {status}")

    files = _digests(command.directory)
    if pinned is not None:
        for name in _differing(files, pinned):
            failures.append(f"{name}: sha256 {files.get(name)} != pinned {pinned.get(name)}")
    digests = dict(files)
    digests["<stdout>"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    digests["<stderr>"] = hashlib.sha256(err.getvalue().encode()).hexdigest()
    if reference is not None and digests != reference:
        failures.append("output differs from the first pass: " + ", ".join(_differing(digests, reference)))
    return CommandResult(wall, cpu, failures, digests, margins)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set up, warm up and measure one workload; see the module docstring."""
    src = ROOT / "src"
    work = ROOT / ".bench_out" / workload
    shutil.rmtree(work, ignore_errors=True)

    setup_samples = []

    def set_up():
        import_s = time_cold_import(src)
        t0 = time.perf_counter()
        built = workloads.build(workload, ROOT, work, seed)
        setup_samples.append(import_s + time.perf_counter() - t0)
        return built

    for _ in range(SETUP_REPEATS):
        commands = set_up()

    cli = load_cli(src)
    pinned = {}
    if workload == "shipped":
        pinned = json.loads(PINNED_DIGESTS.read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    next_id = 0

    def one_pass(traced, references):
        nonlocal next_id
        record = PassResult(traced)
        tracer.take_counters()
        with tracer.installed() if traced else contextlib.nullcontext():
            for command in commands:
                tracer.command_id = next_id
                result = execute(cli, command, references.get(command.label), pinned.get(command.label))
                record.commands.append((command, result))
                record.command_ids.append(next_id)
                next_id += 1
        record.counters = tracer.take_counters()
        return record

    warmup = one_pass(False, {})
    references = {c.label: r.digests for c, r in warmup.commands}
    passes = []
    begin = time.perf_counter()
    measured = 0
    while measured < (2 if trace else 1) or time.perf_counter() - begin < seconds:
        passes.append(one_pass(trace and measured % 2 == 1, references))
        measured += 1
        # one more set-up sample per pass, so that setup_s, like the pass
        # times, is a median over the whole run rather than over its first
        # seconds, which a short slow spell of the host can cover
        set_up()
    if trace:
        tracer.save(work / "spans.npz")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measurement(workload, seed, setup_samples, commands, warmup, passes, tracer, peak)


def end_to_end(m: Measurement) -> dict:
    """{name: (value, sample count)} over the untraced measured passes."""
    timed = m.untraced()
    pass_s = statistics.median(p.wall_s() for p in timed)
    samples = sum(c.samples for c in m.commands)
    return {
        "pass_s": (pass_s, len(timed)),
        "run_verify_s": (statistics.median(p.wall_s(workloads.RUN_VERIFY) for p in timed), len(timed)),
        "run_plain_s": (statistics.median(p.wall_s(workloads.RUN) for p in timed), len(timed)),
        "samples_per_s": (samples / pass_s, len(timed)),
        "pass_cpu_s": (statistics.median(p.cpu_s() for p in timed), len(timed)),
        "setup_s": (m.setup_s, len(m.setup_samples)),
        "peak_rss_mb": (m.peak_rss_mb, 1),
    }


def per_layer(m: Measurement) -> dict:
    """{name: (value, sample count)} over the traced passes."""
    traced = m.traced()
    n = len(traced)
    metrics = {}
    totals = [m.tracer.layer_totals(p.command_ids) for p in traced]
    for layer in tracing.LAYERS:
        for metric in LAYER_METRICS:
            metrics[f"{layer}.{metric}"] = (statistics.median([t[layer][metric] for t in totals]), n)
    for name in COUNTERS:
        metrics[name] = (statistics.median([p.counters.get(name, 0) for p in traced]), n)
    metrics["oracle.quad_evals_per_call"] = (statistics.median([
        p.counters.get("oracle.quad_evals", 0) / p.counters["oracle.quad_calls"]
        if p.counters.get("oracle.quad_calls") else 0.0
        for p in traced
    ]), n)
    margins = [x for r in m.results() for x in r.margins]
    metrics["oracle.check_margin_max"] = (max(margins, default=0.0), len(margins))
    untraced = m.untraced()
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall_s() for p in traced) - statistics.median(p.wall_s() for p in untraced),
        min(n, len(untraced)),
    )
    return metrics


def _plain(value):
    """Whole floats as ints, so that counts print as counts."""
    return int(value) if isinstance(value, float) and value.is_integer() and abs(value) < 2**53 else value


def _line(name, value, unit, note):
    print(f"  {name:<28} {_plain(value)!r:>24} {unit:<10} {note}")


def report(m: Measurement, trace: bool) -> dict:
    """Print every metric by name, then the JSON result line; return that result."""
    print(f"workload {m.workload}  seed {m.seed}  trace {int(trace)}  "
          f"passes {len(m.untraced())} untraced + {len(m.traced())} traced (+1 warm-up)")
    e2e = end_to_end(m)
    for name, (value, n) in e2e.items():
        _line(name, value, END_TO_END[name], f"n={n}")
    timed = m.untraced()
    if any(c.kind == workloads.SELFTEST for c in m.commands):
        _line("selftest_s", statistics.median(p.wall_s(workloads.SELFTEST) for p in timed), "s", f"n={len(timed)}")
    else:
        print(f"  {'selftest_s':<28} {'absent':>24} {'s':<10} (workload runs no selftest)")
    _line("fail_ratio", m.failed / m.attempted, "ratio", f"{m.failed}/{m.attempted} commands")
    if trace:
        layers = per_layer(m)
        for name, (value, n) in layers.items():
            _line(name, value, PER_LAYER[name], f"n={n}")
        metrics = {name: {"value": _plain(v), "unit": PER_LAYER[name]} for name, (v, _) in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, (v, _) in e2e.items()}
    for command, result in ((c, r) for p in [m.warmup, *m.passes] for c, r in p.commands):
        for failure in result.failures:
            print(f"FAILED {command.label}: {failure}", file=sys.stderr)
    line = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    report(m, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
