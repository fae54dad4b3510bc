"""The benchmark's workloads: each is a fixed list of CLI commands.

A workload builder writes the config files its commands read (the program
only ever sees those files) and returns the commands of one pass. Seeded
workloads draw physical parameters from the ranges `decolab selftest`
samples (mass 0.5-2, sigma 0.7-1.5, d up to 5, temperature 0.5-4,
gamma 0.01, t up to 1, polarization inside the unit ball); sizes are fixed,
so every seed asks for nearly the same work (only the adaptive quadrature's
evaluation count follows the parameters).

Each command runs in its own directory, which holds everything it writes.
"""

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path

# command kinds, used to split pass time into the per-command metrics
RUN = "run"
RUN_VERIFY = "run-verify"
COMPARE = "compare-regimes"
SELFTEST = "selftest"


@dataclass(frozen=True)
class Command:
    label: str        # directory name under the work dir, and digest key
    kind: str
    argv: tuple
    directory: Path
    samples: int      # time samples plus x-grid points the command produces


def _samples(config_path: Path, kind: str) -> int:
    """Time samples, plus snapshot x-grid points for free-cat regimes that have them."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    if not cp.read(config_path, encoding="utf-8"):
        raise FileNotFoundError(f"cannot read config {config_path}")
    total = cp.getint("time", "samples", fallback=512)
    free = cp["free-cat"] if cp.has_section("free-cat") else None
    if kind != COMPARE and free is not None and free.get("regime") in ("free", "ohmic-high-t"):
        total += free.getint("snapshots", fallback=5) * free.getint("x_samples", fallback=2048)
    return total


def _run(work: Path, label: str, config: Path, verify: bool) -> Command:
    directory = work / label
    argv = ["run", str(config), "--out", str(directory)]
    kind = RUN
    if verify:
        argv.append("--verify")
        kind = RUN_VERIFY
    return Command(label, kind, tuple(argv), directory, _samples(config, kind))


def _write_config(path: Path, sections: dict) -> Path:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _ball_point(rng: random.Random) -> tuple:
    # same draw as selftest: uniform in the cube, pulled just inside the ball
    p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(v * v for v in p))
    if norm > 1.0:
        p = [v / (norm * 1.0001) for v in p]
    return tuple(p)


def _free_cat(rng: random.Random, samples: int, snapshots: int, x_samples: int, fmt: str) -> dict:
    return {
        "run": {"mode": "free-cat", "format": fmt},
        "time": {"end": repr(rng.uniform(0.5, 1.0)), "samples": samples},
        "free-cat": {
            "mass": repr(rng.uniform(0.5, 2.0)),
            "sigma": repr(rng.uniform(0.7, 1.5)),
            "d": repr(rng.uniform(1.0, 5.0)),
            "regime": "ohmic-high-t",
            "temperature": repr(rng.uniform(0.5, 4.0)),
            "gamma": "0.01",
            "snapshots": snapshots,
            "x_samples": x_samples,
        },
    }


def shipped(root: Path, work: Path, seed: int) -> list:
    """The shipped configs exactly as users and CI run them; ignores the seed."""
    configs = root / "configs"
    commands = []
    for name in ("free_cat", "oscillator", "spin"):
        config = configs / f"{name}.cfg"
        commands.append(_run(work, name, config, verify=False))
        commands.append(_run(work, f"{name}-verify", config, verify=True))
    free_cat = configs / "free_cat.cfg"
    # compare-regimes has no --out: it writes under the config's output_dir,
    # relative to the command's directory
    commands.append(Command(
        "compare-free_cat", COMPARE, ("compare-regimes", str(free_cat)),
        work / "compare-free_cat", _samples(free_cat, COMPARE),
    ))
    commands.append(Command("selftest", SELFTEST, ("selftest",), work / "selftest", 0))
    return commands


def scaled(root: Path, work: Path, seed: int) -> list:
    """Seeded inputs at the scale where per-sample and per-file costs show.

    Three plain runs with long time axes and wide x grids (delimited-text),
    then a free-cat run with --verify that writes 100 small snapshot files
    (structured-text) and checks each snapshot by quadrature. RK4 and the
    Lindblad route never run here.
    """
    rng = random.Random(seed)
    configs = work / "configs"
    snapshots = _write_config(
        configs / "snapshots.cfg", _free_cat(rng, 64, 100, 2048, "structured-text")
    )
    free_cat = _write_config(
        configs / "free_cat.cfg", _free_cat(rng, 100_000, 2, 50_000, "delimited-text")
    )
    omega = rng.uniform(0.5, 2.0)
    oscillator = _write_config(configs / "oscillator.cfg", {
        "run": {"mode": "oscillator-cat"},
        "time": {"end": repr(40.0 / omega), "samples": 100_000},
        "oscillator-cat": {
            "mass": repr(rng.uniform(0.5, 2.0)),
            "omega": repr(omega),
            "d": repr(rng.uniform(1.0, 5.0)),
            "temperature": repr(rng.uniform(0.5, 4.0)),
        },
    })
    # selftest's spin bath: gamma = omega = 1, nbar = 1/8, so T1 = 0.8;
    # the horizon spans 20 T1
    p_x, p_y, p_z = _ball_point(rng)
    spin = _write_config(configs / "spin.cfg", {
        "run": {"mode": "spin"},
        "time": {"end": "16.0", "samples": 50_000},
        "spin": {
            "gamma": "1.0",
            "omega": "1.0",
            "temperature": repr(1.0 / (2.0 * math.log(3.0))),
            "p_x": repr(p_x),
            "p_y": repr(p_y),
            "p_z": repr(p_z),
        },
    })
    return [
        _run(work, "free_cat", free_cat, verify=False),
        _run(work, "oscillator", oscillator, verify=False),
        _run(work, "spin", spin, verify=False),
        _run(work, "snapshots-verify", snapshots, verify=True),
    ]


WORKLOADS = {
    "shipped": shipped,
    "scaled": scaled,
}


def build(name: str, root: Path, work: Path, seed: int) -> list:
    """Write the workload's configs under work/configs and return its commands."""
    (work / "configs").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, work, seed)
