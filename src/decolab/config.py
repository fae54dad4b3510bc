"""Run configuration: sectioned key-value files parsed into typed records.

A config names exactly one mode (free-cat, oscillator-cat, or spin) in its
[run] section and supplies that mode's parameter block in a section of the
same name.  [time] fixes the sampling grid.  Unknown sections or keys are
rejected rather than ignored so typos fail loudly, and every validation
error names the offending section and key.  Each mode's params class
carries its name and parser (MODES maps one to the other); RunConfig.params
holds the parsed block, and RunConfig.mode is read from its class.
"""

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

from .core import UNIT_SYSTEMS, CatSpec, ConfigError, PhysicalConstants, ReservoirSpec
from .cat_free import REGIMES
from .cat_oscillator import OscillatorSpec
from .output import FORMATS
from .spin_bloch import SpinBathSpec

# cap on every count that sizes an array (samples, x_samples, snapshots,
# n_revivals): a typo such as an extra zero fails at parse time instead of
# filling memory and disk
MAX_SAMPLES = 10 ** 7


@dataclass(frozen=True)
class FreeCatParams:
    cat: CatSpec
    reservoir: ReservoirSpec
    regime: str
    snapshots: int
    x_min: float | None
    x_max: float | None
    x_samples: int
    mode: ClassVar[str] = "free-cat"

    @classmethod
    def parse(cls, sec: "_Section", constants: PhysicalConstants) -> "FreeCatParams":
        cat = CatSpec(
            mass=sec.get_float("mass", required=True),
            sigma=sec.get_float("sigma", required=True),
            d=sec.get_float("d", required=True),
        )
        regime = sec.get_str("regime", required=True, choices=tuple(REGIMES))
        reads = REGIMES[regime].reads
        for key in ("temperature", "gamma", "zeta"):
            if sec.has(key) and key not in reads:
                raise ConfigError(f"[{sec.name}] key {key!r} is not used by regime {regime!r}")

        temperature = sec.get_float("temperature", default=0.0)
        if "temperature" in reads and temperature <= 0:
            raise ConfigError(f"[{sec.name}] regime {regime!r} needs a positive temperature")
        gamma = sec.get_float("gamma", default=0.0)
        zeta = sec.get_float("zeta")
        if "zeta" in reads and gamma == 0.0 and zeta is None:
            raise ConfigError(f"[{sec.name}] regime {regime!r} needs gamma or zeta")

        x_min = sec.get_float("x_min")
        x_max = sec.get_float("x_max")
        if (x_min is None) != (x_max is None):
            raise ConfigError(f"[{sec.name}] x_min and x_max must be given together")
        if x_min is not None and not x_min < x_max:
            raise ConfigError(f"[{sec.name}] needs x_min < x_max, got [{x_min}, {x_max}]")

        snapshots = sec.get_int("snapshots", default=5, maximum=MAX_SAMPLES)
        if snapshots < 0:
            raise ConfigError(f"[{sec.name}] snapshots must be non-negative, got {snapshots}")
        x_samples = sec.get_int("x_samples", default=2048, maximum=MAX_SAMPLES)
        if x_samples < 2:
            raise ConfigError(f"[{sec.name}] x_samples must be at least 2, got {x_samples}")

        return cls(
            cat=cat,
            reservoir=ReservoirSpec(gamma=gamma, temperature=temperature, zeta=zeta),
            regime=regime,
            snapshots=snapshots,
            x_min=x_min,
            x_max=x_max,
            x_samples=x_samples,
        )


@dataclass(frozen=True)
class OscillatorParams:
    spec: OscillatorSpec
    n_revivals: int | None
    mode: ClassVar[str] = "oscillator-cat"

    @classmethod
    def parse(cls, sec: "_Section", constants: PhysicalConstants) -> "OscillatorParams":
        omega = sec.get_float("omega", required=True)
        spec = OscillatorSpec(
            mass=sec.get_float("mass", required=True),
            omega=omega,
            d=sec.get_float("d", required=True),
            temperature=_resolve_temperature(sec, omega, constants),
        )
        n_revivals = sec.get_int("n_revivals", maximum=MAX_SAMPLES)
        if n_revivals is not None and n_revivals < 1:
            raise ConfigError(f"[{sec.name}] n_revivals must be positive, got {n_revivals}")
        return cls(spec=spec, n_revivals=n_revivals)


@dataclass(frozen=True)
class SpinParams:
    spec: SpinBathSpec
    initial: tuple[float, float, float]
    mode: ClassVar[str] = "spin"

    @classmethod
    def parse(cls, sec: "_Section", constants: PhysicalConstants) -> "SpinParams":
        omega = sec.get_float("omega", required=True)
        if sec.has("g_n") != sec.has("mu0"):
            raise ConfigError(f"[{sec.name}] g_n and mu0 must be given together")
        spec = SpinBathSpec(
            gamma=sec.get_float("gamma", required=True),
            omega=omega,
            temperature=_resolve_temperature(sec, omega, constants),
            g_n=sec.get_float("g_n"),
            mu0=sec.get_float("mu0"),
        )
        initial = (
            sec.get_float("p_x", default=0.0),
            sec.get_float("p_y", default=0.0),
            sec.get_float("p_z", default=0.0),
        )
        if sum(v * v for v in initial) > 1.0 + 1e-10:
            raise ConfigError(f"[{sec.name}] initial polarization {initial} lies outside the unit ball")
        return cls(spec=spec, initial=initial)


MODES = {params.mode: params for params in (FreeCatParams, OscillatorParams, SpinParams)}


@dataclass(frozen=True)
class RunConfig:
    params: FreeCatParams | OscillatorParams | SpinParams
    unit_system: str
    verify: bool
    fmt: str
    output_dir: str
    t_start: float
    t_end: float
    n_samples: int
    source_text: str

    @property
    def mode(self) -> str:
        return self.params.mode

    @property
    def constants(self) -> PhysicalConstants:
        return UNIT_SYSTEMS[self.unit_system]

    def __post_init__(self):
        if not (0.0 <= self.t_start < self.t_end):
            raise ConfigError(
                f"time grid needs 0 <= start < end, got [{self.t_start}, {self.t_end}]"
            )
        if self.n_samples < 2:
            raise ConfigError(f"samples must be at least 2, got {self.n_samples}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if self.unit_system not in UNIT_SYSTEMS:
            names = " or ".join(map(repr, UNIT_SYSTEMS))
            raise ConfigError(f"unit_system must be {names}, got {self.unit_system!r}")

    def with_overrides(self, verify=None, output_dir=None, fmt=None) -> "RunConfig":
        """Apply the command-line overrides that were given (not None) without
        touching the config identity."""
        given = {"verify": verify, "output_dir": output_dir, "fmt": fmt}
        return replace(self, **{key: value for key, value in given.items() if value is not None})


class _Section:
    """One config section with typed getters and leftover-key detection."""

    def __init__(self, name: str, items: dict):
        self.name = name
        self._items = dict(items)
        self._seen = set()

    def _raw(self, key, required: bool = False):
        self._seen.add(key)
        raw = self._items.get(key)
        if raw is None and required:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return raw

    def get_float(self, key: str, default=None, required: bool = False):
        raw = self._raw(key, required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a finite number")
        return value

    def get_int(self, key: str, default=None, required: bool = False, maximum=None):
        raw = self._raw(key, required)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not an integer") from None
        if maximum is not None and value > maximum:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} exceeds the cap of {maximum}")
        return value

    def get_str(self, key: str, default=None, required: bool = False, choices=None):
        raw = self._raw(key, required)
        if raw is None:
            return default
        if choices is not None and raw not in choices:
            raise ConfigError(f"[{self.name}] {key} = {raw!r}; expected one of {choices}")
        return raw

    def get_bool(self, key: str, default=False):
        raw = self._raw(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a boolean")

    def has(self, key: str) -> bool:
        self._seen.add(key)
        return key in self._items

    def reject_leftovers(self):
        extra = sorted(set(self._items) - self._seen)
        if extra:
            raise ConfigError(f"[{self.name}] has unknown key(s): {', '.join(extra)}")


def _resolve_temperature(sec: _Section, omega: float, constants: PhysicalConstants) -> float:
    """Temperature either directly or via the dimensionless ratio hbar omega / k T."""
    has_t = sec.has("temperature")
    has_ratio = sec.has("hbar_omega_over_kt")
    if has_t and has_ratio:
        raise ConfigError(
            f"[{sec.name}] gives both temperature and hbar_omega_over_kt; pick one"
        )
    if has_t:
        return sec.get_float("temperature")
    if has_ratio:
        ratio = sec.get_float("hbar_omega_over_kt")
        if ratio <= 0:
            raise ConfigError(f"[{sec.name}] hbar_omega_over_kt must be positive, got {ratio}")
        return constants.hbar * omega / (constants.k_boltzmann * ratio)
    raise ConfigError(f"[{sec.name}] needs either temperature or hbar_omega_over_kt")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises ConfigError with a section/key diagnostic on any problem; the
    underlying parser's line numbers are preserved for syntax errors.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    known = {"run", "time"} | set(MODES)
    unknown = sorted(set(cp.sections()) - known)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    if "run" not in cp:
        raise ConfigError("missing required [run] section")

    run = _Section("run", cp["run"])
    mode = run.get_str("mode", required=True, choices=tuple(MODES))
    unit_system = run.get_str("unit_system", default="natural", choices=tuple(UNIT_SYSTEMS))
    verify = run.get_bool("verify", default=False)
    fmt = run.get_str("format", default="delimited-text", choices=FORMATS)
    output_dir = run.get_str("output_dir", default="out")
    run.reject_leftovers()
    constants = UNIT_SYSTEMS[unit_system]

    if "time" not in cp:
        raise ConfigError("missing required [time] section")
    time_sec = _Section("time", cp["time"])
    t_start = time_sec.get_float("start", default=0.0)
    t_end = time_sec.get_float("end", required=True)
    n_samples = time_sec.get_int("samples", default=512, maximum=MAX_SAMPLES)
    time_sec.reject_leftovers()

    extra_modes = [m for m in MODES if m != mode and m in cp]
    if extra_modes:
        raise ConfigError(
            f"mode is {mode!r} but parameter block(s) {extra_modes} are also present; "
            "exactly one mode block is allowed"
        )
    if mode not in cp:
        raise ConfigError(f"mode is {mode!r} but the [{mode}] section is missing")

    sec = _Section(mode, cp[mode])
    try:
        params = MODES[mode].parse(sec, constants)
    except ConfigError:
        raise
    except ValueError as exc:  # a spec record refused a value: name its section
        raise ConfigError(f"[{mode}] {exc}") from None
    sec.reject_leftovers()

    return RunConfig(
        params=params,
        unit_system=unit_system,
        verify=verify,
        fmt=fmt,
        output_dir=output_dir,
        t_start=t_start,
        t_end=t_end,
        n_samples=n_samples,
        source_text=text,
    )


def load_config(path) -> RunConfig:
    """Read and parse a config file from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
