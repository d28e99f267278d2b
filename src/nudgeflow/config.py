"""Experiment configuration: a flat key-value text format with typed sections.

The file format is deliberately small: `[section]` headers, `key = value`
pairs, `#` comments, blank lines.  Parsing is strict about types and
required keys (errors carry line numbers), loose about unknown keys
(warning only, for forward compatibility).  Rendering uses full-precision
floats so that parse(render(cfg)) == cfg exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields as dc_fields
from typing import Callable

from .interpolants import KINDS
from .schemes import SCHEMES
from .storage import FLOAT_FMT

__all__ = ["ConfigError", "ExperimentConfig", "load_config",
           "parse_config_text", "render_config", "default_config"]


class ConfigError(ValueError):
    """Malformed config file or inadmissible value."""


SCHEME_CHOICES = SCHEMES
FORCING_CHOICES = ("kolmogorov", "random_band", "none")
INTERPOLANT_CHOICES = (*KINDS, "none")
TRUTH_CHOICES = ("nse_integrate", "analytic:kolmogorov", "analytic:taylor_green")
IC_CHOICES = ("random_bv", "zero", "truth_low", "perturbed_truth")
EXPECT_CHOICES = ("decay", "no_decay")


@dataclass(frozen=True)
class ExperimentConfig:
    # [physics]
    nu: float
    L: float
    grid_n: int
    forcing: str
    forcing_kappa: int
    forcing_amplitude: float
    forcing_decay: float
    beta: float
    interpolant: str
    h: float
    lambda_cut: float
    # [experiment]
    scheme: str
    tau: float
    t_end: float
    burn_in: float
    truth: str
    truth_dt_factor: int
    truth_spinup: float
    truth_store_every: int
    ic: str
    ic_amplitude: float
    perturbation: float
    seed: int
    min_decay_orders: float
    twin_expect: str
    soak_steps: int
    contraction_steps: int
    # [sweep]
    tau_list: tuple[float, ...]
    lambda_cut_list: tuple[float, ...]
    ref_factor: int
    # [output]
    out_dir: str

    def __post_init__(self) -> None:
        if self.burn_in >= self.t_end:
            raise ConfigError(
                f"burn_in ({self.burn_in}) must be smaller than t_end ({self.t_end})"
            )
        if not self.tau > 0.0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if not all(tau > 0.0 for tau in self.tau_list):
            raise ConfigError(f"tau_list entries must be positive, got {self.tau_list}")
        for key in ("tau_list", "lambda_cut_list"):
            # the runners name files, checks and values by an entry's %g label
            labels = [f"{x:g}" for x in getattr(self, key)]
            if len(set(labels)) < len(labels):
                raise ConfigError(
                    f"{key} entries must differ in their 6-digit labels, got "
                    f"{getattr(self, key)} (labels {', '.join(labels)})"
                )
        # numpy's generators take nonnegative seeds only
        for key, need, holds in (
            ("seed", "nonnegative", lambda x: x >= 0),
            ("truth_dt_factor", ">= 1", lambda x: x >= 1),
            ("truth_spinup", "nonnegative", lambda x: x >= 0.0),
            ("truth_store_every", ">= 1", lambda x: x >= 1),
            ("soak_steps", ">= 1", lambda x: x >= 1),
            ("contraction_steps", ">= 1", lambda x: x >= 1),
        ):
            if not holds(getattr(self, key)):
                raise ConfigError(f"{key} must be {need}, got {getattr(self, key)}")
        for f in dc_fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(x) for x in entries if isinstance(x, float)):
                raise ConfigError(f"{f.name} must be finite, got {value}")


def _f(s: str) -> float:
    return float(s)


def _i(s: str) -> int:
    v = float(s)
    if not math.isfinite(v) or v != int(v):
        raise ValueError(f"expected a finite integer, got {s!r}")
    return int(v)


def _s(s: str) -> str:
    return s


def _choice(*options: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


def _floats(s: str) -> tuple[float, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(float(p) for p in s.split(","))


_REQUIRED = object()

# (section, key, attribute, parser, default) — defaults give the desk-scale
# regime: L = 2 pi (lambda1 = 1), moderate Grashof Kolmogorov forcing.
_SCHEMA: tuple[tuple[str, str, str, Callable, object], ...] = (
    ("physics", "nu", "nu", _f, _REQUIRED),
    ("physics", "L", "L", _f, 2.0 * math.pi),
    ("physics", "grid_n", "grid_n", _i, 64),
    ("physics", "forcing", "forcing", _choice(*FORCING_CHOICES), "kolmogorov"),
    ("physics", "forcing_kappa", "forcing_kappa", _i, 2),
    ("physics", "forcing_amplitude", "forcing_amplitude", _f, 0.0225),
    ("physics", "forcing_decay", "forcing_decay", _f, 1.5),
    ("physics", "beta", "beta", _f, 50.0),
    ("physics", "interpolant", "interpolant", _choice(*INTERPOLANT_CHOICES),
     "fourier_truncation"),
    ("physics", "h", "h", _f, 0.0424264068711928),
    ("physics", "lambda_cut", "lambda_cut", _f, 60.0),
    ("experiment", "scheme", "scheme", _choice(*SCHEME_CHOICES), "semi_implicit"),
    ("experiment", "tau", "tau", _f, _REQUIRED),
    ("experiment", "t_end", "t_end", _f, _REQUIRED),
    ("experiment", "burn_in", "burn_in", _f, 0.0),
    ("experiment", "truth", "truth", _choice(*TRUTH_CHOICES), "nse_integrate"),
    ("experiment", "truth_dt_factor", "truth_dt_factor", _i, 50),
    ("experiment", "truth_spinup", "truth_spinup", _f, 3.0),
    ("experiment", "truth_store_every", "truth_store_every", _i, 1),
    ("experiment", "ic", "ic", _choice(*IC_CHOICES), "random_bv"),
    ("experiment", "ic_amplitude", "ic_amplitude", _f, 1.0),
    ("experiment", "perturbation", "perturbation", _f, 0.05),
    ("experiment", "seed", "seed", _i, 20260815),
    ("experiment", "min_decay_orders", "min_decay_orders", _f, 6.0),
    ("experiment", "twin_expect", "twin_expect", _choice(*EXPECT_CHOICES), "decay"),
    ("experiment", "soak_steps", "soak_steps", _i, 10000),
    ("experiment", "contraction_steps", "contraction_steps", _i, 2000),
    ("sweep", "tau_list", "tau_list", _floats, (0.02, 0.01, 0.005, 0.0025)),
    ("sweep", "lambda_cut_list", "lambda_cut_list", _floats, (6.0, 16.0, 40.0)),
    # Accuracy ratio the tau sweep's reference must certify: the `reference`
    # check passes iff the gap between its ETDRK4 runs at dt_ref and 2 dt_ref
    # is at most sup_err_H(min tau) / ref_factor.  It does not set dt_ref.
    ("sweep", "ref_factor", "ref_factor", _i, 50),
    ("output", "dir", "out_dir", _s, "out"),
)

_SECTION_ORDER = ("physics", "experiment", "sweep", "output")


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    """Parse config text; errors carry the origin and 1-based line number."""
    raw: dict[tuple[str, str], tuple[str, int]] = {}
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if not section:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{origin}:{lineno}: expected 'key = value', got {stripped!r}"
            )
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"{origin}:{lineno}: empty key")
        if not section:
            raise ConfigError(
                f"{origin}:{lineno}: key {key!r} appears before any [section]"
            )
        if (section, key) in raw:
            raise ConfigError(
                f"{origin}:{lineno}: duplicate key {key!r} in section [{section}]"
            )
        raw[(section, key)] = (value, lineno)

    known = {(sec, key) for sec, key, _, _, _ in _SCHEMA}
    for (sec, key), (_, lineno) in raw.items():
        if (sec, key) not in known:
            warnings.warn(
                f"{origin}:{lineno}: unknown key {key!r} in section [{sec}] ignored",
                stacklevel=2,
            )

    values: dict[str, object] = {}
    for sec, key, attr, parse, default in _SCHEMA:
        if (sec, key) in raw:
            value, lineno = raw[(sec, key)]
            try:
                values[attr] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{origin}:{lineno}: key {key!r}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(
                f"{origin}: missing required key {key!r} in section [{sec}]"
            )
        else:
            values[attr] = default
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), origin=path)


def _render_value(v: object) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean config keys")
    if isinstance(v, float):
        return FLOAT_FMT % v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return ",".join(FLOAT_FMT % x for x in v)
    return str(v)


def render_config(cfg: ExperimentConfig) -> str:
    lines: list[str] = []
    for sec in _SECTION_ORDER:
        lines.append(f"[{sec}]")
        for s, key, attr, _, _ in _SCHEMA:
            if s == sec:
                lines.append(f"{key} = {_render_value(getattr(cfg, attr))}")
        lines.append("")
    return "\n".join(lines)


def default_config(**overrides: object) -> ExperimentConfig:
    """Desk-scale defaults; required keys get runnable values."""
    values: dict[str, object] = {}
    for _, _, attr, _, default in _SCHEMA:
        values[attr] = default
    values.update(nu=0.1, tau=0.005, t_end=20.0, burn_in=5.0)
    values.update(overrides)
    return ExperimentConfig(**values)
