"""Text configuration for stack runs.

The format is line-oriented and diff-friendly: one directive per line,
``#`` starts a comment, blank lines are ignored.  A file describes one
stack plus run options::

    label my-stack
    plate sigma 0.0229     # constant-conductivity plate
    plate sigma *          # sweepable conductivity slot
    plate generic 1.5 0.3  # electric / magnetic coupling strengths
    plate pe               # perfect electric conductor
    plate pm               # perfect magnetic conductor
    plate transparent
    gaps 1 1               # optional, defaults to unit gaps
    method auto            # auto | polylog | quadrature | ideal
    rel-tol 1e-9           # optional tolerance overrides
    abs-tol 1e-12
    sweep log 0.005 1000 40    # log | linear, start, stop, points
    sweep-shared           # bind every slot to the same conductivity
    output results.csv     # optional, CLI flag takes precedence

`parse_config` and `format_config` round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import math

import numpy as np

from .energy import StackSpec
from .optics import (
    ConstantConductivity,
    GenericDeltaPlate,
    Material,
    PerfectElectric,
    PerfectMagnetic,
    SweepSlot,
    Transparent,
)
from .special import QuadratureSpec

__all__ = [
    "ConfigError",
    "SweepGrid",
    "RunConfig",
    "parse_config",
    "format_config",
    "validate_config",
]

_METHODS = ("auto", "polylog", "quadrature", "ideal")
_GRID_KINDS = ("log", "linear")
_PLAIN_PLATES = {"pe": PerfectElectric, "pm": PerfectMagnetic, "transparent": Transparent}


class ConfigError(ValueError):
    """Invalid configuration text or inconsistent run options."""


@dataclass(frozen=True)
class SweepGrid:
    """Conductivity grid: ``points`` values from ``start`` to ``stop``."""

    kind: str  # "log" | "linear"
    start: float
    stop: float
    points: int

    def values(self) -> Tuple[float, ...]:
        if self.kind == "log":
            grid = np.geomspace(self.start, self.stop, self.points)
        else:
            grid = np.linspace(self.start, self.stop, self.points)
        return tuple(float(v) for v in grid)


@dataclass(frozen=True)
class RunConfig:
    """One stack plus run options, as described by a config file."""

    plates: Tuple[Material, ...]
    gaps: Optional[Tuple[float, ...]] = None  # None means unit gaps
    method: str = "auto"
    sweep_grid: Optional[SweepGrid] = None
    sweep_shared: bool = False
    rel_tol: Optional[float] = None
    abs_tol: Optional[float] = None
    output: Optional[str] = None
    label: str = "stack"

    def to_spec(self) -> StackSpec:
        gaps = self.gaps if self.gaps is not None else (1.0,) * (len(self.plates) - 1)
        return StackSpec(tuple(self.plates), gaps)

    def quadrature_spec(self) -> QuadratureSpec:
        """The tolerances set here, `QuadratureSpec`'s defaults for the rest."""
        tols = {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol}
        return QuadratureSpec(**{k: v for k, v in tols.items() if v is not None})


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"line {lineno}: {what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"line {lineno}: {what} must be finite: {token!r}")
    return value


def _parse_plate(args, lineno: int) -> Material:
    if not args:
        raise ConfigError(f"line {lineno}: plate needs a kind")
    kind, params = args[0], args[1:]
    if kind == "sigma":
        if len(params) != 1:
            raise ConfigError(f"line {lineno}: plate sigma takes one value or '*'")
        if params[0] == "*":
            return SweepSlot()
        return ConstantConductivity(_parse_float(params[0], lineno, "conductivity"))
    if kind == "generic":
        if len(params) != 2:
            raise ConfigError(f"line {lineno}: plate generic takes two coupling values")
        return GenericDeltaPlate(
            _parse_float(params[0], lineno, "electric coupling"),
            _parse_float(params[1], lineno, "magnetic coupling"),
        )
    if kind not in _PLAIN_PLATES:
        raise ConfigError(f"line {lineno}: unknown plate kind {kind!r}")
    if params:
        raise ConfigError(f"line {lineno}: plate {kind} takes no parameters")
    return _PLAIN_PLATES[kind]()


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raises `ConfigError` with a line number."""
    plates = []
    fields = {}  # the directives met; `RunConfig` supplies the other defaults
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        if key == "plate":
            try:
                plates.append(_parse_plate(args, lineno))
            except ValueError as exc:
                if isinstance(exc, ConfigError):
                    raise
                raise ConfigError(f"line {lineno}: {exc}") from None
        elif key == "gaps":
            if not args:
                raise ConfigError(f"line {lineno}: gaps needs at least one value")
            fields["gaps"] = tuple(_parse_float(a, lineno, "gap") for a in args)
        elif key == "method":
            if len(args) != 1 or args[0] not in _METHODS:
                raise ConfigError(
                    f"line {lineno}: method must be one of {', '.join(_METHODS)}"
                )
            fields["method"] = args[0]
        elif key in ("rel-tol", "abs-tol"):
            if len(args) != 1:
                raise ConfigError(f"line {lineno}: {key} takes one value")
            fields[key.replace("-", "_")] = _parse_float(args[0], lineno, key)
        elif key == "sweep":
            if len(args) != 4 or args[0] not in _GRID_KINDS:
                raise ConfigError(
                    f"line {lineno}: expected 'sweep log|linear <start> <stop> <points>'"
                )
            start = _parse_float(args[1], lineno, "sweep start")
            stop = _parse_float(args[2], lineno, "sweep stop")
            try:
                points = int(args[3])
            except ValueError:
                raise ConfigError(f"line {lineno}: sweep points must be an integer") from None
            fields["sweep_grid"] = SweepGrid(args[0], start, stop, points)
        elif key == "sweep-shared":
            if args:
                raise ConfigError(f"line {lineno}: sweep-shared takes no parameters")
            fields["sweep_shared"] = True
        elif key == "output":
            if len(args) != 1:
                raise ConfigError(f"line {lineno}: output takes one path")
            fields["output"] = args[0]
        elif key == "label":
            if len(args) != 1:
                raise ConfigError(f"line {lineno}: label takes one word")
            fields["label"] = args[0]
        else:
            raise ConfigError(f"line {lineno}: unknown directive {key!r}")
    config = RunConfig(plates=tuple(plates), **fields)
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    """Check cross-field consistency; raises `ConfigError`."""
    # one word each, so that format_config's line parses back to the same value
    for name, word in (("label", config.label), ("output", config.output)):
        if word is not None and (word.split() != [word] or "#" in word):
            raise ConfigError(f"{name} must be one word without '#', got {word!r}")
    try:
        spec = config.to_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if config.method not in _METHODS:
        raise ConfigError(f"method must be one of {', '.join(_METHODS)}")
    if config.method == "ideal":
        if not spec.all_ideal:
            raise ConfigError("method 'ideal' requires perfect-conductor plates only")
        if not spec.unit_gaps:
            raise ConfigError("method 'ideal' requires unit gaps")
    if config.method == "polylog" and not spec.uniform:
        raise ConfigError("method 'polylog' requires uniform gaps")
    slots = sum(isinstance(p, SweepSlot) for p in config.plates)
    if slots and config.sweep_grid is None:
        raise ConfigError("sweepable plates need a 'sweep' grid")
    if config.sweep_grid is not None:
        if not slots:
            raise ConfigError("a sweep grid needs at least one 'plate sigma *' slot")
        if slots > 1 and not config.sweep_shared:
            raise ConfigError(
                f"{slots} sweep slots need 'sweep-shared' (one common conductivity)"
            )
        grid = config.sweep_grid
        if grid.kind not in _GRID_KINDS:
            raise ConfigError(
                f"sweep kind must be one of {', '.join(_GRID_KINDS)}, got {grid.kind!r}"
            )
        if not (math.isfinite(grid.start) and math.isfinite(grid.stop)):
            raise ConfigError("sweep start and stop must be finite")
        if not isinstance(grid.points, int):
            raise ConfigError(f"sweep points must be an integer, got {grid.points!r}")
        if grid.points < 1:
            raise ConfigError("sweep needs at least one point")
        if grid.points > 1 and not grid.start < grid.stop:
            raise ConfigError("sweep start must be below stop")
        if grid.kind == "log" and not grid.start > 0.0:
            raise ConfigError("log sweeps need a positive start")
        if grid.kind == "linear" and grid.start < 0.0:
            raise ConfigError("conductivities are non-negative")
    try:
        config.quadrature_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format_plate(plate: Material) -> str:
    if isinstance(plate, ConstantConductivity):
        return f"plate sigma {plate.sigma!r}"
    if isinstance(plate, SweepSlot):
        return "plate sigma *"
    if isinstance(plate, GenericDeltaPlate):
        return f"plate generic {plate.lambda_e!r} {plate.lambda_g!r}"
    for kind, cls in _PLAIN_PLATES.items():
        if isinstance(plate, cls):
            return f"plate {kind}"
    raise ConfigError(f"cannot format plate {plate!r}")


def format_config(config: RunConfig) -> str:
    """Render a config back to text; `parse_config` restores it exactly."""
    lines = [f"label {config.label}"]
    lines.extend(_format_plate(p) for p in config.plates)
    if config.gaps is not None:
        lines.append("gaps " + " ".join(repr(g) for g in config.gaps))
    lines.append(f"method {config.method}")
    if config.rel_tol is not None:
        lines.append(f"rel-tol {config.rel_tol!r}")
    if config.abs_tol is not None:
        lines.append(f"abs-tol {config.abs_tol!r}")
    if config.sweep_grid is not None:
        g = config.sweep_grid
        lines.append(f"sweep {g.kind} {g.start!r} {g.stop!r} {g.points}")
    if config.sweep_shared:
        lines.append("sweep-shared")
    if config.output is not None:
        lines.append(f"output {config.output}")
    return "\n".join(lines) + "\n"
