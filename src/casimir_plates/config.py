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

from .energy import StackSpec, _check_finite, _check_route, _check_sweep
from .optics import (
    ConstantConductivity,
    GenericDeltaPlate,
    Material,
    PerfectElectric,
    PerfectMagnetic,
    SweepSlot,
    Transparent,
)
from .special import QuadratureSpec, _is_integer

__all__ = [
    "ConfigError",
    "SweepGrid",
    "RunConfig",
    "parse_config",
    "format_config",
    "validate_config",
]

_GRID_KINDS = ("log", "linear")

# Plate keyword -> the class and, in line order, the fields its line gives,
# each with its name in error messages.  "plate sigma *" is a `SweepSlot`.
_PLATES = {
    "sigma": (ConstantConductivity, {"sigma": "conductivity"}),
    "generic": (
        GenericDeltaPlate,
        {"lambda_e": "electric coupling", "lambda_g": "magnetic coupling"},
    ),
    "pe": (PerfectElectric, {}),
    "pm": (PerfectMagnetic, {}),
    "transparent": (Transparent, {}),
}
# What a plate line with that many fields takes.
_ARITY = ("no parameters", "one value or '*'", "two coupling values")
# The directives of one argument, and what that argument is.
_ONE_ARGUMENT = {
    "method": "word", "label": "word", "output": "path", "rel-tol": "value", "abs-tol": "value"
}


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
        points = max(self.points, 0)  # empty below one point
        if self.kind == "log":
            grid = np.geomspace(self.start, self.stop, points)
        else:
            grid = np.linspace(self.start, self.stop, points)
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
    if kind not in _PLATES:
        raise ConfigError(f"line {lineno}: unknown plate kind {kind!r}")
    cls, fields = _PLATES[kind]
    if cls is ConstantConductivity and params == ["*"]:
        return SweepSlot()
    if len(params) != len(fields):
        raise ConfigError(f"line {lineno}: plate {kind} takes {_ARITY[len(fields)]}")
    return cls(*(_parse_float(p, lineno, what) for p, what in zip(params, fields.values())))


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
        elif key in _ONE_ARGUMENT:  # `validate_config` checks the words
            if len(args) != 1:
                raise ConfigError(f"line {lineno}: {key} takes one {_ONE_ARGUMENT[key]}")
            value = _parse_float(args[0], lineno, key) if key.endswith("-tol") else args[0]
            fields[key.replace("-", "_")] = value
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
        else:
            raise ConfigError(f"line {lineno}: unknown directive {key!r}")
    config = RunConfig(plates=tuple(plates), **fields)
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    """Check cross-field consistency; raises `ConfigError`.

    Methods and sweeps go through the library's own checks, so a config is
    refused with the message the same library call would raise.
    """
    try:
        # one word each, so that format_config's line parses back to the same value
        for name, word in (("label", config.label), ("output", config.output)):
            if word is not None and (word.split() != [word] or "#" in word):
                raise ValueError(f"{name} must be one word without '#', got {word!r}")
        stack = config.to_spec()
        _check_route(stack, config.method)
        grid = config.sweep_grid
        if grid is None:
            if stack.has_sweep_slot:
                raise ValueError("sweepable plates need a 'sweep' grid")
        else:
            # the rules a grid spec adds; `_check_sweep` checks the values it spans
            if grid.kind not in _GRID_KINDS:
                raise ValueError(
                    f"sweep kind must be one of {', '.join(_GRID_KINDS)}, got {grid.kind!r}"
                )
            if not _is_integer(grid.points):
                raise ValueError(f"sweep points must be an integer, got {grid.points!r}")
            _check_finite((grid.start, grid.stop))
            if grid.kind == "log" and not grid.start > 0.0:
                raise ValueError("log sweeps need a positive start")
            _check_sweep(stack, config.sweep_shared, grid.values())
        config.quadrature_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _format_plate(plate: Material) -> str:
    if isinstance(plate, SweepSlot):
        return "plate sigma *"
    for kind, (cls, fields) in _PLATES.items():
        if isinstance(plate, cls):
            return " ".join(["plate", kind, *(repr(float(getattr(plate, f))) for f in fields)])
    raise ConfigError(f"cannot format plate {plate!r}")


def format_config(config: RunConfig) -> str:
    """Render a config back to text; `parse_config` restores it exactly."""
    lines = [f"label {config.label}"]
    lines.extend(_format_plate(p) for p in config.plates)
    if config.gaps is not None:
        lines.append("gaps " + " ".join(repr(float(g)) for g in config.gaps))
    lines.append(f"method {config.method}")
    if config.rel_tol is not None:
        lines.append(f"rel-tol {float(config.rel_tol)!r}")
    if config.abs_tol is not None:
        lines.append(f"abs-tol {float(config.abs_tol)!r}")
    if config.sweep_grid is not None:
        g = config.sweep_grid
        lines.append(f"sweep {g.kind} {float(g.start)!r} {float(g.stop)!r} {g.points}")
    if config.sweep_shared:
        lines.append("sweep-shared")
    if config.output is not None:
        lines.append(f"output {config.output}")
    return "\n".join(lines) + "\n"
