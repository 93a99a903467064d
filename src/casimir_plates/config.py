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

`parse_config` turns the ``sweep`` line into its conductivities, so a
`RunConfig` holds the values a sweep runs, not a description of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import math

import numpy as np

from .energy import StackSpec, _check_route, _check_sweep
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
    "RunConfig",
    "parse_config",
    "validate_config",
]

# Sweep kind -> the numpy call that spaces its points.
_GRIDS = {"log": np.geomspace, "linear": np.linspace}

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
class RunConfig:
    """One stack plus run options, as described by a config file."""

    plates: Tuple[Material, ...]
    gaps: Optional[Tuple[float, ...]] = None  # None means unit gaps
    method: str = "auto"
    sweep_grid: Optional[Tuple[float, ...]] = None  # the conductivities swept
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
        elif key in _ONE_ARGUMENT:  # `validate_config` checks the method
            if len(args) != 1:
                raise ConfigError(f"line {lineno}: {key} takes one {_ONE_ARGUMENT[key]}")
            value = _parse_float(args[0], lineno, key) if key.endswith("-tol") else args[0]
            fields[key.replace("-", "_")] = value
        elif key == "sweep":
            if len(args) != 4 or args[0] not in _GRIDS:
                raise ConfigError(
                    f"line {lineno}: expected 'sweep log|linear <start> <stop> <points>'"
                )
            start = _parse_float(args[1], lineno, "sweep start")
            stop = _parse_float(args[2], lineno, "sweep stop")
            try:
                points = int(args[3])
            except ValueError:
                raise ConfigError(f"line {lineno}: sweep points must be an integer") from None
            if args[0] == "log" and not (start > 0.0 and stop > 0.0):
                raise ConfigError(f"line {lineno}: log sweeps need a positive start and stop")
            grid = _GRIDS[args[0]](start, stop, max(points, 0))  # empty below one point
            fields["sweep_grid"] = tuple(float(v) for v in grid)
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
        stack = config.to_spec()
        _check_route(stack, config.method)
        if config.sweep_grid is None:
            if stack.has_sweep_slot:
                raise ValueError("sweepable plates need a 'sweep' grid")
        else:
            _check_sweep(stack, config.sweep_shared, [float(s) for s in config.sweep_grid])
        config.quadrature_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

