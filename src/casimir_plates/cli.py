"""Command-line front end.

Reads a stack from a config file or a named preset, computes energy ratios
(optionally sweeping a conductivity grid), and emits CSV with the columns
``sigma, ratio, per_plate, err_estimate, method``.  Values are printed with
ten significant digits in scientific notation, so output is byte-identical
across runs for a fixed configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Tuple

from .config import _METHODS, ConfigError, RunConfig, parse_config, validate_config
from .energy import (
    DeltaDomainError,
    PolylogPathError,
    SweepError,
    energy_ratio,
    sweep,
)
from .presets import PRESET_NAMES, list_presets, preset_configs
from .special import QuadratureConvergenceError

_HEADER = "sigma,ratio,per_plate,err_estimate,method"

_NUMERICAL_ERRORS = (
    SweepError,
    PolylogPathError,
    DeltaDomainError,
    QuadratureConvergenceError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-plates",
        description="Casimir interaction energies of parallel delta-function plates.",
    )
    parser.add_argument("--config", metavar="PATH", help="stack configuration file")
    parser.add_argument(
        "--preset",
        metavar="NAME",
        help="named scenario (see --list-presets)",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="CSV destination (default stdout)"
    )
    parser.add_argument(
        "--method",
        choices=_METHODS,
        help="override the evaluation route",
    )
    parser.add_argument(
        "--rel-tol", type=float, metavar="X", help="override the relative tolerance"
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list preset names and exit"
    )
    return parser


def _format_row(sigma: Optional[float], result) -> str:
    head = f"{sigma:.9e}" if sigma is not None else ""
    return (
        f"{head},{result.ratio:.9e},{result.per_plate:.9e},"
        f"{result.err_estimate:.9e},{result.method}"
    )


def _run_config(config: RunConfig) -> Tuple[List[str], str]:
    """CSV rows and a one-line summary for one stack."""
    spec = config.quadrature_spec()
    stack = config.to_spec()
    if config.sweep_grid is not None:
        points = sweep(
            stack,
            config.sweep_grid.values(),
            shared=config.sweep_shared,
            method=config.method,
            spec=spec,
        )
        rows = [_format_row(sigma, result) for sigma, result in points]
        ratios = [result.ratio for _, result in points]
        summary = (
            f"{config.label}: {len(points)} sweep points, "
            f"ratio in [{min(ratios):.6g}, {max(ratios):.6g}]"
        )
        return rows, summary
    result = energy_ratio(stack, spec, config.method)
    summary = (
        f"{config.label}: ratio={result.ratio:.6g} per_plate={result.per_plate:.6g} "
        f"({result.method}, err<={result.err_estimate:.2g})"
    )
    return [_format_row(None, result)], summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_presets:
        print(list_presets())
        return 0

    if bool(args.config) == bool(args.preset):
        print(
            "error: exactly one of --config or --preset is required",
            file=sys.stderr,
        )
        return 2

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 4
        try:
            configs = [parse_config(text)]
        except ConfigError as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            configs = preset_configs(args.preset)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2

    overrides = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    if overrides:
        try:
            updated = []
            for config in configs:
                config = dataclasses.replace(config, **overrides)
                validate_config(config)
                updated.append(config)
            configs = updated
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    lines = [_HEADER]
    for config in configs:
        if len(configs) > 1:
            lines.append(f"# stack: {config.label}")
        try:
            rows, summary = _run_config(config)
        except _NUMERICAL_ERRORS as exc:
            print(f"error: {config.label}: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {config.label}: {exc}", file=sys.stderr)
            return 2
        lines.extend(rows)
        print(summary, file=sys.stderr)
    text = "\n".join(lines) + "\n"

    output = args.output if args.output is not None else configs[0].output
    if output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {output}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
