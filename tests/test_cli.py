"""Config parsing and validation, CLI exit codes, and CSV output."""

import csv
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from casimir_plates.cli import main
from casimir_plates.config import (
    ConfigError,
    RunConfig,
    parse_config,
    validate_config,
)
from casimir_plates.energy import DeltaDomainError, StackSpec, energy_ratio, sweep
from casimir_plates.optics import (
    ConstantConductivity,
    GenericDeltaPlate,
    PerfectElectric,
    PerfectMagnetic,
    SweepSlot,
    Transparent,
)
from casimir_plates.presets import PRESET_NAMES, list_presets, preset_configs


# config prefixes: a plain two-plate stack, and one with a sweep slot
TWO = "plate pe\nplate pe\n"
SLOT = "plate sigma *\nplate pe\n"


# One fault of each route rule and each sweep rule, as a library call and as
# the equivalent config, which must be refused with the same message.
G, PE, SLOT_PLATE = ConstantConductivity(0.5), PerfectElectric(), SweepSlot()
ROUTE_FAULTS = {
    "unknown-method": ((PE, PerfectMagnetic()), (1.0,), "fft"),
    "ideal-on-graphene": ((G, G), (1.0,), "ideal"),
    "polylog-at-gaps-1-2": ((G, G, G), (1.0, 2.0), "polylog"),
}
SWEEP_FAULTS = {  # template plates, grid
    "no-slot": ((G, PE), (1.0,)),
    "two-unshared-slots": ((SLOT_PLATE, SLOT_PLATE), (1.0,)),
    "empty-grid": ((SLOT_PLATE, PE), ()),
    "decreasing-grid": ((SLOT_PLATE, PE), (10.0, 1.0)),
    "negative-grid": ((SLOT_PLATE, PE), (-1.0, 2.0)),
    "nan-grid": ((SLOT_PLATE, PE), (math.nan,)),
}


def read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestConfigGrammar:
    def test_every_plate_kind_and_directive(self):
        text = """
        label kitchen-sink
        plate sigma 0.25
        plate generic 1.5 0.0
        plate pe
        plate pm
        plate transparent
        gaps 1.0 0.5 2.0 1.25
        method quadrature
        rel-tol 1e-7
        abs-tol 1e-9
        output out.csv
        """
        assert parse_config(text) == RunConfig(
            plates=(
                ConstantConductivity(0.25),
                GenericDeltaPlate(1.5, 0.0),
                PerfectElectric(),
                PerfectMagnetic(),
                Transparent(),
            ),
            gaps=(1.0, 0.5, 2.0, 1.25),
            method="quadrature",
            rel_tol=1e-7,
            abs_tol=1e-9,
            output="out.csv",
            label="kitchen-sink",
        )

    def test_shared_sweep(self):
        text = """
        label double-slot
        plate sigma *
        plate pm
        plate sigma *
        sweep log 0.01 100 7
        sweep-shared
        """
        assert parse_config(text) == RunConfig(
            plates=(SweepSlot(), PerfectMagnetic(), SweepSlot()),
            gaps=None,
            sweep_grid=tuple(np.geomspace(0.01, 100.0, 7).tolist()),
            sweep_shared=True,
            label="double-slot",
        )

    def test_comments_and_blank_lines(self):
        text = """
        # stack of two conducting sheets
        plate sigma 0.0229
        plate sigma 0.0229

        gaps 1.0
        """
        cfg = parse_config(text)
        assert len(cfg.plates) == 2
        assert cfg.gaps == (1.0,)

    def test_default_gaps_are_unit(self):
        cfg = parse_config("plate pe\nplate pm\nplate pe\n")
        assert cfg.gaps is None
        validate_config(cfg)  # fills in unit gaps at evaluation time

    @pytest.mark.parametrize(
        "text",
        [
            "plate sigma not-a-number\nplate pe\n",
            "plate unobtainium\nplate pe\n",
            "plate pe\nplate pm\ngaps 1.0 2.0\n",
            "plate pe\nplate pm\nmethod fft\n",
            "plate pe\nplate pm\nrel-tol -1\n",
            "plate pe\nplate pm\nsweep log 1 10 0\n",
            "plate pe\n",  # single plate
            "gaps 1.0\n",  # no plates at all
            "plate sigma *\nplate pe\nsweep log 10 1 5\n",  # decreasing
        ],
    )
    def test_rejects_bad_config(self, text):
        with pytest.raises(ConfigError):
            validate_config(parse_config(text))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("plate pe\nplate sigma nan\n", "line 2: conductivity must be finite"),
            ("plate pe\nplate\n", "line 2: plate needs a kind"),
            ("plate pe\nplate generic 1.0\n", "line 2: plate generic takes two coupling"),
            ("plate pe 1\nplate pe\n", "line 1: plate pe takes no parameters"),
            ("plate pe\nplate sigma -1\n", "line 2: sigma must be finite and >= 0"),
            (TWO + "gaps\n", "line 3: gaps needs at least one value"),
            (TWO + "rel-tol\n", "line 3: rel-tol takes one value"),
            (SLOT + "sweep cubic 1 10 5\n", "line 3: expected 'sweep log|linear"),
            (SLOT + "sweep log 1 10 five\n", "line 3: sweep points must be an integer"),
            (TWO + "sweep-shared yes\n", "line 3: sweep-shared takes no parameters"),
            (TWO + "output a b\n", "line 3: output takes one path"),
            (TWO + "label a b\n", "line 3: label takes one word"),
            (TWO + "colour red\n", "line 3: unknown directive 'colour'"),
            (SLOT + "sweep log 1 10 0\n", "sweep needs at least one point"),
            (SLOT + "sweep log 0 10 5\n", "line 3: log sweeps need a positive start and stop"),
            (SLOT + "sweep log 1 -10 5\n", "line 3: log sweeps need a positive start and stop"),
            (SLOT + "sweep log 1 0 5\n", "line 3: log sweeps need a positive start and stop"),
            (SLOT + "sweep linear 0 inf 5\n", "line 3: sweep stop must be finite"),
            (SLOT + "sweep log 0.1 inf 3\n", "line 3: sweep stop must be finite"),
            (SLOT + "sweep log 0.1 1 2.5\n", "line 3: sweep points must be an integer"),
            (SLOT + "sweep log 1 10 True\n", "line 3: sweep points must be an integer"),
            (SLOT + "sweep linear -1 10 5\n", "conductivities are non-negative"),
        ],
    )
    def test_rejection_names_line_and_fault(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(message)

    def test_rejects_unknown_method_object(self):
        config = RunConfig(plates=(PerfectElectric(), PerfectMagnetic()), method="fft")
        with pytest.raises(ConfigError, match="^method must be one of auto, polylog"):
            validate_config(config)

    @pytest.mark.parametrize("plates, gaps, method", ROUTE_FAULTS.values(), ids=ROUTE_FAULTS)
    def test_route_fault_has_the_library_message(self, plates, gaps, method):
        with pytest.raises(ValueError) as library:
            energy_ratio(StackSpec(plates, gaps), method=method)
        with pytest.raises(ConfigError) as config:
            validate_config(RunConfig(plates, gaps, method=method))
        assert str(config.value) == str(library.value)

    @pytest.mark.parametrize("plates, grid", SWEEP_FAULTS.values(), ids=SWEEP_FAULTS)
    def test_sweep_fault_has_the_library_message(self, plates, grid):
        with pytest.raises(ValueError) as library:
            sweep(StackSpec(plates, (1.0,)), grid)
        with pytest.raises(ConfigError) as config:
            validate_config(RunConfig(plates, sweep_grid=grid))
        assert str(config.value) == str(library.value)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_rejects_infinite_tolerance(self, field):
        # validate_config itself rejects it: CLI overrides never reach the parser
        config = RunConfig(plates=(PerfectElectric(), PerfectMagnetic()), **{field: math.inf})
        with pytest.raises(ConfigError, match="finite"):
            validate_config(config)

    def test_numpy_tolerances_reach_the_spec_as_floats(self):
        config = RunConfig(plates=(PerfectElectric(), PerfectMagnetic()), rel_tol=np.float32(1e-6))
        spec = config.quadrature_spec()
        assert type(spec.rel_tol) is float and type(spec.abs_tol) is float
        assert spec.rel_tol == float(np.float32(1e-6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_numpy_float_fields_validate_as_floats(self, dtype):
        # a config built from numpy numbers is checked and solved as its float twin
        def config(v):
            return RunConfig(
                plates=(ConstantConductivity(v(0.5)), GenericDeltaPlate(v(0.1), v(1.5)), SweepSlot()),
                gaps=(v(1.5), v(0.75)),
                rel_tol=v(1e-6),
                abs_tol=v(1e-12),
                sweep_grid=(v(0.1), v(1.0), v(10.0)),
            )

        numpy_config, twin = config(dtype), config(lambda x: float(dtype(x)))
        validate_config(numpy_config)
        assert numpy_config.to_spec() == twin.to_spec()
        assert all(type(g) is float for g in numpy_config.to_spec().gaps)
        assert numpy_config.quadrature_spec() == twin.quadrature_spec()
        with pytest.raises(ConfigError, match="increasing"):
            validate_config(replace(numpy_config, sweep_grid=(dtype(10.0), dtype(1.0))))

    @pytest.mark.parametrize("field", ["label", "output"])
    @pytest.mark.parametrize(
        "word, parsed",
        [("my#run", "my"), ("my run", None), ("", None), (" run", "run"), ("run\n", "run")],
        ids=["my#run", "my run", "", " run", "run\n"],
    )
    def test_words_parse_to_one_word(self, field, word, parsed):
        # a line splits on whitespace and '#' starts a comment, so parsed
        # text gives one word or is refused
        text = TWO + f"{field} {word}\n"
        if parsed is None:
            with pytest.raises(ConfigError, match=f"^line 3: {field} takes one"):
                parse_config(text)
        else:
            assert getattr(parse_config(text), field) == parsed

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("plate pe\nplate sigma\n")

    def test_slot_requires_grid(self):
        with pytest.raises(ConfigError):
            parse_config("plate sigma *\nplate pe\n")

    def test_two_slots_require_shared(self):
        text = "plate sigma *\nplate pm\nplate sigma *\nsweep linear 1 2 3\n"
        with pytest.raises(ConfigError):
            validate_config(parse_config(text))
        validate_config(parse_config(text + "sweep-shared\n"))

    def test_ideal_method_requires_ideal_stack(self):
        with pytest.raises(ConfigError):
            validate_config(parse_config("plate sigma 1\nplate pe\nmethod ideal\n"))
        validate_config(parse_config("plate pm\nplate pe\nmethod ideal\n"))

    def test_polylog_method_requires_uniform_gaps(self):
        text = "plate pe\nplate pe\nplate pe\ngaps 1.0 2.0\nmethod polylog\n"
        with pytest.raises(ConfigError):
            validate_config(parse_config(text))

    @pytest.mark.parametrize(
        "line, grid",
        [
            ("sweep log 0.01 100 5", np.geomspace(0.01, 100.0, 5)),
            ("sweep linear 0 1 3", np.linspace(0.0, 1.0, 3)),
        ],
        ids=["log", "linear"],
    )
    def test_sweep_line_parses_to_the_numpy_grid(self, line, grid):
        values = parse_config(SLOT + line + "\n").sweep_grid
        assert all(type(v) is float for v in values)
        assert np.array(values).tobytes() == grid.tobytes()


class TestExitCodes:
    def test_conflicting_sources(self, capsys, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("plate pe\nplate pm\n")
        assert main(["--config", str(cfg), "--preset", "boyer-pair"]) == 2
        assert "exactly one" in capsys.readouterr().err.lower()

    def test_no_source(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_preset(self, capsys):
        assert main(["--preset", "no-such-thing"]) == 2
        assert "no-such-thing" in capsys.readouterr().err

    def test_invalid_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("plate pe\nplate goo\n")
        assert main(["--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_method_override(self, capsys):
        assert main(["--preset", "graphene-pair", "--method", "ideal"]) == 2
        capsys.readouterr()

    def test_infinite_rel_tol_override(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        args = ["--preset", "graphene-pair", "--rel-tol", "inf", "--output", str(out)]
        assert main(args) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure(self, monkeypatch, capsys):
        import casimir_plates.cli as cli_mod

        def boom(stack, spec=None, method="auto"):
            raise DeltaDomainError("synthetic non-positive determinant")

        monkeypatch.setattr(cli_mod, "energy_ratio", boom)
        assert cli_mod.main(["--preset", "boyer-pair"]) == 3
        assert "synthetic" in capsys.readouterr().err

    def test_invalid_input_during_run(self, monkeypatch, capsys):
        import casimir_plates.cli as cli_mod

        def reject(stack, spec=None, method="auto"):
            raise ValueError("synthetic unusable stack")

        monkeypatch.setattr(cli_mod, "energy_ratio", reject)
        assert cli_mod.main(["--preset", "boyer-pair"]) == 2
        assert "error: boyer-pair: synthetic unusable stack" in capsys.readouterr().err

    @pytest.mark.parametrize("gap, method", [("1e-110", "auto"), ("1e110", "quadrature")])
    def test_gap_out_of_range(self, tmp_path, capsys, gap, method):
        # a config error: outside the range some route's g**3 would underflow or overflow
        cfg = tmp_path / "stack.cfg"
        cfg.write_text(f"plate sigma 0.0229\nplate sigma 0.0229\ngaps {gap}\nmethod {method}\n")
        assert main(["--config", str(cfg)]) == 2
        assert "from 2**-300 to 2**300" in capsys.readouterr().err

    @pytest.mark.parametrize("ends", ["1 -10", "1 0"])
    def test_log_sweep_with_a_non_positive_stop(self, tmp_path, ends):
        # a fresh interpreter, without the suite's warning filters: numpy
        # never runs on the bad ends, so no RuntimeWarning reaches stderr
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"plate sigma *\nplate pe\nsweep log {ends} 5\n")
        src = str(Path(main.__code__.co_filename).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "casimir_plates.cli", "--config", str(cfg)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {cfg}: line 3: log sweeps need a positive start and stop\n"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 4
        capsys.readouterr()

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "out.csv"
        assert main(["--preset", "boyer-pair", "--output", str(target)]) == 4
        capsys.readouterr()


class TestCliRuns:
    def test_header_and_boyer_row(self, capsys):
        assert main(["--preset", "boyer-pair"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sigma,ratio,per_plate,err_estimate,method"
        fields = out[1].split(",")
        assert fields[0] == ""  # no sweep column for a fixed stack
        assert float(fields[1]) == -0.875
        assert fields[4] == "ideal"

    def test_graphene_pair_value(self, tmp_path):
        out = tmp_path / "graphene.csv"
        assert main(["--preset", "graphene-pair", "--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["ratio"]) == pytest.approx(0.00538, abs=5e-5)
        assert rows[0]["method"] == "polylog"

    def test_ideal_asymptote_preset(self, tmp_path):
        out = tmp_path / "ideal.csv"
        assert main(["--preset", "ideal-asymptotes", "--output", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 9  # N = 2..10
        for n, row in zip(range(2, 11), rows):
            assert float(row["ratio"]) == n - 1
            assert float(row["err_estimate"]) == 0.0
            assert row["method"] == "ideal"

    def test_stack_labels_in_multi_config_output(self, tmp_path):
        out = tmp_path / "ideal.csv"
        main(["--preset", "ideal-asymptotes", "--output", str(out)])
        text = out.read_text()
        assert "# stack: ideal-N2" in text
        assert "# stack: ideal-N10" in text

    def test_method_override_reflected(self, tmp_path):
        out = tmp_path / "quad.csv"
        args = ["--preset", "boyer-pair", "--method", "quadrature", "--output", str(out)]
        assert main(args) == 0
        row = read_rows(out)[0]
        assert row["method"] == "quadrature"
        assert float(row["ratio"]) == pytest.approx(-0.875, abs=1e-7)

    def test_rel_tol_override(self, tmp_path):
        loose = tmp_path / "loose.csv"
        args = ["--preset", "boyer-pair", "--method", "quadrature",
                "--rel-tol", "1e-4", "--output", str(loose)]
        assert main(args) == 0
        row = read_rows(loose)[0]
        assert float(row["ratio"]) == pytest.approx(-0.875, abs=1e-3)

    def test_output_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["--preset", "pe-graphene", "--output", str(out)]) == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_config_file_run(self, tmp_path, capsys):
        cfg = tmp_path / "stack.cfg"
        cfg.write_text(
            "label twin-sheets\n"
            "plate sigma 0.0229\n"
            "plate sigma 0.0229\n"
            "gaps 1.0\n"
        )
        assert main(["--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert rows[0] == "sigma,ratio,per_plate,err_estimate,method"
        assert float(rows[1].split(",")[1]) == pytest.approx(0.00538, abs=5e-5)
        assert "twin-sheets" in captured.err

    def test_ideal_method_at_unequal_gaps(self, tmp_path, capsys):
        # perfect conductors take the exact route at any gaps: 1 + 1/2**3
        cfg = tmp_path / "stack.cfg"
        cfg.write_text("plate pe\nplate pe\nplate pe\ngaps 1 2\nmethod ideal\n")
        assert main(["--config", str(cfg)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == "1.125000000e+00"
        assert row[3:] == ["0.000000000e+00", "ideal"]

    def test_config_output_directive(self, tmp_path):
        target = tmp_path / "directed.csv"
        cfg = tmp_path / "stack.cfg"
        cfg.write_text(
            f"plate pe\nplate pm\noutput {target}\n"
        )
        assert main(["--config", str(cfg)]) == 0
        assert read_rows(target)[0]["method"] == "ideal"

    def test_sweep_output_has_sigma_column(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "plate sigma *\nplate pe\nsweep log 0.1 10 3\n"
        )
        out = tmp_path / "sweep.csv"
        assert main(["--config", str(cfg), "--output", str(out)]) == 0
        rows = read_rows(out)
        assert [float(r["sigma"]) for r in rows] == pytest.approx([0.1, 1.0, 10.0])
        assert all(float(r["ratio"]) > 0 for r in rows)


class TestPresets:
    def test_listing(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("graphene-pair", "boyer-pair", "fig2"):
            assert name in out

    def test_catalog_complete(self):
        assert len(PRESET_NAMES) >= 12
        text = list_presets()
        for name in PRESET_NAMES:
            assert name in text

    def test_all_presets_validate(self):
        for name in PRESET_NAMES:
            for cfg in preset_configs(name):
                validate_config(cfg)

    def test_fig_presets_sweep_the_config_grid(self):
        grid = parse_config(SLOT + "sweep log 0.005 1000 25\n").sweep_grid
        figures = [name for name in PRESET_NAMES if name.startswith("fig")]
        assert len(figures) == 9  # fig2, then fig3..fig6 at the edge and in the middle
        for name in figures:
            for cfg in preset_configs(name):
                assert np.array(cfg.sweep_grid).tobytes() == np.array(grid).tobytes()

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="graphene-pair"):
            preset_configs("bogus")

    def test_fig2_is_shared_sweep_family(self):
        configs = preset_configs("fig2")
        assert len(configs) == 5
        for n, cfg in zip(range(2, 7), configs):
            assert len(cfg.plates) == n
            assert all(isinstance(p, SweepSlot) for p in cfg.plates)
            assert cfg.sweep_shared
