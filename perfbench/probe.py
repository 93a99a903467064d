"""Set-up probe: a fresh interpreter gets ready for a workload's first solve.

``python3 perfbench/probe.py <workload>`` imports the package from ``src``,
builds the workload's inputs and prints ``time.monotonic()`` at the moment
the first solve could start; the caller subtracts its own clock reading
taken just before it started this process.  For ``figure-sweeps`` the
probe does the CLI's start-up instead: argument parsing and preset
expansion, up to the first stack.
"""

import contextlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(workload):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(1, HERE)
    import casimir_plates
    import stacks

    if workload == "figure-sweeps":
        from casimir_plates import cli

        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["--list-presets"]) != 0:
                return 1
        for preset in stacks.FIGURE_PRESETS:
            casimir_plates.preset_configs(preset)[0].to_spec()
    else:
        for op in stacks.workload_ops(workload):
            stacks.to_package(casimir_plates, op)
    print(repr(time.monotonic()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
