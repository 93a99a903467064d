"""Benchmark of casimir-plates: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload equal-gap-stacks --seed 1 --seconds 40 --trace 0

One process solves one stack at a time (a closed loop with one caller) with
BLAS/OpenMP threads pinned to 1.  A run repeats whole passes over the
workload's solves until the next pass would overrun ``--seconds``, checks
every solve (see ``checks.py``) and prints one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics.  A figure-sweeps pass runs each
CLI preset once and then the first one again.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced pass (see ``spans.py``).
The seed sets the order in which a pass visits its solves.  See README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import selftest  # noqa: E402
import stacks  # noqa: E402

SETUP_PROBES = 3  # before every pass and once more after the last
CLI_TIMEOUT_S = 150.0
CSV_HEADER = "sigma,ratio,per_plate,err_estimate,method"

# Solves that fail on every pass because of known faults in the package;
# README.md names the fault behind each.
EXPECTED_FAILURES = {
    "equal-gap-stacks": {"graphene-N6", "strong-N2", "strong-N3"},
}

UNITS = {"setup_s": "s", "wall_s": "s", "solve_s_p50": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def load_package():
    if not os.path.isfile(os.path.join(SRC, "casimir_plates", "__init__.py")):
        raise SystemExit(f"error: no package source at {SRC}/casimir_plates")
    sys.path.insert(0, SRC)
    import casimir_plates

    if not os.path.abspath(casimir_plates.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported casimir_plates from {casimir_plates.__file__}")
    return casimir_plates


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup(workload):
    """Times from starting a fresh interpreter to its first possible solve."""
    probe = os.path.join(HERE, "probe.py")
    values = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, workload],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        values.append(float(done.stdout.split()[-1]) - start)
    return values


# -- one pass ----------------------------------------------------------------


def library_pass(pkg, ops, inputs, order):
    """Every solve once, through the public ``energy_ratio`` (looked up per call)."""
    results, times = {}, {}
    start = time.perf_counter()
    for i in order:
        stack, spec = inputs[i]
        t0 = time.perf_counter()
        try:
            r = pkg.energy_ratio(stack, spec, "auto")
            res = {"ratio": r.ratio, "per_plate": r.per_plate, "err": r.err_estimate,
                   "method": r.method}
        except Exception as exc:  # a solve that raises is a failed operation
            res = {"error": f"{type(exc).__name__}: {exc}"}
        times[ops[i]["id"]] = time.perf_counter() - t0
        results[ops[i]["id"]] = res
    return {"wall": time.perf_counter() - start, "results": results, "times": times}


def parse_csv(preset, code, text):
    """One result per grid point of the preset, keyed by operation id."""
    keys = [stacks.sigma_key(s) for s in stacks.figure_grid()]
    rows = {}
    lines = text.splitlines()
    if code == 0 and lines and lines[0] == CSV_HEADER:
        for line in lines[1:]:
            fields = line.split(",")
            if line.startswith("#") or len(fields) != 5:
                continue
            try:
                ratio, per_plate, err = (float(f) for f in fields[1:4])
            except ValueError:
                continue
            rows[fields[0]] = {"ratio": ratio, "per_plate": per_plate, "err": err,
                               "method": fields[4], "row": line,
                               "quantum": checks.printed_quantum(fields[1])}
    missing = {"error": f"exit code {code}" if code else "row missing"}
    return {f"{preset}@{k}": rows.get(k, missing) for k in keys}


def cli_subprocess(preset):
    """``python3 -m casimir_plates.cli --preset NAME``: exit code, stdout, wall, peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "casimir_plates.cli", "--preset", preset],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # The CSV (about 1.5 kB) fits the pipe buffer, so the child never blocks
    # on output; wait4 gives the child's own peak RSS.
    with proc:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > CLI_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
    if proc.returncode:
        print(f"{preset}: exit {proc.returncode}: {err.strip()}", file=sys.stderr)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def cli_inprocess(pkg, preset):
    """The same run through ``cli.main`` in this process, where trace hooks apply."""
    import importlib

    cli = importlib.import_module(pkg.__name__ + ".cli")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--preset", preset])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails every row of this preset
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    if code:
        print(f"{preset}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code, out.getvalue(), time.perf_counter() - start, 0.0


def figure_pass(runner, presets):
    """Each preset once, then the first one again for the repeat check."""
    runs = []
    start = time.perf_counter()
    for preset in presets + presets[:1]:
        code, text, wall, peak = runner(preset)
        runs.append((parse_csv(preset, code, text), wall, peak))
    results = {}
    for rows, _, _ in runs[:-1]:
        results.update(rows)
    return {"wall": time.perf_counter() - start, "results": results, "repeat": runs[-1][0],
            "cli_wall": sum(r[1] for r in runs), "rows": sum(len(r[0]) for r in runs),
            "rss": max(r[2] for r in runs)}


# -- a run ---------------------------------------------------------------------


def run_passes(do_pass, seconds, min_passes):
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(do_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1]["wall"] > seconds:
            return passes


def end_to_end(passes, setup, figure):
    """The end-to-end metrics of a run's untraced passes.

    The machine's speed drifts over seconds to minutes, so times are means
    over the run's passes: one long window rather than the middle one of a
    few short ones.
    """
    if figure:
        solve = sum(p["cli_wall"] for p in passes) / sum(p["rows"] for p in passes)
        rss = max(p["rss"] for p in passes)
    else:
        per_op = [statistics.fmean(p["times"][op_id] for p in passes)
                  for op_id in passes[0]["times"]]
        solve = statistics.median(per_op)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(p["wall"] for p in passes),
        "solve_s_p50": solve,
        "peak_rss_mb": rss,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=stacks.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["references"]
    problems = selftest.run(refs)
    for line in problems:
        print(f"self-test: {line}", file=sys.stderr)

    workload = args.workload
    ops = stacks.workload_ops(workload)
    rng = random.Random(args.seed)
    figure = workload == "figure-sweeps"
    if figure:
        presets = list(stacks.FIGURE_PRESETS)
        rng.shuffle(presets)
        runner = ((lambda preset: cli_inprocess(pkg, preset)) if args.trace
                  else cli_subprocess)
    else:
        inputs = [stacks.to_package(pkg, op) for op in ops]
        order = list(range(len(ops)))
        rng.shuffle(order)

    setup = []
    tracers = []

    def do_pass(index):
        if not args.trace:
            setup.extend(measure_setup(workload))
        tracer = None
        if args.trace and index % 2 == 1:
            from spans import Tracer

            tracer = Tracer()
            tracer.install(pkg)
        try:
            if figure:
                p = figure_pass(runner, presets)
            else:
                p = library_pass(pkg, ops, inputs, order)
        finally:
            if tracer is not None:
                tracer.remove()
        p["tracer"] = tracer
        if figure:
            p["failed"] = checks.validate_round(ops, p["results"], p["repeat"], refs)
            p["attempted"] = p["rows"]
        else:
            p["failed"] = checks.validate(workload, ops, p["results"], refs)
            p["attempted"] = len(ops)
        return p

    # A traced run needs an untraced pass to compare with.
    passes = run_passes(do_pass, args.seconds, 2 if args.trace else 1)

    expected = EXPECTED_FAILURES.get(workload, set())
    unexpected = False
    for p in passes:
        for op_id, why in sorted(p["failed"].items()):
            tag = "expected" if op_id in expected else "UNEXPECTED"
            print(f"failed ({tag}): {op_id}: {', '.join(why)}", file=sys.stderr)
            unexpected |= op_id not in expected
    correct = not problems and not unexpected

    untraced = [p for p in passes if p["tracer"] is None]
    if args.trace:
        traced = sorted((p for p in passes if p["tracer"] is not None), key=lambda p: p["wall"])
        chosen = traced[(len(traced) - 1) // 2]
        tracer = chosen["tracer"]
        values = tracer.metrics(chosen["wall"])
        values["trace.overhead_s"] = chosen["wall"] - statistics.fmean(p["wall"] for p in untraced)
        path = tracer.save(os.path.join(OUT, f"trace-{workload}.npz"))
        print(f"spans: {len(tracer.span_name)} written to {path}", file=sys.stderr)
        for name in tracer.absent:
            print(f"absent hook: {name}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        setup.extend(measure_setup(workload))
        values = end_to_end(untraced, setup, figure)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
