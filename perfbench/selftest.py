"""Self-test of the checks: every kind of check must reject wrong results.

``python3 perfbench/selftest.py`` prints, for each kind of check, which
checks rejected each bad result; it exits non-zero if any bad result got
through.  `run` is also called at the start of every benchmark run, whose
``correct`` is false if the self-test finds a problem.

Good results are built from the references.  Each kind of check is then
fed three bad results for one of the solves it covers: the ratio moved by
more than its ``err_estimate``, the sign flipped, and an ``err_estimate``
above the requested tolerance.  All three must count the solve as
failed, and the kind's own check must reject at least one of them.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import stacks  # noqa: E402

MID = stacks.sigma_key(stacks.figure_grid()[12])
END = stacks.sigma_key(stacks.figure_grid()[-1])

# (kind of check, workload, solve it is tested on)
KINDS = (
    ("value", "equal-gap-stacks", "graphene-N3"),
    ("value", "equal-gap-stacks", "boyer"),
    ("tolerance", "unequal-gap-stacks", "graphene-N3-gaps12"),
    ("reversal", "equal-gap-stacks", "pm-edge-N3-mirror"),
    ("reversal", "unequal-gap-stacks", "pm-edge-N4"),
    ("scaling", "equal-gap-stacks", "generic-N3-gap1.5"),
    ("strong-coupling", "equal-gap-stacks", "strong-N4"),
    ("transparent-merge", "unequal-gap-stacks", "graphene-T-graphene"),
    ("opacity-additive", "unequal-gap-stacks", "graphene-PE-graphene"),
    ("repulsive", "figure-sweeps", f"fig3-middle@{MID}"),
    ("single-sign-change", "figure-sweeps", f"fig3-edge@{MID}"),
    ("ideal-ends", "figure-sweeps", f"fig3-middle@{END}"),
    ("ideal-ends", "figure-sweeps", f"fig3-edge@{END}"),
    ("repeat-identical", "figure-sweeps", f"fig3-edge@{MID}"),
)


def _tolerance(op, ratio):
    rel, abs_ = op["tol"]
    return max(abs_, rel * abs(ratio))


def _row(op_id, res):
    sigma = op_id.split("@", 1)[1]
    return (f"{sigma},{res['ratio']:.9e},{res['per_plate']:.9e},"
            f"{res['err']:.9e},{res['method']}")


def good_results(workload, ops, refs):
    """Results equal to the references, each well inside its tolerance."""
    results = {}
    for op in ops:
        ratio = refs[stacks.qualified(workload, op["id"])]["ratio"]
        res = {"ratio": ratio, "per_plate": ratio / len(op["plates"]),
               "err": 0.1 * _tolerance(op, ratio), "method": "polylog"}
        if workload == "figure-sweeps":
            res["row"] = _row(op["id"], res)
            res["quantum"] = checks.printed_quantum(res["row"].split(",")[1])
        results[op["id"]] = res
    return results


def bad_results(op, res, unc):
    """The three wrong results fed to every kind of check."""
    moved = dict(res, ratio=res["ratio"] + 3.0 * (res["err"] + unc) + 1e-6 * abs(res["ratio"]))
    flipped = dict(res, ratio=-res["ratio"])
    loose = dict(res, err=10.0 * _tolerance(op, res["ratio"]))
    bad = {"moved by more than err_estimate": moved, "sign flipped": flipped,
           "err_estimate above tolerance": loose}
    for value in bad.values():
        value["per_plate"] = value["ratio"] / len(op["plates"])
        if "row" in value:
            value["row"] = _row(op["id"], value)
            value["quantum"] = checks.printed_quantum(value["row"].split(",")[1])
    return bad


def run(refs, verbose=False):
    """Problems found, one line each; empty when every check works."""
    problems = []
    for workload in stacks.WORKLOADS:
        ops = stacks.workload_ops(workload)
        good = good_results(workload, ops, refs)
        if workload == "figure-sweeps":
            failed = checks.validate_round(ops, good, copy.deepcopy(good), refs)
        else:
            failed = checks.validate(workload, ops, good, refs)
        if failed:
            problems.append(f"{workload}: good results rejected: {failed}")
        raised = dict(good, **{ops[0]["id"]: {"error": "raised"}})
        if ops[0]["id"] not in checks.validate(workload, ops, raised, refs):
            problems.append(f"{workload}: a solve that raised was not rejected")
    for kind, workload, op_id in KINDS:
        ops = stacks.workload_ops(workload)
        op = next(o for o in ops if o["id"] == op_id)
        good = good_results(workload, ops, refs)
        unc = refs[stacks.qualified(workload, op_id)]["unc"]
        caught_by_kind = False
        for label, bad in bad_results(op, good[op_id], unc).items():
            results = dict(good, **{op_id: bad})
            if kind == "repeat-identical":
                preset = op_id.split("@")[0]
                repeat = {k: v for k, v in results.items() if k.startswith(preset + "@")}
                failed = checks.validate_round(ops, good, repeat, refs)
                why = failed.get(op_id + " (repeat)", [])
            else:
                why = checks.validate(workload, ops, results, refs).get(op_id, [])
            caught_by_kind |= kind in why
            if verbose:
                print(f"{kind:20s} {op_id:32s} {label:34s} rejected by: {', '.join(why) or '-'}")
            if not why:
                problems.append(f"{kind}: {label} on {op_id} was not rejected")
        if not caught_by_kind:
            problems.append(f"{kind}: its own check rejected none of the bad results on {op_id}")
    return problems


if __name__ == "__main__":
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        found = run(json.load(fh)["references"], verbose=True)
    for line in found:
        print(f"PROBLEM: {line}")
    print("self-test:", "FAILED" if found else "every bad result was rejected")
    sys.exit(1 if found else 0)
