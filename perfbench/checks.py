"""Correctness checks applied to every solve of a pass.

A result is a dict with ``ratio``, ``per_plate``, ``err`` and ``method``,
or with ``error`` (a message) when the solve raised or the CLI failed.
Every check returns the ids of the operations it rejects; `validate` runs
all checks of a workload and maps each rejected id to the names of the
checks that rejected it.
"""

from __future__ import annotations

IDEAL_PAIR_LIKE = 1.0
IDEAL_PAIR_UNLIKE = -7.0 / 8.0

# Relations between two solves of one workload: (check, a, b, factor) means
# ratio(b) == ratio(a) * factor.
RELATIONS = {
    "equal-gap-stacks": [
        ("reversal", "pm-edge-N3", "pm-edge-N3-mirror", 1.0),
        ("scaling", "generic-N3-gap1", "generic-N3-gap1.5", 1.0 / 1.5**3),
    ],
    "unequal-gap-stacks": [
        ("reversal", "pm-edge-N4", "pm-edge-N4-mirror", 1.0),
    ],
}

# Identities against another workload's reference: (check, op, ref, factor)
# means ratio(op) == reference(ref) * factor.
IDENTITIES = {
    "unequal-gap-stacks": [
        # a transparent middle plate merges gaps 1 and 2 into one gap of 3
        ("transparent-merge", "graphene-T-graphene", "equal-gap-stacks/graphene-N2", 1.0 / 27.0),
        # an opaque middle plate splits the stack into pairs at gaps 1 and 2
        ("opacity-additive", "graphene-PE-graphene", "equal-gap-stacks/pe-graphene", 9.0 / 8.0),
    ],
}

STRONG_SLACK = 1e-3  # per-plate distance from (N-1)/N allowed at sigma = 1e6
END_SLACK = 0.10  # relative distance of the sigma = 1000 ends from the ideal
END_LIMITS = {
    # per-plate ratio of the ideal stack: magnetic middle gives two unlike
    # pairs, magnetic edge one unlike and one like pair
    "fig3-middle": 2.0 * IDEAL_PAIR_UNLIKE / 3.0,
    "fig3-edge": (IDEAL_PAIR_UNLIKE + IDEAL_PAIR_LIKE) / 3.0,
}


def printed_quantum(field):
    """Half a unit in the last digit of a number printed as ``d.ddddde+XX``.

    The CLI prints ten significant digits, so a ratio read back from its CSV
    is known to this much on top of its ``err_estimate``.
    """
    mantissa, exponent = field.lower().split("e")
    digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 0.5 * 10.0 ** (int(exponent) - digits)


def _ok(result):
    return "error" not in result


def check_raised(ops, results):
    return {op["id"] for op in ops if not _ok(results[op["id"]])}


def check_tolerance(ops, results):
    bad = set()
    for op in ops:
        res = results[op["id"]]
        if _ok(res):
            rel, abs_ = op["tol"]
            if not res["err"] <= max(abs_, rel * abs(res["ratio"])):
                bad.add(op["id"])
    return bad


def check_value(ops, results, refs, workload):
    """|ratio - reference| within err_estimate plus the reference's own uncertainty.

    A ratio read from CSV also carries its printing resolution ``quantum``.
    """
    bad = set()
    for op in ops:
        res = results[op["id"]]
        ref = refs.get(f"{workload}/{op['id']}")
        if _ok(res) and ref is not None:
            slack = res["err"] + ref["unc"] + res.get("quantum", 0.0)
            if not abs(res["ratio"] - ref["ratio"]) <= slack:
                bad.add(op["id"])
    return bad


def check_relation(results, a, b, factor):
    ra, rb = results[a], results[b]
    if not (_ok(ra) and _ok(rb)):
        return {a, b}
    slack = rb["err"] + abs(factor) * ra["err"]
    return set() if abs(rb["ratio"] - factor * ra["ratio"]) <= slack else {a, b}


def check_identity(results, op_id, ref, factor):
    res = results[op_id]
    if not _ok(res):
        return {op_id}
    slack = res["err"] + abs(factor) * ref["unc"]
    return set() if abs(res["ratio"] - factor * ref["ratio"]) <= slack else {op_id}


def check_strong(ops, results):
    """At sigma = 1e6 every plate is nearly ideal: per plate -> (N-1)/N."""
    bad = set()
    for op in ops:
        if op["id"].startswith("strong-N"):
            res = results[op["id"]]
            n = len(op["plates"])
            if not (_ok(res) and abs(res["per_plate"] - (n - 1) / n) <= STRONG_SLACK):
                bad.add(op["id"])
    return bad


def _curve(ops, results, preset):
    ids = [op["id"] for op in ops if op["id"].startswith(preset + "@")]
    return ids, [results[i] for i in ids]


def check_repulsive(ops, results):
    """fig3-middle: the magnetic plate between conductors repels at every sigma."""
    ids, rows = _curve(ops, results, "fig3-middle")
    return {i for i, r in zip(ids, rows) if not (_ok(r) and r["ratio"] < 0.0)}


def check_single_sign_change(ops, results):
    """fig3-edge: negative at small sigma, positive at large, one crossing."""
    ids, rows = _curve(ops, results, "fig3-edge")
    if not all(_ok(r) for r in rows):
        return set(ids)
    signs = [r["ratio"] > 0.0 for r in rows]
    changes = sum(x != y for x, y in zip(signs[:-1], signs[1:]))
    if changes == 1 and not signs[0] and signs[-1]:
        return set()
    return set(ids)


def check_ideal_ends(ops, results):
    """The sigma = 1000 ends lie within 10% of the ideal per-plate limits."""
    bad = set()
    for preset, limit in END_LIMITS.items():
        ids, rows = _curve(ops, results, preset)
        if ids:
            res = rows[-1]
            if not (_ok(res) and abs(res["per_plate"] - limit) <= END_SLACK * abs(limit)):
                bad.add(ids[-1])
    return bad


def check_repeat(ops, results, first):
    """A repeated CLI run printed the same CSV row, byte for byte."""
    if first is None:
        return set()
    return {
        op["id"] for op in ops
        if results[op["id"]].get("row") != first[op["id"]].get("row")
    }


def validate(workload, ops, results, refs, first_rows=None):
    """Map every rejected operation id to the checks that rejected it.

    ``first_rows`` holds the rows of an earlier CLI run of the same presets;
    the repeat check compares ``results`` with it.
    """
    found = {
        "raised": check_raised(ops, results),
        "tolerance": check_tolerance(ops, results),
        "value": check_value(ops, results, refs, workload),
    }
    for name, a, b, factor in RELATIONS.get(workload, ()):
        found.setdefault(name, set()).update(check_relation(results, a, b, factor))
    for name, op_id, ref, factor in IDENTITIES.get(workload, ()):
        found[name] = check_identity(results, op_id, refs[ref], factor)
    if workload == "equal-gap-stacks":
        found["strong-coupling"] = check_strong(ops, results)
    if workload == "figure-sweeps":
        found["repulsive"] = check_repulsive(ops, results)
        found["single-sign-change"] = check_single_sign_change(ops, results)
        found["ideal-ends"] = check_ideal_ends(ops, results)
        found["repeat-identical"] = check_repeat(ops, results, first_rows)
    failed = {}
    for name, ids in found.items():
        for op_id in ids:
            failed.setdefault(op_id, []).append(name)
    return failed


def validate_round(ops, results, repeat, refs):
    """A figure-sweeps round: each preset once, then one of them again.

    ``results`` holds the rows of the first runs, ``repeat`` the rows of the
    repeated run, which are checked as solves of their own (ids suffixed
    `` (repeat)``) and must match the first run byte for byte.
    """
    failed = validate("figure-sweeps", ops, results, refs)
    again = dict(results, **repeat)
    for op_id, why in validate("figure-sweeps", ops, again, refs, results).items():
        if op_id in repeat:
            failed[op_id + " (repeat)"] = why
    return failed
