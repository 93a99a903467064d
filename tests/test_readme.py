"""The README's examples run, and the values their comments claim hold.

Each ```python block runs in a fresh namespace.  A ``print(...)`` line
whose comment starts with a value claims what it prints: a quoted string
exactly, a number equal as a float, or a number ending in ``...`` as a
prefix.  The config file example parses.
"""

import re
import sys
from pathlib import Path

import pytest

from casimir_plates.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)
CLAIM = re.compile(r'"([^"]*)"|(-?\d[\d.e+-]*?)(\.\.\.)?(?=[,\s]|$)')


def _blocks(language):
    """(first line number, text) of each fenced block in that language."""
    text = README.read_text(encoding="utf-8")
    return [
        (text[: m.start(2)].count("\n") + 1, m.group(2))
        for m in FENCE.finditer(text)
        if m.group(1) == language
    ]


PYTHON = _blocks("python")


def _claim_holds(claim, printed):
    quoted, number, prefix = claim.groups()
    if quoted is not None:
        return printed == quoted
    if prefix:
        return printed.startswith(number)
    return float(printed) == float(number)


def test_readme_has_python_examples():
    assert len(PYTHON) >= 2


@pytest.mark.parametrize("first, source", PYTHON, ids=[f"line{n}" for n, _ in PYTHON])
def test_python_example_runs_and_its_claims_hold(first, source):
    printed = {}

    def record(*args):
        printed.setdefault(sys._getframe(1).f_lineno, []).append(" ".join(map(str, args)))

    code = compile("\n" * (first - 1) + source, str(README), "exec")
    exec(code, {"print": record})
    for lineno, line in enumerate(source.splitlines(), first):
        code_part, _, comment = line.partition("#")
        claim = CLAIM.match(comment.strip())
        if "print(" not in code_part or claim is None:
            continue
        outputs = printed.get(lineno)
        assert outputs, f"README.md:{lineno} printed nothing"
        for text in outputs:
            assert _claim_holds(claim, text), f"README.md:{lineno}: {text!r} against {comment!r}"


def test_config_example_parses():
    (example,) = [text for _, text in _blocks("") if "\nplate " in text]
    config = parse_config(example)
    assert config.label == "my-stack" and len(config.plates) == 3
