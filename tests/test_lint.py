"""Source checks on the test suite itself and on the options README.md documents."""

import ast
import re
from pathlib import Path

from targetdetect.cli import cli

TESTS = Path(__file__).parent


def _rel_only_approx_calls(path):
    """Line numbers of ``pytest.approx`` calls in ``path`` that pass ``rel=`` but not ``abs=``.

    Such a call keeps approx's default absolute tolerance of 1e-12, so a pin
    on a value much smaller than that accepts 0.0 or values far off in
    relative terms.
    """
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {kw.arg for kw in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_every_relative_approx_sets_its_absolute_tolerance():
    offenders = [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
                 for line in _rel_only_approx_calls(path)]
    assert offenders == [], "pytest.approx with rel= but no abs=: " + ", ".join(offenders)


def test_the_check_sees_a_rel_only_call(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import pytest\n"
        "assert 1.0 == pytest.approx(1.0, rel=1e-9)\n"
        "assert 1.0 == pytest.approx(1.0, rel=1e-9, abs=0)\n"
        "assert 1.0 == pytest.approx(1.0, abs=1e-9)\n",
        encoding="utf-8",
    )
    assert _rel_only_approx_calls(sample) == [2]


def _documented_options(text):
    """Every ``--option`` in ``text``, except on lines that run another program."""
    options = set()
    for line in text.splitlines():
        if re.match(r"\s*(pip|pytest|python3?)\s", line):
            continue
        options.update(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line))
    return options


def _cli_options():
    options = set()
    for command in cli.commands.values():
        for param in command.params:
            options.update(opt for opt in param.opts if opt.startswith("--"))
    return options


def test_every_documented_option_exists():
    documented = _documented_options((TESTS.parent / "README.md").read_text(encoding="utf-8"))
    assert documented, "README.md names no --option"
    assert sorted(documented - _cli_options()) == []


def test_the_option_check_sees_a_removed_flag():
    text = ("pip install -e . --no-build-isolation\n"
            "targetdetect validate [--seed N] [--s-grid 201]\n"
            "Without `--n-s/--n-b` both sets are emitted.\n")
    assert _documented_options(text) == {"--seed", "--s-grid", "--n-s", "--n-b"}
    assert _documented_options(text) - _cli_options() == {"--s-grid"}
