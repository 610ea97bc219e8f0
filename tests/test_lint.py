"""Source checks on the test suite itself."""

import ast
from pathlib import Path

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
