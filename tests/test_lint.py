"""Source checks on the test suite itself and on what README.md documents."""

import ast
import re
from pathlib import Path

from targetdetect import oracle
from targetdetect.cli import cli

TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"


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
    documented = _documented_options(README.read_text(encoding="utf-8"))
    assert documented, "README.md names no --option"
    assert sorted(documented - _cli_options()) == []


def test_the_option_check_sees_a_removed_flag():
    text = ("pip install -e . --no-build-isolation\n"
            "targetdetect validate [--seed N] [--s-grid 201]\n"
            "Without `--n-s/--n-b` both sets are emitted.\n")
    assert _documented_options(text) == {"--seed", "--s-grid", "--n-s", "--n-b"}
    assert _documented_options(text) - _cli_options() == {"--s-grid"}


def _exact_paths(source):
    """Every string constant in the ``path`` argument of an ``exact(value, path)`` call."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exact":
            paths.update(c.value for c in ast.walk(node.args[1])
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return paths


def _documented_helstrom_paths(text):
    """The names listed as ``* `name`:`` under README's Helstrom paths bullet."""
    section = text.split("* **Helstrom paths**", 1)[1].split("\n* ", 1)[0]
    return set(re.findall(r"^\s+\* `(\w+)`:", section, flags=re.MULTILINE))


def test_readme_lists_every_helstrom_path():
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    documented = _documented_helstrom_paths(README.read_text(encoding="utf-8"))
    assert documented and _exact_paths(source) == documented


def test_the_path_check_sees_an_undocumented_path():
    source = ("def helstrom_error(pair):\n"
              "    if pair:\n"
              "        return exact(0.0, 'rank_one_secular')\n"
              "    return exact(0.5, 'diagonal_product' if pair else 'dense_tensor_power')\n")
    text = ("* **Helstrom paths**: the first that fits:\n"
            "  * `rank_one_secular`: a ket side;\n"
            "  * `diagonal_product`: two diagonals;\n"
            "* **Structure-aware spectra**: a `DensityOperator`:\n"
            "  * `dense_tensor_power`: not in the paths list\n")
    assert _exact_paths(source) == {"rank_one_secular", "diagonal_product", "dense_tensor_power"}
    assert _documented_helstrom_paths(text) == {"rank_one_secular", "diagonal_product"}


def _unused_imports(source):
    """Names a module imports but neither reads nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - used)


def test_every_package_import_is_used_or_exported():
    package = Path(oracle.__file__).parent
    offenders = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
                 for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert offenders == [], "imported but never used: " + ", ".join(offenders)


def test_the_import_check_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from .fock import FockKet, NoiseSpec, number_ket\n"
              "__all__ = ['number_ket']\n"
              "def f(noise: NoiseSpec):\n"
              "    return np.sqrt(math.pi)\n")
    assert _unused_imports(source) == ["FockKet"]
