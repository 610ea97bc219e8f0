"""Source checks on the test suite itself and on what README.md documents."""

import ast
import re
from pathlib import Path

from targetdetect import channels, oracle, validation
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


def _is_path_slot(target):
    """Whether ``target`` is the subscript ``diagnostics["path"]``."""
    return (isinstance(target, ast.Subscript) and getattr(target.value, "id", None) == "diagnostics"
            and isinstance(target.slice, ast.Constant) and target.slice.value == "path")


def _exact_paths(source):
    """Every string constant given as a Helstrom path.

    That is the ``path`` argument of an ``_exact(value, path, ...)`` call, or the
    value assigned to ``diagnostics["path"]``.
    """
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_exact":
            expr = node.args[1]
        elif isinstance(node, ast.Assign) and any(map(_is_path_slot, node.targets)):
            expr = node.value
        else:
            continue
        paths.update(c.value for c in ast.walk(expr)
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
    source = ("def helstrom_error(pair, diagnostics):\n"
              "    if pair:\n"
              "        return _exact(0.0, 'rank_one_secular')\n"
              "    if pair is None:\n"
              "        diagnostics['path'] = 'point_mass'\n"
              "        diagnostics['tensor_dim'] = 'not a path'\n"
              "    return _exact(0.5, 'diagonal_product' if pair else 'dense_tensor_power')\n")
    text = ("* **Helstrom paths**: the first that fits:\n"
            "  * `rank_one_secular`: a ket side;\n"
            "  * `diagonal_product`: two diagonals;\n"
            "* **Structure-aware spectra**: a `DensityOperator`:\n"
            "  * `dense_tensor_power`: not in the paths list\n")
    assert _exact_paths(source) == {"rank_one_secular", "point_mass", "diagonal_product",
                                    "dense_tensor_power"}
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


def _closed_form_imports(source):
    """Line numbers of the imports in ``source`` that reach the closed_forms module, in any
    form: ``from .closed_forms import ...``, ``from . import closed_forms`` or an absolute
    import of ``targetdetect.closed_forms``, at module level or inside a function."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any("closed_forms" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


def test_the_oracle_imports_nothing_from_the_closed_forms():
    # the oracle is the ground truth the closed forms are checked against (its docstring);
    # the two share only fock's helpers, such as the M-copy lower-bound readout
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert _closed_form_imports(source) == []


def test_the_closed_form_import_check_sees_each_form():
    source = ("import math\n"
              "from .fock import _ln, _lower_readout\n"
              "from .closed_forms import _lower_from_log\n"
              "from . import closed_forms\n"
              "import targetdetect.closed_forms as cf\n"
              "from .validation import closed_forms_rows\n"
              "def bhattacharyya_lower(pair):\n"
              "    from targetdetect import closed_forms\n")
    assert _closed_form_imports(source) == [3, 4, 5, 8]


def _scoped(source, match):
    """(scope, line) of every node of ``source`` that ``match`` accepts; the scope is the
    dotted name of the enclosing classes and functions, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if match(child):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def _called(node):
    """The name a call calls, ``name`` of ``name(...)`` or ``x.name(...)``; None if not a call."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return None


def _calls(source, name):
    """(scope, line) of every call of ``name`` (as ``name(...)`` or ``x.name(...)``)."""
    return _scoped(source, lambda node: _called(node) == name)


def _stores_a_matrix(node):
    """Whether ``node`` gives a state a ``matrix`` other than None: ``x.matrix = value`` or
    ``vars(x).update(..., matrix=value)``."""
    if isinstance(node, ast.Assign):
        pairs = [(target, node.value) for target in node.targets]
        for target, value in list(pairs):       # a, b = x, y
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
        return any(isinstance(t, ast.Attribute) and t.attr == "matrix"
                   and not (isinstance(v, ast.Constant) and v.value is None) for t, v in pairs)
    return _called(node) == "update" and any(kw.arg == "matrix" for kw in node.keywords)


def test_only_the_pair_builds_an_overlap():
    # a bound that built its own Overlap would redo the pair's eigensolves on every call
    package = Path(oracle.__file__).parent
    builds = [(path.name, scope) for path in sorted(package.glob("*.py"))
              for scope, _ in _calls(path.read_text(encoding="utf-8"), "Overlap")]
    assert builds == [("channels.py", "HypothesisPair.overlap")]


def test_the_overlap_check_sees_a_per_call_build():
    source = ("class HypothesisPair:\n"
              "    def overlap(self):\n"
              "        return Overlap(self)\n"
              "def chernoff_bound(pair):\n"
              "    return oracle.Overlap(pair).minimum\n"
              "ov = [Overlap(p) for p in pairs]\n"
              "Overlap.contract(ov, 0.5)\n")
    assert _calls(source, "Overlap") == [("HypothesisPair.overlap", 3), ("chernoff_bound", 5),
                                         ("", 6)]


def test_channels_forms_rho0_only_in_the_channel_rule():
    # a builder that formed its own pair would be a second channel rule
    source = Path(channels.__file__).read_text(encoding="utf-8")
    assert [scope for scope, _ in _calls(source, "HypothesisPair")] == ["_channel_pair"]


def test_the_channel_rule_check_sees_a_second_builder():
    source = ("def _channel_pair(rho1, signal):\n"
              "    return HypothesisPair(tensor(signal, partial_trace(rho1, 1)), rho1)\n"
              "def depolarizing_pair(state):\n"
              "    return HypothesisPair(maximally_mixed(state.dims[0]), state)\n")
    assert [scope for scope, _ in _calls(source, "HypothesisPair")] == [
        "_channel_pair", "depolarizing_pair"]


def test_the_oracle_solves_one_helstrom_pair_per_eigvalsh():
    # one call site: a second would be a second dense Helstrom path beside helstrom_error's
    source = Path(oracle.__file__).read_text(encoding="utf-8")
    assert [scope for scope, _ in _calls(source, "eigvalsh")] == ["helstrom_error"]


def test_the_eigvalsh_check_sees_a_second_site():
    source = ("def helstrom_error(pair):\n"
              "    return np.linalg.eigvalsh(pair.rho0.to_dense() - pair.rho1.to_dense())\n"
              "def helstrom_stack(pairs):\n"
              "    return np.linalg.eigvalsh(np.array([p.rho0.matrix for p in pairs]))\n")
    assert [scope for scope, _ in _calls(source, "eigvalsh")] == [
        "helstrom_error", "helstrom_stack"]


def test_fock_checks_dense_states_at_one_site():
    # a second place that stores a dense matrix would build states the stacked checks (size,
    # shape, finiteness, Hermiticity, trace + deficit) never saw; the constructor runs them
    source = Path(oracle.__file__).with_name("fock.py").read_text(encoding="utf-8")
    assert [scope for scope, _ in _scoped(source, _stores_a_matrix)] == ["DensityOperator.stack"]
    assert "DensityOperator.__init__" in [scope for scope, _ in _calls(source, "stack")]


def test_the_dense_site_check_sees_a_second_store():
    source = ("class DensityOperator:\n"
              "    def __init__(self, matrix, dims):\n"
              "        self.ket, self.matrix = None, None\n"
              "        self.matrix = matrix.astype(float)\n"
              "    @classmethod\n"
              "    def stack(cls, matrices, dims):\n"
              "        for state, matrix in zip(states, checked):\n"
              "            vars(state).update(vars(head), matrix=matrix)\n"
              "def tensor(a, b):\n"
              "    rho.ket, rho.matrix = None, _kron(a.matrix, b.matrix)\n"
              "    return DensityOperator(matrix=_kron(a.matrix, b.matrix), dims=dims)\n")
    assert _scoped(source, _stores_a_matrix) == [
        ("DensityOperator.__init__", 4), ("DensityOperator.stack", 8), ("tensor", 10)]
    assert _calls(source, "stack") == []


#: a thermal scenario's closed form, as a name (``cf.noon_qcb``, ``_spdc_lower``) or as the
#: suffix of a name built at call time (``f"{scenario}_qcb"``)
_THERMAL_FORM = re.compile(r"_?(number_state_error|(noon|coherent|spdc)?_(qcb|lower))")


def _names_a_thermal_form(node):
    """Whether ``node`` is a name, attribute or string that names a thermal closed form."""
    name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
            else None)
    return name is not None and _THERMAL_FORM.fullmatch(name) is not None


def test_validation_names_the_thermal_closed_forms_only_in_closed():
    # a second site would evaluate a scenario's closed forms outside the blocks that
    # _closed gives them in, one call per bound over a column of points
    source = Path(validation.__file__).read_text(encoding="utf-8")
    assert {scope for scope, _ in _scoped(source, _names_a_thermal_form)} == {"_closed"}


def test_the_closed_form_site_check_sees_a_second_site():
    source = ("def _closed(scenario, params, copies):\n"
              "    exact = cf.number_state_error(*params, copies)\n"
              "    return getattr(cf, f'{scenario}_qcb')(*params, copies)\n"
              "def thermal_case(scenario, noise, n):\n"
              "    closed = lambda m: cf.noon_lower(n, noise, m)\n"
              "    rows = oracle.bhattacharyya_lower(pair), CheckRow('noon lower vs oracle')\n"
              "    return cf.depolarizing_error(2, 'pure'), getattr(cf, scenario + '_lower')\n")
    assert _scoped(source, _names_a_thermal_form) == [
        ("_closed", 2), ("_closed", 3), ("thermal_case", 5), ("thermal_case", 7)]
