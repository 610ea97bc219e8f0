"""The benchmark workloads: inputs built at set-up, one pass, and output checks.

Each workload is a list of tasks (name, thunk) built at set-up.  A pass runs
every task once; the seed fixes the order of the tasks within a pass.  A task
yields one or more ops, and ``check`` turns a task's output into
``(ops, failures)`` with one ``(op, reason)`` per failed op.

An op fails when it raises anything but the documented ``SizeLimitError``
guard, returns a non-finite value or one outside [0, 1/2], breaks ``LB <= exact <= QCB``, misses its
closed form beyond the tolerances ``validate`` uses, or, for rendered text,
differs from the golden sha256 digest recorded from the seed code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import targetdetect as td
from targetdetect import cli, figures, oracle
from targetdetect import closed_forms as cf
from targetdetect.errors import SizeLimitError
from targetdetect.fock import NoiseSpec

GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text(encoding="utf-8"))

#: tolerances of the ``validate`` sweep: truncated families, finite support, depolarizing
TOL_TRUNCATED = 1e-6
TOL = 1e-8
TOL_DEPOLARIZING = 1e-12


def _call(fn, *args, **kwargs):
    """(result, None) or (None, exception): a failing op is recorded, not raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:
        return None, exc


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Workload:
    tasks: list          # [(name, thunk)], in pass order
    check: object        # (task name, (result, exc)) -> (ops, [(op, reason)])
    properties: object = None

    def run_pass(self):
        return [(name, _call(thunk)) for name, thunk in self.tasks]


# ---------------------------------------------------------------------------
# validate: the default sweep through the CLI

def _validate_task():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(["validate"])
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _check_validate(name, output):
    result, exc = output
    if exc is not None:
        return 1, [(name, f"raised {exc!r}")]
    code, text = result
    reasons = []
    if code not in (0, None):
        reasons.append(f"exit code {code}")
    if not text.endswith("result: PASS\n"):
        reasons.append("report does not say PASS")
    if _sha256(text) != GOLDEN["validate"]:
        reasons.append("report differs from the golden digest")
    return 1, [(name, "; ".join(reasons))] if reasons else []


def setup_validate(rng):
    return Workload([("validate", _validate_task)], _check_validate)


# ---------------------------------------------------------------------------
# oracle_points: a few large truncated pairs, each run the way ``compare`` runs it

@dataclass
class OraclePoint:
    name: str
    pair: object
    copies: int
    closed: object       # () -> {"exact", "qcb", "lb"}, None where no closed form exists
    tol: float
    absolute: bool = False


def _commuting(exact):
    return {"exact": exact, "qcb": exact, "lb": None}


def _oracle_points():
    n_b30, n_b1, cold = NoiseSpec(n_b=30.0), NoiseSpec(n_b=1.0), NoiseSpec(beta=0.05)
    points = [
        OraclePoint(
            "spdc[n_s=2,n_b=30]",
            td.target_pair_bipartite(td.spdc_ket(2.0), n_b30), 1,
            lambda: {"exact": None, "qcb": cf.spdc_qcb(2.0, 30.0, 1),
                     "lb": cf.spdc_lower(2.0, 30.0, 1)},
            TOL_TRUNCATED),
    ]
    for n_s in (1000.0, 100.0):
        points.append(OraclePoint(
            f"coherent[n_s={n_s:g},n_b=1]",
            td.target_pair_single_mode(td.coherent_ket(n_s), n_b1), 1,
            lambda n_s=n_s: {"exact": None, "qcb": cf.coherent_qcb(n_s, 1.0, 1),
                             "lb": cf.coherent_lower(n_s, 1.0, 1)},
            TOL_TRUNCATED))
    points += [
        OraclePoint(
            "noon[n=20,beta=0.05,M=100]",
            td.target_pair_bipartite(td.noon_ket(20), cold, compress_idler=True), 100,
            lambda: {"exact": None, "qcb": cf.noon_qcb(20, cold, 100),
                     "lb": cf.noon_lower(20, cold, 100)},
            TOL),
        # commuting states: the Chernoff bound equals the exact error
        OraclePoint(
            "number[n=100,beta=0.05,M=100]",
            td.target_pair_single_mode(td.number_ket(100), cold), 100,
            lambda: _commuting(cf.number_state_error(100, cold, 100)),
            TOL),
        OraclePoint(
            "werner[d=8,x=0.5]",
            td.depolarizing_pair(td.werner_state(8, 0.5), bipartite=True), 1,
            lambda: {"exact": cf.depolarizing_error(8, cf.DepolarizingInput.WERNER, x=0.5),
                     "qcb": None, "lb": None},
            TOL_DEPOLARIZING, absolute=True),
    ]
    return points


def _point_task(point):
    def run():
        return {
            "helstrom_error": _call(oracle.helstrom_error, point.pair, point.copies),
            "chernoff_bound": _call(oracle.chernoff_bound, point.pair, point.copies),
            "bhattacharyya_lower": _call(oracle.bhattacharyya_lower, point.pair, point.copies),
            "closed": point.closed(),
        }
    return run


def _excess(a, b, absolute):
    """How far a lies above b: absolute, or relative to the larger magnitude."""
    if absolute:
        return a - b
    return (a - b) / max(abs(a), abs(b), 1e-300)


def _check_point(point, output):
    calls = ("helstrom_error", "chernoff_bound", "bhattacharyya_lower")
    result, exc = output
    if exc is not None:
        return len(calls), [(f"{point.name}.{c}", f"raised {exc!r}") for c in calls]
    closed = result["closed"]
    reasons = {c: [] for c in calls}
    values = {}
    for c in calls:
        bound, err = result[c]
        if err is not None:
            if not (c == "helstrom_error" and isinstance(err, SizeLimitError)):
                reasons[c].append(f"raised {err!r}")
            continue
        if not math.isfinite(bound.value):
            reasons[c].append(f"non-finite value {bound.value!r}")
            continue
        if not 0.0 <= bound.value <= 0.5:
            reasons[c].append(f"value {bound.value!r} outside [0, 0.5]")
            continue
        values[c] = bound.value

    def compare(call, got, want, label):
        if call in values and want is not None:
            err = abs(_excess(got, want, point.absolute))
            if err > point.tol:
                reasons[call].append(f"oracle {got:.6e} vs closed {label} {want:.6e}")

    exact, qcb, lb = (values.get(c) for c in calls)
    compare("helstrom_error", exact, closed["exact"], "exact")
    compare("chernoff_bound", qcb, closed["qcb"], "qcb")
    compare("bhattacharyya_lower", lb, closed["lb"], "lb")
    if exact is not None:
        for label, upper in (("oracle qcb", qcb), ("closed qcb", closed["qcb"])):
            if upper is not None and _excess(exact, upper, point.absolute) > point.tol:
                reasons["helstrom_error"].append(f"exact {exact:.6e} exceeds {label} {upper:.6e}")
        for label, lower in (("oracle lb", lb), ("closed lb", closed["lb"])):
            if lower is not None and _excess(lower, exact, point.absolute) > point.tol:
                reasons["helstrom_error"].append(f"exact {exact:.6e} below {label} {lower:.6e}")
    return len(calls), [(f"{point.name}.{c}", "; ".join(r)) for c, r in reasons.items() if r]


def _point_properties(points):
    """Dims, support (nonzero eigenvalue count) and trace deficits of each pair."""
    props = {}
    for point in points:
        rho0, rho1 = point.pair.rho0, point.pair.rho1
        props[point.name] = {
            "dims": list(point.pair.dims),
            "copies": point.copies,
            "support": [int(td.fock.spectral_decomposition(r)[0].astype(bool).sum())
                        for r in (rho0, rho1)],
            "trace_deficits": [rho0.trace_deficit, rho1.trace_deficit],
        }
    return props


def setup_oracle_points(rng):
    points = _oracle_points()
    rng.shuffle(points)
    by_name = {p.name: p for p in points}
    return Workload(
        [(p.name, _point_task(p)) for p in points],
        lambda name, output: _check_point(by_name[name], output),
        lambda: _point_properties(points),
    )


# ---------------------------------------------------------------------------
# figures: closed forms over copy grids, rendered to CSV

def _figure_tasks():
    tasks = []
    for beta in (0.05, 0.5):
        for n in (1, 20, 100):
            tasks.append((f"figure1[beta={beta:g},n={n}]",
                          lambda beta=beta, n=n: figures.render_csv(
                              figures.figure1_series(beta=beta, n=n, m_max=2000))))
    tasks.append(("figure2[log_m_max=6,samples=2000]",
                  lambda: figures.render_csv(figures.figure2_series(log_m_max=6, samples=2000))))
    for m in (1, 10):
        tasks.append((f"figure3[steps=1000,m={m}]",
                      lambda m=m: figures.render_csv(
                          figures.figure3_series(steps=1000, copies=m), x_name="n_s")))
    return tasks


def _check_figure(name, output):
    text, exc = output
    if exc is not None:
        return 1, [(name, f"raised {exc!r}")]
    if _sha256(text) != GOLDEN["figures"][name]:
        return 1, [(name, "CSV differs from the golden digest")]
    return 1, []


def setup_figures(rng):
    tasks = _figure_tasks()
    rng.shuffle(tasks)
    return Workload(tasks, _check_figure)


SETUP = {
    "validate": setup_validate,
    "oracle_points": setup_oracle_points,
    "figures": setup_figures,
}


def setup(name, seed):
    return SETUP[name](random.Random(seed))
