"""Cross-validation of every closed form against the brute-force oracle.

The sweep behind the ``validate`` command: each formula is evaluated over a
parameter grid next to the corresponding oracle quantity, invariants
(bound ordering, monotonicity, convexity, log-linearity) are checked on the
same pairs plus randomly generated states, and everything is folded into one
deterministic text report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms as cf
from . import oracle
from .channels import depolarizing_pair, target_pair_bipartite, target_pair_single_mode
from .errors import ParameterDomainError
from .fock import (
    TAIL_EPS,
    DensityOperator,
    NoiseSpec,
    coherent_ket,
    maximally_entangled_qudit,
    noon_ket,
    number_ket,
    spdc_ket,
    werner_state,
)

OUT_OF_SCOPE_NOTE = (
    "out of scope: the lossy weak-reflector (reflectivity < 1) Gaussian-noise "
    "detection model is not implemented and not validated here"
)

DEFAULT_CONFIG = {
    "tol": 1e-8,
    "tol_truncated": 1e-6,
    "slack": 1e-9,
    "tail_eps": 1e-12,
    "seed": 20240817,
    "random_pairs": 100,
    "random_dim": 4,
    "d": [2, 3, 4, 5],
    "x": [0.0, 0.25, 0.9, 1.0],
    "n": [0, 1, 2, 3, 4, 5],
    "noon_n": [1, 2, 3, 5],
    "beta": [0.05, 0.5, math.log(2.0)],
    "n_b": [0.1, 0.5, 1.0, 2.0],
    "n_s": [0.1, 0.5, 1.0, 2.0],
    "m": [1, 2, 3],
}

_LIST_KEYS = {k for k, v in DEFAULT_CONFIG.items() if isinstance(v, list)}
_INT_KEYS = {k for k, v in DEFAULT_CONFIG.items()
             if isinstance(v[0] if k in _LIST_KEYS else v, int)}
#: lowest admissible value of each range-checked setting; NaN and inf fail too
_MINIMA = {"tol": 0.0, "tol_truncated": 0.0, "slack": 0.0, "seed": 0, "random_pairs": 0,
           "random_dim": 1}


@dataclass
class CheckRow:
    name: str
    error: float
    tol: float
    kind: str = "rel"        # "rel", "abs" or "violation"
    worst: str = ""
    samples: int = 0

    @property
    def passed(self):
        return self.error <= self.tol


@dataclass
class ValidationReport:
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(row.passed for row in self.rows)

    def render(self):
        lines = ["closed-form vs oracle validation"]
        lines.append(
            "tolerances: rel={tol:.1e}  truncated={tol_truncated:.1e}  slack={slack:.1e}".format(
                **{k: self.config[k] for k in ("tol", "tol_truncated", "slack")}
            )
        )
        lines.append(f"seed: {self.config['seed']}   random pairs: {self.config['random_pairs']}")
        lines.append("")
        lines.append(f"{'check':38s} {'max error':>12s} {'tolerance':>10s} {'kind':>9s}  status")
        for row in self.rows:
            status = "ok" if row.passed else "FAIL"
            lines.append(
                f"{row.name:38s} {row.error:12.3e} {row.tol:10.1e} {row.kind:>9s}  {status}"
            )
        failing = [row for row in self.rows if not row.passed]
        if failing:
            lines.append("")
            lines.append("failures:")
            for row in failing:
                lines.append(f"  {row.name}: worst at {row.worst}")
        lines.append("")
        lines.append("notes:")
        for note in self.notes:
            lines.append(f"  - {note}")
        lines.append("")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def default_config():
    return {k: (list(v) if isinstance(v, list) else v) for k, v in DEFAULT_CONFIG.items()}


def load_config(path):
    """Flat key=value overrides, list keys comma-separated; run_validation checks the keys."""
    config = default_config()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParameterDomainError(f"bad config line: {raw.rstrip()}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key in _LIST_KEYS:
                config[key] = [_parse_number(key, v) for v in value.split(",") if v.strip()]
            else:
                config[key] = _parse_number(key, value)
    return config


def _parse_number(key, text):
    """One config value; integer keys take integer literals (read exactly) or integral floats."""
    try:
        return int(text) if key in _INT_KEYS else float(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ParameterDomainError(f"config key {key}: {text.strip()!r} is not a number") from None
    if not value.is_integer():      # only integer keys get here with a float
        raise ParameterDomainError(f"config key {key} takes integers, got {text.strip()}")
    return int(value)


def _check_config(config):
    """Reject settings the sweep cannot honour, before any work starts."""
    unknown = sorted(set(config) - set(DEFAULT_CONFIG))
    if unknown:
        raise ParameterDomainError(f"unknown config key: {', '.join(unknown)}")
    for key, low in _MINIMA.items():
        if not low <= config[key] < math.inf:
            raise ParameterDomainError(f"{key} must be finite and >= {low}, got {config[key]}")


def _rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


class _Tracker:
    def __init__(self, name, tol, kind="rel"):
        self.row = CheckRow(name=name, error=0.0, tol=tol, kind=kind)

    def update(self, err, params):
        """Keep the largest error seen; the first NaN sticks, so the row fails."""
        self.row.samples += 1
        if not err <= self.row.error and not math.isnan(self.row.error):
            self.row.error = err
            self.row.worst = params


def _random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return DensityOperator(rho, (dim,))


def _noise_specs(config):
    return [NoiseSpec(beta=b) for b in config["beta"]] + [NoiseSpec(n_b=b) for b in config["n_b"]]


def depolarizing_case(d, kind, x=None):
    """Depolarizing pair and closed single-copy error for "pure", "max_entangled" or "werner".

    The closed value is computed first, so its checks on ``d`` and ``x`` raise first."""
    closed = cf.depolarizing_error(d, kind, x=x)
    if kind == "pure":
        return depolarizing_pair(number_ket(0, cutoff=d - 1)), closed
    state = werner_state(d, x) if kind == "werner" else maximally_entangled_qudit(d)
    return depolarizing_pair(state, bipartite=True), closed


#: closed (qcb, lb) of the thermal scenarios without a closed exact error
_BOUNDS = {"noon": (cf.noon_qcb, cf.noon_lower), "coherent": (cf.coherent_qcb, cf.coherent_lower),
           "spdc": (cf.spdc_qcb, cf.spdc_lower)}


def thermal_case(scenario, noise, n=1, n_s=0.5, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal-vs-identity pair of one probe, built first, and its closed forms ``closed``.

    ``n`` is the photon number of "number" and "noon", ``n_s`` the mean of "coherent" and "spdc".
    ``closed(copies)`` gives ``(exact, qcb, lb)``, None where the scenario has no closed form.
    """
    if scenario in ("number", "noon"):
        ket, params = (number_ket if scenario == "number" else noon_ket)(n), (n, noise)
    else:
        ket = (coherent_ket if scenario == "coherent" else spdc_ket)(n_s, tail_eps=tail_eps)
        params = (n_s, noise.n_b)
    if ket.n_modes == 1:
        pair = target_pair_single_mode(ket, noise, cutoff=cutoff, tail_eps=tail_eps)
    else:
        pair = target_pair_bipartite(ket, noise, cutoff=cutoff, tail_eps=tail_eps,
                                     compress_idler=scenario == "noon")
    if scenario == "number":    # commuting states: the Chernoff bound is the exact error
        return pair, lambda copies: (cf.number_state_error(n, noise, copies),) * 2 + (None,)
    qcb, lower = _BOUNDS[scenario]
    return pair, lambda copies: (None, qcb(*params, copies), lower(*params, copies))


def run_validation(config=None):
    """Run the full equivalence and invariant sweep; returns a ValidationReport."""
    config = {**default_config(), **(config or {})}
    _check_config(config)
    tol = config["tol"]
    tol_trunc = config["tol_truncated"]
    slack = config["slack"]
    tail_eps = config["tail_eps"]
    rng = np.random.default_rng(config["seed"])
    report = ValidationReport(config=config)

    # depolarizing family: oracle vs the three closed forms
    depol = _Tracker("depolarizing vs oracle", 1e-12, kind="abs")
    for d in config["d"]:
        cases = [(f"pure d={d}", "pure", None), (f"entangled d={d}", "max_entangled", None)]
        cases += [(f"werner d={d} x={x:g}", "werner", x)
                  for x in list(config["x"]) + [d / (d + 1.0)]]
        for tag, kind, x in cases:
            pair, closed = depolarizing_case(d, kind, x)
            depol.update(abs(oracle.helstrom_error(pair).value - closed), tag)
    report.rows.append(depol.row)

    # number states: the commuting scenario is exact on both routes
    number = _Tracker("number exact vs oracle", max(tol, 1e-13))
    commuting = _Tracker("number: chernoff equals exact", 1e-12, kind="violation")
    for noise in _noise_specs(config):
        for n in config["n"]:
            pair, closed = thermal_case("number", noise, n=n, tail_eps=tail_eps)
            overlap = oracle.Overlap(pair)
            for m in config["m"]:
                exact = oracle.helstrom_error(overlap, m).value
                number.update(_rel_err(exact, closed(m)[0]), f"n={n} beta={noise.beta:g} m={m}")
                qcb = oracle.chernoff_bound(overlap, m).value
                commuting.update(_rel_err(qcb, exact), f"n={n} beta={noise.beta:g} m={m}")
    report.rows.extend([number.row, commuting.row])

    # N00N states are finitely supported, so only coherent and squeezed states are truncated
    noon_points = [(noise, {"n": n}, f"n={n} beta={noise.beta:g}")
                   for noise in _noise_specs(config) for n in config["noon_n"]]
    mode_points = [(NoiseSpec(n_b=n_b), {"n_s": n_s}, f"n_s={n_s:g} n_b={n_b:g}")
                   for n_b in config["n_b"] for n_s in config["n_s"]]
    for scenario, row_tol, points in (("noon", tol, noon_points),
                                      ("coherent", tol_trunc, mode_points),
                                      ("spdc", tol_trunc, mode_points)):
        upper = _Tracker(f"{scenario} qcb vs oracle", row_tol)
        lower = _Tracker(f"{scenario} lower vs oracle", row_tol)
        for noise, params, tag in points:
            pair, closed = thermal_case(scenario, noise, tail_eps=tail_eps, **params)
            overlap = oracle.Overlap(pair)
            for m in config["m"]:
                qcb = oracle.chernoff_bound(overlap, m).value
                lb = oracle.bhattacharyya_lower(overlap, m).value
                _, closed_qcb, closed_lb = closed(m)
                upper.update(_rel_err(qcb, closed_qcb), f"{tag} m={m}")
                lower.update(_rel_err(lb, closed_lb), f"{tag} m={m}")
        report.rows.extend([upper.row, lower.row])

    # bound ordering and shape invariants on random full-rank pairs
    sandwich = _Tracker("sandwich LB <= exact <= QCB", slack, kind="violation")
    convex = _Tracker("ln q(s) convex on grid", slack, kind="violation")
    loglin = _Tracker("chernoff log-linearity in M", 1e-12, kind="violation")
    mono = _Tracker("monotonicity in copies", slack, kind="violation")
    dim = config["random_dim"]
    for idx in range(config["random_pairs"]):
        pair = (_random_density(rng, dim), _random_density(rng, dim))
        overlap = oracle.Overlap(pair)
        tag = f"random pair {idx}"
        prev_exact, prev_qcb = None, None
        for m in (1, 2):
            lb = oracle.bhattacharyya_lower(overlap, m).value
            exact = oracle.helstrom_error(pair, m).value
            qcb = oracle.chernoff_bound(overlap, m).value
            sandwich.update(max(lb - exact, exact - qcb, 0.0), f"{tag} m={m}")
            if prev_exact is not None:
                mono.update(max(exact - prev_exact, qcb - prev_qcb, 0.0), f"{tag} m={m}")
            prev_exact, prev_qcb = exact, qcb
        qs = overlap.evaluate(np.linspace(0.0, 1.0, 65))
        if np.all(qs > 0.0):
            d2 = np.diff(np.log(qs), 2)
            convex.update(max(0.0, float(-d2.min(initial=0.0))), tag)
        c1 = oracle.chernoff_bound(overlap, 1)
        c8 = oracle.chernoff_bound(overlap, 8)
        loglin.update(abs(math.log(2.0 * c8.value) - 8.0 * math.log(2.0 * c1.value)), tag)
    report.rows.extend([sandwich.row, convex.row, loglin.row, mono.row])

    exponent = cf.bright_noise_spdc_exponent(1.0)
    report.notes.append(
        f"bright-noise scaling: numeric exponent of (2 n_s + 1) per copy = {exponent:.6f}"
    )
    report.notes.append(OUT_OF_SCOPE_NOTE)
    return report
