"""Cross-validation of every closed form against the brute-force oracle.

The sweep behind the ``validate`` command: each formula is evaluated over a
parameter grid next to the corresponding oracle quantity, invariants
(bound ordering, monotonicity, convexity, log-linearity) are checked on the
same pairs plus randomly generated states, and everything is folded into one
deterministic text report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_forms as cf
from . import oracle
from .channels import HypothesisPair, _thermal_grid, depolarizing_pair, stack_overlaps
from .errors import ParameterDomainError
from .fock import (
    DENSE_DIM_LIMIT,
    TAIL_EPS,
    DensityOperator,
    NoiseSpec,
    _check_dims,
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
#: points of the grid on which the convexity of ln q(s) is checked
_GRID_POINTS = 65
#: bytes that the largest array of one chunk of the random pairs may take
RANDOM_CHUNK_BYTES = 1 << 20
#: lowest admissible value of each range-checked setting; NaN and inf fail too
_MINIMA = {"tol": 0.0, "tol_truncated": 0.0, "slack": 0.0, "seed": 0, "random_pairs": 0,
           "random_dim": 1}


@dataclass
class CheckRow:
    name: str
    tol: float
    kind: str = "rel"        # "rel", "abs" or "violation"
    error: float = 0.0
    worst: str = ""
    samples: int = 0

    @property
    def passed(self):
        return self.samples > 0 and self.error <= self.tol

    def update(self, err, where, *args):
        """Keep the largest error and its place, formatted only then; the first NaN sticks."""
        self.samples += 1
        if not err <= self.error and not math.isnan(self.error):
            self.error = err
            self.worst = where.format(*args) if args else where


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
                where = f"worst at {row.worst}" if row.samples else "no samples"
                lines.append(f"  {row.name}: {where}")
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
    if config["random_pairs"] > 0:      # each random pair's Helstrom error at M = 2 is dense
        _check_dims((config["random_dim"],), DENSE_DIM_LIMIT, 2)


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _chunk_size(dim):
    """Random pairs per chunk at ``dim``: a chunk's largest array takes 32 dim max(dim,
    _GRID_POINTS) bytes a pair (the convexity grid's (points, 4, dim) floats, or a pair's
    (4, dim, dim) row stack), and a chunk of two or more stays within RANDOM_CHUNK_BYTES:
    126 pairs at dim 4, so the default 100 pairs are one chunk, and 7 at dim 64."""
    return max(1, RANDOM_CHUNK_BYTES // (32 * dim * max(dim, _GRID_POINTS)))


def _random_chunks(rng, count, dim):
    """``count`` pairs of random dim x dim states a a^H / Tr in lists of _chunk_size(dim), each
    drawn when it is reached, its states checked by one DensityOperator.stack and its Overlaps
    given by one stacked build.  The draws take the stream in the order of one per matrix:
    rho0 before rho1, real plane before imaginary."""
    size = _chunk_size(dim)
    for start in range(0, count, size):
        z = rng.standard_normal((min(size, count - start), 2, 2, dim, dim))
        a = z[:, :, 0] + 1j * z[:, :, 1]
        rho = a @ a.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, :, None, None]
        states = DensityOperator.stack(rho.reshape(-1, dim, dim), (dim,))
        yield stack_overlaps([HypothesisPair(*pair) for pair in zip(states[::2], states[1::2])])
        del z, a, rho, states   # the states view their own checked copy, not the draw


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


def _closed(scenario, params, copies):
    """``(exact, qcb, lb)`` closed forms of a thermal ``scenario`` over ``copies`` at ``params``,
    (n, noise) or (n_s, n_b), each a scalar or a column of points; None where there is no form.
    Each is looked up on ``cf`` by name at call time, so a wrapper installed there is seen."""
    if scenario == "number":    # commuting states: the Chernoff bound is the exact error
        return (cf.number_state_error(*params, copies),) * 2 + (None,)
    return (None, getattr(cf, f"{scenario}_qcb")(*params, copies),
            getattr(cf, f"{scenario}_lower")(*params, copies))


def _thermal_pairs(scenario, noises, values, cutoff=None, tail_eps=TAIL_EPS):
    """The pairs of a thermal ``scenario``'s probes at ``values`` (n of "number" and "noon", n_s
    of "coherent" and "spdc") under each of ``noises``, noise-major, from one
    channels._thermal_grid call, every two-mode probe with its idler compressed."""
    if scenario in ("number", "noon"):
        kets = [(number_ket if scenario == "number" else noon_ket)(n) for n in values]
    else:
        kets = [(coherent_ket if scenario == "coherent" else spdc_ket)(n_s, cutoff, tail_eps)
                for n_s in values]
    modes = 1 if scenario in ("number", "coherent") else 2
    return _thermal_grid(kets, noises, modes, cutoff, tail_eps, compress_idler=True)


def thermal_case(scenario, noise, n=1, n_s=0.5, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal-vs-identity pair of one probe, built first, and its closed forms ``closed``.

    ``n`` is the photon number of "number" and "noon", ``n_s`` the mean of "coherent" and "spdc".
    An explicit ``cutoff`` truncates a coherent or squeezed-vacuum probe and the noise alike.
    The pair is a grid of one (_thermal_pairs).  ``closed(copies)`` is _closed at this one
    point; ``copies`` may be an array of copy counts.
    """
    by_n = scenario in ("number", "noon")
    (pair,) = _thermal_pairs(scenario, [noise], [n if by_n else n_s], cutoff, tail_eps)
    params = (n, noise) if by_n else (n_s, noise.n_b)
    return pair, lambda copies: _closed(scenario, params, copies)


def _check_random_chunk(rows, pairs, start):
    """Update the sandwich, convexity, log-linearity and monotonicity ``rows`` on one chunk of
    random ``pairs``, numbered from ``start``: bounds and exact errors per pair, ln q(s)'s second
    differences for the whole chunk from one grid contraction.  Returns the next number."""
    sandwich, convex, loglin, mono = rows
    grid = np.linspace(0.0, 1.0, _GRID_POINTS)
    qs = oracle.contract_grid([pair.overlap for pair in pairs], grid)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):     # rows holding a zero are skipped
        bends = np.diff(np.log(qs), 2).min(axis=1, initial=0.0).tolist()
    for idx, pair, bend, positive in zip(itertools.count(start), pairs, bends,
                                         (qs.min(axis=1) > 0.0).tolist()):
        bounds = []
        for m in (1, 2):
            lb = oracle.bhattacharyya_lower(pair, m).value
            exact = oracle.helstrom_error(pair, m).value
            qcb = oracle.chernoff_bound(pair, m).value
            sandwich.update(max(lb - exact, exact - qcb, 0.0), "random pair {} m={}", idx, m)
            bounds.append((exact, qcb))
        (exact1, qcb1), (exact2, qcb2) = bounds
        mono.update(max(exact2 - exact1, qcb2 - qcb1, 0.0), "random pair {} m=2", idx)
        if positive:
            convex.update(max(0.0, -bend), "random pair {}", idx)
        c8 = oracle.chernoff_bound(pair, 8).value     # M = 1 is qcb1, the same stored minimum
        loglin.update(abs(math.log(2.0 * c8) - 8.0 * math.log(2.0 * qcb1)), "random pair {}", idx)
    return start + len(pairs)


def run_validation(config=None):
    """Run the full equivalence and invariant sweep; returns a ValidationReport."""
    config = {**default_config(), **(config or {})}
    _check_config(config)
    tol, tol_trunc, slack, tail_eps = map(config.get, ("tol", "tol_truncated", "slack", "tail_eps"))
    rng = np.random.default_rng(config["seed"])
    report = ValidationReport(config=config)
    copies = np.asarray(config["m"], dtype=float)

    # depolarizing family: oracle vs the three closed forms
    depol = CheckRow("depolarizing vs oracle", 1e-12, kind="abs")
    for d in config["d"]:
        cases = [(f"pure d={d}", "pure", None), (f"entangled d={d}", "max_entangled", None)]
        cases += [(f"werner d={d} x={x:g}", "werner", x)
                  for x in list(config["x"]) + [d / (d + 1.0)]]
        for tag, kind, x in cases:
            pair, closed = depolarizing_case(d, kind, x)
            depol.update(abs(oracle.helstrom_error(pair).value - closed), tag)
    report.rows.append(depol)

    # number states: the commuting scenario is exact on both routes.  Each block takes its
    # closed forms for all M from one call per bound and noise, over a column of points
    number = CheckRow("number exact vs oracle", max(tol, 1e-13))
    commuting = CheckRow("number: chernoff equals exact", 1e-12, kind="violation")
    noises, number_column = _noise_specs(config), np.array(config["n"])[:, None]
    cases = list(zip(itertools.product(noises, config["n"]),
                     _thermal_pairs("number", noises, config["n"], tail_eps=tail_eps)))
    stack_overlaps([pair for _, pair in cases])
    exacts = [row for noise in noises
              for row in _closed("number", (number_column, noise), copies)[0].tolist()]
    for ((noise, n), pair), closed_exacts in zip(cases, exacts):
        for m, closed_exact in zip(config["m"], closed_exacts):
            exact = oracle.helstrom_error(pair, m).value
            number.update(_rel_err(exact, closed_exact), "n={} beta={:g} m={}", n, noise.beta, m)
            qcb = oracle.chernoff_bound(pair, m).value
            commuting.update(_rel_err(qcb, exact), "n={} beta={:g} m={}", n, noise.beta, m)
    report.rows.extend([number, commuting])

    # N00N states are finitely supported, so only coherent and squeezed states are truncated
    noon_tags = [f"n={n} beta={noise.beta:g}" for noise in noises for n in config["noon_n"]]
    mode_noises = [NoiseSpec(n_b=n_b) for n_b in config["n_b"]]
    mode_points = list(itertools.product(mode_noises, config["n_s"]))
    mode_tags = [f"n_s={n_s:g} n_b={noise.n_b:g}" for noise, n_s in mode_points]
    noon_column = np.array(config["noon_n"])[:, None]
    mode_columns = [(np.array([n_s for _, n_s in mode_points])[:, None],
                     np.array([noise.n_b for noise, _ in mode_points])[:, None])]
    for scenario, row_tol, block_noises, values, tags, groups in (
            ("noon", tol, noises, config["noon_n"], noon_tags,
             [(noon_column, noise) for noise in noises]),
            ("coherent", tol_trunc, mode_noises, config["n_s"], mode_tags, mode_columns),
            ("spdc", tol_trunc, mode_noises, config["n_s"], mode_tags, mode_columns)):
        upper = CheckRow(f"{scenario} qcb vs oracle", row_tol)
        lower = CheckRow(f"{scenario} lower vs oracle", row_tol)
        cases = list(zip(tags, _thermal_pairs(scenario, block_noises, values, tail_eps=tail_eps)))
        stack_overlaps([pair for _, pair in cases])
        closed = [_closed(scenario, params, copies) for params in groups]
        qcbs = [row for _, qcb, _ in closed for row in qcb.tolist()]
        lbs = [row for *_, lb in closed for row in lb.tolist()]
        for (tag, pair), closed_qcbs, closed_lbs in zip(cases, qcbs, lbs):
            for m, closed_qcb, closed_lb in zip(config["m"], closed_qcbs, closed_lbs):
                qcb = oracle.chernoff_bound(pair, m).value
                lb = oracle.bhattacharyya_lower(pair, m).value
                upper.update(_rel_err(qcb, closed_qcb), "{} m={}", tag, m)
                lower.update(_rel_err(lb, closed_lb), "{} m={}", tag, m)
        report.rows.extend([upper, lower])
    cases = pair = None     # the 16 SPDC pairs take ~0.8 MB: none is held through the random block

    # bound ordering and shape invariants on random full-rank pairs
    sandwich = CheckRow("sandwich LB <= exact <= QCB", slack, kind="violation")
    convex = CheckRow("ln q(s) convex on grid", slack, kind="violation")
    loglin = CheckRow("chernoff log-linearity in M", 1e-12, kind="violation")
    mono = CheckRow("monotonicity in copies", slack, kind="violation")
    rows, start = (sandwich, convex, loglin, mono), 0
    for pairs in _random_chunks(rng, config["random_pairs"], config["random_dim"]):
        start = _check_random_chunk(rows, pairs, start)
        del pairs       # so the next chunk is drawn and built with this one gone
    report.rows.extend(rows)

    exponent = cf.bright_noise_spdc_exponent(1.0)
    report.notes.append(
        f"bright-noise scaling: numeric exponent of (2 n_s + 1) per copy = {exponent:.6f}"
    )
    report.notes.append(OUT_OF_SCOPE_NOTE)
    return report
