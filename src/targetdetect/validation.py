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
#: validate's thermal scenarios in row order: name -> (probe builder of (value, cutoff, tail_eps),
#: which names its ket constructor at call time, the probe's modes, the config key of its values)
THERMAL_SCENARIOS = {
    "number": (lambda n, cutoff, tail_eps: number_ket(n), 1, "n"),
    "noon": (lambda n, cutoff, tail_eps: noon_ket(n), 2, "noon_n"),
    "coherent": (lambda n_s, cutoff, tail_eps: coherent_ket(n_s, cutoff, tail_eps), 1, "n_s"),
    "spdc": (lambda n_s, cutoff, tail_eps: spdc_ket(n_s, cutoff, tail_eps), 2, "n_s"),
}


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


def _scenario(name):
    """THERMAL_SCENARIOS[name]; a name not in the table raises ParameterDomainError."""
    try:
        return THERMAL_SCENARIOS[name]
    except KeyError:
        raise ParameterDomainError(f"thermal scenario must be one of {', '.join(THERMAL_SCENARIOS)}"
                                   f", got {name!r}") from None


def _thermal_pairs(scenario, noises, values, cutoff=None, tail_eps=TAIL_EPS):
    """The pairs of a thermal ``scenario``'s probes at ``values`` (n of "number" and "noon", n_s
    of "coherent" and "spdc") under each of ``noises``, noise-major, from one
    channels._thermal_grid call, every two-mode probe with its idler compressed."""
    build, modes, _ = _scenario(scenario)
    kets = [build(value, cutoff, tail_eps) for value in values]
    return _thermal_grid(kets, noises, modes, cutoff, tail_eps, compress_idler=True)


def thermal_case(scenario, noise, n=1, n_s=0.5, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal-vs-identity pair of one probe, built first, and its closed forms ``closed``.

    ``n`` is the photon number of "number" and "noon", ``n_s`` the mean of "coherent" and "spdc".
    An explicit ``cutoff`` truncates a coherent or squeezed-vacuum probe and the noise alike.
    The pair is a grid of one (_thermal_pairs).  ``closed(copies)`` is _closed at this one
    point; ``copies`` may be an array of copy counts.
    """
    by_n = _scenario(scenario)[2] != "n_s"
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

    # thermal blocks: one grid of pairs each, noise-major, with one stacked Overlap build and one
    # closed-form call per bound over its points' columns.  Number states commute, so theirs is
    # exact on both routes; only the "n_s" probes are truncated, and they take the n_b noises
    n_b_noises = [NoiseSpec(n_b=n_b) for n_b in config["n_b"]]
    all_noises = [NoiseSpec(beta=beta) for beta in config["beta"]] + n_b_noises
    for scenario, (_, _, key) in THERMAL_SCENARIOS.items():
        by_n = key != "n_s"
        noises = all_noises if by_n else n_b_noises
        points = list(itertools.product(noises, config[key]))
        pairs = stack_overlaps(_thermal_pairs(scenario, noises, config[key], tail_eps=tail_eps))
        columns = (np.array([value for _, value in points])[:, None],
                   np.array([noise if by_n else noise.n_b for noise, _ in points])[:, None])
        exact, qcb, lb = (c if c is None else c.tolist()
                          for c in _closed(scenario, columns, copies))
        if exact is None:       # each bound against its closed form
            rows = [CheckRow(f"{scenario} {bound} vs oracle", tol if by_n else tol_trunc)
                    for bound in ("qcb", "lower")]
        else:                   # the exact error against its closed form, the Chernoff bound to it
            rows = [CheckRow(f"{scenario} exact vs oracle", max(tol, 1e-13)),
                    CheckRow(f"{scenario}: chernoff equals exact", 1e-12, kind="violation")]
        where = "n={} beta={:g} m={}" if by_n else "n_s={:g} n_b={:g} m={}"
        for i, ((noise, value), pair) in enumerate(zip(points, pairs)):
            level = noise.beta if by_n else noise.n_b
            for j, m in enumerate(config["m"]):
                if exact is None:
                    checks = ((oracle.chernoff_bound(pair, m).value, qcb[i][j]),
                              (oracle.bhattacharyya_lower(pair, m).value, lb[i][j]))
                else:
                    helstrom = oracle.helstrom_error(pair, m).value
                    checks = ((helstrom, exact[i][j]),
                              (oracle.chernoff_bound(pair, m).value, helstrom))
                for row, (got, want) in zip(rows, checks):
                    row.update(_rel_err(got, want), where, value, level, m)
        report.rows.extend(rows)
    pairs = pair = None     # the 16 SPDC pairs take ~0.8 MB: none is held through the random block

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
