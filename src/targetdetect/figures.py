"""Curve data behind the built-in bound comparisons, and their CSV form.

Values are kept alongside exact log10 values computed in log space, so rows
stay meaningful long after the probability itself underflows to 0; an
underflowed value prints as 0 while its log10 column stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from .errors import ParameterDomainError
from .fock import NoiseSpec, _check_int

#: default parameter sets for the coherent-vs-squeezed comparison
FIGURE2_DEFAULT_SETS = ((0.75, 0.5), (2.0, 30.0))   # (n_b, n_s)
#: log_m_max must stay below this, so the top copy count 10**log_m_max fits int64
_LOG_M_END = math.log10(2.0**63)

CSV_HEADER = "series,m,value,log10_value"
CSV_HEADER_SIGNAL = "series,n_s,value,log10_value"


@dataclass(frozen=True)
class CurveSeries:
    """A labeled sequence of (x, value, log10 value) points."""

    label: str
    x: np.ndarray
    values: np.ndarray
    log10_values: np.ndarray

    def __post_init__(self):
        if not (len(self.x) == len(self.values) == len(self.log10_values)):
            raise ParameterDomainError("series columns must have equal length")


def _series(label, x, evaluated):
    """A series from one evaluated (values, log10 values) pair over the grid ``x``."""
    values, log10s = evaluated
    return CurveSeries(label, np.asarray(x), np.asarray(values, dtype=float),
                       np.asarray(log10s, dtype=float))


def figure1_series(beta=0.05, n=100, m_max=200):
    """Number-state exact error vs the N00N upper and lower bounds, over copies.

    Three series on the integer copy grid 1..m_max: ``number_exact``,
    ``noon_qcb`` and ``noon_lb``.
    """
    m_max = _check_int(m_max, "m_max", 1)
    noise = NoiseSpec(beta=beta)
    m = np.arange(1, m_max + 1)
    return [
        _series("number_exact", m, cf._number_state_error(n, noise, m)),
        _series("noon_qcb", m, cf._noon_qcb(n, noise, m)),
        _series("noon_lb", m, cf._noon_lower(n, noise, m)),
    ]


def figure2_copy_grid(log_m_max=4.0, samples=50):
    """Log-uniform copy counts: 10**linspace(0, log_m_max), deduplicated integers.

    ``log_m_max`` must lie in (0, log10(2**63)), about (0, 18.96); NaN and inf raise.
    """
    if not 0 < log_m_max < _LOG_M_END:
        raise ParameterDomainError(
            f"log_m_max must be > 0 and below log10(2**63) = {_LOG_M_END:.4f}, got {log_m_max!r}")
    grid = np.logspace(0.0, float(log_m_max), _check_int(samples, "samples", 1))
    return np.unique(np.rint(grid).astype(np.int64))


def _figure2_one_set(n_b, n_s, m, tag):
    evaluations = (
        ("coh_qcb", cf._coherent_qcb(n_s, n_b, m)),
        ("coh_lb", cf._coherent_lower(n_s, n_b, m)),
        ("spdc_qcb", cf._spdc_qcb(n_s, n_b, m)),
        ("spdc_lb", cf._spdc_lower(n_s, n_b, m)),
    )
    return [_series(f"{name}{tag}", m, evaluated) for name, evaluated in evaluations]


def figure2_series(n_s=None, n_b=None, log_m_max=4.0, samples=50):
    """Coherent vs two-mode-squeezed bounds over a log-uniform copy grid.

    With both ``n_s`` and ``n_b`` given, four series (coh_qcb, coh_lb,
    spdc_qcb, spdc_lb) for that parameter set; with neither, both default
    parameter sets are emitted with the parameters tagged into the labels.
    """
    m = figure2_copy_grid(log_m_max, samples)
    if (n_s is None) != (n_b is None):
        raise ParameterDomainError("give both n_s and n_b, or neither")
    if n_s is not None:
        return _figure2_one_set(float(n_b), float(n_s), m, "")
    out = []
    for nb, ns in FIGURE2_DEFAULT_SETS:
        out.extend(_figure2_one_set(nb, ns, m, f"[nb={nb:g},ns={ns:g}]"))
    return out


def figure3_series(n_s_min=0.05, n_s_max=3.0, steps=60, copies=1):
    """Weak-noise single-copy comparison over the signal photon number.

    Three series on a linear n_s grid: the coherent error, the
    squeezed-vacuum Chernoff bound and its lower bound, all in the
    zero-thermal-noise limit.
    """
    for name, value in (("n_s_min", n_s_min), ("n_s_max", n_s_max)):
        if not math.isfinite(value):
            raise ParameterDomainError(f"{name} must be finite, got {value!r}")
    if not 0 <= n_s_min < n_s_max:
        raise ParameterDomainError("need 0 <= n_s_min < n_s_max")
    grid = np.linspace(float(n_s_min), float(n_s_max), _check_int(steps, "steps", 2))
    labels = ("coh_exact", "spdc_qcb", "spdc_lb")
    return [_series(label, grid, pair) for label, pair in zip(labels, cf._weak_noise(grid, copies))]


def _grid_rows(x, copies, value="%%.17g"):
    """One row template ``,<x>,<value>,%.17g\\n`` per point of the grid ``x``."""
    row = (",%d," if copies else ",%.17g,") + value + ",%%.17g\n"
    return (row * len(x) % tuple(np.asarray(x).tolist())).splitlines(keepends=True)


def render_csv(series_list, x_name="m"):
    """The CSV text for a series list: 17-significant-digit round-trip floats, LF line endings.

    ``x_name`` is "m", for copy counts printed as integers, which must be finite
    whole numbers, or "n_s", for signal strengths printed as floats; anything
    else raises ParameterDomainError.  Each x grid (one array object) is
    formatted once into row templates, and each series is one ``%``-format of
    its escaped label joined onto them, over its value and log10 columns
    interleaved.  A +0.0 value takes a template with a literal ``0``.
    """
    if x_name not in ("m", "n_s"):
        raise ParameterDomainError(f"x_name must be 'm' or 'n_s', got {x_name!r}")
    copies = x_name == "m"
    chunks = [(CSV_HEADER if copies else CSV_HEADER_SIGNAL) + "\n"]
    # id -> [x, its rows, its literal-0 rows or None]; holding x keeps its id unique
    grids = {}
    for s in series_list:
        if not len(s.x):
            continue
        key = id(s.x)
        grid = grids.get(key)
        if grid is None:
            if copies and not np.all(np.isfinite(s.x) & (np.floor(s.x) == s.x)):
                raise ParameterDomainError(f"series {s.label!r}: copy counts must be whole numbers")
            grid = grids[key] = [s.x, _grid_rows(s.x, copies), None]
        values = np.asarray(s.values, dtype=float)
        flat = np.column_stack((values, np.asarray(s.log10_values, dtype=float))).ravel()
        zero = (values == 0.0) & ~np.signbit(values)
        rows = grid[1]
        if zero.any():
            if grid[2] is None:
                grid[2] = _grid_rows(s.x, copies, "0")
            starts = [0, *(np.flatnonzero(np.diff(zero)) + 1).tolist(), len(zero)]
            rows = []
            for a, b in zip(starts, starts[1:]):   # one slice per run of equal zero bits
                rows += grid[2 if zero[a] else 1][a:b]
            flat = np.delete(flat, 2 * np.flatnonzero(zero))
        label = s.label.replace("%", "%%")
        chunks.append((label + label.join(rows)) % tuple(flat.tolist()))
    return "".join(chunks)
