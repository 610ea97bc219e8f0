"""Curve data behind the built-in bound comparisons, and their CSV form.

Values are kept alongside exact log10 values computed in log space, so rows
stay meaningful long after the probability itself underflows to 0; an
underflowed value prints as 0 while its log10 column stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from .errors import ParameterDomainError
from .fock import NoiseSpec, _check_int

#: default parameter sets for the coherent-vs-squeezed comparison
FIGURE2_DEFAULT_SETS = ((0.75, 0.5), (2.0, 30.0))   # (n_b, n_s)

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
    """Log-uniform copy counts: 10**linspace(0, log_m_max), deduplicated integers."""
    if log_m_max <= 0:
        raise ParameterDomainError("log_m_max must be > 0")
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
    if not 0 <= n_s_min < n_s_max:
        raise ParameterDomainError("need 0 <= n_s_min < n_s_max")
    grid = np.linspace(float(n_s_min), float(n_s_max), _check_int(steps, "steps", 2))
    labels = ("coh_exact", "spdc_qcb", "spdc_lb")
    return [_series(label, grid, pair) for label, pair in zip(labels, cf._weak_noise(grid, copies))]


def render_csv(series_list, x_name="m"):
    """The CSV text for a series list: 17-significant-digit round-trip floats, LF line endings."""
    chunks = [(CSV_HEADER if x_name == "m" else CSV_HEADER_SIGNAL) + "\n"]
    row = "%s,%d,%.17g,%.17g\n" if x_name == "m" else "%s,%.17g,%.17g,%.17g\n"   # %d truncates as int()
    for s in series_list:
        columns = zip(*(np.asarray(c).tolist() for c in (s.x, s.values, s.log10_values)))
        chunks.append("".join(row % (s.label, x, value, log10) for x, value, log10 in columns))
    return "".join(chunks)
