"""Every point of the default figures against its oracle twin.

Each plotted number is a closed form.  Here it is compared, in log10, with the
oracle's ``log_value / ln 10`` for the same bound on the scenario pair that
``validation.thermal_case`` builds, at every copy count (figures 1 and 2) or
signal strength (figure 3) the default figure plots.  Each figure-1 and
figure-2 pair is built once, so its Overlap serves every copy count.

Tolerances are relative, in log10, each next to the worst case measured on
these series:

* figure 1, N00N n = 100 at beta = 0.05: bit for bit (measured: bit for bit);
  ``number_exact`` within 5e-16 (measured 2.5e-16), the rank-one solve's
  Newton root against the closed form;
* figure 2, both default sets, M up to 10**4: within 1e-12 (measured 3.8e-13,
  coh_qcb at n_b = 0.75, n_s = 0.5), the Fock truncation the oracle keeps and
  the closed forms do not;
* figure 3, the n_b = 0 limit: ``spdc_qcb`` and ``spdc_lb`` within 1e-12
  (measured 6.5e-13).
"""

import functools
import math

import pytest

from targetdetect import (NoiseSpec, bhattacharyya_lower, chernoff_bound, figure1_series,
                          figure2_series, figure3_series, helstrom_error, validation)
from targetdetect.figures import FIGURE2_DEFAULT_SETS

_BOUND = {"exact": helstrom_error, "qcb": chernoff_bound, "lb": bhattacharyya_lower}


@functools.cache
def _pair(scenario, noise, n=1, n_s=0.5):
    """The scenario pair, built once; ``noise`` is ("beta", value) or ("n_b", value)."""
    return validation.thermal_case(scenario, NoiseSpec(**dict([noise])), n=n, n_s=n_s)[0]


def _worst(series, kind, pair_at):
    """The largest relative log10 gap over ``series``; ``pair_at(x)`` is (pair, copies)."""
    worst = 0.0
    for x, want in zip(series.x.tolist(), series.log10_values.tolist()):
        pair, copies = pair_at(x)
        got = _BOUND[kind](pair, copies).diagnostics["log_value"] / math.log(10.0)
        worst = max(worst, 0.0 if got == want else abs(got - want) / abs(want))
    return worst


def _figure1_cases():
    scenarios = {"number_exact": ("number", "exact", 5e-16), "noon_qcb": ("noon", "qcb", 0.0),
                 "noon_lb": ("noon", "lb", 0.0)}
    for series in figure1_series():
        scenario, kind, tol = scenarios[series.label]
        yield pytest.param(series, kind, lambda m, s=scenario: (_pair(s, ("beta", 0.05), n=100), int(m)),
                           tol, id=f"figure1 {series.label}")


def _figure2_cases():
    # the default figure emits its parameter sets in order, four series each
    sets = [params for params in FIGURE2_DEFAULT_SETS for _ in range(4)]
    for series, (n_b, n_s) in zip(figure2_series(), sets):
        name, kind = series.label.split("[")[0].split("_")
        scenario = "coherent" if name == "coh" else "spdc"
        yield pytest.param(series, kind, lambda m, s=scenario, n_b=n_b, n_s=n_s: (
            _pair(s, ("n_b", n_b), n_s=n_s), int(m)), 1e-12, id=f"figure2 {series.label}")


def _figure3_cases():
    vacuum = NoiseSpec(n_b=0.0)
    scenarios = {"coh_exact": ("coherent", "exact"), "spdc_qcb": ("spdc", "qcb"),
                 "spdc_lb": ("spdc", "lb")}
    for series in figure3_series():
        scenario, kind = scenarios[series.label]
        marks = ()
        if series.label == "coh_exact":
            # ROADMAP item 13: the series is the coherent pair's Bhattacharyya bound at
            # n_b = 0, 1/2 (1 - sqrt(1 - e**(-2 M n_s))), which is the exact error at 2M
            # copies; the oracle's exact error at M copies differs by up to 0.41 relative
            # in log10
            marks = pytest.mark.xfail(strict=True, reason="coh_exact is not the exact error "
                                      "(ROADMAP item 13, 0.41 relative in log10)")
        yield pytest.param(series, kind, lambda n_s, s=scenario: (
            validation.thermal_case(s, vacuum, n_s=n_s)[0], 1), 1e-12, marks=marks,
            id=f"figure3 {series.label}")


@pytest.mark.parametrize("series, kind, pair_at, tol",
                         [*_figure1_cases(), *_figure2_cases(), *_figure3_cases()])
def test_every_plotted_point_matches_its_oracle_twin(series, kind, pair_at, tol):
    assert _worst(series, kind, pair_at) <= tol


def test_the_twins_cover_every_default_series():
    labels = [s.label for s in figure1_series() + figure2_series() + figure3_series()]
    cases = [*_figure1_cases(), *_figure2_cases(), *_figure3_cases()]
    assert [case.values[0].label for case in cases] == labels
