"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and nowhere
else; expected numbers marked "frozen" were computed from independent
truncated-sum or exact-fraction evaluations before the closed forms existed.
"""

import contextlib
import math

import numpy as np
import pytest

from targetdetect import (
    DensityOperator,
    DepolarizingInput,
    HypothesisPair,
    NoiseRegime,
    NoiseSpec,
    asymptotic_limits,
    bhattacharyya_lower,
    bright_noise_spdc_exponent,
    chernoff_bound,
    coherent_ket,
    coherent_lower,
    coherent_qcb,
    depolarizing_error,
    depolarizing_pair,
    figure1_series,
    helstrom_error,
    maximally_entangled_qudit,
    noon_ket,
    noon_lower,
    noon_qcb,
    noon_threshold,
    number_ket,
    number_state_error,
    spdc_ket,
    spdc_lower,
    spdc_qcb,
    target_pair_bipartite,
    target_pair_single_mode,
    thermal_state,
    weak_noise_crossover,
    werner_state,
)
from targetdetect import closed_forms as cf
from targetdetect.fock import FockKet


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} [{name}]: FAIL")
        raise
    print(f"acceptance {number:02d} [{name}]: PASS")


def test_criterion_01_depolarizing_closed_forms():
    with criterion(1, "depolarizing closed forms vs oracle"):
        for d in (2, 3, 4, 5):
            basis = number_ket(0, cutoff=d - 1)
            uniform = FockKet(np.full(d, 1.0 / math.sqrt(d), dtype=complex), (d,))
            for ket in (basis, uniform):
                got = helstrom_error(depolarizing_pair(ket)).value
                assert abs(got - 1.0 / (2 * d)) <= 1e-12
            got = helstrom_error(
                depolarizing_pair(maximally_entangled_qudit(d), bipartite=True)
            ).value
            assert abs(got - 1.0 / (2 * d**2)) <= 1e-12
            for x in (0.0, 0.25, d / (d + 1.0), 0.9, 1.0):
                pair = depolarizing_pair(werner_state(d, x), bipartite=True)
                got = helstrom_error(pair).value
                want = depolarizing_error(d, DepolarizingInput.WERNER, x=x)
                assert abs(got - want) <= 1e-12


def test_criterion_02_commuting_exactness():
    with criterion(2, "number-state oracle equals closed form"):
        for beta in (0.05, 0.5, math.log(2.0)):
            noise = NoiseSpec(beta=beta)
            for n in range(6):
                pair = target_pair_single_mode(number_ket(n), noise)
                for m in (1, 2, 3, 10):
                    got = helstrom_error(pair, m)
                    assert got.diagnostics["path"] == "rank_one_secular"
                    want = number_state_error(n, noise, m)
                    assert got.value == pytest.approx(want, rel=1e-14, abs=0)


def _pure_rho1_pairs():
    cases = []
    for n in range(4):
        cases.append(target_pair_single_mode(number_ket(n), NoiseSpec(beta=math.log(2.0))))
    for n in (1, 2, 3):
        for n_b in (0.5, 1.0):
            cases.append(
                target_pair_bipartite(noon_ket(n), NoiseSpec(n_b=n_b), compress_idler=True)
            )
    for n_s in (0.5, 1.5):
        cases.append(target_pair_single_mode(coherent_ket(n_s), NoiseSpec(n_b=0.75)))
    for n_s in (0.5, 2.0):
        cases.append(target_pair_bipartite(spdc_ket(n_s), NoiseSpec(n_b=0.75)))
    return cases


def test_criterion_03_chernoff_minimizer_for_pure_rho1():
    with criterion(3, "minimizer at s=1 with pure channel-1 output"):
        for pair in _pure_rho1_pairs():
            psi = pair.rho1.ket.amplitudes
            psi = psi / np.linalg.norm(psi)
            image = pair.rho0.diagonal_or_none() * psi
            fidelity_form = float(np.real(np.vdot(psi, np.asarray(image).ravel())))
            for m in (1, 3):
                got = chernoff_bound(pair, m)
                assert abs(got.s_star - 1.0) <= 1e-6
                assert got.value == pytest.approx(0.5 * fidelity_form**m, rel=1e-8, abs=0)


def test_criterion_04_noon_formulas_match_oracle():
    with criterion(4, "N00N bounds vs oracle, cutoff-doubling stable"):
        for n in (1, 2, 3, 5):
            for n_b in (0.5, 1.0, 5.0):
                noise = NoiseSpec(n_b=n_b)
                policy_cutoff = thermal_state(noise).cutoffs[0]
                values = {}
                for tag, cutoff in (("base", None), ("doubled", 2 * policy_cutoff)):
                    pair = target_pair_bipartite(
                        noon_ket(n), noise, cutoff=cutoff, compress_idler=True
                    )
                    for m in (1, 2):
                        upper = chernoff_bound(pair, m).value
                        lower = bhattacharyya_lower(pair, m).value
                        assert upper == pytest.approx(noon_qcb(n, noise, m), rel=1e-8, abs=0)
                        assert lower == pytest.approx(noon_lower(n, noise, m), rel=1e-8, abs=0)
                        values.setdefault(m, {})[tag] = (upper, lower)
                for by_tag in values.values():
                    for base, doubled in zip(by_tag["base"], by_tag["doubled"]):
                        assert base == pytest.approx(doubled, rel=1e-10, abs=0)


def _coherent_spdc_max_error(tail_eps):
    worst = 0.0
    for n_b in (0.1, 0.5, 1.0, 2.0):
        noise = NoiseSpec(n_b=n_b)
        for n_s in (0.1, 0.5, 1.0, 2.0):
            single = target_pair_single_mode(
                coherent_ket(n_s, tail_eps=tail_eps), noise, tail_eps=tail_eps
            )
            double = target_pair_bipartite(
                spdc_ket(n_s, tail_eps=tail_eps), noise, tail_eps=tail_eps
            )
            for m in (1, 2):
                checks = (
                    (chernoff_bound(single, m).value, coherent_qcb(n_s, n_b, m)),
                    (bhattacharyya_lower(single, m).value, coherent_lower(n_s, n_b, m)),
                    (chernoff_bound(double, m).value, spdc_qcb(n_s, n_b, m)),
                    (bhattacharyya_lower(double, m).value, spdc_lower(n_s, n_b, m)),
                )
                for got, want in checks:
                    worst = max(worst, abs(got - want) / max(abs(got), abs(want)))
    return worst


def test_criterion_05_coherent_spdc_formulas_match_oracle():
    with criterion(5, "coherent/SPDC bounds vs oracle, tail-tightening helps"):
        err_12 = _coherent_spdc_max_error(1e-12)
        assert err_12 <= 1e-6
        err_14 = _coherent_spdc_max_error(1e-14)
        print(f"  max disagreement: tail 1e-12 -> {err_12:.3e}, tail 1e-14 -> {err_14:.3e}")
        assert err_14 < err_12


def _figure1_log10s(n):
    """The N00N lower-bound and number-state log10 columns of figure 1 at beta 0.05, M = 1..200."""
    series = {s.label: s.log10_values for s in figure1_series(beta=0.05, n=n, m_max=200)}
    return series["noon_lb"], series["number_exact"]


def test_criterion_06_number_vs_noon_regimes():
    with criterion(6, "N00N advantage exactly below the threshold"):
        noise = NoiseSpec(beta=0.05)
        lb_100, exact_100 = _figure1_log10s(100)
        assert np.all(lb_100 > exact_100)          # high photon number: no advantage
        lb_20, exact_20 = _figure1_log10s(20)
        assert np.all(lb_20 < exact_20)            # low photon number: advantage
        n_star = noon_threshold(noise)
        assert 26.33 <= n_star <= 26.35
        assert n_star == pytest.approx(math.log(2.0 + math.sqrt(3.0)) / 0.05, abs=1e-9)


def test_criterion_07_coherent_vs_spdc_regimes():
    with criterion(7, "SPDC vs coherent advantage regimes over copies"):
        m_all = np.arange(1, 10_001)
        m_two = np.arange(2, 10_001)
        # low signal-to-noise: entangled upper bound below the coherent lower bound
        assert np.all(
            cf._spdc_qcb(0.5, 0.75, m_two)[1] < cf._coherent_lower(0.5, 0.75, m_two)[1]
        )
        # high signal-to-noise: entangled lower bound above the coherent upper bound
        assert np.all(
            cf._spdc_lower(30.0, 2.0, m_all)[1] > cf._coherent_qcb(30.0, 2.0, m_all)[1]
        )
        # spot values (frozen: exact denominator 3.75, independent sum evaluation)
        assert abs(spdc_qcb(0.5, 0.75, 1) - 0.13333333333333333) <= 1e-12
        assert abs(spdc_lower(30.0, 2.0, 1) - 5.640959083985653e-05) <= 1e-8


def test_criterion_08_weak_noise_crossover():
    with criterion(8, "weak-noise crossover near unit signal strength"):
        root = weak_noise_crossover()
        assert 1.0 < root < 1.3
        assert root == pytest.approx(1.144032841275508, abs=2e-6)   # frozen bisection value
        for n_s in np.linspace(0.05, 3.0, 60):
            if abs(n_s - root) < 1e-3:
                continue
            limits = asymptotic_limits(float(n_s), 1, NoiseRegime.WEAK_NOISE)
            if n_s > root:
                assert limits.spdc_lower > limits.coherent
            else:
                assert limits.spdc_lower < limits.coherent


def test_criterion_09_bright_noise_advantage():
    with criterion(9, "entangled advantage persists in bright noise"):
        n_b = 1e6
        for n_s in (0.5, 2.0):
            for m in (1, 2):
                assert spdc_qcb(n_s, n_b, m) < coherent_qcb(n_s, n_b, m)
        estimates = {n_s: bright_noise_spdc_exponent(n_s) for n_s in (0.5, 2.0)}
        print(f"  bright-noise (2*n_s+1) exponent per copy, extrapolated: {estimates}")
        for est in estimates.values():
            assert 0.0 < est < 3.0     # reported, not asserted against either printed form


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real, (dim,))


def test_criterion_10_property_suites():
    with criterion(10, "sandwich/monotonicity/convexity/log-linearity"):
        rng = np.random.default_rng(190349)
        slack = 1e-9
        for _ in range(100):
            pair = HypothesisPair(_random_density(rng, 4), _random_density(rng, 4))
            results = {}
            for m in (1, 2):
                lb = bhattacharyya_lower(pair, m).value
                exact = helstrom_error(pair, m).value
                upper = chernoff_bound(pair, m).value
                assert lb <= exact + slack
                assert exact <= upper + slack
                results[m] = (exact, upper)
            assert results[2][0] <= results[1][0] + slack
            assert results[2][1] <= results[1][1] + slack
            qs = pair.overlap.contract(np.linspace(0.0, 1.0, 65))[0]
            assert np.all(qs > 0.0)
            assert np.diff(np.log(qs), 2).min() >= -slack
            c1, c4 = chernoff_bound(pair, 1), chernoff_bound(pair, 4)
            assert abs(math.log(2 * c4.value) - 4 * math.log(2 * c1.value)) <= slack


def test_criterion_11_validate_reports_scope_exclusion(capsys):
    from targetdetect.cli import main
    from targetdetect.validation import OUT_OF_SCOPE_NOTE

    with criterion(11, "validate states the out-of-scope exclusion"):
        code = 0
        try:
            main(["validate"])
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
        out, _ = capsys.readouterr()
        assert code == 0
        assert "result: PASS" in out
        assert OUT_OF_SCOPE_NOTE in out
        assert "lossy" in out and "out of scope" in out
