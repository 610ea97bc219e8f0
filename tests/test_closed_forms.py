"""Analytic bound expressions: frozen values, identities, limits."""

import math

import numpy as np
import pytest

from targetdetect import (
    DepolarizingInput,
    NoiseRegime,
    NoiseSpec,
    ParameterDomainError,
    asymptotic_limits,
    bright_noise_spdc_exponent,
    coherent_lower,
    coherent_qcb,
    depolarizing_error,
    noon_lower,
    noon_qcb,
    noon_threshold,
    number_state_error,
    spdc_lower,
    spdc_qcb,
    weak_noise_crossover,
    werner_advantage_threshold,
)
from targetdetect import closed_forms as cf

LN2 = math.log(2.0)


class TestDepolarizing:
    def test_reference_values(self):
        assert depolarizing_error(2, DepolarizingInput.PURE) == 0.25
        assert depolarizing_error(2, DepolarizingInput.MAX_ENTANGLED) == 0.125
        assert depolarizing_error(3, DepolarizingInput.WERNER, x=0.0) == 0.5
        assert depolarizing_error(3, DepolarizingInput.WERNER, x=1.0) == pytest.approx(1 / 18)

    def test_werner_boundary_equals_pure(self):
        for d in (2, 3, 4, 5):
            x_star = werner_advantage_threshold(d)
            assert depolarizing_error(d, DepolarizingInput.WERNER, x=x_star) == pytest.approx(
                depolarizing_error(d, DepolarizingInput.PURE), abs=1e-15
            )

    def test_werner_threshold_values(self):
        assert werner_advantage_threshold(2) == pytest.approx(2 / 3)
        assert werner_advantage_threshold(5) == pytest.approx(5 / 6)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            depolarizing_error(1, DepolarizingInput.PURE)
        with pytest.raises(ParameterDomainError):
            depolarizing_error(2, DepolarizingInput.WERNER, x=2.0)
        with pytest.raises(ParameterDomainError):
            depolarizing_error(2, DepolarizingInput.WERNER)


class TestNumberState:
    def test_vacuum_input(self):
        noise = NoiseSpec(n_b=1.0)
        assert number_state_error(0, noise, 1) == pytest.approx(0.25, rel=1e-14, abs=0)
        assert number_state_error(0, noise, 1) == pytest.approx(
            0.5 * (1.0 - math.exp(-noise.beta)), rel=1e-14, abs=0
        )

    def test_frozen_high_photon_value(self):
        noise = NoiseSpec(beta=0.05)
        assert number_state_error(100, noise, 1) == pytest.approx(
            0.00016430677641454263, rel=1e-10, abs=0
        )

    @pytest.mark.parametrize("n", range(0, 21))
    @pytest.mark.parametrize("beta", [0.05, 0.5, LN2])
    def test_two_printed_forms_agree(self, n, beta):
        noise = NoiseSpec(beta=beta)
        a = 2.0 * number_state_error(n, noise, 1)
        b = -math.expm1(-noise.beta) * math.exp(-n * noise.beta)
        assert a == pytest.approx(b, rel=1e-14, abs=0)

    def test_monotone_in_photon_number(self):
        noise = NoiseSpec(n_b=2.0)
        values = [number_state_error(n, noise, 1) for n in range(8)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_zero_noise(self):
        noise = NoiseSpec(n_b=0.0)
        assert number_state_error(0, noise, 1) == pytest.approx(0.5)
        assert number_state_error(3, noise, 2) == 0.0


class TestNoon:
    def test_frozen_values(self):
        assert noon_qcb(1, NoiseSpec(beta=LN2), 1) == pytest.approx(0.078125, rel=1e-13, abs=0)
        noise = NoiseSpec(beta=0.05)
        assert noon_qcb(20, noise, 1) == pytest.approx(0.006921369393511808, rel=1e-10, abs=0)
        assert noon_lower(20, noise, 1) == pytest.approx(0.0028598769985929695, rel=1e-10, abs=0)
        assert noon_lower(1, NoiseSpec(n_b=1.0), 1) == pytest.approx(
            0.036487594556521064, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ratio_to_number_state_is_cosh_factor(self, n, m):
        noise = NoiseSpec(beta=0.05)
        ratio = noon_qcb(n, noise, m) / number_state_error(n, noise, m)
        assert ratio == pytest.approx((math.cosh(n * noise.beta) / 2.0) ** m, rel=1e-12, abs=0)

    def test_lower_below_upper(self):
        noise = NoiseSpec(n_b=0.7)
        for n in (1, 3, 10):
            for m in (1, 2, 8):
                assert noon_lower(n, noise, m) <= noon_qcb(n, noise, m)

    def test_threshold(self):
        n_star = noon_threshold(NoiseSpec(beta=0.05))
        assert n_star == pytest.approx(math.log(2.0 + math.sqrt(3.0)) / 0.05, rel=1e-13, abs=0)
        assert 26.33 < n_star < 26.35
        assert math.cosh(n_star * 0.05) == pytest.approx(2.0, abs=1e-12)
        assert noon_threshold(NoiseSpec(beta=math.log(2.0 + math.sqrt(3.0)))) == pytest.approx(
            1.0, rel=1e-13, abs=0
        )

    def test_n_zero_rejected(self):
        with pytest.raises(ParameterDomainError):
            noon_qcb(0, NoiseSpec(n_b=1.0), 1)

    def test_per_copy_overlap_squared_vs_number_base(self):
        # the lower bound stays below the number-state error for every copy
        # count exactly when sigma**2 is below the per-copy error factor
        noise = NoiseSpec(beta=0.05)
        for n, advantage in ((20, True), (100, False)):
            sigma_sq = 4.0 * noon_lower(n, noise, 1) * (1.0 - noon_lower(n, noise, 1))
            # recover sigma**2 from the m=1 bound: p = (1 - sqrt(1 - s2))/2
            base = 2.0 * number_state_error(n, noise, 1)
            assert (sigma_sq < base) == advantage

    def test_root_overlap_identity_against_direct_evaluation(self):
        # closed-form sigma against the two-term quadratic form it compresses
        for n, n_b in ((1, 1.0), (3, 0.5), (5, 2.0)):
            noise = NoiseSpec(n_b=n_b)
            p0 = 1.0 / (n_b + 1.0)
            p2n = n_b ** (2 * n) / (n_b + 1.0) ** (2 * n + 1)
            direct = 0.5 * (math.sqrt(p0) + math.sqrt(p2n)) / math.sqrt(2.0)
            m1 = noon_lower(n, noise, 1)
            sigma = math.sqrt(1.0 - (1.0 - 2.0 * m1) ** 2)
            assert sigma == pytest.approx(direct, rel=1e-13, abs=0)


class TestCoherent:
    def test_vacuum_signal_matches_number_state(self):
        noise = NoiseSpec(n_b=0.8)
        for m in (1, 2, 3):
            assert coherent_qcb(0.0, 0.8, m) == pytest.approx(
                number_state_error(0, noise, m), rel=1e-13, abs=0
            )
            assert coherent_qcb(0.0, 0.8, m) == pytest.approx(
                0.5 / 1.8**m, rel=1e-13, abs=0
            )

    def test_frozen_values(self):
        assert coherent_qcb(0.5, 0.75, 1) == pytest.approx(0.21470779802151027, rel=1e-12, abs=0)
        assert coherent_lower(0.5, 0.75, 1) == pytest.approx(0.11417530229439837, rel=1e-12, abs=0)

    def test_bright_noise_scaling(self):
        n_b = 1e8
        for m in (1, 2):
            assert coherent_qcb(0.5, n_b, m) == pytest.approx(0.5 * n_b**-m, rel=1e-6, abs=0)

    def test_zero_noise_overlap_is_pure(self):
        # tau reduces to e**-n_s when the thermal state degenerates to vacuum
        n_s = 0.7
        expected = 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-2 * n_s)))
        assert coherent_lower(n_s, 0.0, 1) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_monotone_in_signal(self):
        values = [coherent_qcb(x, 1.0, 1) for x in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_root_overlap_in_unit_interval(self):
        for n_s in (0.0, 0.5, 10.0):
            for n_b in (0.0, 1.0, 100.0):
                m1 = coherent_lower(n_s, n_b, 1)
                tau_sq = 1.0 - (1.0 - 2.0 * m1) ** 2
                assert 0.0 < tau_sq <= 1.0 + 1e-15


class TestSpdc:
    def test_vacuum_signal(self):
        for m in (1, 2):
            assert spdc_qcb(0.0, 0.8, m) == pytest.approx(0.5 / 1.8**m, rel=1e-13, abs=0)
            assert spdc_lower(0.0, 0.8, m) == pytest.approx(
                0.5 * (1.0 - math.sqrt(1.0 - 1.8**-m)), rel=1e-13, abs=0
            )

    def test_frozen_values(self):
        assert spdc_qcb(0.5, 0.75, 1) == pytest.approx(0.13333333333333333, abs=1e-15)
        assert spdc_lower(0.5, 0.75, 1) == pytest.approx(0.058877215248492265, rel=1e-12, abs=0)
        assert spdc_lower(30.0, 2.0, 1) == pytest.approx(5.640959083985653e-05, rel=1e-10, abs=0)

    def test_zero_noise_limits(self):
        n_s = 1.3
        for m in (1, 2):
            assert spdc_qcb(n_s, 0.0, m) == pytest.approx(
                0.5 * (n_s + 1.0) ** (-2 * m), rel=1e-13, abs=0
            )
            assert spdc_lower(n_s, 0.0, m) == pytest.approx(
                0.5 * (1.0 - math.sqrt(1.0 - (n_s + 1.0) ** (-3 * m))), rel=1e-13, abs=0
            )

    def test_lower_below_upper(self):
        for n_s in (0.1, 1.0, 10.0):
            for n_b in (0.1, 1.0, 10.0):
                for m in (1, 2, 5):
                    assert spdc_lower(n_s, n_b, m) <= spdc_qcb(n_s, n_b, m)


class TestLogSpace:
    def test_log10_matches_value_when_representable(self):
        noise = NoiseSpec(beta=0.05)
        cases = [
            (number_state_error, cf._number_state_error, (20, noise)),
            (noon_qcb, cf._noon_qcb, (20, noise)),
            (noon_lower, cf._noon_lower, (20, noise)),
        ]
        for value_fn, evaluate, args in cases:
            for m in (1, 5, 40):
                v = value_fn(*args, m)
                assert math.log10(v) == pytest.approx(evaluate(*args, m)[1], abs=1e-12)
        for value_fn, evaluate in (
            (coherent_qcb, cf._coherent_qcb),
            (coherent_lower, cf._coherent_lower),
            (spdc_qcb, cf._spdc_qcb),
            (spdc_lower, cf._spdc_lower),
        ):
            for m in (1, 7):
                v = value_fn(0.5, 0.75, m)
                assert math.log10(v) == pytest.approx(evaluate(0.5, 0.75, m)[1], abs=1e-12)

    def test_log10_stays_finite_after_underflow(self):
        m = 100_000
        assert number_state_error(5, NoiseSpec(beta=0.5), m) == 0.0
        log10 = cf._number_state_error(5, NoiseSpec(beta=0.5), m)[1]
        assert np.isfinite(log10)
        assert log10 < -100_000 * 0.5 / math.log(10.0)

    def test_vectorized_over_copies(self):
        m = np.arange(1, 50)
        vec = cf._spdc_qcb(0.5, 0.75, m)[1]
        assert vec.shape == m.shape
        assert np.allclose(np.diff(vec), vec[1] - vec[0], atol=1e-12)


class TestAsymptotics:
    def test_weak_noise_frozen_values(self):
        limits = asymptotic_limits(1.0, 1, NoiseRegime.WEAK_NOISE)
        assert limits.coherent == pytest.approx(0.03506325248390313, rel=1e-12, abs=0)
        assert limits.spdc_qcb == pytest.approx(0.125, abs=1e-15)
        assert limits.spdc_lower == pytest.approx(0.032292826653257334, rel=1e-12, abs=0)

    def test_weak_noise_qcb_equals_zero_noise_formula(self):
        for n_s in (0.3, 1.0, 2.5):
            for m in (1, 2):
                limits = asymptotic_limits(n_s, m, NoiseRegime.WEAK_NOISE)
                assert limits.spdc_qcb == pytest.approx(spdc_qcb(n_s, 0.0, m), rel=1e-13, abs=0)
                assert limits.spdc_lower == pytest.approx(spdc_lower(n_s, 0.0, m), rel=1e-13, abs=0)

    def test_bright_noise_values(self):
        limits = asymptotic_limits(0.5, 1, NoiseRegime.BRIGHT_NOISE, n_b=1e6)
        assert limits.coherent == pytest.approx(0.5e-6, rel=1e-12, abs=0)
        assert limits.spdc_qcb == pytest.approx(0.5 / 2e6, rel=1e-12, abs=0)
        assert limits.spdc_qcb < limits.coherent
        assert limits.product_noise_exponent == pytest.approx(1.0, abs=1e-6)

    def test_bright_noise_needs_probe(self):
        with pytest.raises(ParameterDomainError):
            asymptotic_limits(0.5, 1, NoiseRegime.BRIGHT_NOISE)

    def test_exponent_estimate_converges_to_one_per_copy(self):
        for n_s in (0.5, 2.0):
            est = bright_noise_spdc_exponent(n_s)
            assert est == pytest.approx(1.0, abs=1e-6)

    def test_product_noise_exponent_is_per_copy(self):
        # the M-copy bound is the M-th power of the one-copy bound, so the exponent
        # may not depend on M, not even in its last bits
        want = bright_noise_spdc_exponent(1.0)
        for m in (1, 2, 3, 7, 100):
            limits = asymptotic_limits(1.0, m, NoiseRegime.BRIGHT_NOISE, n_b=1e6)
            assert limits.product_noise_exponent == want

    @pytest.mark.parametrize("call", [
        lambda: bright_noise_spdc_exponent(0.0),
        lambda: bright_noise_spdc_exponent(1e-300),
        lambda: asymptotic_limits(0.0, 1, NoiseRegime.BRIGHT_NOISE, n_b=1e6),
    ], ids=["exponent-n_s=0", "exponent-n_s=1e-300", "bright-limits-n_s=0"])
    def test_exponent_needs_a_base_above_one(self, call):
        # 2 n_s + 1 rounding to 1 leaves no exponent to measure
        with pytest.raises(ParameterDomainError):
            call()

    def test_crossover_root(self):
        root = weak_noise_crossover()
        assert 1.0 < root < 1.3
        assert root == pytest.approx(1.144032841275508, abs=2e-6)
        # defining equation
        assert math.exp(-2.0 * root) == pytest.approx((root + 1.0) ** -3, rel=1e-5, abs=0)

    def test_crossover_orders_the_curves(self):
        root = weak_noise_crossover()
        for n_s in (0.2, 0.8, root - 0.01):
            limits = asymptotic_limits(n_s, 1, NoiseRegime.WEAK_NOISE)
            assert limits.spdc_lower < limits.coherent
        for n_s in (root + 0.01, 2.0, 3.0):
            limits = asymptotic_limits(n_s, 1, NoiseRegime.WEAK_NOISE)
            assert limits.spdc_lower > limits.coherent


class TestGlobalShape:
    @pytest.mark.parametrize("fn,args", [
        (number_state_error, (3, NoiseSpec(n_b=1.0))),
        (noon_qcb, (2, NoiseSpec(n_b=1.0))),
        (noon_lower, (2, NoiseSpec(n_b=1.0))),
    ])
    def test_monotone_in_copies_and_bounded(self, fn, args):
        values = [fn(*args, m) for m in (1, 2, 3, 5, 10)]
        assert all(0.0 <= v <= 0.5 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("fn", [coherent_qcb, coherent_lower, spdc_qcb, spdc_lower])
    def test_scenario_bounds_monotone(self, fn):
        values = [fn(0.7, 1.3, m) for m in (1, 2, 3, 5, 10)]
        assert all(0.0 <= v <= 0.5 for v in values)
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_copy_count_domain(self):
        with pytest.raises(ParameterDomainError):
            number_state_error(1, NoiseSpec(n_b=1.0), 0)
        with pytest.raises(ParameterDomainError):
            coherent_qcb(0.5, 0.5, 1.5)

    @pytest.mark.parametrize("call", [
        lambda: coherent_qcb(math.nan, 1.0),
        lambda: spdc_qcb(math.inf, 1.0),
        lambda: spdc_qcb(math.nan, 1.0),
        lambda: coherent_qcb(1.0, 1.0, copies=math.inf),
    ], ids=["coherent_qcb-nan", "spdc_qcb-inf", "spdc_qcb-nan", "coherent_qcb-copies-inf"])
    def test_non_finite_inputs_rejected(self, call):
        with pytest.raises(ParameterDomainError):
            call()
