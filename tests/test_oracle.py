"""Brute-force error probabilities and bounds."""

import contextlib
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from targetdetect import (
    BoundKind,
    DensityOperator,
    FockKet,
    HypothesisPair,
    InvalidStateError,
    NoiseSpec,
    ParameterDomainError,
    SizeLimitError,
    bhattacharyya_lower,
    chernoff_bound,
    coherent_ket,
    depolarizing_pair,
    helstrom_error,
    maximally_entangled_qudit,
    maximally_mixed,
    noon_ket,
    number_ket,
    spdc_ket,
    target_pair_bipartite,
    target_pair_single_mode,
    thermal_state,
    werner_state,
)
from targetdetect import closed_forms as cf
from targetdetect import oracle, validation
from targetdetect.closed_forms import coherent_qcb
from targetdetect.fock import DENSE_DIM_LIMIT, spectral_decomposition
from targetdetect.oracle import CHERNOFF_MAX_ITER, Overlap


@contextlib.contextmanager
def _peak_allocation_below(max_bytes):
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max_bytes, f"peak allocation {peak} bytes"


def _pure_pure_error(overlap_sq, copies=1):
    """Reference: exact error (1/2)(1 - sqrt(1 - |<psi0|psi1>|**(2 copies))) for two pure
    states, from the squared overlap, without the 1 - (1 - x) cancellation."""
    inner = overlap_sq**copies
    if inner >= 1.0:
        return 0.5
    return -0.5 * math.expm1(0.5 * math.log1p(-inner))


def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real, (dim,))


class TestHelstrom:
    def test_identical_states_give_half(self):
        rho = maximally_mixed(3)
        assert helstrom_error((rho, rho)).value == pytest.approx(0.5, abs=1e-14)

    def test_depolarizing_qubit(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        assert helstrom_error(pair).value == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("n,n_b,m", [(0, 1.0, 1), (2, 0.5, 2), (4, 2.0, 3), (1, 1.0, 10)])
    def test_number_state_family_exact(self, n, n_b, m):
        noise = NoiseSpec(n_b=n_b)
        pair = target_pair_single_mode(number_ket(n), noise)
        got = helstrom_error(pair, m)
        expected = 0.5 * (n_b**n / (n_b + 1.0) ** (n + 1)) ** m
        assert got.value == pytest.approx(expected, rel=1e-14, abs=0)
        assert got.kind is BoundKind.EXACT
        assert got.diagnostics["path"] == "rank_one_secular"
        assert got.diagnostics["log_value"] == pytest.approx(
            math.log(got.value), rel=1e-12, abs=0)

    def test_point_mass_log_value_survives_underflow(self):
        # at n = 3, n_b = 0.1, M = 100 the value is subnormal and keeps few digits
        for n, noise, m in ((100, NoiseSpec(beta=0.05), 500), (3, NoiseSpec(n_b=0.1), 100)):
            got = helstrom_error(target_pair_single_mode(number_ket(n), noise), m)
            assert got.value < np.finfo(float).tiny
            assert got.diagnostics["log_value"] / math.log(10.0) == pytest.approx(
                cf._number_state_error(n, noise, m)[1], rel=1e-12, abs=0
            )

    def test_rank_one_path_matches_dense_path_under_rotation(self):
        # rotating both states by a common unitary leaves the error unchanged
        rng = np.random.default_rng(3)
        p = np.array([0.5, 0.3, 0.2])
        rho0 = DensityOperator(np.diag(p).astype(complex), (3,))
        rho1 = number_ket(1, cutoff=2).projector()
        fast = helstrom_error((rho0, rho1), 2)
        assert fast.diagnostics["path"] == "rank_one_secular"
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rot0 = DensityOperator(u @ rho0.to_dense() @ u.conj().T, (3,))
        rot1 = DensityOperator(u @ rho1.to_dense() @ u.conj().T, (3,))
        dense = helstrom_error((rot0, rot1), 2)
        assert dense.diagnostics["path"] == "dense_tensor_power"
        assert dense.value == pytest.approx(fast.value, rel=1e-12, abs=0)

    def test_diagonal_product_path(self):
        rho0 = DensityOperator(np.diag([0.6, 0.3, 0.1]).astype(complex), (3,))
        rho1 = DensityOperator(np.diag([0.2, 0.3, 0.5]).astype(complex), (3,))
        got = helstrom_error((rho0, rho1), 2)
        assert got.diagnostics["path"] == "diagonal_product"
        p = np.kron([0.6, 0.3, 0.1], [0.6, 0.3, 0.1])
        q = np.kron([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        expected = 0.5 * (1.0 - 0.5 * np.abs(p - q).sum())
        assert got.value == pytest.approx(expected, rel=1e-14, abs=0)

    def test_pure_vs_pure_matches_closed_form(self):
        n_s = 0.8
        pair = target_pair_single_mode(coherent_ket(n_s), NoiseSpec(n_b=0.0))
        got = helstrom_error(pair).value
        assert got == pytest.approx(_pure_pure_error(math.exp(-n_s), 1), rel=1e-10, abs=0)

    def test_memory_guard(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        with pytest.raises(SizeLimitError):
            helstrom_error(pair, 7)      # 12**7 support products would exceed the guard

    def test_support_guard_admits_three_copies(self):
        # the guard counts 12**3 support products, not the 33**3 dense dimension
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        got = helstrom_error(pair, 3)
        assert got.diagnostics["path"] == "rank_one_secular"
        assert got.diagnostics["support_size"] == 12**3
        lower, upper = bhattacharyya_lower(pair, 3).value, chernoff_bound(pair, 3).value
        assert lower <= got.value <= upper

    @pytest.mark.parametrize("path, make_pair", [
        ("diagonal_product",
         lambda: (DensityOperator(np.array([0.6, 0.3, 0.1]), (3,)),
                  DensityOperator(np.array([0.2, 0.3, 0.5]), (3,)))),
        ("dense_tensor_power",
         lambda: (_random_density(np.random.default_rng(7), 3),
                  _random_density(np.random.default_rng(8), 3))),
        ("rank_one_secular",
         lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))),
    ])
    def test_every_path_sets_log_value(self, path, make_pair):
        for copies in (1, 2):
            got = helstrom_error(make_pair(), copies)
            assert got.diagnostics["path"] == path
            assert got.diagnostics["log_value"] == pytest.approx(
                math.log(got.value), rel=1e-12, abs=0)

    def test_diagonal_guard_without_point_mass(self):
        noise = NoiseSpec(beta=0.05)
        rho0 = thermal_state(noise)
        rho1 = thermal_state(NoiseSpec(n_b=1.0), cutoff=rho0.cutoffs[0])
        with pytest.raises(SizeLimitError):
            helstrom_error((rho0, rho1), 4)

    def test_copies_must_be_positive(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        with pytest.raises(ParameterDomainError):
            helstrom_error(pair, 0)

    def test_guard_trips_before_any_power_is_built(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        assert pair.dims == (33,)
        with pytest.raises(SizeLimitError), _peak_allocation_below(1 << 20):
            helstrom_error(pair, 7)

    def test_huge_copy_count_trips_the_guard(self):
        rng = np.random.default_rng(2)
        pair = (_random_density(rng, 3), _random_density(rng, 3))
        with pytest.raises(SizeLimitError):
            helstrom_error(pair, 10**9)
        rho0 = DensityOperator(np.array([0.5, 0.5]), (2,))
        rho1 = DensityOperator(np.array([0.2, 0.8]), (2,))
        with pytest.raises(SizeLimitError):
            helstrom_error((rho0, rho1), 10**9)

    def test_negative_diagonal_entry_is_rejected_like_chernoff(self):
        bad = DensityOperator(np.array([0.6, 0.6, -0.2]), (3,))
        pair = (bad, maximally_mixed(3))
        with pytest.raises(InvalidStateError):
            helstrom_error(pair, 2)
        with pytest.raises(InvalidStateError):
            chernoff_bound(pair, 2)

    def test_point_mass_means_exactly_one_nonzero_entry(self):
        rho0 = DensityOperator(np.array([0.5, 0.5, 0.0]), (3,))
        orthogonal = number_ket(2, cutoff=2).projector()
        got = helstrom_error((rho0, orthogonal), 4)
        assert got.diagnostics["path"] == "rank_one_secular"
        assert got.value == 0.0
        assert got.diagnostics["log_value"] == -math.inf
        # a deficit-free ket with a tiny but nonzero second amplitude is not a point mass
        nearly = FockKet(np.array([0.0, 1e-8, math.sqrt(1.0 - 1e-16)]), (3,)).projector()
        got = helstrom_error((rho0, nearly), 2)
        assert got.diagnostics["path"] == "dense_tensor_power"
        assert got.diagnostics["tensor_dim"] == 9

    def test_states_on_different_spaces_are_rejected(self):
        with pytest.raises(InvalidStateError):
            helstrom_error((maximally_mixed(1), maximally_mixed(3)))
        werner = werner_state(2, 0.5)
        thermal = thermal_state(NoiseSpec(n_b=1.0), cutoff=2)
        for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower, Overlap):
            with pytest.raises(InvalidStateError):
                bound((werner, thermal))
            with pytest.raises(InvalidStateError):
                bound((maximally_mixed(3), thermal_state(NoiseSpec(n_b=1.0), cutoff=3)))

    @pytest.mark.parametrize("copies", [2.5, math.nan, math.inf, -math.inf, 0.0])
    def test_copy_count_must_be_a_finite_integer(self, copies):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
            with pytest.raises(ParameterDomainError):
                bound(pair, copies)

    def test_numpy_and_integral_float_copy_counts_pass(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        for copies in (np.int64(2), np.uint8(2), 2.0):
            for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
                got = bound(pair, copies)
                assert got.copies == 2 and type(got.copies) is int


def _deficit_free(pair):
    """The same two operators with both trace deficits set to 0: the dense path's input."""
    rho0 = DensityOperator(pair.rho0.diagonal_or_none(), pair.dims)
    return rho0, FockKet(pair.rho1.ket.amplitudes, pair.dims).projector()


def _deficit_bar(pair, copies):
    """(1/4)(eps0 + eps1) + 1e-15 for the M-copy deficits eps = 1 - (1 - eps_1copy)**M."""
    eps = [-math.expm1(copies * math.log1p(-rho.trace_deficit)) for rho in (pair.rho0, pair.rho1)]
    return 0.25 * sum(eps) + 1e-15


class TestRankOneSecular:
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("make_pair", [
        lambda: target_pair_single_mode(coherent_ket(0.05), NoiseSpec(n_b=0.1)),
        lambda: target_pair_single_mode(coherent_ket(0.05), NoiseSpec(n_b=0.3)),
        lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.1)),
        lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75)),
        lambda: target_pair_single_mode(coherent_ket(2.0), NoiseSpec(n_b=0.1)),
        lambda: target_pair_single_mode(coherent_ket(2.0), NoiseSpec(n_b=0.3)),
        lambda: target_pair_single_mode(coherent_ket(1e-4), NoiseSpec(n_b=1e-3)),
        lambda: target_pair_bipartite(noon_ket(1), NoiseSpec(n_b=0.1), compress_idler=True),
        lambda: target_pair_bipartite(noon_ket(3), NoiseSpec(n_b=0.1), compress_idler=True),
    ])
    def test_matches_dense_within_the_deficit_bar(self, make_pair, copies):
        pair = make_pair()
        assert math.prod(pair.dims) ** copies <= DENSE_DIM_LIMIT
        got = helstrom_error(pair, copies)
        dense = helstrom_error(_deficit_free(pair), copies)
        assert (got.diagnostics["path"], dense.diagnostics["path"]) == (
            "rank_one_secular", "dense_tensor_power")
        assert abs(got.value - dense.value) <= _deficit_bar(pair, copies)

    def test_newton_steps_stay_few_near_identical_states(self):
        # delta = 1 - mu -> 1: the fixed-point form needs over a hundred steps here
        pair = target_pair_single_mode(coherent_ket(1e-4), NoiseSpec(n_b=1e-3))
        for copies in (1, 2, 3):
            got = helstrom_error(pair, copies)
            assert got.value > 0.49
            assert 1 <= got.diagnostics["iterations"] <= 9

    def test_scope_rule(self):
        # a deficit-free ket with two or more amplitudes keeps the dense path and its digits
        for free in (depolarizing_pair(maximally_entangled_qudit(3), bipartite=True),
                     depolarizing_pair(werner_state(3, 1.0), bipartite=True)):
            assert free.rho1.ket is not None
            assert helstrom_error(free).diagnostics["path"] == "dense_tensor_power"
        # one amplitude takes the rank-one path without any deficit
        pure = depolarizing_pair(number_ket(0, cutoff=2))
        assert pure.rho0.trace_deficit == pure.rho1.trace_deficit == 0.0
        assert helstrom_error(pure).diagnostics["path"] == "rank_one_secular"
        truncated = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=1.0))
        got = helstrom_error(truncated)
        assert got.diagnostics["path"] == "rank_one_secular"
        assert got.diagnostics["trace_deficits"] == (truncated.rho0.trace_deficit,
                                                    truncated.rho1.trace_deficit)
        # the ket may sit on either side
        swapped = helstrom_error((truncated.rho1, truncated.rho0))
        assert swapped.diagnostics["path"] == "rank_one_secular"
        assert swapped.value == got.value

    def test_bright_coherent_matches_the_qcb_without_a_dense_matrix(self):
        pair = target_pair_single_mode(coherent_ket(1000.0), NoiseSpec(n_b=1.0))
        assert pair.dims == (1231,)
        with _peak_allocation_below(1 << 20):      # one dim-1231 matrix takes 24 MB
            got = helstrom_error(pair, 1)
        assert got.diagnostics["path"] == "rank_one_secular"
        want = coherent_qcb(1000.0, 1.0, 1)
        assert abs(got.value - want) <= 1e-9 * want
        assert got.diagnostics["log_value"] == pytest.approx(math.log(want), rel=1e-12, abs=0)

    def test_underflowed_value_keeps_the_qcb_log(self):
        overlap = Overlap(target_pair_single_mode(coherent_ket(1000.0), NoiseSpec(n_b=1.0)))
        got, qcb = helstrom_error(overlap, 2), chernoff_bound(overlap, 2)
        assert got.value == 0.0
        assert math.isfinite(got.diagnostics["log_value"])
        assert abs(got.diagnostics["log_value"] - qcb.diagnostics["log_value"]) <= 1e-9

    def test_basis_state_keeps_the_chernoff_float_at_any_copy_count(self):
        # one amplitude: the root is q(1)**M, and a Newton step within the
        # rounding of the M-fold product is not taken
        for n, noise in ((0, NoiseSpec(n_b=1.0)), (2, NoiseSpec(n_b=0.5)),
                         (3, NoiseSpec(beta=0.05))):
            overlap = Overlap(target_pair_single_mode(number_ket(n), noise))
            for m in (1, 2, 3, 10, 100, 500):
                got, qcb = helstrom_error(overlap, m), chernoff_bound(overlap, m)
                assert got.diagnostics["iterations"] == 0
                assert got.value == qcb.value
                assert got.diagnostics["log_value"] == pytest.approx(
                    qcb.diagnostics["log_value"], rel=1e-14, abs=0)

    def test_squeezed_pair_past_the_dense_guard(self):
        pair = _spdc_pair()
        overlap = Overlap(pair)
        for copies, support in ((1, 69), (2, 69**2)):
            got = helstrom_error(pair, copies)
            assert got.diagnostics["support_size"] == support
            assert (bhattacharyya_lower(overlap, copies).value <= got.value
                    <= chernoff_bound(overlap, copies).value)

    def test_orthogonal_ket_gives_zero(self):
        rho0 = DensityOperator(np.array([0.5, 0.5, 0.0, 0.0]), (4,), trace_deficit=1e-3)
        ket = FockKet(np.array([0.0, 0.0, 0.6, 0.8]), (4,)).projector()
        got = helstrom_error((rho0, ket), 2)
        assert got.diagnostics["path"] == "rank_one_secular"
        assert (got.value, got.diagnostics["log_value"]) == (0.0, -math.inf)


class TestQs:
    def test_identical_states(self):
        rho = maximally_mixed(4)
        qs = Overlap((rho, rho)).evaluate([0.0, 0.3, 1.0])
        np.testing.assert_allclose(qs, 1.0, rtol=0.0, atol=1e-14)

    def test_orthogonal_pure_states(self):
        a = number_ket(0, cutoff=1).projector()
        b = number_ket(1, cutoff=1).projector()
        assert Overlap((a, b)).evaluate([0.5])[0] == pytest.approx(0.0, abs=1e-14)

    def test_pure_rho1_at_s_one_is_quadratic_form(self):
        noise = NoiseSpec(n_b=1.0)
        pair = target_pair_single_mode(coherent_ket(0.7), noise)
        psi = pair.rho1.ket.amplitudes
        psi = psi / np.linalg.norm(psi)
        rho0 = pair.rho0.to_dense()
        expected = float(np.real(psi.conj() @ rho0 @ psi))
        assert Overlap(pair).evaluate([1.0])[0] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_invalid_s_rejected(self):
        rho = maximally_mixed(2)
        with pytest.raises(ParameterDomainError):
            Overlap((rho, rho)).evaluate([1.2])


class TestChernoff:
    def test_pure_rho1_minimizer_sits_at_one(self):
        noise = NoiseSpec(n_b=1.0)
        pair = target_pair_single_mode(coherent_ket(0.5), noise)
        got = chernoff_bound(pair, 3)
        assert got.s_star == pytest.approx(1.0, abs=1e-9)
        expected = 0.5 * Overlap(pair).evaluate([1.0])[0] ** 3
        assert got.value == pytest.approx(expected, rel=1e-12, abs=0)

    def test_noon_value(self):
        pair = target_pair_bipartite(noon_ket(1), NoiseSpec(beta=math.log(2.0)),
                                     compress_idler=True)
        got = chernoff_bound(pair, 1)
        assert got.value == pytest.approx(0.078125, rel=1e-12, abs=0)
        assert got.s_star == pytest.approx(1.0, abs=1e-9)

    def test_number_pair_matches_exact_every_m(self):
        noise = NoiseSpec(n_b=0.5)
        pair = target_pair_single_mode(number_ket(2), noise)
        for m in (1, 2, 5, 20):
            assert chernoff_bound(pair, m).value == pytest.approx(
                helstrom_error(pair, m).value, rel=1e-12, abs=0
            )

    def test_identical_states_tie_breaks_to_smallest_s(self):
        # identical pure projectors give exactly q(s) = 1 on the whole grid
        proj = number_ket(0, cutoff=1).projector()
        got = chernoff_bound((proj, proj), 1)
        assert got.s_star == 0.0
        assert got.value == pytest.approx(0.5, abs=1e-14)

    def test_identical_mixed_states_value(self):
        rho = maximally_mixed(3)
        got = chernoff_bound((rho, rho), 1)
        assert got.value == pytest.approx(0.5, abs=1e-14)

    def test_log_linearity_in_copies(self):
        rng = np.random.default_rng(5)
        pair = (_random_density(rng, 4), _random_density(rng, 4))
        c1 = chernoff_bound(pair, 1)
        for m in (2, 3, 10, 100):
            cm = chernoff_bound(pair, m)
            assert math.log(2.0 * cm.value) == pytest.approx(
                m * math.log(2.0 * c1.value), abs=1e-12
            )
            assert cm.s_star == c1.s_star

    def test_diagnostics_recorded(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        got = chernoff_bound(pair)
        # no grid is evaluated; grid_size stays, as 0, for the benchmark tracer
        assert got.diagnostics["grid_size"] == 0
        assert "bracket_width" not in got.diagnostics
        assert got.cutoffs == (1,)


def _newton_pairs():
    """(name, pair) for the random pairs of the default ``validate`` sweep and Werner d = 2..8."""
    config = validation.default_config()
    rng = np.random.default_rng(config["seed"])
    pairs = [(f"random {i}", (validation._random_density(rng, config["random_dim"]),
                              validation._random_density(rng, config["random_dim"])))
             for i in range(config["random_pairs"])]
    pairs += [(f"werner d={d} x={x}", depolarizing_pair(werner_state(d, x), bipartite=True))
              for d in range(2, 9) for x in (0.25, 0.5, 0.9)]
    return pairs


class TestNewtonMinimum:
    # on these pairs the median is 4 steps and the most is 9 (Werner d = 8, x = 0.5)
    MAX_STEPS = 10

    def test_steps_are_bounded_and_q_min_is_the_dense_grid_minimum(self, caplog):
        # q is convex, so its minimum is at most the least of any grid; Newton's
        # q(s*) may sit above that least value by rounding only (2 ulps allowed)
        ss = np.linspace(0.0, 1.0, 2001)
        with caplog.at_level(logging.WARNING, logger="targetdetect.oracle"):
            for name, pair in _newton_pairs():
                overlap = Overlap(pair)
                s_star, q_min, how = overlap.minimum()
                assert how["s_rule"] == "newton", name
                assert 1 <= how["refine_iterations"] <= self.MAX_STEPS, (name, how)
                assert 0.0 < s_star < 1.0
                grid_q = float(overlap.evaluate(ss).min())
                assert q_min <= grid_q + 2 * math.ulp(grid_q), (name, q_min.hex(), grid_q.hex())
        assert not caplog.records

    def test_the_step_cap_logs_a_warning(self, monkeypatch, caplog):
        assert CHERNOFF_MAX_ITER == 50
        monkeypatch.setattr(oracle, "CHERNOFF_MAX_ITER", 1)
        pair = _newton_pairs()[0][1]
        with caplog.at_level(logging.WARNING, logger="targetdetect.oracle"):
            got = chernoff_bound(pair)
        assert got.diagnostics["refine_iterations"] == 1
        assert "1-step cap" in caplog.text


def _validate_scenario_pairs():
    """(name, pair) for every scenario pair of the default ``validate`` sweep."""
    config = validation.default_config()
    pairs = []
    for d in config["d"]:
        pairs.append((f"pure d={d}", depolarizing_pair(number_ket(0, cutoff=d - 1))))
        pairs.append((f"entangled d={d}",
                      depolarizing_pair(maximally_entangled_qudit(d), bipartite=True)))
        pairs += [(f"werner d={d} x={x:g}", depolarizing_pair(werner_state(d, x), bipartite=True))
                  for x in list(config["x"]) + [d / (d + 1.0)]]
    noises = ([NoiseSpec(beta=b) for b in config["beta"]]
              + [NoiseSpec(n_b=n_b) for n_b in config["n_b"]])
    for noise in noises:
        pairs += [(f"number n={n} beta={noise.beta:g}",
                   target_pair_single_mode(number_ket(n), noise)) for n in config["n"]]
        pairs += [(f"noon n={n} beta={noise.beta:g}",
                   target_pair_bipartite(noon_ket(n), noise, compress_idler=True))
                  for n in config["noon_n"]]
    for n_b, n_s in itertools.product(config["n_b"], config["n_s"]):
        noise = NoiseSpec(n_b=n_b)
        pairs.append((f"coherent n_s={n_s:g} n_b={n_b:g}",
                      target_pair_single_mode(coherent_ket(n_s), noise)))
        pairs.append((f"spdc n_s={n_s:g} n_b={n_b:g}",
                      target_pair_bipartite(spdc_ket(n_s), noise)))
    return pairs


def _large_pairs():
    """The six large pairs the benchmark's ``oracle_points`` workload runs."""
    cold = NoiseSpec(beta=0.05)
    return [
        ("spdc n_s=2 n_b=30", _spdc_pair()),
        ("coherent n_s=1000 n_b=1",
         target_pair_single_mode(coherent_ket(1000.0), NoiseSpec(n_b=1.0))),
        ("coherent n_s=100 n_b=1", target_pair_single_mode(coherent_ket(100.0), NoiseSpec(n_b=1.0))),
        ("noon n=20 beta=0.05", target_pair_bipartite(noon_ket(20), cold, compress_idler=True)),
        ("number n=100 beta=0.05", target_pair_single_mode(number_ket(100), cold)),
        ("werner d=8 x=0.5", depolarizing_pair(werner_state(8, 0.5), bipartite=True)),
    ]


class TestEndpointSlope:
    def test_minimum_agrees_with_a_dense_grid(self):
        # the reference is q on a 2001-point grid, endpoints included.  q(s*)
        # from the slope pass (a dot product) and from evaluate (a matrix
        # product) round the same r-term sum in different orders; each lands up
        # to 2 ulps from the correctly rounded sum, so they may differ by a few
        # ulps.  An endpoint s* must be where the grid is least.  Only the mixed
        # Werner pairs (0 < x < 1) need Newton.  At x = 0 both states are
        # maximally mixed, q is flat and the grid's argmin is rounding noise, so
        # there only the minimum is compared.
        ss = np.linspace(0.0, 1.0, 2001)
        for name, pair in _validate_scenario_pairs() + _large_pairs():
            overlap = Overlap(pair)
            s_star, q_min, how = overlap.minimum()
            qs = overlap.evaluate(ss)
            grid_q = float(qs.min())
            at_s_star = float(overlap.evaluate([s_star])[0])
            assert abs(q_min - at_s_star) <= 4 * math.ulp(at_s_star), (name, q_min.hex())
            assert q_min <= grid_q + 4 * math.ulp(grid_q), (name, q_min.hex(), grid_q.hex())
            flat = name.startswith("werner") and name.endswith("x=0")
            mixed_werner = name.startswith("werner") and not name.endswith(("x=0", "x=1"))
            assert how["s_rule"] == ("newton" if mixed_werner else "endpoint_slope"), name
            if flat:
                assert s_star == 0.0, name
            elif mixed_werner:
                assert abs(s_star - ss[np.argmin(qs)]) <= ss[1], name
            else:
                assert s_star == ss[np.argmin(qs)], name

    def test_random_full_rank_pairs_take_newton(self):
        # the random pairs of the default validate sweep: q(0) = q(1) = 1, so
        # q'(0) < 0 < q'(1) and no endpoint decides
        config = validation.default_config()
        rng = np.random.default_rng(config["seed"])
        for _ in range(config["random_pairs"]):
            pair = (validation._random_density(rng, config["random_dim"]),
                    validation._random_density(rng, config["random_dim"]))
            got = chernoff_bound(pair)
            assert got.diagnostics["s_rule"] == "newton"
            assert got.diagnostics["slope"] is None
            assert 0.0 < got.s_star < 1.0

    def test_slope_path_diagnostics(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        got = chernoff_bound(pair, 2)
        diag = got.diagnostics
        assert (got.s_star, diag["s_rule"]) == (1.0, "endpoint_slope")
        assert (diag["refine_iterations"], diag["grid_size"]) == (0, 0)
        assert "bracket_width" not in diag
        assert diag["slope"] < 0.0
        assert got.value == 0.5 * diag["q_min"] ** 2

    def test_a_ket_as_rho0_puts_s_star_at_zero(self):
        # swapping the states maps q(s) to q(1 - s): q'(0) > 0 decides
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        straight = chernoff_bound(pair)
        swapped = chernoff_bound((pair.rho1, pair.rho0))
        assert (swapped.s_star, swapped.diagnostics["s_rule"]) == (0.0, "endpoint_slope")
        assert swapped.diagnostics["slope"] == -straight.diagnostics["slope"]
        assert swapped.value == straight.value

    def test_identical_states_settle_at_zero(self):
        # both slopes are exactly 0, so the convex q is constant: s* = 0 with
        # q(0), not a grid point picked by rounding noise
        for rho in (number_ket(0, cutoff=1).projector(), maximally_mixed(3)):
            got = chernoff_bound((rho, rho), 3)
            diag = got.diagnostics
            assert (got.s_star, diag["s_rule"], diag["slope"]) == (0.0, "endpoint_slope", 0.0)
            assert diag["q_min"] == Overlap((rho, rho)).evaluate([0.0])[0]
            assert diag["q_min"] == pytest.approx(1.0, abs=1e-15)
            assert got.value == 0.5 * diag["q_min"] ** 3

    def test_decision_is_made_once_and_logged_at_debug(self, caplog):
        overlap = Overlap(target_pair_single_mode(number_ket(2), NoiseSpec(n_b=0.5)))
        with caplog.at_level(logging.DEBUG, logger="targetdetect.oracle"):
            for m in (1, 2, 1, 3):
                chernoff_bound(overlap, m)
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith("s* = 1 by the endpoint slope -")


class TestFuchsVanDeGraaf:
    def test_exact_error_obeys_the_fidelity_bound(self):
        # for a pure rho1 the fidelity is F = <psi|rho0|psi> = q(1), and
        # P_M >= (1/2)(1 - sqrt(1 - F**M)) must hold on every Helstrom path.
        # At n_b = 0 rho0 is the vacuum, the pair is pure against pure and the
        # bound is an equality, which rank_one_secular reads up to about 2e-16
        # below in relative terms (the Newton root and the float q(1)**M round
        # differently); a relative slack of 1e-14 allows that rounding only.
        vacuum = NoiseSpec(n_b=0.0)
        pairs = _validate_scenario_pairs()
        pairs += [(f"number n={n} n_b=0", target_pair_single_mode(number_ket(n), vacuum))
                  for n in (0, 1, 2)]
        pairs += [(f"noon n={n} n_b=0",
                   target_pair_bipartite(noon_ket(n), vacuum, compress_idler=True))
                  for n in (1, 2)]
        for n_s in (0.1, 0.5, 1.0, 2.0):
            pairs.append((f"coherent n_s={n_s:g} n_b=0",
                          target_pair_single_mode(coherent_ket(n_s), vacuum)))
            pairs.append((f"spdc n_s={n_s:g} n_b=0",
                          target_pair_bipartite(spdc_ket(n_s), vacuum)))
        paths = set()
        for name, pair in pairs:
            if pair.rho1.ket is None:
                continue
            fidelity = float(Overlap(pair).evaluate([1.0])[0])
            dense = name.startswith(("entangled", "werner"))
            for m in (1, 2, 3):
                if dense and pair.rho0.dim**m > 729:
                    continue        # eigvalsh at dim 4096 takes ~17 s; 25**3 trips the guard
                got = helstrom_error(pair, m)
                inner = fidelity**m
                bound = 0.5 if inner >= 1.0 else -0.5 * math.expm1(0.5 * math.log1p(-inner))
                assert got.value >= bound * (1.0 - 1e-14), (name, m, got.value, bound)
                paths.add(got.diagnostics["path"])
        assert paths == {"rank_one_secular", "dense_tensor_power"}


class TestBhattacharyyaLower:
    def test_identical_states_give_half(self):
        proj = number_ket(0, cutoff=1).projector()
        assert bhattacharyya_lower((proj, proj), 1).value == pytest.approx(0.5, abs=1e-14)
        # mixed states: the sqrt is infinitely steep at overlap 1, so epsilon-level
        # overlap noise shows up at the sqrt(eps) scale, always on the safe side
        rho = maximally_mixed(3)
        got = bhattacharyya_lower((rho, rho), 1).value
        assert got == pytest.approx(0.5, abs=5e-8)
        assert got <= 0.5

    def test_noon_frozen_value(self):
        pair = target_pair_bipartite(noon_ket(1), NoiseSpec(n_b=1.0), compress_idler=True)
        got = bhattacharyya_lower(pair, 1)
        assert got.diagnostics["root_overlap"] == pytest.approx(0.375, rel=1e-13, abs=0)
        assert got.value == pytest.approx(0.036487594556521064, rel=1e-12, abs=0)

    def test_sandwich_on_constructed_pairs(self):
        noise = NoiseSpec(n_b=0.75)
        cases = [
            (target_pair_single_mode(coherent_ket(0.5), noise), (1,)),
            (target_pair_bipartite(noon_ket(1), noise, compress_idler=True), (1,)),
            (depolarizing_pair(number_ket(0, cutoff=2)), (1, 2)),
        ]
        for pair, copy_counts in cases:
            for m in copy_counts:
                lb = bhattacharyya_lower(pair, m).value
                ex = helstrom_error(pair, m).value
                ub = chernoff_bound(pair, m).value
                assert lb <= ex + 1e-10
                assert ex <= ub + 1e-10


_SANDWICH_PAIRS = (
    [(f"coherent n_s={n_s:g} n_b={n_b:g}",
      lambda n_s=n_s, n_b=n_b: target_pair_single_mode(coherent_ket(n_s), NoiseSpec(n_b=n_b)))
     for n_s, n_b in itertools.product((0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0),
                                       (0.01, 0.1, 1.0, 3.0, 10.0))]
    + [(f"spdc n_s={n_s:g} n_b={n_b:g}",
        lambda n_s=n_s, n_b=n_b: target_pair_bipartite(spdc_ket(n_s), NoiseSpec(n_b=n_b)))
       for n_s, n_b in itertools.product((0.01, 0.1, 0.5, 1.0, 2.0), (0.01, 0.1, 1.0, 3.0))]
    + [(f"noon n={n} beta={beta:g}",
        lambda n=n, beta=beta: target_pair_bipartite(noon_ket(n), NoiseSpec(beta=beta),
                                                     compress_idler=True))
       for n, beta in itertools.product((1, 2, 5, 10, 20), (0.05, 0.5))]
    # at M = 2 a Newton start at the expanded sum (w x w) . (d x d) rounds 1 ulp
    # above q(1)**2 here
    + [("coherent n_s=150 n_b=0.5",
        lambda: target_pair_single_mode(coherent_ket(150.0), NoiseSpec(n_b=0.5)))]
)


@pytest.mark.parametrize("make_pair", [make for _, make in _SANDWICH_PAIRS],
                         ids=[name for name, _ in _SANDWICH_PAIRS])
def test_sandwich_holds_exactly_on_ket_pairs(make_pair):
    # no tolerance: where s* = 1 the exact value and the QCB both start from the
    # same float q(1)**M, and Newton only lowers the exact one
    pair = make_pair()
    overlap = Overlap(pair)
    for m in (1, 2):
        lb = bhattacharyya_lower(overlap, m).value
        exact = helstrom_error(pair, m).value
        qcb = chernoff_bound(overlap, m).value
        assert lb <= exact <= qcb, (m, lb.hex(), exact.hex(), qcb.hex())


class TestPurePure:
    def test_endpoints(self):
        assert _pure_pure_error(0.0, 1) == 0.0
        assert _pure_pure_error(1.0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_formula(self):
        for ov, m in ((0.3, 1), (0.5, 2), (0.9, 7)):
            expected = 0.5 * (1.0 - math.sqrt(1.0 - ov**m))
            assert _pure_pure_error(ov, m) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_coherent_vs_vacuum_matches_oracle(self):
        # weak-noise scenario: both hypotheses pure
        n_s = 0.6
        pair = target_pair_single_mode(coherent_ket(n_s), NoiseSpec(n_b=0.0))
        for m in (1, 2):
            assert helstrom_error(pair, m).value == pytest.approx(
                _pure_pure_error(math.exp(-n_s), m), rel=1e-9, abs=0
            )


class TestOracleVsClosedFormSpot:
    """Spot checks frozen from independent truncated-sum evaluations."""

    def test_coherent_bounds(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        assert chernoff_bound(pair, 1).value == pytest.approx(
            0.21470779802151027, rel=1e-10, abs=0)
        assert bhattacharyya_lower(pair, 1).value == pytest.approx(
            0.11417530229439837, rel=1e-10, abs=0)

    def test_spdc_bounds(self):
        pair = target_pair_bipartite(spdc_ket(0.5), NoiseSpec(n_b=0.75))
        assert chernoff_bound(pair, 1).value == pytest.approx(
            0.13333333333333333, rel=1e-10, abs=0)
        assert bhattacharyya_lower(pair, 1).value == pytest.approx(
            0.058877215248492265, rel=1e-10, abs=0)

    def test_spdc_high_signal(self):
        pair = target_pair_bipartite(spdc_ket(30.0), NoiseSpec(n_b=2.0))
        assert chernoff_bound(pair, 1).value == pytest.approx(0.5 / 1083.0, rel=1e-10, abs=0)
        assert bhattacharyya_lower(pair, 1).value == pytest.approx(
            5.640959083985653e-05, rel=1e-10, abs=0
        )


def _spdc_pair():
    return target_pair_bipartite(spdc_ket(2.0), NoiseSpec(n_b=30.0))


def _reference_q(rho0, rho1, s):
    """q(s) one s at a time, with the uncompressed eigenvector overlap weights."""
    vals0, vecs0 = spectral_decomposition(rho0)
    vals1, vecs1 = spectral_decomposition(rho1)
    a = np.where(vals0 > 0.0, vals0**s, 0.0)              # s = 0 is the limit s -> 0+
    b = np.where(vals1 > 0.0, vals1 ** (1.0 - s), 0.0)
    if vecs0 is None and vecs1 is None:
        return float(a @ b)
    if vecs0 is None:
        weights = np.abs(vecs1) ** 2
    elif vecs1 is None:
        weights = (np.abs(vecs0) ** 2).T
    else:
        weights = np.abs(vecs0.conj().T @ vecs1) ** 2
    return float(a @ weights @ b)


class TestOverlapKernel:
    @pytest.mark.parametrize("make_pair", [
        _spdc_pair,
        lambda: target_pair_single_mode(number_ket(3), NoiseSpec(n_b=0.5)),
        lambda: (_random_density(np.random.default_rng(1), 4),
                 _random_density(np.random.default_rng(2), 4)),
        lambda: (_random_density(np.random.default_rng(3), 4),
                 _random_density(np.random.default_rng(4), 4)),
    ])
    def test_grid_matches_per_s_reference(self, make_pair):
        pair = make_pair()
        rho0, rho1 = (pair.rho0, pair.rho1) if hasattr(pair, "rho0") else pair
        ss = np.linspace(0.0, 1.0, 201)
        overlap = Overlap(pair)
        want = np.array([_reference_q(rho0, rho1, s) for s in ss])
        assert np.all(want > 0.0)
        np.testing.assert_allclose(overlap.evaluate(ss), want, rtol=1e-13, atol=0.0)
        # the scalar path that bhattacharyya_lower reads at s = 1/2
        np.testing.assert_allclose([overlap._at(s) for s in ss], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("make_pair", [
        lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75)),
        lambda: target_pair_bipartite(noon_ket(2), NoiseSpec(beta=0.5), compress_idler=True),
        lambda: (_random_density(np.random.default_rng(5), 4),
                 _random_density(np.random.default_rng(6), 4)),
    ])
    def test_shared_overlap_matches_fresh_calls(self, make_pair):
        pair = make_pair()
        overlap = Overlap(pair)
        for m in (1, 2, 3, 8):
            for bound in (chernoff_bound, bhattacharyya_lower):
                shared, fresh = bound(overlap, m), bound(pair, m)
                assert (shared.value, shared.s_star, shared.diagnostics) == (
                    fresh.value, fresh.s_star, fresh.diagnostics)
                assert shared.cutoffs == fresh.cutoffs

    @pytest.mark.parametrize("make_pair", [
        lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75)),
        lambda: (lambda p: (p.rho1, p.rho0))(
            target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))),
        lambda: target_pair_single_mode(number_ket(2), NoiseSpec(n_b=0.5)),
        lambda: depolarizing_pair(maximally_entangled_qudit(2), bipartite=True),
        lambda: (_random_density(np.random.default_rng(5), 4),
                 _random_density(np.random.default_rng(6), 4)),
    ])
    def test_helstrom_reads_a_shared_overlap(self, make_pair, monkeypatch):
        pair = make_pair()
        overlap = Overlap(pair)
        builds = []
        spectra = oracle._spectra
        monkeypatch.setattr(oracle, "_spectra", lambda *a: builds.append(a) or spectra(*a))
        for m in (1, 2):
            shared = helstrom_error(overlap, m)
            assert builds == []
            fresh = helstrom_error(pair, m)
            assert (shared.value, shared.diagnostics) == (fresh.value, fresh.diagnostics)
            assert shared.cutoffs == fresh.cutoffs
            # a fresh call builds one Overlap on the rank-one path and none elsewhere
            rank_one = fresh.diagnostics["path"] == "rank_one_secular"
            assert len(builds) == rank_one
            builds.clear()

    def test_spdc_weights_keep_only_the_support(self):
        pair = _spdc_pair()
        assert pair.rho0.dim == 58167
        overlap = Overlap(pair)
        assert overlap.weights.shape == (69, 1)
        assert overlap.vals0.shape == (69,) and overlap.vals1.shape == (1,)
        # a (grid x 58167) array would take 93 MB; the compressed grid stays tiny
        ss = np.linspace(0.0, 1.0, 201)
        with _peak_allocation_below(1 << 20):
            qs = overlap.evaluate(ss)
        assert qs.shape == ss.shape == (201,)

    def test_ket_pair_build_reads_only_the_support(self):
        pair = _spdc_pair()
        # one float per basis state would take dim * 8 bytes
        with _peak_allocation_below(pair.rho0.dim * 8):
            Overlap(pair)

    @pytest.mark.parametrize("make_pair", [
        _spdc_pair,
        lambda: target_pair_single_mode(coherent_ket(30.0), NoiseSpec(n_b=0.5)),
        lambda: target_pair_single_mode(number_ket(3), NoiseSpec(n_b=0.5)),
        lambda: target_pair_bipartite(noon_ket(2), NoiseSpec(beta=0.5), compress_idler=True),
        # an amplitude whose square underflows drops out like a zero one
        lambda: (DensityOperator(np.array([0.5, 0.25, 0.25]), (3,)),
                 FockKet(np.array([0.6, 1e-170, 0.8]), (3,)).projector()),
        lambda: (DensityOperator(np.array([0.5, 0.5, 0.0]), (3,)),
                 FockKet(np.zeros(3), (3,)).projector()),
    ])
    def test_ket_pair_build_matches_the_full_scan(self, make_pair):
        pair = make_pair()
        rho0, rho1 = (pair.rho0, pair.rho1) if hasattr(pair, "rho0") else pair
        # the full-dimension build: every eigenpair, then the compression
        vals0, _ = spectral_decomposition(rho0)
        vals1, vecs1 = spectral_decomposition(rho1)
        weights = np.abs(vecs1) ** 2
        rows = (vals0 > 0.0) & weights.any(axis=1)
        cols = (vals1 > 0.0) & weights.any(axis=0)
        for overlap, flip in ((Overlap((rho0, rho1)), False), (Overlap((rho1, rho0)), True)):
            got = (overlap.vals1, overlap.vals0, overlap.weights.T) if flip else (
                overlap.vals0, overlap.vals1, overlap.weights)
            np.testing.assert_array_equal(got[0], vals0[rows])
            np.testing.assert_array_equal(got[1], vals1[cols])
            np.testing.assert_array_equal(got[2], weights[np.ix_(rows, cols)])

    def test_psd_check_covers_the_whole_diagonal(self):
        # the negative entry lies off the ket's support and still raises
        rho0 = DensityOperator(np.array([0.6, 0.5, -0.1]), (3,))
        ket = FockKet(np.array([0.6, 0.8, 0.0]), (3,)).projector()
        for pair in ((rho0, ket), (ket, rho0)):
            with pytest.raises(InvalidStateError):
                Overlap(pair)

    def test_compression_is_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="targetdetect.oracle"):
            Overlap(_spdc_pair())
        assert [r.getMessage() for r in caplog.records] == ["support 69/58167 x 1/1"]

    def test_overlap_carries_the_pair(self):
        pair = _spdc_pair()
        overlap = Overlap(pair)
        assert (overlap.rho0, overlap.rho1, overlap.cutoffs) == (pair.rho0, pair.rho1,
                                                                 pair.cutoffs)
        with pytest.raises(ParameterDomainError):
            overlap.evaluate(np.array([0.5, 1.5]))


class TestSupportLimit:
    def test_s_zero_is_the_right_limit(self):
        pair = target_pair_single_mode(coherent_ket(60.0), NoiseSpec(n_b=1.0))
        q0, q_tiny = Overlap(pair).evaluate([0.0, 1e-12])
        assert abs(q0 - q_tiny) < 1e-9

    def test_bright_coherent_qcb_matches_closed_form(self):
        pair = target_pair_single_mode(coherent_ket(1000.0), NoiseSpec(n_b=1.0))
        got = chernoff_bound(pair, 1).value
        want = coherent_qcb(1000.0, 1.0, 1)
        assert abs(got - want) <= 1e-6 * want


def _swap_cases():
    """Every scenario pair of the swap check, each as a pytest.param labelled by its inputs."""
    noises = [NoiseSpec(beta=0.05), NoiseSpec(beta=0.5), NoiseSpec(n_b=0.1), NoiseSpec(n_b=1.0),
              NoiseSpec(n_b=2.0)]
    cases = [pytest.param(validation.thermal_case(scenario, noise, n=2, n_s=0.5)[0],
                          id=f"{scenario} n_b={noise.n_b:g}")
             for scenario in ("number", "noon", "coherent", "spdc") for noise in noises]
    # Werner x = 0 is left out: its two states are equal, so every s is a minimiser
    inputs = [("pure", None), ("max_entangled", None), ("werner", 0.25), ("werner", 0.9),
              ("werner", 1.0)]
    cases += [pytest.param(validation.depolarizing_case(d, kind, x)[0], id=f"{kind} d={d} x={x}")
              for d in (2, 3) for kind, x in inputs]
    thermals = [thermal_state(NoiseSpec(n_b=n_b), cutoff=20) for n_b in (0.5, 2.0)]
    return cases + [pytest.param(HypothesisPair(*thermals), id="two thermal states")]


class TestSwapSymmetry:
    """Swapping rho0 and rho1 maps q(s) to q(1 - s) and keeps every bound."""

    @pytest.mark.parametrize("pair", _swap_cases())
    def test_swapped_pair_gives_the_same_bounds(self, pair):
        straight, swapped = Overlap(pair), Overlap((pair.rho1, pair.rho0))
        for m in (1, 2, 3):
            exact, exact_swapped = helstrom_error(straight, m), helstrom_error(swapped, m)
            if exact.diagnostics["path"] == "dense_tensor_power":
                # eigvalsh rounds the spectra of rho0 - rho1 and rho1 - rho0 apart (by up
                # to 1 ulp of 1/2 on these pairs; 2 are allowed)
                assert exact_swapped.value == pytest.approx(exact.value, rel=0, abs=2.3e-16)
            else:
                assert exact_swapped.value == exact.value
            qcb, qcb_swapped = chernoff_bound(straight, m), chernoff_bound(swapped, m)
            if qcb.diagnostics["s_rule"] == "newton":
                # both searches stop where q' is within its rounding floor, and q is
                # flat to rounding there; s* lands on the same root within 2 ulps of 1
                assert qcb_swapped.value == pytest.approx(qcb.value, rel=1e-15, abs=0)
                assert abs(qcb_swapped.s_star + qcb.s_star - 1.0) <= 2 * math.ulp(1.0)
            else:
                assert (qcb_swapped.value, qcb_swapped.s_star) == (qcb.value, 1.0 - qcb.s_star)
            assert bhattacharyya_lower(swapped, m).value == pytest.approx(
                bhattacharyya_lower(straight, m).value, rel=1e-14, abs=0)
