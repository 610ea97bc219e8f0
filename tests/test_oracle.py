"""Brute-force error probabilities and bounds."""

import contextlib
import dataclasses
import functools
import gc
import itertools
import logging
import math
import tracemalloc
import weakref
from types import MappingProxyType

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
from targetdetect.channels import _thermal_grid
from targetdetect.closed_forms import coherent_qcb
from targetdetect.fock import DENSE_DIM_LIMIT, _check_copies, partial_trace, spectral_decomposition
from targetdetect.oracle import CHERNOFF_MAX_ITER, BoundResult, Overlap


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


def _random_pairs(rng, count, dim):
    """The pairs of validate's _random_chunks, one at a time."""
    return itertools.chain.from_iterable(validation._random_chunks(rng, count, dim))


class TestHelstrom:
    def test_identical_states_give_half(self):
        rho = maximally_mixed(3)
        assert helstrom_error(HypothesisPair(rho, rho)).value == pytest.approx(0.5, abs=1e-14)

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
        fast = helstrom_error(HypothesisPair(rho0, rho1), 2)
        assert fast.diagnostics["path"] == "rank_one_secular"
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rot0 = DensityOperator(u @ rho0.to_dense() @ u.conj().T, (3,))
        rot1 = DensityOperator(u @ rho1.to_dense() @ u.conj().T, (3,))
        dense = helstrom_error(HypothesisPair(rot0, rot1), 2)
        assert dense.diagnostics["path"] == "dense_tensor_power"
        assert dense.value == pytest.approx(fast.value, rel=1e-12, abs=0)

    def test_diagonal_product_path(self):
        rho0 = DensityOperator(np.array([0.6, 0.3, 0.1]), (3,))
        rho1 = DensityOperator(np.array([0.2, 0.3, 0.5]), (3,))
        got = helstrom_error(HypothesisPair(rho0, rho1), 2)
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
         lambda: HypothesisPair(DensityOperator(np.array([0.6, 0.3, 0.1]), (3,)),
                                DensityOperator(np.array([0.2, 0.3, 0.5]), (3,)))),
        ("dense_tensor_power",
         lambda: HypothesisPair(_random_density(np.random.default_rng(7), 3),
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
            helstrom_error(HypothesisPair(rho0, rho1), 4)

    def test_copies_must_be_positive(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        with pytest.raises(ParameterDomainError):
            helstrom_error(pair, 0)

    def test_guard_trips_before_any_power_is_built(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        assert pair.dims == (33,)
        with pytest.raises(SizeLimitError), _peak_allocation_below(1 << 20):
            helstrom_error(pair, 7)

    @pytest.mark.parametrize("make_pair", [
        lambda: validation.thermal_case("number", NoiseSpec(n_b=1.0), n=2)[0],
        lambda: HypothesisPair(maximally_mixed(1), maximally_mixed(1)),
    ], ids=["number n=2", "maximally mixed d=1"])
    def test_one_eigenvalue_support_passes_any_copy_count(self, make_pair):
        # a support of one eigenvalue passes the guard at any M, so the M-fold power
        # runs over all 1001 bits of M
        got = helstrom_error(make_pair(), 2**1000)
        assert 0.0 <= got.value <= 0.5
        log_value = got.diagnostics["log_value"]
        assert math.isfinite(log_value) or log_value == -math.inf

    def test_huge_copy_count_trips_the_guard(self):
        rng = np.random.default_rng(2)
        pair = HypothesisPair(_random_density(rng, 3), _random_density(rng, 3))
        with pytest.raises(SizeLimitError):
            helstrom_error(pair, 10**9)
        rho0 = DensityOperator(np.array([0.5, 0.5]), (2,))
        rho1 = DensityOperator(np.array([0.2, 0.8]), (2,))
        with pytest.raises(SizeLimitError):
            helstrom_error(HypothesisPair(rho0, rho1), 10**9)

    def test_negative_diagonal_entry_is_rejected_like_chernoff(self):
        # at construction, so no bound ever sees it
        with pytest.raises(InvalidStateError, match="PSD"):
            DensityOperator(np.array([0.6, 0.6, -0.2]), (3,))

    def test_point_mass_means_exactly_one_nonzero_entry(self):
        rho0 = DensityOperator(np.array([0.5, 0.5, 0.0]), (3,))
        orthogonal = number_ket(2, cutoff=2).projector()
        got = helstrom_error(HypothesisPair(rho0, orthogonal), 4)
        assert got.diagnostics["path"] == "rank_one_secular"
        assert got.value == 0.0
        assert got.diagnostics["log_value"] == -math.inf
        # a deficit-free ket with a tiny but nonzero second amplitude is not a point mass
        nearly = FockKet(np.array([0.0, 1e-8, math.sqrt(1.0 - 1e-16)]), (3,)).projector()
        got = helstrom_error(HypothesisPair(rho0, nearly), 2)
        assert got.diagnostics["path"] == "dense_tensor_power"
        assert got.diagnostics["tensor_dim"] == 9

    @pytest.mark.parametrize("copies", [2.5, math.nan, math.inf, -math.inf, 0.0])
    def test_copy_count_must_be_a_finite_integer(self, copies):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
            with pytest.raises(ParameterDomainError):
                bound(pair, copies)

    @pytest.mark.parametrize("copies", [np.array([1.0, 2.0]), np.array([[2]]), np.array([3])],
                             ids=repr)
    def test_an_array_of_copy_counts_is_a_domain_error(self, copies):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
            with pytest.raises(ParameterDomainError, match="one copy count"):
                bound(pair, copies)

    def test_numpy_and_integral_float_copy_counts_pass(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        for copies in (np.int64(2), np.uint8(2), 2.0):
            for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
                got = bound(pair, copies)
                assert got.copies == 2 and type(got.copies) is int

    @pytest.mark.parametrize("make_pair", [
        lambda: (_random_density(np.random.default_rng(11), 3), maximally_mixed(3)),
        lambda: (werner_state(2, 0.3), werner_state(2, 0.7)),
    ], ids=["complex dense vs diagonal", "real dense vs real dense"])
    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_dense_tensor_power_is_the_np_kron_power_bit_for_bit(self, make_pair, copies):
        rho0, rho1 = make_pair()
        got = helstrom_error(HypothesisPair(rho0, rho1), copies)
        assert got.diagnostics["path"] == "dense_tensor_power"
        p0, p1 = (functools.reduce(np.kron, [rho.to_dense()] * copies) for rho in (rho0, rho1))
        assert got.diagnostics["tensor_dim"] == len(p0)
        expected = 0.5 * (1.0 - 0.5 * float(np.abs(np.linalg.eigvalsh(p0 - p1)).sum()))
        assert got.value == min(max(expected, 0.0), 0.5)


class TestRealArithmetic:
    # Werner pairs stored real and stored complex, d = 2..8 and x in {0.25, 0.5, 0.9}:
    # measured, the two differ by at most 8 ulps of the larger value (exact, M = 1),
    # 32 (exact, M = 2, d <= 7), 14 (QCB) and 37 (LB, M = 2).  The exact value at
    # M = 2 runs eigvalsh at dimension d**4, so it is compared up to d = 5 here.
    ULPS = 64

    @pytest.mark.parametrize("d", range(2, 9))
    def test_real_and_complex_storage_agree(self, d):
        for x in (0.25, 0.5, 0.9):
            real = werner_state(d, x)
            complex_ = DensityOperator(real.matrix.astype(complex), real.dims)
            assert (real.matrix.dtype, complex_.matrix.dtype) == (np.float64, np.complex128)
            pairs = [depolarizing_pair(rho, bipartite=True) for rho in (real, complex_)]
            for m in (1, 2):
                got = [[bound(pair, m).value for pair in pairs]
                       for bound in (chernoff_bound, bhattacharyya_lower)]
                if m == 1 or d <= 5:
                    got.append([helstrom_error(pair, m).value for pair in pairs])
                for a, b in got:
                    assert abs(a - b) <= self.ULPS * math.ulp(max(a, b)), (d, x, m, a, b)


def _outcome(call, copies):
    """What ``call(copies)`` returns, or the class of what it raises."""
    try:
        return call(copies)
    except Exception as err:
        return type(err)


@pytest.mark.parametrize("copies", [1, 2, 0, -3, True, False, np.int64(2), 2.0, 2.5, math.nan,
                                    math.inf, np.array([1, 2])], ids=repr)
def test_copy_count_rule_is_the_same_on_both_paths(copies):
    # a plain int takes _check_copies' int fast path, its numpy array the array path
    array = np.asarray(copies)
    got, want = _outcome(_check_copies, copies), _outcome(_check_copies, array)
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)
        assert type(got) is (int if type(copies) is int else np.ndarray)
    pair = depolarizing_pair(number_ket(0, cutoff=1))
    for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
        call = functools.partial(bound, pair)
        assert _outcome(call, copies) == _outcome(call, array), bound.__name__


def _deficit_free(pair):
    """The same two operators with both trace deficits set to 0: the dense path's input."""
    rho0 = DensityOperator(pair.rho0.diagonal_or_none(), pair.dims)
    return HypothesisPair(rho0, FockKet(pair.rho1.ket.amplitudes, pair.dims).projector())


def _deficit_bar(pair, copies):
    """(1/4)(eps0 + eps1) + 1e-15 for the M-copy deficits eps = 1 - (1 - eps_1copy)**M."""
    eps = [-math.expm1(copies * math.log1p(-rho.trace_deficit)) for rho in (pair.rho0, pair.rho1)]
    return 0.25 * sum(eps) + 1e-15


class TestRankOneSecular:
    @pytest.mark.parametrize("flip", [False, True], ids=["ket rho1", "ket rho0"])
    def test_the_solve_reads_the_kets_weights_on_the_other_support(self, flip):
        # the solve's inputs come from the pair's Overlap: the other state's support spectrum,
        # the ket's weight on each of its eigenvalues (W's one column, or its one row when rho0
        # is the ket) and q at the ket's end of [0, 1]
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        pair = HypothesisPair(pair.rho1, pair.rho0) if flip else pair
        overlap, seen = pair.overlap, []
        with pytest.MonkeyPatch.context() as patch:    # in the namespace helstrom_error runs in
            patch.setitem(helstrom_error.__globals__, "_rank_one_error",
                          lambda *args: seen.append(args) or (0.0, {}))
            helstrom_error(pair, 2)
        [(d, w, q, copies)] = seen
        want_d, want_w = ((overlap.vals1, overlap.weights[0]) if flip
                          else (overlap.vals0, overlap.weights[:, 0]))
        assert d.shape == w.shape == want_d.shape and want_d.size > 1
        assert (d.tobytes(), w.tobytes()) == (want_d.tobytes(), want_w.tobytes())
        assert (q, copies) == (overlap.contract(0.0 if flip else 1.0)[0], 2)

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
        swapped = helstrom_error(HypothesisPair(truncated.rho1, truncated.rho0))
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
        pair = target_pair_single_mode(coherent_ket(1000.0), NoiseSpec(n_b=1.0))
        got, qcb = helstrom_error(pair, 2), chernoff_bound(pair, 2)
        assert got.value == 0.0
        assert math.isfinite(got.diagnostics["log_value"])
        assert abs(got.diagnostics["log_value"] - qcb.diagnostics["log_value"]) <= 1e-9

    def test_basis_state_keeps_the_chernoff_float_at_any_copy_count(self):
        # one amplitude: the root is q(1)**M, and a Newton step within the
        # rounding of the M-fold product is not taken
        for n, noise in ((0, NoiseSpec(n_b=1.0)), (2, NoiseSpec(n_b=0.5)),
                         (3, NoiseSpec(beta=0.05))):
            pair = target_pair_single_mode(number_ket(n), noise)
            for m in (1, 2, 3, 10, 100, 500):
                got, qcb = helstrom_error(pair, m), chernoff_bound(pair, m)
                assert got.diagnostics["iterations"] == 0
                assert got.value == qcb.value
                assert got.diagnostics["log_value"] == pytest.approx(
                    qcb.diagnostics["log_value"], rel=1e-14, abs=0)

    def test_squeezed_pair_past_the_dense_guard(self):
        pair = _spdc_pair()
        for copies, support in ((1, 69), (2, 69**2)):
            got = helstrom_error(pair, copies)
            assert got.diagnostics["support_size"] == support
            assert (bhattacharyya_lower(pair, copies).value <= got.value
                    <= chernoff_bound(pair, copies).value)

    def test_orthogonal_ket_gives_zero(self):
        rho0 = DensityOperator(np.array([0.5, 0.499, 0.0, 0.0]), (4,), trace_deficit=1e-3)
        ket = FockKet(np.array([0.0, 0.0, 0.6, 0.8]), (4,)).projector()
        got = helstrom_error(HypothesisPair(rho0, ket), 2)
        assert got.diagnostics["path"] == "rank_one_secular"
        assert (got.value, got.diagnostics["log_value"]) == (0.0, -math.inf)


class TestQs:
    def test_identical_states(self):
        rho = maximally_mixed(4)
        qs = HypothesisPair(rho, rho).overlap.contract([0.0, 0.3, 1.0])[0]
        np.testing.assert_allclose(qs, 1.0, rtol=0.0, atol=1e-14)

    def test_orthogonal_pure_states(self):
        a = number_ket(0, cutoff=1).projector()
        b = number_ket(1, cutoff=1).projector()
        assert HypothesisPair(a, b).overlap.contract(0.5)[0] == pytest.approx(0.0, abs=1e-14)

    def test_pure_rho1_at_s_one_is_quadratic_form(self):
        noise = NoiseSpec(n_b=1.0)
        pair = target_pair_single_mode(coherent_ket(0.7), noise)
        psi = pair.rho1.ket.amplitudes
        psi = psi / np.linalg.norm(psi)
        rho0 = pair.rho0.to_dense()
        expected = float(np.real(psi.conj() @ rho0 @ psi))
        assert Overlap(pair).contract(1.0)[0] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_invalid_s_rejected(self):
        rho = maximally_mixed(2)
        with pytest.raises(ParameterDomainError):
            HypothesisPair(rho, rho).overlap.contract([1.2])


class TestChernoff:
    def test_pure_rho1_minimizer_sits_at_one(self):
        noise = NoiseSpec(n_b=1.0)
        pair = target_pair_single_mode(coherent_ket(0.5), noise)
        got = chernoff_bound(pair, 3)
        assert got.s_star == pytest.approx(1.0, abs=1e-9)
        expected = 0.5 * Overlap(pair).contract(1.0)[0] ** 3
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
        got = chernoff_bound(HypothesisPair(proj, proj), 1)
        assert got.s_star == 0.0
        assert got.value == pytest.approx(0.5, abs=1e-14)

    def test_log_value_clamps_with_the_value(self):
        # two equal Werner states: q_min rounds to 1.0000000000000009, so ln(1/2) +
        # M ln q_min would sit 8.9e-13 above ln(1/2) at M = 1000, and q_min**M
        # would overflow at M = 2**1000
        rho = werner_state(4, 0.25)
        pair = HypothesisPair(rho, rho)
        assert pair.overlap.minimum[1] > 1.0
        for m in (1, 1000, 2**1000):
            got = chernoff_bound(pair, m)
            assert (got.value, got.diagnostics["log_value"]) == (0.5, math.log(0.5))

    def test_identical_mixed_states_value(self):
        rho = maximally_mixed(3)
        got = chernoff_bound(HypothesisPair(rho, rho), 1)
        assert got.value == pytest.approx(0.5, abs=1e-14)

    def test_log_linearity_in_copies(self):
        rng = np.random.default_rng(5)
        pair = HypothesisPair(_random_density(rng, 4), _random_density(rng, 4))
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
    pairs = [(f"random {i}", pair) for i, pair in enumerate(
        _random_pairs(rng, config["random_pairs"], config["random_dim"]))]
    pairs += [(f"werner d={d} x={x}", depolarizing_pair(werner_state(d, x), bipartite=True))
              for d in range(2, 9) for x in (0.25, 0.5, 0.9)]
    return pairs


@pytest.mark.parametrize("seed", [validation.DEFAULT_CONFIG["seed"], 1])
@pytest.mark.parametrize("dim", [2, 4, 5])
def test_random_pairs_are_one_draw_per_matrix_bit_for_bit(seed, dim):
    # validate's draws for its random pairs, one per chunk, take the stream in the order of
    # drawing each matrix in turn, real plane first, rho0 before rho1
    count = 7
    pairs = list(_random_pairs(np.random.default_rng(seed), count, dim))
    rng = np.random.default_rng(seed)
    assert len(pairs) == count
    for pair in pairs:
        for rho in (pair.rho0, pair.rho1):
            want = _random_density(rng, dim).matrix
            assert rho.matrix.dtype == want.dtype and rho.matrix.tobytes() == want.tobytes()


#: random pairs in one chunk of validate's sweep at its default dimension 4
_CHUNK = validation._chunk_size(4)


def _assert_same_overlap(got, want, name):
    """Every attribute of ``got`` has the bits, shape, type and read-only flag of ``want``'s."""
    for attr in ("vals0", "vals1", "gap", "rows", "weights"):
        x, y = getattr(got, attr), getattr(want, attr)
        assert (x is None) == (y is None), (name, attr)
        if y is not None:
            assert (x.shape, x.dtype, x.flags.writeable, y.flags.writeable) == (
                y.shape, y.dtype, False, False), (name, attr)
            assert x.tobytes() == y.tobytes(), (name, attr)
    assert type(got.minimum[2]) is type(want.minimum[2]) is MappingProxyType
    assert repr(got.minimum) == repr(want.minimum), name
    assert repr(got.root_overlap) == repr(want.root_overlap), name
    assert repr(got.ends) == repr(want.ends), name


class TestStackedBuild:
    """Overlap.stack builds any pairs in few passes, each with Overlap(pair)'s bits."""

    @pytest.mark.parametrize("seed, dim, count", [
        (validation.DEFAULT_CONFIG["seed"], 4, 100),
        *[(seed, dim, 2 * validation._chunk_size(dim) + 1)
          for seed in (1, 7) for dim in (1, 2, 4, 5)],
    ])
    def test_stacked_pairs_carry_the_bits_of_single_builds(self, seed, dim, count):
        pairs = list(_random_pairs(np.random.default_rng(seed), count, dim))
        # every pair comes with the Overlap of its chunk's stacked build
        assert len(pairs) == count and all("overlap" in vars(pair) for pair in pairs)
        for i, pair in enumerate(pairs):
            _assert_same_overlap(pair.overlap, Overlap(HypothesisPair(pair.rho0, pair.rho1)), i)

    def test_a_member_that_needs_masking_is_built_alone(self, monkeypatch):
        rng = np.random.default_rng(11)
        same = _random_density(rng, 4)
        pairs = [HypothesisPair(_random_density(rng, 4), _random_density(rng, 4)),
                 HypothesisPair(_rank_two_density(rng, 4), _random_density(rng, 4)),
                 HypothesisPair(same, same),
                 HypothesisPair(_random_density(rng, 4), _random_density(rng, 4))]
        builds = _count_builds(monkeypatch)
        stacked = Overlap.stack(pairs)
        assert builds == [[pairs[0], pairs[2], pairs[3]], [pairs[1]]]
        assert stacked[1].vals0.size == 2
        for i, (overlap, pair) in enumerate(zip(stacked, pairs)):
            _assert_same_overlap(overlap, Overlap(pair), i)
        # identical states: the endpoint slopes are exactly opposite, so the secant root is
        # s = 1/2, where the point value takes numpy's scalar power, sqrt
        s_star, q_min, how = stacked[2].minimum
        assert (s_star, how["refine_iterations"]) == (0.5, 0)
        assert q_min == stacked[2].contract(0.5)[0]

    def test_identical_states_in_a_stack_take_the_endpoint_rule(self):
        # dim 1: each state is the number 1, so both endpoint slopes are exactly 0
        pairs = [HypothesisPair(*[DensityOperator(np.ones((1, 1), dtype=complex), (1,))] * 2)
                 for _ in range(3)]
        for pair, overlap in zip(pairs, Overlap.stack(pairs)):
            assert overlap.minimum == (0.0, 1.0, {"s_rule": "endpoint_slope", "slope": 0.0,
                                                  "refine_iterations": 0})
            _assert_same_overlap(overlap, Overlap(pair), "ones")

    def test_a_mixed_list_stacks_by_the_shape_of_its_spectra(self, monkeypatch):
        # a ket against a diagonal, two diagonals, a real dense pair (Werner states) and
        # complex dense pairs of two shapes: one eigh for each dense shape and type, then
        # one build for each spectrum shape (r0, r1, diagonal)
        pairs = _mixed_pairs()
        eighs, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        builds = _count_builds(monkeypatch)
        stacked = Overlap.stack(pairs)
        assert sorted(eighs) == [(1, 2, 4, 4), (2, 2, 3, 3), (2, 2, 4, 4)]
        assert builds == [[pairs[0], pairs[5]], [pairs[1]], [pairs[2]], [pairs[3], pairs[6]],
                          [pairs[4]]]
        monkeypatch.undo()
        for i, (overlap, pair) in enumerate(zip(stacked, pairs)):
            _assert_same_overlap(overlap, Overlap(HypothesisPair(pair.rho0, pair.rho1)), i)

    def test_each_scenario_block_of_validate_stacks_its_pairs(self, monkeypatch):
        # the number, N00N, coherent and SPDC blocks each build their 102 pairs in one stack;
        # each pair's Overlap has the bits of a single build
        blocks, stack = [], validation.stack_overlaps
        monkeypatch.setattr(validation, "stack_overlaps",
                            lambda pairs: blocks.append(pairs) or stack(pairs))
        validation.run_validation({"random_pairs": 0})
        assert [len(pairs) for pairs in blocks] == [42, 28, 16, 16]
        for i, pair in enumerate(itertools.chain.from_iterable(blocks)):
            assert pair.rho0.matrix is None and (pair.rho1.ket or pair.rho0.ket) is not None, i
            _assert_same_overlap(pair.overlap, Overlap(HypothesisPair(pair.rho0, pair.rho1)), i)

    def test_logs_are_those_of_single_builds(self, monkeypatch, caplog):
        # these pairs converge in 3 or 4 steps, so a 3-step cap stops some of them
        monkeypatch.setattr(oracle, "CHERNOFF_MAX_ITER", 3)
        rng = np.random.default_rng(5)
        pairs = [HypothesisPair(_random_density(rng, 4), _random_density(rng, 4))
                 for _ in range(12)]
        logs = []
        for build in (lambda: Overlap.stack(pairs), lambda: [Overlap(pair) for pair in pairs]):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="targetdetect.oracle"):
                build()
            logs.append([(r.levelname, r.getMessage()) for r in caplog.records])
        assert logs[0] == logs[1]
        levels = [level for level, _ in logs[0]]
        assert levels.count("DEBUG") == 2 * len(pairs)
        assert 0 < levels.count("WARNING") < len(pairs)


def _state_bits(rho):
    """A state's dims, cutoffs, trace, deficit, form and the bits of the array it holds."""
    held = rho.ket.amplitudes if rho.ket is not None else (
        rho.matrix if rho.matrix is not None else rho.diagonal_or_none())
    return (rho.dims, rho.cutoffs, rho.trace.hex(), rho.trace_deficit.hex(), rho.ket is not None,
            rho.matrix is not None, held.dtype.str, held.tobytes())


def _assert_same_pairs(grid, alone):
    """Each pair of ``grid`` has the state and Overlap bits of its pair in ``alone``."""
    assert len(grid) == len(alone)
    for i, (got, want) in enumerate(zip(grid, alone)):
        assert (_state_bits(got.rho0), _state_bits(got.rho1)) == (
            _state_bits(want.rho0), _state_bits(want.rho1)), i
        _assert_same_overlap(got.overlap, want.overlap, i)


_DEFAULT = validation.DEFAULT_CONFIG
_N_B_NOISES = [NoiseSpec(n_b=n_b) for n_b in _DEFAULT["n_b"]]
#: validate's thermal blocks, one per scenario of the table: (scenario, noises, values,
#: thermal_case's keyword of the value); the "n_s" probes take the n_b noises alone
_VALIDATE_BLOCKS = [
    (scenario, _N_B_NOISES, _DEFAULT[key], "n_s") if key == "n_s" else
    (scenario, [NoiseSpec(beta=b) for b in _DEFAULT["beta"]] + _N_B_NOISES, _DEFAULT[key], "n")
    for scenario, (_, _, key) in validation.THERMAL_SCENARIOS.items()
]


class TestThermalGrid:
    """One grid build gives each pair the bits of the pair built alone."""

    @pytest.mark.parametrize("scenario, noises, values, key", _VALIDATE_BLOCKS,
                             ids=[block[0] for block in _VALIDATE_BLOCKS])
    @pytest.mark.parametrize("cutoff", [None, 70])
    def test_validate_blocks_are_each_pairs_own_build(self, scenario, noises, values, key,
                                                      cutoff):
        # the grid as validate stacks it, against thermal_case one point at a time
        tail_eps = _DEFAULT["tail_eps"]
        grid = validation.stack_overlaps(
            validation._thermal_pairs(scenario, noises, values, cutoff, tail_eps))
        alone = [validation.thermal_case(scenario, noise, cutoff=cutoff, tail_eps=tail_eps,
                                         **{key: value})[0]
                 for noise in noises for value in values]
        _assert_same_pairs(grid, alone)

    @pytest.mark.parametrize("compress", [False, True])
    def test_an_explicit_cutoff_grid_is_each_pairs_own_build(self, compress):
        # every noise shares the one cutoff here, so a thermal state keyed by the cutoff
        # alone would give each noise the first one's; n_b = 1 and beta = ln 2 are equal
        noises = [NoiseSpec(n_b=n_b) for n_b in (0.1, 1.0, 2.0)] + [NoiseSpec(beta=math.log(2.0))]
        for kets, modes, build in (
                ([number_ket(n) for n in (0, 2, 5)] + [coherent_ket(0.5, 9)], 1,
                 lambda ket, noise: target_pair_single_mode(ket, noise, 9)),
                ([noon_ket(1), noon_ket(2), spdc_ket(0.7, 5)], 2,
                 lambda ket, noise: target_pair_bipartite(ket, noise, 9,
                                                          compress_idler=compress))):
            grid = _thermal_grid(kets, noises, modes, 9, compress_idler=compress)
            _assert_same_pairs(grid, [build(ket, noise) for noise in noises for ket in kets])


def _mixed_pairs():
    """Pairs of every form: complex dense pairs of dims 3 and 4 (two of each, apart), a ket
    against a diagonal, two diagonals, and real Werner states, whose zero weights W_ij make
    theirs a pair built alone."""
    rng = np.random.default_rng(17)
    dense = [HypothesisPair(_random_density(rng, dim), _random_density(rng, dim))
             for dim in (4, 3, 3, 4)]
    return [dense[0],
            validation.thermal_case("coherent", NoiseSpec(n_b=0.5), n_s=0.5)[0],
            HypothesisPair(thermal_state(NoiseSpec(n_b=0.5), cutoff=6),
                           thermal_state(NoiseSpec(n_b=1.5), cutoff=6)),
            dense[1],
            HypothesisPair(werner_state(2, 0.3), werner_state(2, 0.7)),
            dense[3], dense[2]]


@pytest.mark.parametrize("dim, copies", [(2, 3), (4, 1), (4, 2), (5, 2)])
def test_random_chunk_errors_lie_in_the_sandwich(dim, copies):
    for chunk in validation._random_chunks(np.random.default_rng(dim), 20, dim):
        for pair in chunk:
            result = helstrom_error(pair, copies)
            assert result.diagnostics["path"] == "dense_tensor_power"
            assert bhattacharyya_lower(pair, copies).value <= result.value + 1e-12
            assert result.value <= chernoff_bound(pair, copies).value + 1e-12


def _assert_same_result(got, want, name):
    """``got`` is ``want``, a BoundResult, with the same value bits and diagnostics."""
    assert got == want, name
    assert (got.value.hex(), repr(got.diagnostics)) == (want.value.hex(), repr(want.diagnostics))


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_a_stacked_overlap_gives_the_bits_of_one_built_alone(copies):
    # validate's pairs get their Overlaps from one stacked build, which the rank-one path reads
    stacked = validation.stack_overlaps(_mixed_pairs())
    for i, (pair, alone) in enumerate(zip(stacked, _mixed_pairs())):
        _assert_same_result(helstrom_error(pair, copies),
                            helstrom_error(HypothesisPair(alone.rho0, alone.rho1), copies), i)


def _pairs_of_every_path():
    """A rank-one pair, two diagonals, two complex dense pairs of dims (4,), two real pairs of
    dims (2, 2) (a diagonal against a dense state, and two dense states) and a ket against a
    real dense state of dims (2, 2), each with the path helstrom_error must take."""
    rng = np.random.default_rng(29)
    dense = "dense_tensor_power"
    return [
        (target_pair_single_mode(number_ket(1), NoiseSpec(n_b=0.5)), "rank_one_secular"),
        (HypothesisPair(_random_density(rng, 4), _random_density(rng, 4)), dense),
        (HypothesisPair(thermal_state(NoiseSpec(n_b=0.5), cutoff=3),
                        thermal_state(NoiseSpec(n_b=1.5), cutoff=3)), "diagonal_product"),
        (depolarizing_pair(werner_state(2, 0.5), bipartite=True), dense),
        (HypothesisPair(maximally_entangled_qudit(2).projector(), werner_state(2, 0.5)), dense),
        (HypothesisPair(werner_state(2, 0.3), werner_state(2, 0.7)), dense),
        (HypothesisPair(_random_density(rng, 4), _random_density(rng, 4)), dense),
    ]


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_each_pair_takes_its_path_and_a_dense_pair_one_eigvalsh(copies, monkeypatch):
    # a dense pair gets the eigvalsh of the difference of its np.kron powers, in one call
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    for i, (pair, path) in enumerate(_pairs_of_every_path()):
        calls.clear()
        result = helstrom_error(pair, copies)
        assert result.diagnostics["path"] == path, i
        if path != "dense_tensor_power":
            assert calls == [], i
            continue
        assert calls == [(4**copies, 4**copies)], i
        p0, p1 = (functools.reduce(np.kron, [rho.to_dense()] * copies)
                  for rho in (pair.rho0, pair.rho1))
        want = 0.5 * (1.0 - 0.5 * float(np.abs(eigvalsh(p0 - p1)).sum()))
        assert result.value.hex() == min(max(want, 0.0), 0.5).hex(), i


@pytest.mark.parametrize("dim, copies", [(17, 3), (65, 2)])
def test_the_dense_guard_trips_before_any_power(dim, copies, monkeypatch):
    rng = np.random.default_rng(dim)
    pair = HypothesisPair(_random_density(rng, dim), _random_density(rng, dim))
    powers = []
    monkeypatch.setattr(oracle, "_power", lambda *a: powers.append(a))
    with pytest.raises(SizeLimitError) as guard:
        helstrom_error(pair, copies)
    assert powers == [] and f"{dim ** copies}" in str(guard.value)


@pytest.mark.parametrize("dim", [1, 2, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunk_convexity_carries_the_bits_of_each_pairs_slices(dim, seed, monkeypatch):
    # shake every q row of each chunk and zero one point of one row (but not a chunk's only
    # row): the chunk's one np.diff gives the convexity row that each pair's own two slice
    # subtractions give, bit for bit
    contract_grid, rows, shake = oracle.contract_grid, [], np.random.default_rng(seed + 100)

    def patched(overlaps, s):
        stack = contract_grid(overlaps, s).copy()
        stack[:, 0] *= 1.0 + 1e-3 * shake.standard_normal(stack[:, 0].shape)
        if len(stack) > 1:
            stack[shake.integers(len(stack)), 0, shake.integers(stack.shape[-1])] = 0.0
        rows.append(stack[:, 0])
        return stack

    monkeypatch.setattr(oracle, "contract_grid", patched)
    count = 2 * validation._chunk_size(dim) + 1
    for i, chunk in enumerate(validation._random_chunks(np.random.default_rng(seed), count, dim)):
        rows.clear()
        checks = tuple(validation.CheckRow(name, 1e-9, kind="violation")
                       for name in ("sandwich", "convex", "loglin", "mono"))
        validation._check_random_chunk(checks, chunk, 0)
        want = validation.CheckRow("convex", 1e-9, kind="violation")
        for k, qs in enumerate(rows[0]):
            if qs.min() > 0.0:
                ln_q = np.log(qs)
                slopes = ln_q[1:] - ln_q[:-1]
                want.update(max(0.0, -float((slopes[1:] - slopes[:-1]).min(initial=0.0))),
                            "random pair {}", k)
        got = checks[1]
        assert (got.error.hex(), got.worst, got.samples) == (
            want.error.hex(), want.worst, want.samples), i
        assert got.error > 0.0 and got.samples == max(1, len(chunk) - 1), i


def test_chunk_convexity_reads_each_pairs_own_bend(monkeypatch):
    # validate reads the convexity of ln q(s) for a whole chunk from one grid stack: bend one
    # pair's q row and put a zero in another's, and the row reports the bent pair's own
    # second difference, taken slice by slice, and skips the pair whose q reaches zero
    (chunk,) = validation._random_chunks(np.random.default_rng(9), _CHUNK, 4)
    bent, zero, start = 6, 11, 30
    contract_grid, rows = oracle.contract_grid, []

    def patched(overlaps, s):
        stack = contract_grid(overlaps, s).copy()
        stack[bent, 0, 20] *= 1.01
        stack[zero, 0, 40] = 0.0
        rows.append(stack[:, 0])
        return stack

    monkeypatch.setattr(oracle, "contract_grid", patched)
    checks = tuple(validation.CheckRow(name, 1e-9, kind="violation")
                   for name in ("sandwich", "convex", "loglin", "mono"))
    assert validation._check_random_chunk(checks, chunk, start) == start + _CHUNK
    ln_q = np.log(rows[0][bent])
    slopes = ln_q[1:] - ln_q[:-1]
    convex = checks[1]
    assert convex.error == -float((slopes[1:] - slopes[:-1]).min()) > 0.019
    assert convex.worst == f"random pair {start + bent}"
    assert convex.samples == _CHUNK - 1 and checks[0].samples == 2 * _CHUNK


@pytest.mark.parametrize("count", [0, 1, _CHUNK + 1])
def test_random_chunks_hold_every_pair_once(count):
    chunks = list(validation._random_chunks(np.random.default_rng(3), count, 4))
    assert [len(chunk) for chunk in chunks] == [_CHUNK] * (count // _CHUNK) + (
        [count % _CHUNK] if count % _CHUNK else [])
    rng = np.random.default_rng(3)
    for pair in itertools.chain.from_iterable(chunks):
        for rho in (pair.rho0, pair.rho1):
            assert rho.matrix.tobytes() == _random_density(rng, 4).matrix.tobytes()
    report = validation.run_validation({"random_pairs": count, "d": [], "n": [], "noon_n": [],
                                        "beta": [], "n_b": [], "n_s": []})
    sandwich = next(row for row in report.rows if row.name.startswith("sandwich"))
    assert sandwich.samples == 2 * count


def test_random_pair_memory_does_not_grow_with_their_count():
    # the sweep draws and builds its random pairs chunk by chunk, so its peak allocation,
    # that of one chunk's convexity grid, does not grow with them (a chunk kept to the end
    # adds about 0.5 MB to the 2.6 MB peak)
    config = {"d": [], "n": [], "noon_n": [], "beta": [], "n_b": [], "n_s": []}
    peaks = []
    for count in (2 * _CHUNK, 8 * _CHUNK):
        tracemalloc.start()
        try:
            validation.run_validation({**config, "random_pairs": count})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_random_pairs_peak_as_one_chunk_whatever_their_count():
    # nothing of a chunk outlives its checks, so 8 chunks of 126 pairs peak within 32 KiB of
    # one (19-21 KiB measured: freed objects of the later chunks refill CPython's free lists;
    # 35 KiB with two chunks alive at once).  Cyclic collection is off and a long warm-up
    # fills those free lists: a full collection empties them, and their refill during a
    # traced run would count as growth
    config = {"d": [], "n": [], "noon_n": [], "beta": [], "n_b": [], "n_s": []}
    peaks = []
    gc.disable()
    try:
        validation.run_validation({**config, "random_pairs": 16 * _CHUNK})
        for count in (_CHUNK, 8 * _CHUNK):
            tracemalloc.start()
            try:
                validation.run_validation({**config, "random_pairs": count})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        gc.enable()
    assert peaks[1] <= peaks[0] + (32 << 10), peaks


def test_no_chunk_of_random_pairs_outlives_its_checks(monkeypatch):
    # each chunk's pairs and Overlaps are gone when the next chunk is built; the hook goes
    # where run_validation reads it, a rebuilt module's namespace in the mutation register
    namespace = validation.run_validation.__globals__
    held, stack = [], namespace["stack_overlaps"]

    def stack_and_watch(pairs):
        assert [ref for ref in held if ref() is not None] == []
        held[:] = [weakref.ref(obj) for pair in stack(pairs) for obj in (pair, pair.overlap)]
        return pairs

    monkeypatch.setitem(namespace, "stack_overlaps", stack_and_watch)
    report = validation.run_validation({"random_pairs": 3 * _CHUNK + 1, "d": [], "n": [],
                                        "noon_n": [], "beta": [], "n_b": [], "n_s": []})
    assert next(row for row in report.rows
                if row.name.startswith("sandwich")).samples == 2 * (3 * _CHUNK + 1)
    assert len(held) == 2


class TestNewtonMinimum:
    # on these pairs the median is 4 steps and the most is 6 (Werner d = 6, x = 0.9;
    # d = 7, x = 0.5; d = 8, x = 0.25 and 0.5)
    MAX_STEPS = 7

    def test_steps_are_bounded_and_q_min_is_the_dense_grid_minimum(self, caplog):
        # q is convex, so its minimum is at most the least of any grid.  The grid and
        # Newton's q(s*) come from one contraction, and on these pairs no grid point
        # falls close enough to s* for rounding to put it below q(s*)
        ss = np.linspace(0.0, 1.0, 2001)
        with caplog.at_level(logging.WARNING, logger="targetdetect.oracle"):
            for name, pair in _newton_pairs():
                overlap = Overlap(pair)
                s_star, q_min, how = overlap.minimum
                assert how["s_rule"] == "newton", name
                assert 1 <= how["refine_iterations"] <= self.MAX_STEPS, (name, how)
                assert 0.0 < s_star < 1.0
                grid_q = float(overlap.contract(ss)[0].min())
                assert q_min <= grid_q, (name, q_min.hex(), grid_q.hex())
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
        # the reference is q on a 2001-point grid, endpoints included, from the
        # same contraction as q(s*), so the grid's value at s* (never 1/2 here)
        # is q_min's float.  The grid may dip below q_min by rounding where q is
        # flat: by up to 3 ulps on the maximally mixed x = 0 pairs, and by 2 for
        # Werner d = 2, x = 2/3, whose s* is the float below 1/2.  An endpoint s*
        # must be where the grid is least.  Only the mixed Werner pairs
        # (0 < x < 1) need Newton.  At x = 0 both states are maximally mixed, q
        # is flat and the grid's argmin is rounding noise, so there only the
        # minimum is compared.
        ss = np.linspace(0.0, 1.0, 2001)
        for name, pair in _validate_scenario_pairs() + _large_pairs():
            overlap = Overlap(pair)
            s_star, q_min, how = overlap.minimum
            qs = overlap.contract(ss)[0]
            grid_q = float(qs.min())
            assert q_min == overlap.contract([s_star])[0, 0], (name, q_min.hex())
            assert q_min <= grid_q + 3 * math.ulp(grid_q), (name, q_min.hex(), grid_q.hex())
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
        for pair in _random_pairs(rng, config["random_pairs"], config["random_dim"]):
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
        swapped = chernoff_bound(HypothesisPair(pair.rho1, pair.rho0))
        assert (swapped.s_star, swapped.diagnostics["s_rule"]) == (0.0, "endpoint_slope")
        assert swapped.diagnostics["slope"] == -straight.diagnostics["slope"]
        assert swapped.value == straight.value

    def test_identical_states_settle_at_zero(self):
        # both slopes are exactly 0, so the convex q is constant: s* = 0 with
        # q(0), not a grid point picked by rounding noise
        for rho in (number_ket(0, cutoff=1).projector(), maximally_mixed(3)):
            pair = HypothesisPair(rho, rho)
            got = chernoff_bound(pair, 3)
            diag = got.diagnostics
            assert (got.s_star, diag["s_rule"], diag["slope"]) == (0.0, "endpoint_slope", 0.0)
            assert diag["q_min"] == pair.overlap.contract(0.0)[0]
            assert diag["q_min"] == pytest.approx(1.0, abs=1e-15)
            assert got.value == 0.5 * diag["q_min"] ** 3

    def test_decision_is_made_once_and_logged_at_debug(self, caplog):
        pair = target_pair_single_mode(number_ket(2), NoiseSpec(n_b=0.5))
        with caplog.at_level(logging.DEBUG, logger="targetdetect.oracle"):
            for m in (1, 2, 1, 3):
                chernoff_bound(pair, m)
        # the build logs its support, then the decision; the bounds log nothing
        support, message = [r.getMessage() for r in caplog.records]
        assert support.startswith("support ")
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
            fidelity = float(Overlap(pair).contract(1.0)[0])
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


def _data_processing_cases():
    """(name, full pair) for the data-processing law: SPDC and N00N signal-idler pairs."""
    cases = [(f"spdc n_s={n_s:g} n_b={n_b:g}",
              target_pair_bipartite(spdc_ket(n_s), NoiseSpec(n_b=n_b)))
             for n_s, n_b in itertools.product((0.1, 0.5, 1.0), (0.1, 0.5, 2.0))]
    return cases + [(f"noon n={n} beta={beta:g}",
                     target_pair_bipartite(noon_ket(n), NoiseSpec(beta=beta), compress_idler=True))
                    for n, beta in itertools.product((1, 2, 5), (0.05, 0.5))]


class TestDataProcessing:
    def test_tracing_out_the_idler_never_lowers_a_bound(self):
        # the trace distance and every Tr[rho0**s rho1**(1-s)] contract under a CPTP map
        # (Audenaert et al., PRL 98, 160501 (2007)), so the Helstrom error, the QCB and
        # the LB of the signal-only pair are at least those of the signal-idler pair.
        # This sets the rank-one path on the full pair against diagonal_product on the
        # reduced one.
        for name, pair in _data_processing_cases():
            reduced = HypothesisPair(*(partial_trace(rho, 0) for rho in (pair.rho0, pair.rho1)))
            paths = {helstrom_error(p).diagnostics["path"] for p in (pair, reduced)}
            assert paths == {"rank_one_secular", "diagonal_product"}, name
            for m in (1, 2):
                for bound in (helstrom_error, chernoff_bound, bhattacharyya_lower):
                    full, signal = bound(pair, m).value, bound(reduced, m).value
                    assert signal >= full, (name, m, bound.__name__, full, signal)


class TestBhattacharyyaLower:
    def test_identical_states_give_half(self):
        proj = number_ket(0, cutoff=1).projector()
        got = bhattacharyya_lower(HypothesisPair(proj, proj), 1).value
        assert got == pytest.approx(0.5, abs=1e-14)
        # mixed states: the sqrt is infinitely steep at overlap 1, so epsilon-level
        # overlap noise shows up at the sqrt(eps) scale, always on the safe side
        rho = maximally_mixed(3)
        got = bhattacharyya_lower(HypothesisPair(rho, rho), 1).value
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
    for m in (1, 2):
        lb = bhattacharyya_lower(pair, m).value
        exact = helstrom_error(pair, m).value
        qcb = chernoff_bound(pair, m).value
        assert lb <= exact <= qcb, (m, lb.hex(), exact.hex(), qcb.hex())


_SUPER_NORMALIZED = {
    "diagonal": lambda: DensityOperator(np.array([0.7, 0.7]), (2,)),
    "dense": lambda: DensityOperator(0.7 * np.eye(2), (2,)),
    "ket": lambda: FockKet(np.array([1.0, 1.0]), (2,)).projector(),
}


def _sandwich_against_the_mixed_state(make, rejection):
    """``make()`` is rejected with ``rejection`` in the message, or LB <= exact <= QCB holds
    against the maximally mixed state of its dimension, on either side."""
    try:
        rho = make()
    except InvalidStateError as exc:
        assert rejection in str(exc)
        return
    mixed = maximally_mixed(rho.dim)
    for pair in (HypothesisPair(rho, mixed), HypothesisPair(mixed, rho)):
        lb, exact, qcb = (bound(pair).value
                          for bound in (bhattacharyya_lower, helstrom_error, chernoff_bound))
        assert lb <= exact <= qcb


@pytest.mark.parametrize("make", _SUPER_NORMALIZED.values(), ids=_SUPER_NORMALIZED)
def test_super_normalized_state_never_breaks_the_sandwich(make):
    # it is rejected when built; let through, the diagonal [0.7, 0.7] against I/2 gave
    # LB 0.5 > exact 0.4, and the ket [1, 1] an exact error of 0.0 below LB 0.5
    _sandwich_against_the_mixed_state(make, "exceeds 1")


_SUB_NORMALIZED = {
    "diagonal": lambda: DensityOperator(np.array([0.5, 0.0]), (2,)),
    "dense": lambda: DensityOperator(0.25 * np.eye(2), (2,)),
    "zero ket": lambda: FockKet(np.zeros(3), (3,)).projector(),
}


@pytest.mark.parametrize("make", _SUB_NORMALIZED.values(), ids=_SUB_NORMALIZED)
def test_sub_normalized_state_never_breaks_the_sandwich(make):
    # mass missing without a deficit to account for it is rejected when built; let
    # through, the diagonal [0.5, 0] and 0.25 I against I/2 gave exact 0.375 > QCB 0.25,
    # and the zero ket's projector against I/3 exact 0.25 > QCB 0
    _sandwich_against_the_mixed_state(make, "falls short of 1")


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


def _rank_two_density(rng, dim):
    """A dense state of rank two: half its weight on each of two random orthonormal vectors."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rho = 0.5 * (q[:, :2] @ q[:, :2].conj().T)
    return DensityOperator(0.5 * (rho + rho.conj().T), (dim,))


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


def _count_builds(monkeypatch):
    """The list to which every later _build call appends the list of pairs it builds: that of
    the module Overlap is bound from, so a rebuilt oracle in the mutation register too."""
    builds, namespace = [], Overlap.stack.__func__.__globals__
    build = namespace["_build"]
    monkeypatch.setitem(namespace, "_build", lambda overlaps, pairs, *a: builds.append(pairs)
                        or build(overlaps, pairs, *a))
    return builds


def _sqrt_point(overlap):
    """(q, q', q'', sum t |g|) at s = 1/2 from np.sqrt of both spectra, summed as the kernel
    sums them: the longer side first, by the same vector-matrix products."""
    x, y = np.sqrt(overlap.vals0), np.sqrt(overlap.vals1)
    if overlap.weights is None:
        return overlap.rows @ (x * y)
    if x.size >= y.size:
        return (x @ overlap.rows) @ y
    return (overlap.rows @ y) @ x


class TestOverlapKernel:
    @pytest.mark.parametrize("make_pair", [
        _spdc_pair,
        lambda: target_pair_single_mode(number_ket(3), NoiseSpec(n_b=0.5)),
        lambda: HypothesisPair(_random_density(np.random.default_rng(1), 4),
                               _random_density(np.random.default_rng(2), 4)),
        lambda: HypothesisPair(_random_density(np.random.default_rng(3), 4),
                               _random_density(np.random.default_rng(4), 4)),
        # a ket as rho0: the contraction sums the longer, thermal side first
        lambda: (lambda p: HypothesisPair(p.rho1, p.rho0))(
            target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))),
    ])
    def test_grid_matches_per_s_reference(self, make_pair):
        pair = make_pair()
        rho0, rho1 = pair.rho0, pair.rho1
        ss = np.linspace(0.0, 1.0, 201)
        overlap = Overlap(pair)
        want = np.array([_reference_q(rho0, rho1, s) for s in ss])
        assert np.all(want > 0.0)
        np.testing.assert_allclose(overlap.contract(ss)[0], want, rtol=1e-13, atol=0.0)
        # the values the build fixed from the one contraction: q(1/2) for the
        # Bhattacharyya bound, and q at s* for the Chernoff bound
        s_star, q_min, _ = overlap.minimum
        got = [overlap.root_overlap, q_min]
        want = [_reference_q(rho0, rho1, 0.5), _reference_q(rho0, rho1, s_star)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("make_pair, dropped", [
        pytest.param(lambda: HypothesisPair(_random_density(np.random.default_rng(1), 4),
                                            _random_density(np.random.default_rng(2), 4)),
                     False, id="dense"),
        pytest.param(lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75)),
                     False, id="ket vs diagonal"),
        pytest.param(lambda: HypothesisPair(thermal_state(NoiseSpec(n_b=0.5), cutoff=4),
                                            maximally_mixed(5)), False, id="two diagonals"),
        pytest.param(lambda: HypothesisPair(thermal_state(NoiseSpec(n_b=0.5), cutoff=4),
                                            DensityOperator(np.array([0.5, 0.3, 0.2, 0.0, 0.0]),
                                                            (5,))),
                     True, id="two diagonals, one with a kernel"),
        pytest.param(lambda: HypothesisPair(_rank_two_density(np.random.default_rng(3), 4),
                                            _random_density(np.random.default_rng(4), 4)),
                     True, id="rank-deficient dense"),
    ])
    def test_rows_are_the_weighted_stack_bit_for_bit(self, make_pair, dropped):
        # the build fills one preallocated stack and masks only when a term is dropped;
        # the rows must be the products np.stack([1, g, g*g, |g|]) * W of the masked
        # spectra, bit for bit (elementwise, without W, for two diagonals)
        pair = make_pair()
        vals0, vals1, w = oracle._spectra(pair.rho0, pair.rho1)
        rows, cols = vals0 > 0.0, vals1 > 0.0
        if w is None:
            rows = cols = rows & cols
        else:
            rows &= w.any(axis=1)
            cols &= w.any(axis=0)
            w = w[rows][:, cols]
        subtract = np.subtract if w is None else np.subtract.outer
        g = subtract(np.log(vals0[rows]), np.log(vals1[cols]))
        want = np.stack([np.ones_like(g), g, g * g, np.abs(g)])
        want = want if w is None else want * w
        overlap = Overlap(pair)
        assert (overlap.vals0.size + overlap.vals1.size < vals0.size + vals1.size) == dropped
        assert overlap.rows.shape == want.shape and overlap.rows.tobytes() == want.tobytes()
        assert overlap.gap.tobytes() == g.tobytes()
        if w is None:
            assert overlap.weights is None
        else:
            assert overlap.weights.tobytes() == w.tobytes()
        # the rank-one solve starts from the endpoint q the build keeps
        assert overlap.ends == (overlap.contract(0.0)[0], overlap.contract(1.0)[0])
        arrays = [overlap.vals0, overlap.vals1, overlap.gap, overlap.rows]
        arrays += [overlap.weights] if w is not None else []
        for array in arrays:
            assert not array.flags.writeable

    @pytest.mark.parametrize("make_pair", [
        lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75)),
        lambda: target_pair_bipartite(noon_ket(2), NoiseSpec(beta=0.5), compress_idler=True),
        lambda: HypothesisPair(_random_density(np.random.default_rng(5), 4),
                               _random_density(np.random.default_rng(6), 4)),
    ])
    def test_shared_overlap_matches_fresh_calls(self, make_pair):
        pair = make_pair()
        for m in (1, 2, 3, 8):
            for bound in (chernoff_bound, bhattacharyya_lower):
                shared, fresh = bound(pair, m), bound(HypothesisPair(pair.rho0, pair.rho1), m)
                assert (shared.value, shared.s_star, shared.diagnostics) == (
                    fresh.value, fresh.s_star, fresh.diagnostics)
                assert shared.cutoffs == fresh.cutoffs

    @pytest.mark.parametrize("make_pair", [
        lambda: target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75)),
        lambda: (lambda p: HypothesisPair(p.rho1, p.rho0))(
            target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))),
        lambda: target_pair_single_mode(number_ket(2), NoiseSpec(n_b=0.5)),
        lambda: depolarizing_pair(maximally_entangled_qudit(2), bipartite=True),
        lambda: HypothesisPair(_random_density(np.random.default_rng(5), 4),
                               _random_density(np.random.default_rng(6), 4)),
    ])
    def test_helstrom_reads_a_shared_overlap(self, make_pair, monkeypatch):
        pair = make_pair()
        builds = _count_builds(monkeypatch)
        for m in (1, 2):
            shared = helstrom_error(pair, m)
            fresh = helstrom_error(HypothesisPair(pair.rho0, pair.rho1), m)
            assert (shared.value, shared.diagnostics) == (fresh.value, fresh.diagnostics)
            assert shared.cutoffs == fresh.cutoffs
            # the rank-one path builds the pair's Overlap once, the fresh pair its own;
            # the other paths build none
            rank_one = fresh.diagnostics["path"] == "rank_one_secular"
            assert len(builds) == (1 + m if rank_one else 0)

    @pytest.mark.parametrize("make_pair", [
        pytest.param(lambda scenario=scenario: validation.thermal_case(
            scenario, NoiseSpec(n_b=1.0), n=2, n_s=0.5)[0], id=scenario)
        # a number pair's two spectra have one point each, so neither side is the longer
        for scenario in validation.THERMAL_SCENARIOS if scenario != "number"
    ] + [
        pytest.param(lambda d=d, kind=kind, x=x: validation.depolarizing_case(d, kind, x)[0],
                     id=f"{kind} d={d}")
        for d in (2, 3) for kind, x in (("max_entangled", None), ("werner", 1.0))
    ])
    def test_a_pair_and_its_swap_contract_to_the_same_bits(self, make_pair):
        # swapping the states transposes W and negates g; 1 - s is exact at 0, 1/2 and 1,
        # and both pairs sum their longer side first, so every term adds up the same way
        pair = make_pair()
        straight, swapped = pair.overlap, HypothesisPair(pair.rho1, pair.rho0).overlap
        assert straight.vals0.size != straight.vals1.size
        assert swapped.root_overlap == straight.root_overlap
        for s in (0.0, 0.5, 1.0):
            q, slope, curvature, floor = straight.contract(s)
            assert list(swapped.contract(1.0 - s)) == [q, -slope, curvature, floor], s

    def test_a_grid_carries_each_points_bits(self):
        # a grid takes the point's powers and vector-matrix products, one per s, so every
        # column is the point value's float, s = 1/2 included
        ss = np.linspace(0.0, 1.0, 65)
        rng = np.random.default_rng(0)
        pairs = _validate_scenario_pairs()
        pairs += [(f"random {i}", HypothesisPair(_random_density(rng, 4), _random_density(rng, 4)))
                  for i in range(30)]
        pairs.append(("two diagonals",
                      HypothesisPair(DensityOperator(np.array([0.5, 0.3, 0.2]), (3,)),
                                     DensityOperator(np.array([0.1, 0.6, 0.3]), (3,)))))
        pairs += [(f"{name} swapped", HypothesisPair(pair.rho1, pair.rho0)) for name, pair in pairs]
        for name, pair in pairs:
            overlap = pair.overlap
            grid = overlap.contract(ss)
            assert grid.shape == (4, ss.size), name
            for k, s in enumerate(ss):
                assert grid[:, k].tobytes() == overlap.contract(float(s)).tobytes(), (name, s)
            # q(1/2) takes both square roots by sqrt, which numpy's vector pow may miss by an
            # ulp, and the build's root overlap is that float
            assert grid[:, 32].tobytes() == _sqrt_point(overlap).tobytes(), name
            assert grid[0, 32] == overlap.root_overlap, name

    @pytest.mark.parametrize("s", [math.nan, 1.5, -0.25, math.inf])
    def test_a_point_outside_the_unit_interval_is_rejected(self, s):
        overlap = target_pair_single_mode(coherent_ket(1.0), NoiseSpec(n_b=1.0)).overlap
        with pytest.raises(ParameterDomainError):
            overlap.contract(s)

    @pytest.mark.parametrize("s, shown", [(math.nan, "nan"), (1.5, "1.5"), (-0.25, "-0.25"),
                                          ([0.5, math.inf], "[0.5, inf]")])
    def test_the_refusal_shows_the_s_given(self, s, shown):
        overlap = target_pair_single_mode(coherent_ket(1.0), NoiseSpec(n_b=1.0)).overlap
        with pytest.raises(ParameterDomainError) as refusal:
            overlap.contract(s)
        assert str(refusal.value) == f"s must be a number or a 1-D array in [0, 1], got {shown}"

    def test_spdc_weights_keep_only_the_support(self):
        pair = _spdc_pair()
        assert pair.rho0.dim == 58167
        overlap = Overlap(pair)
        assert overlap.weights.shape == (69, 1)
        assert overlap.vals0.shape == (69,) and overlap.vals1.shape == (1,)
        # a (grid x 58167) array would take 93 MB; the compressed grid stays tiny
        ss = np.linspace(0.0, 1.0, 201)
        with _peak_allocation_below(1 << 20):
            stack = overlap.contract(ss)
        assert stack.shape == (4, 201)

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
        lambda: HypothesisPair(DensityOperator(np.array([0.5, 0.25, 0.25]), (3,)),
                               FockKet(np.array([0.6, 1e-170, 0.8]), (3,)).projector()),
        lambda: HypothesisPair(DensityOperator(np.array([0.5, 0.5, 0.0]), (3,)),
                               FockKet(np.zeros(3), (3,), 1.0).projector()),
    ])
    def test_ket_pair_build_matches_the_full_scan(self, make_pair):
        pair = make_pair()
        rho0, rho1 = pair.rho0, pair.rho1
        # the full-dimension build: every eigenpair, then the compression
        vals0, _ = spectral_decomposition(rho0)
        vals1, vecs1 = spectral_decomposition(rho1)
        weights = np.abs(vecs1) ** 2
        rows = (vals0 > 0.0) & weights.any(axis=1)
        cols = (vals1 > 0.0) & weights.any(axis=0)
        for overlap, flip in ((pair.overlap, False), (HypothesisPair(rho1, rho0).overlap, True)):
            got = (overlap.vals1, overlap.vals0, overlap.weights.T) if flip else (
                overlap.vals0, overlap.vals1, overlap.weights)
            np.testing.assert_array_equal(got[0], vals0[rows])
            np.testing.assert_array_equal(got[1], vals1[cols])
            np.testing.assert_array_equal(got[2], weights[np.ix_(rows, cols)])

    def test_psd_check_covers_the_whole_diagonal(self):
        # a negative entry off any ket's support raises too: the check runs when the
        # diagonal is built, before a pair reads it on a support
        with pytest.raises(InvalidStateError, match="PSD"):
            DensityOperator(np.array([0.6, 0.5, -0.1]), (3,))

    def test_compression_is_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="targetdetect.oracle"):
            Overlap(_spdc_pair())
        # the Chernoff decision, made by the same build, follows
        assert caplog.records[0].getMessage() == "support 69/58167 x 1/1"
        assert caplog.records[1].getMessage().startswith("s* = 1 by the endpoint slope")

    @pytest.mark.parametrize("ss", [[0.5, 1.5], [-0.25, 0.5], [0.5, math.nan], [[0.5]]])
    def test_a_grid_outside_the_unit_interval_or_not_1d_is_rejected(self, ss):
        with pytest.raises(ParameterDomainError):
            _spdc_pair().overlap.contract(np.array(ss))


_CACHE_CASES = [
    pytest.param(lambda scenario=scenario: validation.thermal_case(
        scenario, NoiseSpec(n_b=0.5), n=2, n_s=0.5)[0], id=scenario)
    for scenario in validation.THERMAL_SCENARIOS
] + [
    pytest.param(lambda: depolarizing_pair(werner_state(2, 0.5), bipartite=True), id="werner"),
    pytest.param(lambda: HypothesisPair(_random_density(np.random.default_rng(7), 4),
                                        _random_density(np.random.default_rng(8), 4)),
                 id="random"),
]
_BOUNDS = (helstrom_error, chernoff_bound, bhattacharyya_lower)


def _dump(result):
    """Every field of a BoundResult, diagnostics included, as text that keeps every bit."""
    return repr((result.value, result.kind, result.copies, result.s_star, result.cutoffs,
                 result.diagnostics))


class TestBoundResult:
    """A result is a frozen dataclass of six fields, built by one update of its dict."""

    def test_assignment_raises(self):
        result = chernoff_bound(depolarizing_pair(werner_state(2, 0.5), bipartite=True), 2)
        for name in ("value", "kind", "copies", "s_star", "cutoffs", "diagnostics", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(result, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.value
        assert result.copies == 2 and result.kind is BoundKind.CHERNOFF_UPPER

    def test_fields_repr_and_equality_are_the_dataclasss(self):
        assert [f.name for f in dataclasses.fields(BoundResult)] == [
            "value", "kind", "copies", "s_star", "cutoffs", "diagnostics"]
        result = BoundResult(0.25, BoundKind.EXACT, 2, cutoffs=(3,))
        assert repr(result) == ("BoundResult(value=0.25, kind=<BoundKind.EXACT: 'exact'>, "
                                "copies=2, s_star=None, cutoffs=(3,), diagnostics={})")
        assert result == BoundResult(value=0.25, kind=BoundKind.EXACT, copies=2, s_star=None,
                                     cutoffs=(3,), diagnostics={})
        assert result != BoundResult(0.25, BoundKind.EXACT, 2, cutoffs=(3,), diagnostics={"a": 1})
        assert result != BoundResult(0.25, BoundKind.EXACT, 3, cutoffs=(3,))

    def test_each_result_gets_a_fresh_diagnostics_dict(self):
        first, second = (BoundResult(0.5, BoundKind.EXACT, 1) for _ in range(2))
        first.diagnostics["seen"] = True
        assert second.diagnostics == {} and first.diagnostics is not second.diagnostics
        given = {"path": "x"}
        assert BoundResult(0.5, BoundKind.EXACT, 1, diagnostics=given).diagnostics is given


class TestPairOverlapCache:
    """A HypothesisPair builds one Overlap, on first use, and every bound on it reads that one."""

    @pytest.mark.parametrize("make_pair", _CACHE_CASES)
    def test_spectra_run_once_per_pair(self, make_pair, monkeypatch):
        pair = make_pair()
        builds = _count_builds(monkeypatch)
        for m in (1, 2, 3):
            for bound in _BOUNDS:
                bound(pair, m)
        assert pair.overlap is pair.overlap and len(builds) == 1

    def test_a_tuple_is_refused(self, monkeypatch):
        # a bound reads the pair it is given; a tuple is not wrapped, so it builds nothing
        rng = np.random.default_rng(9)
        states = (_random_density(rng, 3), _random_density(rng, 3))
        builds = _count_builds(monkeypatch)
        for build in (*_BOUNDS, Overlap):
            with pytest.raises(AttributeError, match="'tuple' object"):
                build(states)
        assert builds == []

    @pytest.mark.parametrize("make_pair", _CACHE_CASES)
    def test_cached_pair_dumps_the_same_bits_as_fresh_pairs(self, make_pair):
        pair = make_pair()
        for m in (1, 2, 3, 8, 2**70):
            for bound in _BOUNDS:
                fresh = HypothesisPair(pair.rho0, pair.rho1)
                # a size guard trips on both, or on neither
                got, want = (_outcome(lambda m, p=p: _dump(bound(p, m)), m) for p in (pair, fresh))
                assert got == want, (bound.__name__, m)

    def test_the_swapped_pair_builds_its_own_overlap(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.75))
        swapped = HypothesisPair(pair.rho1, pair.rho0)
        straight, flipped = pair.overlap, swapped.overlap
        assert flipped is not straight
        np.testing.assert_array_equal(flipped.vals0, straight.vals1)
        np.testing.assert_array_equal(flipped.vals1, straight.vals0)
        np.testing.assert_array_equal(flipped.weights, straight.weights.T)
        assert (chernoff_bound(swapped).s_star, chernoff_bound(pair).s_star) == (0.0, 1.0)

    @pytest.mark.parametrize("make_pair", _CACHE_CASES)
    def test_the_shared_arrays_are_read_only(self, make_pair):
        overlap = make_pair().overlap
        arrays = [overlap.vals0, overlap.vals1, overlap.gap]
        if overlap.weights is not None:
            arrays.append(overlap.weights)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("make_pair", _CACHE_CASES)
    def test_bounds_make_no_contraction_after_the_build(self, make_pair, monkeypatch):
        pair = make_pair()
        calls = []
        contract = oracle._contract
        monkeypatch.setattr(oracle, "_contract", lambda rows, diagonal, a, b, s: calls.append(
            np.ravel(s).tolist()) or contract(rows, diagonal, a, b, s))
        overlap = pair.overlap
        built = len(calls)
        # both endpoints and s = 1/2 in one contraction, then the Newton steps of a mixed pair
        assert calls[0] == [0.0, 1.0, 0.5]
        assert built == 1 + (overlap.minimum[2]["refine_iterations"] + 1
                             if overlap.minimum[2]["s_rule"] == "newton" else 0)
        for m in (1, 2, 3):
            for bound in _BOUNDS:
                bound(pair, m)
        assert len(calls) == built

    def test_the_stored_search_record_cannot_be_changed(self):
        pair = depolarizing_pair(werner_state(2, 0.5), bipartite=True)
        before = _dump(chernoff_bound(pair))
        how = pair.overlap.minimum[2]
        with contextlib.suppress(TypeError):        # a read-only mapping refuses the write
            how["refine_iterations"] = 999
        assert _dump(chernoff_bound(pair)) == before


class TestSupportLimit:
    def test_s_zero_is_the_right_limit(self):
        pair = target_pair_single_mode(coherent_ket(60.0), NoiseSpec(n_b=1.0))
        q0, q_tiny = Overlap(pair).contract([0.0, 1e-12])[0]
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
             for scenario in validation.THERMAL_SCENARIOS for noise in noises]
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
        straight, swapped = pair, HypothesisPair(pair.rho1, pair.rho0)
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
