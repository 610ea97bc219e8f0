"""State constructors and linear-algebra primitives."""

import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import targetdetect
from targetdetect import (
    DensityOperator,
    InvalidStateError,
    NoiseSpec,
    ParameterDomainError,
    coherent_ket,
    maximally_entangled_qudit,
    maximally_mixed,
    noon_ket,
    number_ket,
    partial_trace,
    spdc_ket,
    tensor,
    thermal_state,
    werner_state,
)
from targetdetect.channels import target_pair_bipartite
from targetdetect.errors import SizeLimitError
from targetdetect.fock import DENSE_DIM_LIMIT, DIM_LIMIT, TAIL_EPS, FockKet, _poisson_cutoff, spectral_decomposition


@contextlib.contextmanager
def _allocation_limit(max_bytes):
    """Fail if the block's peak traced allocation (numpy buffers included) exceeds max_bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max_bytes, f"peak allocation {peak} bytes"


def _assert_valid_state(rho, tail_tol=1e-9):
    """Hermitian (entrywise 1e-12), PSD (down to -EIG_CLAMP_TOL), trace <= 1, books balance."""
    if rho.matrix is not None:
        m = rho.matrix
        herm = float(np.max(np.abs(m - m.conj().T), initial=0.0))
        assert herm <= 1e-12, f"Hermiticity residual {herm:.3e}"
    spectral_decomposition(rho)     # PSD: raises InvalidStateError below -EIG_CLAMP_TOL
    assert rho.trace <= 1.0 + 1e-12
    assert abs(rho.trace + rho.trace_deficit - 1.0) <= tail_tol


def _amplitudes(ket):
    """The amplitudes indexed by occupation numbers, one axis per mode."""
    return ket.amplitudes.reshape(ket.dims)


def _mean_occupation(ket, mode):
    probs = np.abs(_amplitudes(ket)) ** 2
    others = tuple(i for i in range(ket.n_modes) if i != mode)
    return float(probs.sum(axis=others) @ np.arange(ket.dims[mode]))


@pytest.mark.parametrize("tail_eps", [0.0, -1.0, 1.0, math.nan, math.inf])
def test_tail_budget_outside_unit_interval_rejected(tail_eps):
    with pytest.raises(ParameterDomainError):
        thermal_state(NoiseSpec(n_b=1.0), tail_eps=tail_eps)
    with pytest.raises(ParameterDomainError):
        coherent_ket(1.0, tail_eps=tail_eps)


def test_import_leaves_scipy_sparse_unloaded():
    # no scipy module at all, scipy.sparse included
    code = ("import sys, targetdetect, targetdetect.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(targetdetect.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_and_click():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps) == ["click", "numpy"]


class TestNoiseSpec:
    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ParameterDomainError):
            NoiseSpec()
        with pytest.raises(ParameterDomainError):
            NoiseSpec(n_b=1.0, beta=1.0)

    def test_beta_to_mean_photon_number(self):
        # beta = 0.05 corresponds to roughly twenty thermal photons
        noise = NoiseSpec(beta=0.05)
        assert noise.n_b == pytest.approx(19.50416649306589, abs=1e-12)
        assert 19.0 < noise.n_b < 20.0

    def test_round_trip(self):
        noise = NoiseSpec(n_b=1.0)
        assert noise.beta == pytest.approx(math.log(2.0), rel=1e-15, abs=0)
        back = NoiseSpec(beta=noise.beta)
        assert back.n_b == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_zero_temperature(self):
        assert NoiseSpec(n_b=0.0).beta == math.inf
        assert NoiseSpec(beta=math.inf).n_b == 0.0

    @pytest.mark.parametrize("n_b", [math.inf, math.nan])
    def test_non_finite_mean_photon_number_rejected(self, n_b):
        with pytest.raises(ParameterDomainError):
            NoiseSpec(n_b=n_b)

    def test_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            NoiseSpec(n_b=-0.1)
        with pytest.raises(ParameterDomainError):
            NoiseSpec(beta=0.0)
        with pytest.raises(ParameterDomainError):
            NoiseSpec(beta=-1.0)


class TestThermalState:
    def test_vacuum_limit(self):
        rho = thermal_state(NoiseSpec(n_b=0.0), cutoff=5)
        np.testing.assert_allclose(rho.diagonal_or_none(), [1, 0, 0, 0, 0, 0])
        assert rho.trace_deficit == 0.0

    def test_small_cutoff_records_deficit(self):
        rho = thermal_state(NoiseSpec(n_b=1.0), cutoff=1)
        np.testing.assert_allclose(rho.diagonal_or_none(), [0.5, 0.25])
        assert rho.trace_deficit == pytest.approx(0.25, abs=1e-15)

    def test_entries_match_geometric_form(self):
        noise = NoiseSpec(n_b=2.0)
        rho = thermal_state(noise, cutoff=10)
        k = np.arange(11)
        np.testing.assert_allclose(
            rho.diagonal_or_none(), 2.0**k / 3.0 ** (k + 1), rtol=1e-15
        )
        _assert_valid_state(rho)

    def test_size_guard_before_allocation(self):
        # the policy cutoff for n_b = 1e6 is 27.6M photons, beyond DIM_LIMIT
        with _allocation_limit(1 << 20):
            with pytest.raises(SizeLimitError):
                thermal_state(NoiseSpec(n_b=1e6))

    @pytest.mark.parametrize("n_b", [1e15, 1e17])
    def test_cutoff_search_beyond_guard_raises_size_limit(self, n_b):
        # at n_b >= 1e16 the Boltzmann ratio rounds to 1 and no cutoff exists
        with _allocation_limit(1 << 20):
            with pytest.raises(SizeLimitError):
                thermal_state(NoiseSpec(n_b=n_b))

    def test_policy_cutoff_meets_tail(self):
        noise = NoiseSpec(beta=0.05)
        rho = thermal_state(noise)
        assert rho.trace_deficit < TAIL_EPS
        # smallest such cutoff: one less must miss the budget
        smaller = thermal_state(noise, cutoff=rho.cutoffs[0] - 1)
        assert smaller.trace_deficit >= TAIL_EPS


class TestCoherentKet:
    def test_vacuum(self):
        ket = coherent_ket(0.0)
        assert ket.dims == (1,)
        assert ket.amplitudes[0] == 1.0

    def test_ground_amplitude(self):
        ket = coherent_ket(1.0, cutoff=40)
        assert ket.amplitudes[0].real == pytest.approx(math.exp(-0.5), rel=1e-15, abs=0)

    def test_normalization_minus_tail(self):
        for n_s in (0.3, 1.0, 2.5):
            ket = coherent_ket(n_s)
            assert ket.norm_sq == pytest.approx(1.0 - ket.norm_deficit, abs=1e-13)
            assert ket.norm_deficit < TAIL_EPS

    def test_mean_photon_number(self):
        ket = coherent_ket(1.7)
        assert _mean_occupation(ket, 0) == pytest.approx(1.7, abs=1e-10)

    def test_negative_mean_rejected(self):
        with pytest.raises(ParameterDomainError):
            coherent_ket(-1.0)

    def test_size_guard_before_allocation(self):
        # the Poisson cutoff for n_s = 1e7 is about 1.0e7 photons, beyond DIM_LIMIT
        with _allocation_limit(1 << 20):
            with pytest.raises(SizeLimitError):
                coherent_ket(1e7)

    @pytest.mark.parametrize("n_s", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, n_s):
        with pytest.raises(ParameterDomainError):
            coherent_ket(n_s)

    # n_s: (cutoff, norm_deficit, {index: amplitude}), recorded from scipy's
    # gammaln/gammainc at the default tail budget
    PINNED = {
        0.1: (7, 2.269326950071471e-13,
              {0: 0.951229424500714, 1: 0.3008051558793432, 7: 4.237112622261695e-06}),
        2.0: (18, 6.477297337580492e-13,
              {0: 0.36787944117144233, 2: 0.520260095022889, 18: 2.3539919261449913e-06}),
        100.0: (178, 7.437986476711825e-13,
                {0: 1.9287498479639178e-22, 100: 0.19965218959267345,
                 178: 7.724190221371859e-07}),
        1000.0: (1230, 9.749925727689119e-13,
                 {0: 7.124576406741286e-218, 1: 2.2529888809200348e-216,
                  1000: 0.11231478686579159, 1230: 4.788350436341912e-07}),
    }

    @pytest.mark.parametrize("n_s", sorted(PINNED))
    def test_pinned_amplitudes_and_deficit(self, n_s):
        cutoff, deficit, amps = self.PINNED[n_s]
        ket = coherent_ket(n_s)
        assert ket.cutoffs == (cutoff,)
        assert ket.norm_deficit == pytest.approx(deficit, rel=1e-9, abs=0)
        for k, amp in amps.items():
            assert ket.amplitudes[k] == pytest.approx(amp, rel=1e-9, abs=0)
        assert not ket.amplitudes.imag.any()


class TestPoissonTruncation:
    BUDGETS = (1e-6, 1e-9, 1e-12, 1e-15)
    # mean: the cutoff at each budget, recorded from scipy's gammainc
    PINNED = {
        0.001: (1, 2, 3, 4),
        0.01: (2, 3, 4, 6),
        0.1: (4, 6, 7, 9),
        0.5: (7, 9, 11, 13),
        1.0: (9, 11, 14, 17),
        2.0: (12, 15, 18, 21),
        5.0: (19, 23, 27, 31),
        10.0: (28, 34, 39, 44),
        30.0: (59, 68, 76, 83),
        100.0: (151, 166, 178, 189),
        300.0: (386, 410, 430, 448),
        1000.0: (1154, 1195, 1230, 1261),
        3000.0: (3264, 3334, 3393, 3445),
        10000.0: (10479, 10606, 10711, 10804),
        30000.0: (30827, 31045, 31226, 31386),
        100000.0: (101507, 101902, 102233, 102522),
        200000.0: (202129, 202688, 203154, 203562),
    }

    @pytest.mark.parametrize("mean", sorted(PINNED))
    def test_pinned_cutoffs(self, mean):
        got = tuple(_poisson_cutoff(mean, eps) for eps in self.BUDGETS)
        assert got == self.PINNED[mean]

    def test_zero_mean_needs_no_photons(self):
        assert _poisson_cutoff(0.0, 1e-12) == 0

    def test_loose_budget_cuts_below_the_mean(self):
        # P(X > 95) for X ~ Poisson(100) is 0.6688, P(X > 96) is 0.6313
        assert _poisson_cutoff(100.0, 0.64) == 96

    # (mean, cutoff): P(X > cutoff), recorded from scipy's gammainc
    @pytest.mark.parametrize("mean, cutoff, tail", [
        (2.0, 0, 0.8646647167633873),
        (30.0, 29, 0.52428301389368),
        (100.0, 95, 0.6688082659646936),
        (1000.0, 990, 0.6162377333706306),
    ])
    def test_deficit_below_the_mean_is_the_head_complement(self, mean, cutoff, tail):
        deficit = coherent_ket(mean, cutoff=cutoff).norm_deficit
        assert deficit == pytest.approx(tail, rel=1e-9, abs=0)

    @pytest.mark.parametrize("mean, tail_eps", [(4.15e6, 1e-300), (5e6, 1e-12), (1e300, 0.5)])
    def test_no_cutoff_up_to_the_guard_raises_size_limit(self, mean, tail_eps):
        # 4.15e6: the search starts below DIM_LIMIT, and the tail at DIM_LIMIT is 8.3e-105
        with pytest.raises(SizeLimitError, match=str(DIM_LIMIT)):
            _poisson_cutoff(mean, tail_eps)

    @pytest.mark.parametrize("tail_eps", [0.0, 1.0, -1e-12, math.nan])
    def test_budget_outside_unit_interval_rejected(self, tail_eps):
        with pytest.raises(ParameterDomainError):
            _poisson_cutoff(10.0, tail_eps)


class TestNumberKet:
    def test_basis_vector(self):
        ket = number_ket(3)
        assert ket.dims == (4,)
        assert _amplitudes(ket)[3] == 1.0
        assert ket.norm_sq == 1.0

    def test_cutoff_below_occupation_rejected(self):
        with pytest.raises(ParameterDomainError):
            number_ket(3, cutoff=2)


class TestNoonKet:
    def test_n1_amplitudes(self):
        ket = noon_ket(1)
        assert _amplitudes(ket)[2, 0] == pytest.approx(1 / math.sqrt(2))
        assert _amplitudes(ket)[0, 2] == pytest.approx(1 / math.sqrt(2))
        assert ket.norm_sq == pytest.approx(1.0, abs=1e-15)
        assert ket.norm_deficit == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_mean_photon_number_per_mode(self, n):
        ket = noon_ket(n)
        assert _mean_occupation(ket, 0) == pytest.approx(n, abs=1e-12)
        assert _mean_occupation(ket, 1) == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_reduced_idler_state(self, n):
        marginal = partial_trace(noon_ket(n).projector(), keep=1)
        diag = marginal.diagonal_or_none()
        expected = np.zeros(2 * n + 1)
        expected[0] = 0.5
        expected[2 * n] = 0.5
        np.testing.assert_allclose(diag, expected, atol=1e-15)

    def test_zero_photons_rejected(self):
        with pytest.raises(ParameterDomainError):
            noon_ket(0)


class TestSpdcKet:
    def test_vacuum(self):
        ket = spdc_ket(0.0)
        assert ket.dims == (1, 1)
        assert _amplitudes(ket)[0, 0] == 1.0

    def test_single_term_truncation(self):
        ket = spdc_ket(1.0, cutoff=0)
        assert _amplitudes(ket)[0, 0].real == pytest.approx(1 / math.sqrt(2), rel=1e-15, abs=0)
        assert ket.norm_deficit == pytest.approx(0.5, abs=1e-15)

    def test_reduced_state_is_thermal(self):
        n_s = 0.8
        ket = spdc_ket(n_s)
        marginal = partial_trace(ket.projector(), keep=1)
        expected = thermal_state(NoiseSpec(n_b=n_s), cutoff=ket.dims[1] - 1)
        np.testing.assert_allclose(
            marginal.diagonal_or_none(), expected.diagonal_or_none(), rtol=1e-13
        )

    def test_norm_books_balance(self):
        ket = spdc_ket(2.0)
        assert ket.norm_sq + ket.norm_deficit == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n_s", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, n_s):
        with pytest.raises(ParameterDomainError):
            spdc_ket(n_s)

    def test_cutoff_search_beyond_guard_raises_size_limit(self):
        with _allocation_limit(1 << 20):
            with pytest.raises(SizeLimitError):
                spdc_ket(1e17)


class TestQuditStates:
    def test_bell_state(self):
        ket = maximally_entangled_qudit(2)
        assert _amplitudes(ket)[0, 0] == pytest.approx(1 / math.sqrt(2))
        assert _amplitudes(ket)[1, 1] == pytest.approx(1 / math.sqrt(2))
        assert _amplitudes(ket)[0, 1] == 0.0
        assert ket.norm_sq == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_reduced_state_is_maximally_mixed(self, d):
        marginal = partial_trace(maximally_entangled_qudit(d).projector(), keep=0)
        np.testing.assert_allclose(marginal.to_dense(), np.eye(d) / d, atol=1e-15)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ParameterDomainError):
            maximally_entangled_qudit(1)

    def test_werner_endpoints(self):
        d = 3
        uniform = werner_state(d, 0.0)
        np.testing.assert_allclose(uniform.to_dense(), np.eye(d * d) / d**2, atol=1e-15)
        pure = werner_state(d, 1.0)
        phi = maximally_entangled_qudit(d)
        np.testing.assert_allclose(
            pure.to_dense(), np.outer(phi.amplitudes, phi.amplitudes.conj()), atol=1e-15
        )

    def test_werner_trace_and_weight_domain(self):
        assert werner_state(2, 0.5).trace == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ParameterDomainError):
            werner_state(2, 1.5)

    def test_werner_uniform_state_and_marginal_are_diagonal(self):
        for d in (2, 3, 5):
            uniform = werner_state(d, 0.0)
            assert uniform.matrix is None
            np.testing.assert_array_equal(uniform.diagonal_or_none(), np.full(d * d, 1.0 / d**2))
            assert werner_state(d, 0.4).matrix is not None
            marginal = partial_trace(werner_state(d, 0.4), keep=1)
            assert marginal.matrix is None
            np.testing.assert_allclose(marginal.diagonal_or_none(), 1.0 / d, rtol=1e-14)


class TestTensorAndPartialTrace:
    def test_mixed_qubits(self):
        half = maximally_mixed(2)
        quarter = tensor(half, half)
        np.testing.assert_allclose(quarter.to_dense(), np.eye(4) / 4, atol=1e-15)
        assert quarter.dims == (2, 2)

    def test_trace_multiplicative(self):
        a = thermal_state(NoiseSpec(n_b=1.0), cutoff=2)
        b = thermal_state(NoiseSpec(n_b=0.5), cutoff=3)
        assert tensor(a, b).trace == pytest.approx(a.trace * b.trace, rel=1e-14, abs=0)

    def test_deficit_below_rounding_survives(self):
        # 1 - (1 - 1e-19) rounds to 0; the deficit must not
        a = DensityOperator(np.array([0.5, 0.5 - 1e-19]), (2,), trace_deficit=1e-19)
        b = thermal_state(NoiseSpec(n_b=1.0), cutoff=2)
        assert tensor(a, maximally_mixed(2)).trace_deficit == 1e-19
        assert tensor(a, b).trace_deficit == pytest.approx(
            b.trace_deficit + 1e-19, rel=1e-15, abs=0)
        assert tensor(b, b).trace_deficit == pytest.approx(
            1.0 - (1.0 - b.trace_deficit) ** 2, rel=1e-14, abs=0)

    def test_dense_size_guard_trips_before_any_allocation(self):
        # 65 x 65 = 4225 > DENSE_DIM_LIMIT: the product would take 285 MB
        rng = np.random.default_rng(3)
        dense = DensityOperator(rng.standard_normal((65, 65)) + 0j, (65,))
        for a, b in ((dense, dense), (maximally_mixed(65), dense), (dense, maximally_mixed(65))):
            with _allocation_limit(1 << 20):
                with pytest.raises(SizeLimitError, match="4096"):
                    tensor(a, b)
        assert 65 * 65 > DENSE_DIM_LIMIT

    def test_diagonal_times_diagonal_stays_diagonal(self):
        a = thermal_state(NoiseSpec(n_b=1.0), cutoff=2)
        prod = tensor(a, a)
        assert prod.diagonal_or_none() is not None

    def test_partial_trace_of_product_recovers_factor(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mats = []
            for dim in (2, 3):
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                rho = g @ g.conj().T
                mats.append(DensityOperator(rho / np.trace(rho).real, (dim,)))
            a, b = mats
            back = partial_trace(tensor(a, b), keep=0)
            np.testing.assert_allclose(back.to_dense(), a.to_dense(), atol=1e-12)
            back = partial_trace(tensor(a, b), keep=1)
            np.testing.assert_allclose(back.to_dense(), b.to_dense(), atol=1e-12)

    @staticmethod
    def _random_ket(dims, seed):
        rng = np.random.default_rng(seed)
        n = math.prod(dims)
        amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return FockKet(amps / np.linalg.norm(amps), dims)

    @pytest.mark.parametrize("keep", [0, 1])
    @pytest.mark.parametrize("build", [
        lambda: spdc_ket(1.3),
        lambda: noon_ket(3),
        lambda: maximally_entangled_qudit(4),
        lambda: TestTensorAndPartialTrace._random_ket((3, 5), 11),
        lambda: TestTensorAndPartialTrace._random_ket((2, 3, 4), 12),
    ], ids=["spdc", "noon", "max_entangled", "random", "random_3_modes"])
    def test_ket_partial_trace_matches_einsum(self, build, keep):
        ket = build()
        block = ket.amplitudes.reshape(ket.dims)
        modes = "abc"[:ket.n_modes]
        kept = modes[keep]
        conj_modes = modes.replace(kept, kept.upper())
        ref = np.einsum(f"{modes},{conj_modes}->{kept}{kept.upper()}", block, block.conj())
        marginal = partial_trace(ket.projector(), keep=keep)
        np.testing.assert_allclose(marginal.to_dense(), ref, rtol=0, atol=1e-15)
        # the structured kets have diagonal marginals, and keep that form
        structured = not np.count_nonzero(ref - np.diag(np.diagonal(ref)))
        assert (marginal.matrix is None) == structured

    def test_dense_product_keeps_dense_form(self):
        ket = noon_ket(1).projector()
        mixed = werner_state(2, 0.3)
        diag = thermal_state(NoiseSpec(n_b=1.0), cutoff=2)
        basis = number_ket(1, cutoff=2).projector()
        for a, b in [(ket, diag), (diag, mixed), (mixed, ket), (mixed, mixed), (basis, diag)]:
            prod = tensor(a, b)
            assert prod.matrix is not None and prod.diagonal_or_none() is None
            assert prod.dims == a.dims + b.dims
            assert prod.dim == a.dim * b.dim
            np.testing.assert_array_equal(prod.to_dense(), np.kron(a.to_dense(), b.to_dense()))

    def test_zero_diagonal_factor_gives_a_diagonal_zero_product(self):
        zero = DensityOperator(np.zeros(3), (3,), trace_deficit=1.0)
        mixed = werner_state(2, 0.3)
        for a, b in [(zero, mixed), (mixed, zero), (zero, noon_ket(1).projector())]:
            prod = tensor(a, b)
            assert prod.matrix is None
            np.testing.assert_array_equal(prod.diagonal_or_none(), np.zeros(prod.dim))
            assert prod.trace_deficit == 1.0

    def test_invalid_subsystem_rejected(self):
        pair = tensor(maximally_mixed(2), maximally_mixed(2))
        with pytest.raises(ParameterDomainError):
            partial_trace(pair, keep=2)
        with pytest.raises(ParameterDomainError):
            partial_trace(maximally_mixed(2), keep=0)

    def test_dense_tensor_size_guard(self):
        big = DensityOperator(np.full((65, 65), 1.0 / 65), (65,))
        with pytest.raises(SizeLimitError):
            tensor(big, big)

    def test_tensor_size_guard(self):
        big = thermal_state(NoiseSpec(beta=0.05))
        mid = tensor(big, big)
        with pytest.raises(SizeLimitError):
            tensor(mid, big)


class TestSpectralStructure:
    def test_ket_provenance_skips_eigensolver(self):
        proj = coherent_ket(1.0).projector()
        vals, vecs = spectral_decomposition(proj)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(proj.ket.norm_sq, rel=1e-14, abs=0)
        assert vecs.shape == (proj.dim, 1)

    def test_dense_rank_one_without_provenance(self):
        # no ket to read: eigh runs, and the junk-eigenvalue floor leaves rank one
        ket = spdc_ket(0.5)
        proj = ket.projector()
        anonymous = DensityOperator(proj.to_dense(), proj.dims, proj.trace_deficit)
        assert anonymous.ket is None and anonymous.matrix is not None
        vals, vecs = spectral_decomposition(anonymous)
        assert vecs.shape == (proj.dim, proj.dim)
        assert np.count_nonzero(vals) == 1
        assert vals.max() == pytest.approx(ket.norm_sq, rel=1e-10, abs=0)

    def test_large_spdc_pair_keeps_its_structure(self):
        pair = target_pair_bipartite(spdc_ket(2.0), NoiseSpec(n_b=30.0))
        rho0, rho1 = pair.rho0, pair.rho1
        assert pair.dims == (843, 69)
        assert rho0.matrix is None and rho0.ket is None
        assert rho0.diagonal_or_none().shape == (58167,)
        assert rho1.matrix is None and rho1.ket is not None
        vals, vecs = spectral_decomposition(rho1)
        assert vals.shape == (1,) and vecs.shape == (58167, 1)
        with pytest.raises(SizeLimitError):
            rho1.to_dense()

    def test_ket_support_is_kept_on_the_operator(self):
        for ket in (spdc_ket(0.5), noon_ket(2), number_ket(3), coherent_ket(0.0, cutoff=4)):
            np.testing.assert_array_equal(ket.projector().ket_support,
                                          np.flatnonzero(ket.amplitudes))
        dense = werner_state(3, 0.6)
        for rho in (thermal_state(NoiseSpec(n_b=1.0)), dense, tensor(dense, maximally_mixed(1))):
            assert rho.ket_support is None

    def test_basis_projector_keeps_only_its_ket(self):
        proj = number_ket(2, cutoff=4).projector()
        assert proj.ket is not None and proj.matrix is None
        assert proj.diagonal_or_none() is None
        np.testing.assert_array_equal(proj.ket_support, [2])
        np.testing.assert_array_equal(proj.to_dense(), np.diag([0, 0, 1, 0, 0]))
        vals, vecs = spectral_decomposition(proj)
        np.testing.assert_array_equal(vals, [1.0])
        np.testing.assert_array_equal(vecs[:, 0], [0, 0, 1, 0, 0])

    def test_dense_input_with_zero_off_diagonal_is_diagonal(self):
        rho = DensityOperator(np.diag([0.75, 0.25]).astype(complex), (2,))
        assert rho.matrix is None
        np.testing.assert_array_equal(rho.diagonal_or_none(), [0.75, 0.25])
        with pytest.raises(ValueError):
            rho.diagonal_or_none()[0] = 1.0

    def test_matrix_and_ket_together_rejected(self):
        ket = number_ket(1)
        with pytest.raises(InvalidStateError):
            DensityOperator(np.eye(2), ket.dims, ket=ket)

    def test_negative_eigenvalue_rejected(self):
        for bad in (np.diag([1.5, -0.5]), np.array([[0.5, 1.0], [1.0, 0.5]])):
            with pytest.raises(InvalidStateError):
                spectral_decomposition(DensityOperator(bad.astype(complex), (2,)))

    def test_validate_catches_broken_hermiticity(self):
        mat = np.eye(2, dtype=complex)
        mat[0, 1] = 1e-6
        with pytest.raises(AssertionError, match="Hermiticity"):
            _assert_valid_state(DensityOperator(mat / np.trace(mat).real, (2,)))


class TestConstructorInvariants:
    def test_every_constructor_passes_full_validation(self):
        noise = NoiseSpec(n_b=1.3)
        states = [
            thermal_state(noise),
            thermal_state(noise, cutoff=4),
            coherent_ket(0.7).projector(),
            noon_ket(2).projector(),
            spdc_ket(0.9).projector(),
            maximally_entangled_qudit(3).projector(),
            werner_state(3, 0.6),
            maximally_mixed(4),
            tensor(thermal_state(noise, cutoff=3), maximally_mixed(2)),
            partial_trace(spdc_ket(0.9).projector(), keep=1),
        ]
        for rho in states:
            _assert_valid_state(rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        # let through, a diagonal [0.5, nan] against maximally_mixed(2) gave a
        # Chernoff bound of 0.25, [0.5, inf] a Helstrom error of 0.0, and a
        # NaN ket a Chernoff bound of 0.0
        makers = [
            lambda: DensityOperator(np.array([0.5, bad]), (2,)),
            lambda: DensityOperator(np.array([[0.5, 0.0], [0.0, bad]]), (2,)),
            lambda: DensityOperator(np.array([[0.5, bad], [bad, 0.5]]), (2,)),
            lambda: FockKet(np.array([0.6, bad]), (2,)),
            lambda: FockKet(np.array([0.6, complex(0.0, bad)]), (2,)),
        ]
        for make in makers:
            with pytest.raises(InvalidStateError, match="finite"):
                make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 2.0])
    def test_deficits_outside_the_unit_interval_are_rejected(self, bad):
        # let through, a diagonal pair with deficit nan, inf or -0.5 gave a
        # Helstrom error of nan, 0.0 or 0.375
        makers = [
            lambda: DensityOperator(np.array([0.5, 0.5]), (2,), trace_deficit=bad),
            lambda: DensityOperator(np.eye(2) / 2, (2,), trace_deficit=bad),
            lambda: DensityOperator(None, (2,), trace_deficit=bad,
                                    ket=FockKet(np.array([0.6, 0.8]), (2,))),
            lambda: FockKet(np.array([0.6, 0.8]), (2,), norm_deficit=bad),
        ]
        for make in makers:
            with pytest.raises(InvalidStateError, match="deficit"):
                make()
        for edge in (0.0, 1.0):
            assert DensityOperator(np.zeros(2), (2,), trace_deficit=edge).trace_deficit == edge
            assert FockKet(np.array([0.6, 0.8]), (2,), norm_deficit=edge).norm_deficit == edge


class TestTruncationConvergence:
    def test_doubling_cutoff_barely_moves_overlaps(self):
        # downstream overlap: Tr[rho_th**(1/2) |psi><psi|**(1/2)] via raw sums
        noise = NoiseSpec(n_b=1.5)
        base = thermal_state(noise)
        k_small = base.cutoffs[0]
        for build in (coherent_ket, spdc_ket):
            small = build(1.2)
            big = build(1.2, cutoff=2 * small.cutoffs[0] + 1)
            th_small = thermal_state(noise, cutoff=k_small)
            th_big = thermal_state(noise, cutoff=2 * k_small + 1)

            def overlap(ket, th):
                amp2 = np.abs(ket.amplitudes.reshape(ket.dims)) ** 2
                weights = np.sqrt(th.diagonal_or_none())[: ket.dims[0]]
                per_signal = amp2.sum(axis=tuple(range(1, ket.n_modes)))
                return float(per_signal[: weights.size] @ weights)

            delta = abs(overlap(small, th_small) - overlap(big, th_big))
            assert delta < 10 * TAIL_EPS
