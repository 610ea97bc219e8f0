"""State constructors and linear-algebra primitives."""

import contextlib
import decimal
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import targetdetect
from targetdetect import (
    DensityOperator,
    HypothesisPair,
    InvalidStateError,
    NoiseSpec,
    ParameterDomainError,
    chernoff_bound,
    coherent_ket,
    depolarizing_pair,
    helstrom_error,
    maximally_entangled_qudit,
    maximally_mixed,
    noon_ket,
    number_ket,
    partial_trace,
    spdc_ket,
    target_pair_single_mode,
    tensor,
    thermal_state,
    werner_state,
)
from targetdetect import validation
from targetdetect.channels import target_pair_bipartite
from targetdetect.errors import SizeLimitError
from targetdetect.fock import (DENSE_DIM_LIMIT, DIM_LIMIT, EIG_CLAMP_TOL, NORM_TOL, TAIL_EPS, FockKet,
                               _lower_readout, _poisson_tail, _tail_cutoff, spectral_decomposition)


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

    def test_equal_specs_hash_equal(self):
        # without __hash__ a class that defines __eq__ is unhashable, so no dict could key
        # thermal states by their noise
        same = NoiseSpec(n_b=1.0), NoiseSpec(beta=math.log(2.0))
        assert same[0] == same[1] and hash(same[0]) == hash(same[1])
        assert NoiseSpec(n_b=0.0) == NoiseSpec(beta=math.inf)
        specs = {*same, NoiseSpec(n_b=0.0), NoiseSpec(beta=math.inf), NoiseSpec(n_b=2.0)}
        assert specs == {same[0], NoiseSpec(n_b=0.0), NoiseSpec(n_b=2.0)} and len(specs) == 3

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

    @pytest.mark.parametrize("build", [
        lambda eps: thermal_state(NoiseSpec(n_b=1e17), tail_eps=eps),
        lambda eps: spdc_ket(1e17, tail_eps=eps),
        lambda eps: target_pair_single_mode(number_ket(1), NoiseSpec(n_b=1e17), tail_eps=eps),
    ], ids=["thermal", "spdc", "pair"])
    def test_budget_is_checked_before_the_ratio_one_guard(self, build):
        for eps in (0.0, 1.0, math.nan):
            with pytest.raises(ParameterDomainError, match="tail budget"):
                build(eps)
        with pytest.raises(SizeLimitError, match=r"^no cutoff up to 4194304 reaches tail 1e-12$"):
            build(1e-12)

    # each infinite family: (build(mean, **kwargs), the deficit of what it builds)
    FAMILIES = {
        "thermal": (lambda mean, **kw: thermal_state(NoiseSpec(n_b=mean), **kw),
                    lambda rho: rho.trace_deficit),
        "spdc": (spdc_ket, lambda ket: ket.norm_deficit),
        "coherent": (coherent_ket, lambda ket: ket.norm_deficit),
    }
    MEANS = {"thermal": (0.01, 1.0, 1.0 / math.expm1(0.05), 100.0, 1e4),
             "spdc": (0.01, 1.0, 5.0),
             "coherent": (0.01, 1.0, 1.0 / math.expm1(0.05), 100.0, 1e4)}
    CASES = [(family, mean, eps) for family, means in MEANS.items() for mean in means
             for eps in (1e-15, 1e-12, 1e-6, 0.5, 0.999999)]
    # a running tail summed down from far above the cutoff drifted to 0.9999990000078679
    CASES.append(("coherent", 580000.0, 0.999999))

    @pytest.mark.parametrize("family, mean, tail_eps", CASES)
    def test_policy_cutoff_meets_tail(self, family, mean, tail_eps):
        build, deficit = self.FAMILIES[family]
        state = build(mean, tail_eps=tail_eps)
        assert deficit(state) < tail_eps
        # smallest such cutoff: one less must miss the budget
        cutoff = state.cutoffs[0]
        if cutoff > 0:
            assert deficit(build(mean, cutoff=cutoff - 1)) >= tail_eps


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


def _poisson_cutoff(mean, tail_eps):
    """The coherent-state cutoff search: the one search on the Poisson tail."""
    return _tail_cutoff(lambda k: _poisson_tail(mean, k), tail_eps)


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
        # 4.15e6: the mean lies below DIM_LIMIT, but the tail at DIM_LIMIT is 8.3e-105
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

    @pytest.mark.parametrize("cutoff", [0, 2])
    def test_a_cutoff_below_occupation_is_refused_by_the_cutoff_rule(self, cutoff):
        # the one integer rule refuses it, as any explicit cutoff, before an amplitude is placed
        with pytest.raises(Exception) as caught:
            number_ket(3, cutoff=cutoff)
        assert caught.type is ParameterDomainError
        assert str(caught.value) == f"cutoff must be an integer >= 3, got {cutoff}"


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
        g = rng.standard_normal((65, 65))
        m = (g + g.T) / 130 + 0j
        dense = DensityOperator(m, (65,), trace_deficit=1.0 - np.trace(m).real)
        for a, b in ((dense, dense), (maximally_mixed(65), dense), (dense, maximally_mixed(65))):
            with _allocation_limit(1 << 20):
                with pytest.raises(SizeLimitError, match="4096"):
                    tensor(a, b)
        assert 65 * 65 > DENSE_DIM_LIMIT

    def test_oversized_embed_trips_the_guard_before_any_allocation(self):
        # the padded kets would take 64 MB and 144 MB
        for ket, dims in ((number_ket(1), (DIM_LIMIT + 1,)), (noon_ket(1), (3000, 3000))):
            with _allocation_limit(1 << 20):
                with pytest.raises(SizeLimitError, match=str(DIM_LIMIT)):
                    ket.embed(dims)

    def test_embed_allocates_the_padded_vector_once(self):
        # 58,167 amplitudes of 16 B: no second full-size vector on the way
        ket = spdc_ket(2.0)
        dim = 843 * 69
        with _allocation_limit(int(1.1 * dim * 16)):
            ket.embed((843, 69))

    def test_coherent_pair_build_adopts_its_kets_uncopied(self):
        # a copy of the exp vector added about 40 kB to the warm build's 62 kB peak
        noise = NoiseSpec(n_b=1.0)
        target_pair_single_mode(coherent_ket(1000.0), noise)    # first-call costs stay out
        with _allocation_limit(62_761):
            target_pair_single_mode(coherent_ket(1000.0), noise)

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
        # against a diagonal factor; a dense or pure one makes the zero product dense
        zero = DensityOperator(np.zeros(3), (3,), trace_deficit=1.0)
        for other in (maximally_mixed(2), werner_state(2, 0.3), noon_ket(1).projector()):
            for a, b in [(zero, other), (other, zero)]:
                prod = tensor(a, b)
                assert (prod.matrix is None) == (other.diagonal_or_none() is not None)
                np.testing.assert_array_equal(prod.to_dense(), np.zeros((prod.dim, prod.dim)))
                assert prod.trace_deficit == 1.0

    def test_invalid_subsystem_rejected(self):
        pair = tensor(maximally_mixed(2), maximally_mixed(2))
        with pytest.raises(ParameterDomainError):
            partial_trace(pair, keep=2)
        with pytest.raises(ParameterDomainError):
            partial_trace(maximally_mixed(2), keep=0)
        with pytest.raises(ParameterDomainError, match="integer"):
            partial_trace(pair, keep=1.5)

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
            np.testing.assert_array_equal(ket.projector().ket.support,
                                          np.flatnonzero(ket.amplitudes))
        dense = werner_state(3, 0.6)
        for rho in (thermal_state(NoiseSpec(n_b=1.0)), dense, tensor(dense, maximally_mixed(1))):
            assert rho.ket is None

    def test_basis_projector_keeps_only_its_ket(self):
        proj = number_ket(2, cutoff=4).projector()
        assert proj.ket is not None and proj.matrix is None
        assert proj.diagonal_or_none() is None
        np.testing.assert_array_equal(proj.ket.support, [2])
        np.testing.assert_array_equal(proj.to_dense(), np.diag([0, 0, 1, 0, 0]))
        vals, vecs = spectral_decomposition(proj)
        np.testing.assert_array_equal(vals, [1.0])
        np.testing.assert_array_equal(vecs[:, 0], [0, 0, 1, 0, 0])

    def test_dense_input_with_zero_off_diagonal_is_diagonal(self):
        # only when given as its 1-D diagonal: a square array keeps the dense form
        rho = DensityOperator(np.array([0.75, 0.25]), (2,))
        assert rho.matrix is None
        np.testing.assert_array_equal(rho.diagonal_or_none(), [0.75, 0.25])
        with pytest.raises(ValueError):
            rho.diagonal_or_none()[0] = 1.0
        square = DensityOperator(np.diag([0.75, 0.25]).astype(complex), (2,))
        assert square.diagonal_or_none() is None
        np.testing.assert_array_equal(square.matrix, np.diag([0.75, 0.25]))

    def test_matrix_and_ket_together_rejected(self):
        ket = number_ket(1)
        with pytest.raises(InvalidStateError):
            DensityOperator(np.eye(2), ket.dims, ket=ket)

    def test_negative_eigenvalue_rejected(self):
        for bad in (np.diag([1.5, -0.5]), np.array([[0.5, 1.0], [1.0, 0.5]])):
            with pytest.raises(InvalidStateError):
                spectral_decomposition(DensityOperator(bad.astype(complex), (2,)))

    def test_validate_catches_broken_hermiticity(self):
        # the constructor rejects the input, and the stored copy is read-only; the
        # helper still sees a broken matrix bound to a built state in its place
        mat = np.eye(2, dtype=complex) / 2.0
        mat[0, 1] = 1e-6
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityOperator(mat, (2,))
        mat[0, 1] = 0.0
        rho = DensityOperator(mat, (2,))
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[0, 1] = 1e-6
        mat[0, 1] = 1e-6
        rho.matrix = mat
        with pytest.raises(AssertionError, match="Hermiticity"):
            _assert_valid_state(rho)


def _coherent_marginal(ket):
    """A two-qubit state whose first-qubit marginal is |+><+|: a ket or a dense product."""
    if ket:
        return FockKet(np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0), (2, 2)).projector()
    return tensor(DensityOperator(np.full((2, 2), 0.5), (2,)), maximally_mixed(2))


_NOISE = NoiseSpec(n_b=1.3)
_PRODUCERS = [
    ("thermal", "diagonal", lambda: thermal_state(_NOISE)),
    # the builders' largest measured rounding excesses below NORM_TOL
    ("thermal n_b=1e5", "diagonal", lambda: thermal_state(NoiseSpec(n_b=1e5))),
    ("coherent n_s=1e5", "pure", lambda: coherent_ket(1e5).projector()),
    ("coherent", "pure", lambda: coherent_ket(0.7).projector()),
    ("number", "pure", lambda: number_ket(3).projector()),
    ("basis projector", "pure", lambda: number_ket(2, cutoff=4).projector()),
    ("noon", "pure", lambda: noon_ket(2).projector()),
    ("spdc", "pure", lambda: spdc_ket(0.9).projector()),
    ("maximally entangled", "pure", lambda: maximally_entangled_qudit(3).projector()),
    ("werner x=0", "diagonal", lambda: werner_state(3, 0.0)),
    ("werner x=0.3", "dense", lambda: werner_state(3, 0.3)),
    ("werner x=1", "pure", lambda: werner_state(3, 1.0)),
    ("maximally mixed", "diagonal", lambda: maximally_mixed(4)),
    ("tensor diagonal x diagonal", "diagonal",
     lambda: tensor(thermal_state(_NOISE, cutoff=3), maximally_mixed(2))),
    ("tensor diagonal x pure", "dense", lambda: tensor(maximally_mixed(2), noon_ket(1).projector())),
    ("tensor dense x dense", "dense", lambda: tensor(werner_state(2, 0.3), werner_state(2, 0.3))),
    ("partial trace of a ket", "diagonal", lambda: partial_trace(spdc_ket(0.9).projector(), 1)),
    ("partial trace of a ket, coherent", "dense", lambda: partial_trace(_coherent_marginal(True), 0)),
    ("partial trace of a diagonal", "diagonal",
     lambda: partial_trace(tensor(thermal_state(_NOISE, cutoff=3), maximally_mixed(2)), 0)),
    ("partial trace of a dense state", "diagonal", lambda: partial_trace(werner_state(3, 0.3), 1)),
    ("partial trace of a dense state, coherent", "dense",
     lambda: partial_trace(_coherent_marginal(False), 0)),
] + [
    (f"thermal_case {scenario} rho{side}", "pure" if side else "diagonal",
     lambda scenario=scenario, side=side: getattr(
         validation.thermal_case(scenario, NoiseSpec(n_b=0.75))[0], f"rho{side}"))
    for scenario in validation.THERMAL_SCENARIOS for side in (0, 1)
] + [
    (f"depolarizing_case {kind} x={x} rho{side}", form,
     lambda kind=kind, x=x, side=side: getattr(validation.depolarizing_case(3, kind, x)[0],
                                               f"rho{side}"))
    for kind, x, forms in (("pure", None, ("diagonal", "pure")),
                           ("max_entangled", None, ("diagonal", "pure")),
                           ("werner", 0.0, ("diagonal", "diagonal")),
                           ("werner", 0.5, ("diagonal", "dense")),
                           ("werner", 1.0, ("diagonal", "pure")))
    for side, form in enumerate(forms)
]


@pytest.mark.parametrize("make, form", [(make, form) for _, form, make in _PRODUCERS],
                         ids=[name for name, _, _ in _PRODUCERS])
def test_every_producer_declares_its_form_and_a_trace_at_most_one(make, form):
    rho = make()
    parts = {"pure": rho.ket, "diagonal": rho.diagonal_or_none(), "dense": rho.matrix}
    assert [name for name, part in parts.items() if part is not None] == [form]
    assert rho.trace + rho.trace_deficit <= 1.0 + NORM_TOL


@pytest.mark.parametrize("make", [make for _, _, make in _PRODUCERS],
                         ids=[name for name, _, _ in _PRODUCERS])
def test_every_array_a_built_state_exposes_is_read_only(make):
    rho = make()
    arrays = {"matrix": rho.matrix, "diagonal": rho.diagonal_or_none()}
    if rho.ket is not None:
        arrays.update(amplitudes=rho.ket.amplitudes, support=rho.ket.support)
    assert [name for name, array in arrays.items()
            if array is not None and array.flags.writeable] == []


class TestKetOwnsItsArrays:
    def test_a_write_into_the_input_moves_nothing(self):
        # aliased, the write left norm_sq at 1.0 while the vdot read 0.36, and the pair's
        # QCB at 0.25 while its Helstrom error read 0.34: exact above QCB on one pair
        a = np.array([0.6, 0.8], dtype=complex)
        k = FockKet(a, (2,))
        p = HypothesisPair(maximally_mixed(2), k.projector())
        qcb = chernoff_bound(p).value
        assert a.flags.writeable, "the build must not freeze the caller's array"
        a[1] = 0.0
        np.testing.assert_array_equal(k.amplitudes, [0.6, 0.8])
        assert k.norm_sq == float(np.vdot(k.amplitudes, k.amplitudes).real)
        assert chernoff_bound(p).value == qcb
        assert helstrom_error(p).value <= qcb

    def test_views_are_copied_and_owned_read_only_arrays_adopted(self):
        base = np.array([0.6, 0.8], dtype=complex)
        view = base[:]
        view.flags.writeable = False
        k = FockKet(view, (2,))
        base[1] = 0.0
        np.testing.assert_array_equal(k.amplitudes, [0.6, 0.8])
        owned = np.array([0.6, 0.8], dtype=complex)
        owned.flags.writeable = False
        assert FockKet(owned, (2,)).amplitudes is owned

    def test_amplitudes_and_support_are_read_only(self):
        k = FockKet(np.array([0.6, 0.0, 0.8]), (3,))
        np.testing.assert_array_equal(k.support, [0, 2])
        with pytest.raises(ValueError, match="read-only"):
            k.amplitudes[1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            k.support[0] = 1

    def test_kets_are_equal_only_to_themselves(self):
        a, b = number_ket(1), number_ket(1)
        assert a != b and a == a
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_embed_at_its_own_dims_is_the_ket_itself(self):
        k = spdc_ket(0.5)
        assert k.embed(k.dims) is k

    def test_a_pure_operator_takes_its_ket_deficit(self):
        # accepted before, this took trace 0.72 with deficit 0, so helstrom_error took
        # the dense path and reported deficit 0
        ket = FockKet(np.array([0.6, 0.6]), (2,), 0.28)
        with pytest.raises(InvalidStateError, match="deficit"):
            DensityOperator(None, (2,), trace_deficit=0.0, ket=ket)
        for rho in (DensityOperator(None, (2,), ket=ket),
                    DensityOperator(None, (2,), trace_deficit=0.28, ket=ket), ket.projector()):
            assert (rho.trace, rho.trace_deficit) == (ket.norm_sq, 0.28)
        exact = helstrom_error(HypothesisPair(maximally_mixed(2), ket.projector()))
        assert exact.diagnostics["path"] == "rank_one_secular"
        assert exact.diagnostics["trace_deficits"] == (0.0, 0.28)


def _rejection(make):
    """The message of the InvalidStateError that ``make()`` raises, or None if it builds."""
    try:
        make()
    except InvalidStateError as exc:
        return str(exc)
    return None


class TestConstructorInvariants:
    def test_ket_norm_is_summed_once_at_build_and_is_the_vdot_bit_for_bit(self, monkeypatch):
        sums = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: sums.append(a.size) or vdot(a, b))
        builders = (lambda: coherent_ket(0.7), lambda: spdc_ket(2.0), lambda: noon_ket(2),
                    lambda: number_ket(3), lambda: FockKet(np.array([0.6, 0.8j]), (2,)))
        for build in builders:
            ket = build()
            assert sums == [ket.dim]
            rho = ket.projector()
            reads = (ket.norm_sq, rho.trace, spectral_decomposition(rho)[0][0])
            assert sums == [ket.dim]
            want = float(vdot(ket.amplitudes, ket.amplitudes).real)
            assert [read.hex() for read in reads] == [want.hex()] * 3
            sums.clear()

    def test_diagonal_is_checked_and_clamped_when_built(self):
        # an entry in [-EIG_CLAMP_TOL, 0) is stored as 0, and a lower one is rejected
        for entry in (-1e-13, -0.1):
            try:
                stored = DensityOperator(np.array([0.5, 0.5, entry]), (3,)).diagonal_or_none()
            except InvalidStateError as exc:
                assert entry < -EIG_CLAMP_TOL and "PSD" in str(exc)
            else:
                assert entry >= -EIG_CLAMP_TOL
                np.testing.assert_array_equal(stored, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dense_input_is_checked_for_hermiticity_when_built(self, dtype):
        # let through, eigh read one triangle only: [[0.5, 0.9], [0, 0.5]] against
        # maximally_mixed(2) gave exact, QCB and LB all 0.5, as if it were I/2.  Each
        # part of A - A^H may reach EIG_CLAMP_TOL, absolute, and no further
        units = (1.0, 1j) if dtype is complex else (1.0,)
        cases = [([[0.5, 0.9], [0.0, 0.5]], False)] + [
            ([[0.5, unit * skew], [0.0, 0.5]], ok) for unit in units
            for skew, ok in ((EIG_CLAMP_TOL, True), (2.0 * EIG_CLAMP_TOL, False))]
        if dtype is complex:
            cases.append(([[0.5, 0.1j], [0.1j, 0.5]], False))   # symmetric, not Hermitian
        for entries, ok in cases:
            try:
                DensityOperator(np.array(entries, dtype=dtype), (2,))
            except InvalidStateError as exc:
                assert not ok and "Hermitian" in str(exc), entries
            else:
                assert ok, entries

    @pytest.mark.parametrize("skew, ok", [(1.1e-12, False), (0.9e-12, True)])
    def test_hermiticity_rule_reads_each_part_of_one_difference(self, skew, ok):
        # A - A^H is formed once; its real part is Re A - Re A^T and its imaginary part
        # Im A + Im A^T, and each alone decides against EIG_CLAMP_TOL, absolute
        off = 0.1 + 0.2j
        cases = {
            "complex, real part": [[0.5, off + skew], [off.conjugate(), 0.5]],
            "complex, imaginary part": [[0.5, off + 1j * skew], [off.conjugate(), 0.5]],
            "real": [[0.5, 0.1 + skew], [0.1, 0.5]],
            "complex diagonal": [0.5, 0.5 + 0.5j * skew],
        }
        for name, entries in cases.items():
            matrix = np.array(entries)
            reach = max(np.abs(matrix.real - matrix.real.T).max(),
                        np.abs(matrix.imag + matrix.imag.T).max())
            assert 0.8e-12 < reach < 1.2e-12, name
            try:
                DensityOperator(matrix, (2,))
            except InvalidStateError as exc:
                assert not ok and f"reaches {reach:.3e}" in str(exc), name
            else:
                assert ok, name

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

    def test_complex_diagonal_is_checked_like_its_dense_form(self):
        # let through, [0.5 + 0.1j, 0.5] lost its imaginary part with only a ComplexWarning
        # and read as [0.5, 0.5].  On the diagonal A - A^H is 2i Im A, so a diagonal and
        # its dense form pass or fail together, and a passing one is stored real, silently
        for imag in (0.5 * EIG_CLAMP_TOL, EIG_CLAMP_TOL, 0.1):
            entries = np.array([0.5 + 1j * imag, 0.5])
            for matrix in (entries, np.diag(entries)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    message = _rejection(lambda: DensityOperator(matrix, (2,)))
                if imag <= 0.5 * EIG_CLAMP_TOL:
                    assert message is None, matrix
                else:
                    assert message is not None and "Hermitian" in message, matrix
        stored = DensityOperator(np.array([0.5 + 1e-13j, 0.5]), (2,)).diagonal_or_none()
        assert stored.dtype == np.float64
        np.testing.assert_array_equal(stored, [0.5, 0.5])

    def test_amplitudes_must_be_one_vector(self):
        # let through, this 2-D array kept its shape: against maximally_mixed(4)
        # chernoff_bound raised IndexError, and helstrom_error returned 0.125
        message = _rejection(lambda: FockKet(np.array([[0.6, 0.0], [0.0, 0.8]]), (4,)))
        assert message is not None and "does not match" in message

    def test_dims_whose_product_wraps_int64_are_rejected(self):
        # np.prod of (2**32, 2**32) wraps to 0 in int64, which let an empty vector through
        with pytest.raises(InvalidStateError, match="does not match"):
            FockKet(np.zeros(0), (2**32, 2**32))

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
            half = np.full(2, 0.5 * (1.0 - edge))
            assert DensityOperator(half, (2,), trace_deficit=edge).trace_deficit == edge
            unit = np.array([0.6, 0.8]) * math.sqrt(1.0 - edge)
            assert FockKet(unit, (2,), norm_deficit=edge).norm_deficit == edge


def _density_stack(rng, size, dim, dtype, scale=1.0):
    """``size`` random dim x dim density matrices of ``dtype``, exactly Hermitian, with traces
    ``scale`` to rounding."""
    g = rng.standard_normal((size, dim, dim)).astype(dtype)
    if dtype is complex:
        g += 1j * rng.standard_normal((size, dim, dim))
    m = g @ g.conj().swapaxes(1, 2)
    m = 0.5 * (m + m.conj().swapaxes(1, 2))
    return m * (scale / np.trace(m, axis1=1, axis2=2).real)[:, None, None]


def _spoil(matrix, fault):
    """``matrix`` with one ``fault`` the dense-state checks must catch."""
    bad = matrix.copy()
    if fault in ("nan", "inf"):
        bad[1, 2] = float(fault)
    elif fault == "skew":
        bad[0, 1] += 3.0 * EIG_CLAMP_TOL
    elif fault in ("trace above", "trace below"):
        bad *= 1.0 + (3.0 if fault == "trace above" else -3.0) * NORM_TOL
    else:
        bad = bad[:, :-1]
    return bad


class TestDenseStack:
    """DensityOperator.stack checks a stack of dense states once, and each state it gives is
    the state DensityOperator(matrix, dims) gives, which is a stack of one."""

    @pytest.mark.parametrize("size, dims, deficit", [
        (1, (4,), None), (2, (2, 3), 0.25), (130, (4,), None), (2, (130,), 0.5)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_stack_gives_the_bits_of_single_states(self, size, dims, deficit, dtype):
        rng = np.random.default_rng(size)
        matrices = _density_stack(rng, size, math.prod(dims), dtype, 1.0 - (deficit or 0.0))
        stacked = DensityOperator.stack(matrices, dims, trace_deficit=deficit)
        assert len(stacked) == size
        for i, (rho, matrix) in enumerate(zip(stacked, matrices)):
            alone = DensityOperator(matrix, dims, trace_deficit=deficit)
            for got in (rho, alone):
                assert (got.matrix.dtype, got.matrix.flags.writeable) == (matrix.dtype, False), i
                assert got.matrix.tobytes() == matrix.tobytes(), i
                assert got.trace.hex() == float(np.trace(matrix).real).hex(), i
                assert (got.dims, got.cutoffs, got.dim, got.trace_deficit) == (
                    dims, tuple(d - 1 for d in dims), matrix.shape[0], deficit or 0.0), i
                assert got.ket is None and got.diagonal_or_none() is None, i
        matrices[0, 0, 0] = 2.0
        assert stacked[0].matrix[0, 0] != 2.0, "a state views its own checked copy"

    @pytest.mark.parametrize("fault", ["nan", "inf", "skew", "trace above", "trace below",
                                       "shape"])
    @pytest.mark.parametrize("size, position", [
        (1, 0), (2, 0), (2, 1), (130, 0), (130, 64), (130, 129)])
    def test_a_faulty_state_raises_as_it_does_alone(self, size, position, fault):
        rng = np.random.default_rng(position)
        for dtype in (float, complex):
            matrices = list(_density_stack(rng, size, 4, dtype))
            matrices[position] = _spoil(matrices[position], fault)
            alone = _rejection(lambda: DensityOperator(matrices[position], (4,)))
            assert alone is not None, (dtype, fault)
            assert _rejection(lambda: DensityOperator.stack(matrices, (4,))) == alone, dtype
            assert _rejection(lambda: DensityOperator.stack(np.array(matrices[position])[None],
                                                            (4,))) == alone, dtype

    def test_the_size_guard_and_an_empty_stack(self):
        with pytest.raises(SizeLimitError):
            DensityOperator.stack(np.zeros((0, 1, 1)), (DIM_LIMIT + 1,))
        assert DensityOperator.stack(np.zeros((0, 3, 3)), (3,)) == []


class TestArithmeticFollowsTheInput:
    """A dense matrix is stored float64 when its input is real and complex128 when it is
    complex, and every product and decomposition of it keeps that arithmetic."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_dense_state_keeps_its_input_arithmetic_downstream(self, dtype):
        rho = DensityOperator(werner_state(3, 0.3).matrix.astype(dtype), (3, 3))
        coherent = tensor(DensityOperator(np.full((2, 2), 0.5, dtype=dtype), (2,)),
                          maximally_mixed(2))
        mixed = tensor(maximally_mixed(3), maximally_mixed(3))
        products = {
            "matrix": rho.matrix,
            "to_dense": rho.to_dense(),
            "tensor dense x dense": tensor(rho, rho).matrix,
            "tensor diagonal x dense": tensor(mixed, rho).matrix,
            "partial_trace": partial_trace(coherent, 0).matrix,
            "eigenvectors": spectral_decomposition(rho)[1],
        }
        assert {name: m.dtype for name, m in products.items()} == dict.fromkeys(products, dtype)
        # squared overlaps |<u|v>|**2 are real whatever the eigenvectors are
        for pair in (HypothesisPair(mixed, rho), HypothesisPair(rho, rho)):
            assert pair.overlap.weights.dtype == np.float64

    def test_real_forms_and_builders_stay_real(self):
        assert werner_state(8, 0.5).matrix.dtype == np.float64
        assert maximally_mixed(3).to_dense().dtype == np.float64
        assert tensor(maximally_mixed(2), maximally_mixed(2)).to_dense().dtype == np.float64
        # kets stay complex, and so does anything built with one
        assert number_ket(1, cutoff=2).projector().to_dense().dtype == np.complex128
        assert tensor(maximally_mixed(2), noon_ket(1).projector()).matrix.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float32])
    def test_other_real_inputs_are_stored_as_float64_copies(self, dtype):
        mat = np.array([[1, 0], [0, 0]], dtype=dtype)
        rho = DensityOperator(mat, (2,))
        assert rho.matrix.dtype == np.float64 and not np.shares_memory(rho.matrix, mat)
        assert DensityOperator(mat.astype(np.complex64), (2,)).matrix.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_float64_and_complex128_inputs_are_stored_as_read_only_copies(self, dtype):
        mat = np.eye(2, dtype=dtype) / 2.0
        rho = DensityOperator(mat, (2,))
        assert rho.matrix.dtype == dtype and not np.shares_memory(rho.matrix, mat)
        assert not rho.matrix.flags.writeable and mat.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_a_write_into_the_input_leaves_the_state_and_its_overlap(self, dtype):
        source = werner_state(2, 0.5).matrix.astype(dtype)
        pair = depolarizing_pair(DensityOperator(source, (2, 2)), bipartite=True)
        rho, kept = pair.rho1, pair.rho1.matrix.copy()
        overlap = pair.overlap
        assert source.flags.writeable, "the build must not freeze the caller's array"
        source[0, 3] = source[3, 0] = 0.0          # the state's coherence, gone from the input
        np.testing.assert_array_equal(rho.matrix, kept)
        rebuilt = HypothesisPair(pair.rho0, rho).overlap
        for name in ("vals0", "vals1", "weights"):
            np.testing.assert_array_equal(getattr(overlap, name), getattr(rebuilt, name))
        assert overlap.minimum == rebuilt.minimum


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


#: 50-digit decimal arithmetic with an exponent range wide enough for tau**(2 M) at M = 1e6
_DECIMAL = decimal.Context(prec=50, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def _lower_reference(log_overlap, copies):
    """(value, ln value) of (1/2)(1 - sqrt(1 - tau**(2 M))) at 50 digits, from the exact
    float ln tau, in the rationalized form inner / (2 (1 + sqrt(1 - inner))), inner =
    tau**(2 M), which no cancellation limits at any precision."""
    ctx = _DECIMAL
    x = ctx.multiply(decimal.Decimal(2 * copies), decimal.Decimal(log_overlap))
    inner = ctx.exp(x)
    denominator = ctx.multiply(2, ctx.add(1, ctx.sqrt(ctx.subtract(1, inner))))
    return ctx.divide(inner, denominator), ctx.subtract(x, ctx.ln(denominator))


class TestLowerReadout:
    """fock._lower_readout, the one M-copy readout of the oracle's and the closed forms'
    Bhattacharyya bounds, against an independent 50-digit evaluation; validate's
    lower-vs-oracle rows read both sides through it and cannot see a fault in it."""

    @pytest.mark.parametrize("copies", [1, 10**3, 10**6])
    def test_matches_a_50_digit_reference(self, copies):
        # First-order error model, u = 2**-53.  With x = 2 M ln tau, inner = e**x and
        # r = sqrt(1 - inner), ln v = x - ln(2 (1 + r)) moves by kappa = 1 + inner / (2 r
        # (1 + r)) per unit of x or of ln inner.  The readout rounds x once (u |x|, moved by
        # kappa) and reads inner from exp within one ulp (2u, moved by kappa in the value and
        # by kappa - 1 in the log, which takes x directly).  The value's path then calls
        # log1p and expm1, each within one ulp, whose errors reach v amplified by at most
        # r |ln r| / (1 - r) <= 1; its halvings are exact.  The log's path rounds 1 - inner
        # (u), sqrt (u), 1 + r (u) and log (one ulp of ln(2 (1 + r)) <= ln 4, 2.8u), under
        # 5u in all, and its final subtraction u |ln v|.  A value below the normal range
        # adds the roundings of exp and of the two halvings, under 2**-1073 in all.
        u = 2.0**-53
        log_overlaps = -np.logspace(-12, math.log10(800.0), 61)
        value, ln = _lower_readout(log_overlaps, copies)
        for k, log_overlap in enumerate(log_overlaps.tolist()):
            ref_value, ref_ln = map(float, _lower_reference(log_overlap, copies))
            x = 2.0 * copies * log_overlap
            r = math.sqrt(-math.expm1(x))
            kappa = 1.0 + math.exp(x) / (2.0 * r * (1.0 + r))
            ln_bound = u * (kappa * abs(x) + 2.0 * (kappa - 1.0) + 5.0 + abs(ref_ln))
            value_bound = u * (kappa * abs(x) + 2.0 * kappa + 4.0) * ref_value + 2.0**-1073
            assert abs(ln[k] - ref_ln) <= ln_bound, (log_overlap, ln[k], ref_ln)
            assert abs(value[k] - ref_value) <= value_bound, (log_overlap, value[k], ref_value)
            # the readout is elementwise: a number reads the bits of its array entry
            assert tuple(map(float, _lower_readout(log_overlap, copies))) == (value[k], ln[k])

    def test_an_overlap_at_or_above_one_reads_one_half(self):
        for log_overlap in (0.0, 1e-17, 1e-3, math.inf):
            value, ln = _lower_readout(log_overlap, 7)
            assert (value, ln) == (0.5, -math.log(2.0))
        assert _lower_readout(-math.inf, 7) == (0.0, -math.inf)
