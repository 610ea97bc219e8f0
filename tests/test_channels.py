"""Hypothesis-pair constructors."""

import math

import numpy as np
import pytest

from targetdetect import (
    InvalidStateError,
    NoiseSpec,
    ParameterDomainError,
    coherent_ket,
    depolarizing_pair,
    maximally_entangled_qudit,
    noon_ket,
    number_ket,
    partial_trace,
    spdc_ket,
    target_pair_bipartite,
    target_pair_single_mode,
    thermal_state,
    werner_state,
)
from targetdetect.fock import FockKet


class TestDepolarizingPair:
    def test_single_party_structure(self):
        pair = depolarizing_pair(number_ket(0, cutoff=1))
        np.testing.assert_allclose(pair.rho0.to_dense(), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(
            pair.rho1.to_dense(), np.diag([1.0, 0.0]), atol=1e-15
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bipartite_entangled_input(self, d):
        pair = depolarizing_pair(maximally_entangled_qudit(d), bipartite=True)
        np.testing.assert_allclose(
            pair.rho0.to_dense(), np.eye(d * d) / d**2, atol=1e-14
        )

    def test_mixed_werner_input(self):
        d = 3
        pair = depolarizing_pair(werner_state(d, 0.4), bipartite=True)
        np.testing.assert_allclose(
            pair.rho0.to_dense(), np.eye(d * d) / d**2, atol=1e-14
        )
        np.testing.assert_allclose(
            pair.rho1.to_dense(), werner_state(d, 0.4).to_dense(), atol=1e-15
        )

    def test_non_unit_ket_rejected(self):
        bad = FockKet(np.array([0.5, 0.5]), (2,))
        with pytest.raises(InvalidStateError):
            depolarizing_pair(bad)


class TestTargetSingleMode:
    def test_number_input_structure(self):
        noise = NoiseSpec(n_b=1.0)
        pair = target_pair_single_mode(number_ket(2), noise)
        expected = thermal_state(noise, cutoff=pair.cutoffs[0])
        np.testing.assert_allclose(
            pair.rho0.diagonal_or_none(), expected.diagonal_or_none(), rtol=1e-15
        )
        rho1 = pair.rho1
        assert rho1.ket is not None and rho1.diagonal_or_none() is None
        np.testing.assert_array_equal(rho1.ket_support, [2])
        assert rho1.ket.amplitudes[2] == 1.0
        assert (rho1.trace, rho1.trace_deficit) == (1.0, 0.0)

    def test_coherent_input_keeps_deficits(self):
        noise = NoiseSpec(n_b=0.75)
        ket = coherent_ket(0.5)
        pair = target_pair_single_mode(ket, noise)
        assert pair.rho1.trace_deficit == ket.norm_deficit
        assert pair.rho0.dims == pair.rho1.dims

    def test_zero_noise_gives_rank_one_vacuum(self):
        pair = target_pair_single_mode(coherent_ket(0.5), NoiseSpec(n_b=0.0))
        diag = pair.rho0.diagonal_or_none()
        assert diag[0] == pytest.approx(1.0)
        assert np.count_nonzero(diag > 1e-15) == 1

    def test_cutoff_below_support_rejected(self):
        with pytest.raises(ParameterDomainError):
            target_pair_single_mode(number_ket(5), NoiseSpec(n_b=1.0), cutoff=3)

    def test_two_mode_input_rejected(self):
        with pytest.raises(ParameterDomainError):
            target_pair_single_mode(noon_ket(1), NoiseSpec(n_b=1.0))


class TestTargetBipartite:
    def test_noon_structure(self):
        noise = NoiseSpec(n_b=1.0)
        pair = target_pair_bipartite(noon_ket(2), noise)
        # channel-0 output: thermal on the signal, half-half idler marginal
        idler = partial_trace(pair.rho0, keep=1)
        expected = np.zeros(5)
        expected[0] = expected[4] = 0.5
        got = idler.diagonal_or_none() / idler.trace
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_spdc_marginal_is_thermal(self):
        n_s, n_b = 0.8, 1.2
        pair = target_pair_bipartite(spdc_ket(n_s), NoiseSpec(n_b=n_b))
        idler = partial_trace(pair.rho0, keep=1)
        expected = thermal_state(NoiseSpec(n_b=n_s), cutoff=idler.dim - 1)
        np.testing.assert_allclose(
            idler.diagonal_or_none(), expected.diagonal_or_none(), rtol=1e-10
        )

    @pytest.mark.parametrize("n_mode_builder", [noon_ket, lambda n: spdc_ket(0.7)])
    def test_idler_marginal_identical_under_both_hypotheses(self, n_mode_builder):
        pair = target_pair_bipartite(n_mode_builder(2), NoiseSpec(n_b=0.9))
        m0 = partial_trace(pair.rho0, keep=1)
        m1 = partial_trace(pair.rho1, keep=1)
        np.testing.assert_allclose(m0.to_dense(), m1.to_dense(), atol=1e-10)

    def test_idler_compression_keeps_support_only(self):
        pair = target_pair_bipartite(noon_ket(3), NoiseSpec(n_b=1.0), compress_idler=True)
        assert pair.rho0.dims[1] == 2
        # the idler keeps |0> and |6>: column 0 holds |6,0>, column 1 holds |0,6>
        block = pair.rho1.ket.amplitudes.reshape(pair.dims)
        assert np.count_nonzero(block) == 2
        assert block[6, 0] == pytest.approx(1 / math.sqrt(2))
        assert block[0, 1] == pytest.approx(1 / math.sqrt(2))

    def test_compression_leaves_overlaps_unchanged(self):
        from targetdetect import bhattacharyya_lower, chernoff_bound

        noise = NoiseSpec(n_b=0.5)
        full = target_pair_bipartite(noon_ket(2), noise, compress_idler=False)
        compact = target_pair_bipartite(noon_ket(2), noise, compress_idler=True)
        assert chernoff_bound(full, 2).value == pytest.approx(
            chernoff_bound(compact, 2).value, rel=1e-12, abs=0
        )
        assert bhattacharyya_lower(full, 2).value == pytest.approx(
            bhattacharyya_lower(compact, 2).value, rel=1e-12, abs=0
        )

    def test_common_cutoff_embedding_never_truncates_down(self):
        noise = NoiseSpec(n_b=5.0)     # thermal support far beyond the input
        pair = target_pair_bipartite(noon_ket(1), noise)
        assert pair.dims[0] >= thermal_state(noise).dim
        assert pair.rho1.trace == pytest.approx(1.0, abs=1e-14)

    def test_mismatched_modes_rejected(self):
        with pytest.raises(ParameterDomainError):
            target_pair_bipartite(number_ket(1), NoiseSpec(n_b=1.0))

    def test_trace_budget(self):
        pair = target_pair_bipartite(spdc_ket(1.0), NoiseSpec(n_b=1.0))
        for rho in (pair.rho0, pair.rho1):
            assert rho.trace + rho.trace_deficit == pytest.approx(1.0, abs=1e-9)
