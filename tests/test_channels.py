"""Hypothesis-pair constructors."""

import math

import numpy as np
import pytest

from targetdetect import (
    HypothesisPair,
    InvalidStateError,
    NoiseSpec,
    ParameterDomainError,
    coherent_ket,
    depolarizing_pair,
    maximally_entangled_qudit,
    maximally_mixed,
    noon_ket,
    number_ket,
    partial_trace,
    spdc_ket,
    target_pair_bipartite,
    target_pair_single_mode,
    tensor,
    thermal_state,
    werner_state,
)
from targetdetect.fock import DensityOperator, FockKet


class TestHypothesisPair:
    def test_each_side_must_be_a_density_operator(self):
        # let through, a ket side built a pair on which chernoff_bound raised
        # AttributeError ('FockKet' object has no attribute 'ket') and helstrom_error
        # one for diagonal_or_none
        ket = number_ket(0, cutoff=1)
        for sides in ((maximally_mixed(2), ket), (ket, maximally_mixed(2))):
            try:
                HypothesisPair(*sides)
            except InvalidStateError as exc:
                assert "ket.projector()" in str(exc)
            else:
                raise AssertionError("a pair with a FockKet side was built")
        assert HypothesisPair(maximally_mixed(2), ket.projector()).rho1.ket is ket

    def test_states_on_different_spaces_are_rejected(self):
        # by the pair, so no bound ever sees them
        werner = werner_state(2, 0.5)
        thermal = thermal_state(NoiseSpec(n_b=1.0), cutoff=2)
        for states in ((maximally_mixed(1), maximally_mixed(3)), (werner, thermal),
                       (maximally_mixed(3), thermal_state(NoiseSpec(n_b=1.0), cutoff=3))):
            with pytest.raises(InvalidStateError, match="different spaces"):
                HypothesisPair(*states)


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
        np.testing.assert_array_equal(rho1.ket.support, [2])
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


def _bits(rho):
    """Everything a DensityOperator holds, as bytes and float hex."""
    held = rho.ket.amplitudes if rho.ket is not None else (
        rho.matrix if rho.matrix is not None else rho.diagonal_or_none())
    return (rho.dims, rho.trace.hex(), rho.trace_deficit.hex(), rho.ket is not None,
            rho.matrix is not None, held.dtype.str, held.tobytes())


def _thermal_composition(ket, noise, cutoff=None, compress_idler=False):
    """The thermal pair spelled out from fock's primitives: the signal cutoff is the explicit
    one or the larger of the support and thermal_state's own; channel 0 puts the thermal
    state on the signal and keeps the idler's marginal, channel 1 returns the probe."""
    common = cutoff if cutoff is not None else max(ket.dims[0] - 1,
                                                   thermal_state(noise).cutoffs[0])
    if compress_idler:
        block = ket.amplitudes.reshape(ket.dims)
        keep = np.flatnonzero(block.any(axis=0))
        ket = FockKet(block[:, keep].ravel(), (ket.dims[0], keep.size), ket.norm_deficit)
    rho1 = ket.embed((common + 1,) + ket.dims[1:]).projector()
    thermal = thermal_state(noise, cutoff=common)
    return (thermal if ket.n_modes == 1 else tensor(thermal, partial_trace(rho1, keep=1))), rho1


def _depolarizing_composition(rho1):
    """The depolarizing pair spelled out: I/d on the first subsystem, any second one's
    marginal kept."""
    mixed = maximally_mixed(rho1.dims[0])
    return (mixed if len(rho1.dims) == 1 else tensor(mixed, partial_trace(rho1, keep=1))), rho1


_NOISE = NoiseSpec(n_b=0.8)
#: an entangled two-mode ket whose two marginals differ: 0.6 |0,1> + 0.8 |1,0>
_ASYMMETRIC = FockKet(np.array([0.0, 0.6, 0.8, 0.0]), (2, 2))
#: a product state whose two marginals differ
_PRODUCT = DensityOperator(np.kron([0.3, 0.7], [0.9, 0.1]), (2, 2))
#: name -> (the pair a public builder gives, the composition it must equal)
CASES = {
    "number": lambda: (target_pair_single_mode(number_ket(2), _NOISE),
                       _thermal_composition(number_ket(2), _NOISE)),
    "number cutoff=7": lambda: (target_pair_single_mode(number_ket(2), _NOISE, cutoff=7),
                                _thermal_composition(number_ket(2), _NOISE, 7)),
    "noon compressed": lambda: (target_pair_bipartite(noon_ket(2), _NOISE, compress_idler=True),
                                _thermal_composition(noon_ket(2), _NOISE, compress_idler=True)),
    "noon full": lambda: (target_pair_bipartite(noon_ket(2), _NOISE),
                          _thermal_composition(noon_ket(2), _NOISE)),
    "noon compressed cutoff=9": lambda: (
        target_pair_bipartite(noon_ket(2), _NOISE, cutoff=9, compress_idler=True),
        _thermal_composition(noon_ket(2), _NOISE, 9, compress_idler=True)),
    "coherent": lambda: (target_pair_single_mode(coherent_ket(0.5), _NOISE),
                         _thermal_composition(coherent_ket(0.5), _NOISE)),
    "coherent cutoff=6": lambda: (target_pair_single_mode(coherent_ket(0.5, 6), _NOISE, 6),
                                  _thermal_composition(coherent_ket(0.5, 6), _NOISE, 6)),
    "spdc": lambda: (target_pair_bipartite(spdc_ket(0.7), _NOISE),
                     _thermal_composition(spdc_ket(0.7), _NOISE)),
    "spdc compressed cutoff=5": lambda: (
        target_pair_bipartite(spdc_ket(0.7, 5), _NOISE, 5, compress_idler=True),
        _thermal_composition(spdc_ket(0.7, 5), _NOISE, 5)),
    "asymmetric ket cutoff=1": lambda: (target_pair_bipartite(_ASYMMETRIC, _NOISE, cutoff=1),
                                        _thermal_composition(_ASYMMETRIC, _NOISE, 1)),
    "depolarizing pure": lambda: (depolarizing_pair(number_ket(0, cutoff=2)),
                                  _depolarizing_composition(number_ket(0, cutoff=2).projector())),
    "depolarizing max_entangled": lambda: (
        depolarizing_pair(maximally_entangled_qudit(3), bipartite=True),
        _depolarizing_composition(maximally_entangled_qudit(3).projector())),
    **{f"depolarizing werner x={x:g}": lambda x=x: (
        depolarizing_pair(werner_state(3, x), bipartite=True),
        _depolarizing_composition(werner_state(3, x))) for x in (0.0, 0.5, 1.0)},
    "depolarizing asymmetric product": lambda: (
        depolarizing_pair(_PRODUCT, bipartite=True), _depolarizing_composition(_PRODUCT)),
}


class TestChannelRule:
    """Every public builder gives the pair of the one channel rule, bit for bit."""

    @pytest.mark.parametrize("case", CASES)
    def test_each_builder_is_the_composition_bit_for_bit(self, case):
        pair, (rho0, rho1) = CASES[case]()
        assert (_bits(pair.rho0), _bits(pair.rho1)) == (_bits(rho0), _bits(rho1)), case

    def test_spdc_idler_is_full_so_compression_keeps_its_pair(self):
        for cutoff in (None, 3):
            pairs = [target_pair_bipartite(spdc_ket(0.7, cutoff), _NOISE, cutoff,
                                           compress_idler=compress) for compress in (False, True)]
            full, compressed = ((_bits(p.rho0), _bits(p.rho1)) for p in pairs)
            assert full == compressed

    def test_a_probe_with_the_wrong_mode_count_is_refused(self):
        for build, ket in ((target_pair_single_mode, noon_ket(1)),
                           (target_pair_bipartite, number_ket(1))):
            with pytest.raises(ParameterDomainError, match="mode input ket"):
                build(ket, _NOISE)
        for state, bipartite in ((werner_state(2, 0.5), False), (maximally_mixed(2), True)):
            with pytest.raises(ParameterDomainError, match="subsystem input"):
                depolarizing_pair(state, bipartite=bipartite)
