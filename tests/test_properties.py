"""Structural invariants on random inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from targetdetect import (
    DensityOperator,
    NoiseSpec,
    bhattacharyya_lower,
    chernoff_bound,
    coherent_ket,
    helstrom_error,
    noon_ket,
    number_ket,
    partial_trace,
    spdc_ket,
    target_pair_bipartite,
    target_pair_single_mode,
    tensor,
)
from targetdetect import closed_forms as cf
from targetdetect.oracle import Overlap

DIM = 3
_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _density(parts, dim):
    m = parts[0] + 1j * parts[1]
    rho = m @ m.conj().T + 0.05 * np.eye(dim)
    return DensityOperator(rho / np.trace(rho).real, (dim,))


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (2, 2, DIM, DIM), elements=_floats))
def test_partial_trace_undoes_tensor(parts):
    a = _density(parts[0], DIM)
    b = _density(parts[1], DIM)
    prod = tensor(a, b)
    np.testing.assert_allclose(partial_trace(prod, 0).to_dense(), a.to_dense(), atol=1e-12)
    np.testing.assert_allclose(partial_trace(prod, 1).to_dense(), b.to_dense(), atol=1e-12)


def _dense_factor(parts):
    """A dense operator from the real and imaginary parts of a square matrix; one
    off-diagonal entry is set nonzero so that the state is stored dense."""
    m = parts[0] + 1j * parts[1]
    m[0, -1] = 0.5 + 0.25j
    return DensityOperator(m, (m.shape[0],))


_square_parts = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: arrays(np.float64, (2, n, n), elements=_floats))
_diagonals = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.one_of(st.just(np.zeros(n)),
                        arrays(np.float64, (n,), elements=st.floats(0.0, 1.0))))


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(_diagonals, _diagonals)
def test_tensor_of_diagonals_is_np_kron_bit_for_bit(da, db):
    # a zero factor included: the product is then the zero diagonal
    prod = tensor(DensityOperator(da, (da.size,)), DensityOperator(db, (db.size,)))
    assert _same_bits(prod.diagonal_or_none(), np.kron(da, db))


@settings(max_examples=60, deadline=None)
@given(_square_parts, _square_parts)
def test_tensor_of_dense_factors_is_np_kron_bit_for_bit(pa, pb):
    a, b = _dense_factor(pa), _dense_factor(pb)
    assert _same_bits(tensor(a, b).to_dense(), np.kron(a.to_dense(), b.to_dense()))


@settings(max_examples=60, deadline=None)
@given(_diagonals, _square_parts, st.booleans())
def test_tensor_of_diagonal_and_dense_is_np_kron_bit_for_bit(diag, parts, diagonal_first):
    a, b = DensityOperator(diag, (diag.size,)), _dense_factor(parts)
    if not diagonal_first:
        a, b = b, a
    prod, want = tensor(a, b), np.kron(a.to_dense(), b.to_dense())
    if diag.any():
        assert _same_bits(prod.to_dense(), want)
    else:
        # a zero diagonal factor gives the zero diagonal, whose zeros carry no sign
        assert prod.diagonal_or_none() is not None
        assert np.array_equal(prod.to_dense(), want)


def _random_pair(rng, dim=4):
    out = []
    for _ in range(2):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        out.append(DensityOperator(rho / np.trace(rho).real, (dim,)))
    return tuple(out)


class TestRandomPairInvariants:
    def setup_method(self):
        self.rng = np.random.default_rng(424242)

    def test_sandwich_and_monotonicity(self):
        for _ in range(25):
            pair = _random_pair(self.rng)
            previous = None
            for m in (1, 2, 3):
                lb = bhattacharyya_lower(pair, m).value
                ex = helstrom_error(pair, m).value
                ub = chernoff_bound(pair, m).value
                assert lb <= ex + 1e-9
                assert ex <= ub + 1e-9
                if previous is not None:
                    assert ex <= previous[0] + 1e-9
                    assert ub <= previous[1] + 1e-9
                previous = (ex, ub)

    def test_bhattacharyya_point_dominates_chernoff(self):
        # the s = 1/2 evaluation is a weaker upper bound than the minimum
        for _ in range(10):
            pair = _random_pair(self.rng)
            for m in (1, 3):
                weaker = 0.5 * Overlap(pair).evaluate([0.5])[0] ** m
                assert chernoff_bound(pair, m).value <= weaker + 1e-12

    def test_log_q_convex_on_grid(self):
        for _ in range(10):
            pair = _random_pair(self.rng)
            qs = Overlap(pair).evaluate(np.linspace(0.0, 1.0, 101))
            assert np.all(qs > 0.0)
            second = np.diff(np.log(qs), 2)
            assert second.min() > -1e-9

    def test_symmetry_under_swap(self):
        # the trace norm and the s grid are symmetric up to s -> 1-s
        pair = _random_pair(self.rng)
        swapped = (pair[1], pair[0])
        assert helstrom_error(pair, 2).value == pytest.approx(
            helstrom_error(swapped, 2).value, abs=1e-12
        )
        assert chernoff_bound(pair, 1).value == pytest.approx(
            chernoff_bound(swapped, 1).value, rel=1e-9, abs=0
        )

    def test_unitary_invariance(self):
        pair = _random_pair(self.rng)
        g = self.rng.standard_normal((4, 4)) + 1j * self.rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        rotated = tuple(
            DensityOperator(u @ rho.to_dense() @ u.conj().T, (4,)) for rho in pair
        )
        for m in (1, 2):
            assert helstrom_error(rotated, m).value == pytest.approx(
                helstrom_error(pair, m).value, abs=1e-11
            )
            assert bhattacharyya_lower(rotated, m).value == pytest.approx(
                bhattacharyya_lower(pair, m).value, abs=1e-10
            )


class TestConstructedPairInvariants:
    def test_commuting_exactness_every_copy_count(self):
        noise = NoiseSpec(n_b=1.5)
        pair = target_pair_single_mode(number_ket(3), noise)
        for m in (1, 2, 3, 7, 25):
            assert chernoff_bound(pair, m).value == pytest.approx(
                helstrom_error(pair, m).value, rel=1e-12, abs=0
            )

    def test_log_q_convex_for_scenario_pairs(self):
        noise = NoiseSpec(n_b=0.8)
        for pair in (
            target_pair_single_mode(coherent_ket(0.6), noise),
            target_pair_bipartite(noon_ket(2), noise, compress_idler=True),
        ):
            qs = Overlap(pair).evaluate(np.linspace(0.0, 1.0, 101))
            positive = qs > 0.0
            second = np.diff(np.log(qs[positive]), 2)
            assert second.min() > -1e-9

    def test_idler_marginal_unchanged_by_channel(self):
        pair = target_pair_bipartite(noon_ket(2), NoiseSpec(n_b=1.0))
        m0 = partial_trace(pair.rho0, 1).to_dense()
        m1 = partial_trace(pair.rho1, 1).to_dense()
        np.testing.assert_allclose(m0, m1, atol=1e-10)


@st.composite
def _truncated_ket_pairs(draw):
    """A coherent, squeezed-vacuum or N00N input against thermal noise: a pure rho1 with
    trace deficits, the pairs the rank-one secular path serves."""
    noise = NoiseSpec(n_b=draw(st.floats(min_value=0.01, max_value=2.0)))
    family = draw(st.sampled_from(("coherent", "spdc", "noon")))
    if family == "coherent":
        return target_pair_single_mode(coherent_ket(draw(st.floats(0.01, 3.0))), noise)
    if family == "spdc":
        return target_pair_bipartite(spdc_ket(draw(st.floats(0.01, 2.0))), noise)
    return target_pair_bipartite(noon_ket(draw(st.integers(1, 4))), noise,
                                 compress_idler=draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(_truncated_ket_pairs(), st.integers(min_value=1, max_value=3))
def test_rank_one_exact_lies_in_the_sandwich(pair, copies):
    overlap = Overlap(pair)
    exact = helstrom_error(pair, copies)
    assert exact.diagnostics["path"] == "rank_one_secular"
    lower = bhattacharyya_lower(overlap, copies).value
    upper = chernoff_bound(overlap, copies).value
    assert lower <= exact.value <= upper * (1.0 + 1e-9)


_signal_photons = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-300),      # subnormal-sized and tiny
    st.floats(min_value=0.0, max_value=3.0),         # the figure's range
    st.floats(min_value=-8.0, max_value=4.0).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=1e4),
)
_copies = st.one_of(st.sampled_from([1, 2, 10, 100, 2000]), st.integers(min_value=1, max_value=2000))


@settings(max_examples=100, deadline=None)
@given(st.lists(_signal_photons, min_size=1, max_size=100), _copies)
def test_weak_noise_array_is_bitwise_the_scalar_calls(points, copies):
    # the figure3 grid is evaluated in one call; each point must read exactly
    # as its own scalar call, in the value and in the log10 of every pair
    got = cf._weak_noise(np.array(points), copies)
    for k, pair in enumerate(got):
        for half, column in enumerate(pair):
            expected = np.array([cf._weak_noise(x, copies)[k][half] for x in points])
            assert column.shape == (len(points),)
            assert column.tobytes() == expected.tobytes(), (k, half)
