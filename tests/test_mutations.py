"""The mutation register: each law or reference check must catch a named fault.

Every entry names a module of the package, a source fragment that occurs in it
exactly once, a faulty replacement, and the check that must fail once the fault
is in.  The faulty module is built in memory from the edited source; nothing is
written to ``src/``.  Its functions and classes then stand in for the real ones
in every loaded module that binds them, for the duration of the check only.

To add an entry, copy the fragment verbatim from the source, write the fault as
its replacement, and name the test (``file::Class::test`` or ``file::test``)
that catches it; a parametrized test gets its arguments as zero-argument
factories, which run after the fault is in, and a test that takes ``monkeypatch`` gets the
register's own.  A refactor that removes a fragment
fails its entry, so the register cannot silently go stale.
"""

import importlib
import importlib.util
import inspect
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from targetdetect import (DensityOperator, NoiseSpec, coherent_ket, figure1_series, maximally_mixed,
                          partial_trace, target_pair_single_mode, tensor, validation, werner_state)


@dataclass(frozen=True)
class Mutation:
    module: str          # module of the package, e.g. "oracle"
    fragment: str        # occurs exactly once in its source
    replacement: str     # the fault
    check: str           # "test_file.py::Class::test" or "test_file.py::test"
    kwargs: dict = field(default_factory=dict)   # name -> zero-argument factory


MUTATIONS = {
    "rank-one solve drops the ket's mass off rho0's support": Mutation(
        "oracle", "w0 = max(1.0 - float(w.sum()), 0.0)", "w0 = 0.0",
        "test_oracle.py::TestPurePure::test_coherent_vs_vacuum_matches_oracle"),
    "rank-one solve reads rho0's spectrum for a ket on either side": Mutation(
        "oracle", "(overlap.vals1, overlap.vals0)[side],\n" + " " * 43
        + "overlap.weights.sum(axis=side), overlap.ends[side]",
        "overlap.vals0,\n" + " " * 43 + "overlap.weights.sum(axis=1), overlap.ends[1]",
        "test_oracle.py::TestSwapSymmetry::test_swapped_pair_gives_the_same_bounds",
        {"pair": lambda: validation.thermal_case("coherent", NoiseSpec(n_b=1.0), n_s=0.5)[0]}),
    "Overlap row stack built without the eigenvector weights W": Mutation(
        "oracle", "rows *= weights[:, None]", "rows *= 1.0",
        "test_oracle.py::TestOverlapKernel::test_grid_matches_per_s_reference",
        {"make_pair": lambda: lambda: validation.depolarizing_case(2, "werner", 0.5)[0]}),
    # the swap makes each matrix the complex conjugate of the right one, with the same
    # spectrum and the same |<u|v>|**2, so the validate report (and its golden digest)
    # does not move; the check is the draw's bit-for-bit reference
    "validate's random pairs draw the imaginary plane first": Mutation(
        "validation", "z[:, :, 0] + 1j * z[:, :, 1]", "z[:, :, 1] + 1j * z[:, :, 0]",
        "test_oracle.py::test_random_pairs_are_one_draw_per_matrix_bit_for_bit",
        {"seed": lambda: validation.DEFAULT_CONFIG["seed"], "dim": lambda: 4}),
    "contraction sums rho0's side first whatever its length": Mutation(
        "oracle", "elif x.shape[-1] >= y.shape[-1]:", "elif True:",
        "test_oracle.py::TestOverlapKernel::test_a_pair_and_its_swap_contract_to_the_same_bits",
        {"make_pair": lambda: lambda: validation.thermal_case(
            "coherent", NoiseSpec(n_b=1.0), n_s=0.5)[0]}),
    "grid contraction pairs each s with another s's rho1 power": Mutation(
        "oracle", "b ** (1.0 - s))", "b ** (1.0 - s[::-1]))",
        "test_oracle.py::TestOverlapKernel::test_a_grid_carries_each_points_bits"),
    "the power rule drops the sqrt at s = 1/2": Mutation(
        "oracle", "np.where(half, np.sqrt(a), a**s), np.where(half, np.sqrt(b), b ** (1.0 - s))",
        "a**s, b ** (1.0 - s)",
        "test_oracle.py::TestOverlapKernel::test_a_grid_carries_each_points_bits"),
    "rank-one weights summed along the wrong axis": Mutation(
        "oracle", "overlap.weights.sum(axis=side)", "overlap.weights.sum(axis=1 - side)",
        "test_oracle.py::TestRankOneSecular::"
        "test_the_solve_reads_the_kets_weights_on_the_other_support",
        {"flip": lambda: False}),
    "Newton bracket update ignores the active mask": Mutation(
        "oracle", "i = np.flatnonzero(active)", "i = np.flatnonzero(newton)",
        "test_oracle.py::TestStackedBuild::test_stacked_pairs_carry_the_bits_of_single_builds",
        {"seed": lambda: validation.DEFAULT_CONFIG["seed"], "dim": lambda: 4,
         "count": lambda: 100}),
    "Helstrom sums the signed eigenvalues of rho0**M - rho1**M, not their moduli": Mutation(
        "oracle", "float(np.abs(eig).sum())", "float(eig.sum())",
        "test_oracle.py::test_random_chunk_errors_lie_in_the_sandwich",
        {"dim": lambda: 4, "copies": lambda: 2}),
    "chunk convexity takes each grid point's minimum over the pairs": Mutation(
        "validation", ".min(axis=1, initial=0.0)", ".min(axis=0, initial=0.0)",
        "test_oracle.py::test_chunk_convexity_reads_each_pairs_own_bend"),
    "channel 0 keeps the signal's marginal, not the idler's": Mutation(
        "channels", "partial_trace(rho1, keep=1)", "partial_trace(rho1, keep=0)",
        "test_channels.py::TestChannelRule::test_each_builder_is_the_composition_bit_for_bit",
        {"case": lambda: "depolarizing asymmetric product"}),
    "thermal grid keeps each probe's signal marginal, not its idler's": Mutation(
        "channels", "partial_trace(ket.projector(), keep=1)",
        "partial_trace(ket.projector(), keep=0)",
        "test_channels.py::TestChannelRule::test_each_builder_is_the_composition_bit_for_bit",
        {"case": lambda: "asymmetric ket cutoff=1"}),
    "thermal grid keys a shared thermal state by its cutoff alone": Mutation(
        "channels", "key = (noise, common)", "key = common",
        "test_oracle.py::TestThermalGrid::test_an_explicit_cutoff_grid_is_each_pairs_own_build",
        {"compress": lambda: False}),
    "stacked build shares a build with a pair that needs masking": Mutation(
        "oracle", "if not 0 < np.count_nonzero(terms) == terms.size:", "if False:",
        "test_oracle.py::TestStackedBuild::test_a_member_that_needs_masking_is_built_alone"),
    "validate's chunk loop holds its chunk while the next is drawn": Mutation(
        "validation", "        del pairs", "        pass",
        "test_oracle.py::test_no_chunk_of_random_pairs_outlives_its_checks"),
    "validate's chunk loop drops the last partial chunk": Mutation(
        "validation", "range(0, count, size)", "range(0, count - count % size, size)",
        "test_oracle.py::test_random_chunks_hold_every_pair_once",
        {"count": lambda: validation._chunk_size(4) + 1}),
    "Chernoff search record stored as a plain, writable dict": Mutation(
        "oracle", "s, q, MappingProxyType(how)", "s, q, how",
        "test_oracle.py::TestPairOverlapCache::test_the_stored_search_record_cannot_be_changed"),
    "secular Newton stops at 4 eps instead of 4 M eps": Mutation(
        "oracle", "step <= 4.0 * copies * _EPS * delta", "step <= 4.0 * _EPS * delta",
        "test_oracle.py::TestRankOneSecular::"
        "test_basis_state_keeps_the_chernoff_float_at_any_copy_count"),
    "Helstrom log taken from a subnormal value alone": Mutation(
        "oracle", "if value >= _TINY else", "if value > 0.0 else",
        "test_oracle.py::TestHelstrom::test_point_mass_log_value_survives_underflow"),
    "secular Newton takes twice its step and overshoots the root": Mutation(
        "oracle", "step = f / slope", "step = 2.0 * f / slope",
        "test_oracle.py::TestFuchsVanDeGraaf::test_exact_error_obeys_the_fidelity_bound"),
    "secular Newton starts from the expanded M-copy sum, not q**M": Mutation(
        "oracle", "    iterations = 0\n", "    delta, iterations = float(d @ w), 0\n",
        "test_oracle.py::test_sandwich_holds_exactly_on_ket_pairs",
        {"make_pair": lambda: lambda: target_pair_single_mode(coherent_ket(150.0),
                                                              NoiseSpec(n_b=0.5))}),
    "Chernoff endpoint decision reads q at the other end": Mutation(
        "oracle", "(1.0, q1, slope1) if slope1 < 0.0 else (0.0, q0, slope0)",
        "(1.0, q0, slope1) if slope1 < 0.0 else (0.0, q1, slope0)",
        "test_oracle.py::TestDataProcessing::test_tracing_out_the_idler_never_lowers_a_bound"),
    "int fast path lets copy counts below 1 through": Mutation(
        "fock", "if 1 <= copies <= _MAX_INT_COPIES:", "if copies <= _MAX_INT_COPIES:",
        "test_oracle.py::test_copy_count_rule_is_the_same_on_both_paths", {"copies": lambda: 0}),
    "embed puts the ket in the trailing corner": Mutation(
        "fock", "tuple(map(slice, self.dims))",
        "tuple(slice(d - o, d) for d, o in zip(dims, self.dims))",
        "test_properties.py::test_embed_is_np_pad_bit_for_bit"),
    "FockKet adopts a writable input without copying": Mutation(
        "fock", "if not amps.flags.owndata or (amps is amplitudes and amps.flags.writeable):",
        "if not amps.flags.owndata:",
        "test_fock.py::TestKetOwnsItsArrays::test_a_write_into_the_input_moves_nothing"),
    "constructor lets a super-normalized state through": Mutation(
        "fock", "if trace + deficit > 1.0 + NORM_TOL:", "if False:",
        "test_oracle.py::test_super_normalized_state_never_breaks_the_sandwich",
        {"make": lambda: lambda: DensityOperator(np.array([0.7, 0.7]), (2,))}),
    "constructor lets a sub-normalized state through": Mutation(
        "fock", "if not vector and trace + deficit < 1.0 - NORM_TOL:", "if False:",
        "test_oracle.py::test_sub_normalized_state_never_breaks_the_sandwich",
        {"make": lambda: lambda: DensityOperator(np.array([0.5, 0.0]), (2,))}),
    "M-copy lower readout takes 1 - inner for its square root": Mutation(
        "fock", "0.5 * np.log1p(-inner)", "np.log1p(-inner)",
        "test_fock.py::TestLowerReadout::test_matches_a_50_digit_reference",
        {"copies": lambda: 1}),
    "constructor stores a diagonal without its PSD check and clamp": Mutation(
        "fock", "self._diagonal = _clamped_eigenvalues(matrix.real)",
        "self._diagonal = matrix.real.astype(float)",
        "test_fock.py::TestConstructorInvariants::test_diagonal_is_checked_and_clamped_when_built"),
    "constructor drops a complex diagonal's imaginary part unchecked": Mutation(
        "fock",
        'if matrix.dtype.kind == "c":\n                _check_hermitian(matrix[:, None, None])',
        "if False:\n                pass",
        "test_fock.py::TestConstructorInvariants::"
        "test_complex_diagonal_is_checked_like_its_dense_form"),
    "FockKet takes an amplitude array of the right size but not one vector": Mutation(
        "fock", "if amps.shape != (math.prod(self.dims),):",
        "if amps.size != math.prod(self.dims):",
        "test_fock.py::TestConstructorInvariants::test_amplitudes_must_be_one_vector"),
    "explicit cutoff floor dropped": Mutation(
        "fock", "least=n)", "least=0)",
        "test_fock.py::TestNumberKet::test_a_cutoff_below_occupation_is_refused_by_the_cutoff_rule",
        {"cutoff": lambda: 2}),
    "cutoff search returns the bracket's bottom, one below the smallest cutoff": Mutation(
        "fock", "    return hi\n", "    return max(lo, 0)\n",
        "test_fock.py::TestThermalState::test_policy_cutoff_meets_tail",
        {"family": lambda: "thermal", "mean": lambda: 1.0, "tail_eps": lambda: 1e-12}),
    "a pair takes a side that is not a DensityOperator": Mutation(
        "channels", "all(isinstance(rho, DensityOperator) for rho", "all(True for rho",
        "test_channels.py::TestHypothesisPair::test_each_side_must_be_a_density_operator"),
    "constructor takes a non-Hermitian dense input": Mutation(
        "fock", "if skew > EIG_CLAMP_TOL:", "if False:",
        "test_fock.py::TestConstructorInvariants::"
        "test_dense_input_is_checked_for_hermiticity_when_built",
        {"dtype": lambda: float}),
    "stacked Hermitian check reads only the stack's first state": Mutation(
        "fock", "_check_hermitian(checked)", "_check_hermitian(checked[:1])",
        "test_fock.py::TestDenseStack::test_a_faulty_state_raises_as_it_does_alone",
        {"size": lambda: 2, "position": lambda: 1, "fault": lambda: "skew"}),
    "constructor aliases a float64 or complex128 dense input": Mutation(
        "fock", 'matrices.astype(complex if matrices.dtype.kind == "c" else float)',
        'matrices.astype(complex if matrices.dtype.kind == "c" else float, copy=False)',
        "test_fock.py::TestArithmeticFollowsTheInput::"
        "test_a_write_into_the_input_leaves_the_state_and_its_overlap",
        {"dtype": lambda: np.float64}),
    "dense Helstrom power is built one factor short": Mutation(
        "oracle", "for bit in bin(copies)[3:]:", "for bit in bin(copies - 1)[3:]:",
        "test_oracle.py::TestHelstrom::test_dense_tensor_power_is_the_np_kron_power_bit_for_bit",
        {"make_pair": lambda: lambda: (werner_state(2, 0.3), werner_state(2, 0.7)),
         "copies": lambda: 2}),
    "partial trace calls a marginal with coherences diagonal": Mutation(
        "fock", "np.count_nonzero(mat) == np.count_nonzero(on_diag) and ", "",
        "test_fock.py::test_every_producer_declares_its_form_and_a_trace_at_most_one",
        {"make": lambda: lambda: partial_trace(
            tensor(DensityOperator(np.full((2, 2), 0.5), (2,)), maximally_mixed(2)), 0),
         "form": lambda: "dense"}),
    "N00N lower bound's root overlap takes n - 1 photons": Mutation(
        "closed_forms", "math.log1p(math.exp(-n * beta))", "math.log1p(math.exp(-(n - 1) * beta))",
        "test_figure_twins.py::test_every_plotted_point_matches_its_oracle_twin",
        {"series": lambda: figure1_series()[2], "kind": lambda: "lb",
         "pair_at": lambda: lambda m: (validation.thermal_case(
             "noon", NoiseSpec(beta=0.05), n=100)[0], int(m)),
         "tol": lambda: 0.0}),
    "closed forms read a parameter column's points back in reversed order": Mutation(
        "closed_forms", "[log_form(*point) for point in points]",
        "[log_form(*point) for point in points][::-1]",
        "test_closed_forms.py::TestParameterBroadcast::"
        "test_a_parameter_column_keeps_each_points_scalar_bits",
        {"name": lambda: "_spdc_lower"}),
    "validate lists a block's closed-form columns value-major, its pairs noise-major": Mutation(
        "validation", "np.array([value for _, value in points])[:, None],\n" + " " * 19
        + "np.array([noise if by_n else noise.n_b for noise, _ in points])[:, None])",
        "np.array([value for value in config[key] for _ in noises])[:, None],\n" + " " * 19
        + "np.array([noise if by_n else noise.n_b for _ in config[key] for noise in noises])"
        "[:, None])",
        "test_figures_cli.py::TestCliValidate::"
        "test_a_blocks_closed_forms_are_its_points_scalar_calls",
        {"scenario": lambda: "number"}),
    "validate keeps a worst location's template, not its formatted text": Mutation(
        "validation", "self.worst = where.format(*args) if args else where", "self.worst = where",
        "test_figures_cli.py::TestCliValidate::test_worst_location_is_formatted_from_its_args"),
    "CSV row template takes the label's % unescaped": Mutation(
        "figures", 's.label.replace("%", "%%")', "s.label",
        "test_figures_cli.py::TestCsv::test_percent_in_a_label_prints_verbatim",
        {"label": lambda: "100%%"}),
    "CSV rows of one grid serve every series on a grid of the same length": Mutation(
        "figures", "id(s.x)", "len(s.x)",
        "test_figures_cli.py::test_any_series_list_renders_as_the_per_field_formatter",
        {"x_name": lambda: "n_s"}),
    "CSV prints a -0.0 value as a literal 0": Mutation(
        "figures", " & ~np.signbit(values)", "",
        "test_figures_cli.py::TestCsv::test_copy_rows_match_the_per_field_formatter",
        {"m": lambda: np.arange(1, 10, dtype=np.int64)}),
}


def _mutant(name, source):
    """A fresh module object run from ``source`` as ``targetdetect.<name>``, not registered."""
    spec = importlib.util.spec_from_loader(f"targetdetect.{name}", loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "targetdetect"
    exec(compile(source, f"<mutant of {name}.py>", "exec"), module.__dict__)
    return module


def _install(real, mutant, monkeypatch):
    """Rebind each function and class of ``real`` to its ``mutant`` twin in every loaded module."""
    twins = {id(obj): getattr(mutant, attr) for attr, obj in vars(real).items()
             if (inspect.isfunction(obj) or inspect.isclass(obj))
             and obj.__module__ == real.__name__}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, obj in list(namespace.items()):
            if id(obj) in twins:
                monkeypatch.setattr(module, attr, twins[id(obj)])


def _check(node):
    """The test function (bound, for a method) that ``node`` names."""
    path, *names = node.split("::")
    target = importlib.import_module(Path(path).stem)
    for attr in names:
        target = getattr(target, attr)
        if inspect.isclass(target):
            target = target()
    return target


def _installed_check(entry, edit, monkeypatch):
    """``entry``'s check as a thunk, with its module rebuilt from ``edit(source)`` and bound."""
    real = importlib.import_module(f"targetdetect.{entry.module}")
    source = Path(real.__file__).read_text(encoding="utf-8")
    assert source.count(entry.fragment) == 1, "fragment must occur exactly once"
    mutant = _mutant(entry.module, edit(source))
    check = _check(entry.check)
    _install(real, mutant, monkeypatch)
    # a check that patches takes the register's own monkeypatch, undone with the fault
    own = {"monkeypatch": monkeypatch} if "monkeypatch" in inspect.signature(check).parameters else {}
    return lambda: check(**own, **{name: make() for name, make in entry.kwargs.items()})


@pytest.mark.parametrize("fault", MUTATIONS)
def test_named_check_catches_the_fault(fault, monkeypatch):
    entry = MUTATIONS[fault]
    check = _installed_check(
        entry, lambda source: source.replace(entry.fragment, entry.replacement), monkeypatch)
    with pytest.raises(AssertionError):
        check()


@pytest.mark.parametrize("fault", MUTATIONS)
def test_named_check_passes_on_the_rebuilt_unchanged_module(fault, monkeypatch):
    # the rebuild and rebinding alone must not fail the check
    _installed_check(MUTATIONS[fault], lambda source: source, monkeypatch)()
