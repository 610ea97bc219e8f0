"""The public surface, and the integer rule every module shares."""

import inspect
import math

import numpy as np
import pytest

import targetdetect
from targetdetect import (
    DepolarizingInput,
    NoiseSpec,
    ParameterDomainError,
    chernoff_bound,
    coherent_ket,
    depolarizing_error,
    maximally_entangled_qudit,
    maximally_mixed,
    noon_ket,
    noon_lower,
    noon_qcb,
    number_ket,
    number_state_error,
    spdc_ket,
    target_pair_bipartite,
    target_pair_single_mode,
    thermal_state,
    werner_advantage_threshold,
    werner_state,
)
from targetdetect import channels, closed_forms, fock, oracle, validation
from targetdetect.cli import main, validate

PUBLIC_API = [
    "BoundKind", "BoundResult", "CurveSeries", "DensityOperator", "DepolarizingInput",
    "FockKet", "HypothesisPair", "InvalidStateError", "LimitValues", "NoiseRegime",
    "NoiseSpec", "ParameterDomainError", "SizeLimitError", "ValidationReport",
    "asymptotic_limits", "bhattacharyya_lower", "bright_noise_spdc_exponent",
    "chernoff_bound", "coherent_ket", "coherent_lower", "coherent_qcb", "default_config",
    "depolarizing_error", "depolarizing_pair", "figure1_series", "figure2_series",
    "figure3_series", "helstrom_error", "maximally_entangled_qudit", "maximally_mixed",
    "noon_ket", "noon_lower", "noon_qcb", "noon_threshold", "number_ket",
    "number_state_error", "partial_trace", "render_csv", "run_validation",
    "spdc_ket", "spdc_lower", "spdc_qcb", "target_pair_bipartite",
    "target_pair_single_mode", "tensor", "thermal_state", "weak_noise_crossover",
    "werner_advantage_threshold", "werner_state",
]

REMOVED = {
    targetdetect: ("Scenario", "matrix_power", "trace_norm", "pure_pure_error", "q_s"),
    fock: ("matrix_power", "eigenvalue_power", "trace_norm", "HERMITICITY_TOL"),
    oracle: ("pure_pure_error", "q_s", "q_s_grid"),
    channels: ("Scenario",),
    closed_forms: (
        "number_state_error_log10", "noon_qcb_log10", "noon_lower_log10",
        "coherent_qcb_log10", "coherent_lower_log10", "spdc_qcb_log10", "spdc_lower_log10",
        "number_state_base",
    ),
    fock.FockKet: ("amplitude", "overlap", "mean_occupation"),
    fock.DensityOperator: ("validate",),
}


def test_public_names_are_pinned():
    assert targetdetect.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(targetdetect, name) is not None


@pytest.mark.parametrize("owner", list(REMOVED), ids=lambda o: o.__name__)
def test_removed_names_stay_gone(owner):
    for name in REMOVED[owner]:
        assert not hasattr(owner, name), name


@pytest.mark.parametrize("fn,signature", [
    (closed_forms.weak_noise_crossover, "()"),
    (closed_forms.bright_noise_spdc_exponent, "(n_s)"),
], ids=["weak_noise_crossover", "bright_noise_spdc_exponent"])
def test_closed_form_signatures_are_pinned(fn, signature):
    assert str(inspect.signature(fn)) == signature


def test_chernoff_bound_signature_is_pinned():
    # the Chernoff minimum has no setting: no caller sets a grid or a tolerance, and
    # the Overlap fixes it from the pair alone when it is built
    assert str(inspect.signature(chernoff_bound)) == "(pair, copies=1)"
    assert str(inspect.signature(oracle.Overlap)) == "(pair)"


def _exit_code(argv):
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def test_validate_has_no_s_grid_setting(tmp_path):
    assert [p.name for p in validate.params] == ["config_path", "tol", "tail_eps", "seed", "out"]
    assert "s_grid" not in validation.default_config()
    config = tmp_path / "sweep.cfg"
    config.write_text("s_grid=5\n")
    assert _exit_code(["validate", "--s-grid", "5"]) == 1
    assert _exit_code(["validate", "--config", str(config)]) == 1


def test_hypothesis_pair_holds_only_the_states():
    pair = target_pair_single_mode(number_ket(1), NoiseSpec(n_b=1.0))
    assert list(vars(pair)) == ["rho0", "rho1"]


_NOISE = NoiseSpec(beta=0.5)

NON_INTEGERS = {
    "number_state_error n=2.5": lambda: number_state_error(2.5, _NOISE),
    "noon_qcb n=1.5": lambda: noon_qcb(1.5, _NOISE),
    "noon_lower n=1.5": lambda: noon_lower(1.5, _NOISE),
    "depolarizing_error d=2.9": lambda: depolarizing_error(2.9, DepolarizingInput.PURE),
    "werner_advantage_threshold d=2.5": lambda: werner_advantage_threshold(2.5),
    "number_ket n=2.5": lambda: number_ket(2.5),
    "number_ket n=nan": lambda: number_ket(math.nan),
    "number_ket n=inf": lambda: number_ket(math.inf),
    "number_ket cutoff=3.5": lambda: number_ket(2, cutoff=3.5),
    "noon_ket n=1.5": lambda: noon_ket(1.5),
    "maximally_entangled_qudit d=2.5": lambda: maximally_entangled_qudit(2.5),
    "werner_state d=2.9": lambda: werner_state(2.9, 0.5),
    "maximally_mixed d=3.5": lambda: maximally_mixed(3.5),
    "maximally_mixed d=inf": lambda: maximally_mixed(math.inf),
    "thermal_state cutoff=2.5": lambda: thermal_state(_NOISE, cutoff=2.5),
    "thermal_state cutoff=nan": lambda: thermal_state(_NOISE, cutoff=math.nan),
    "coherent_ket cutoff=4.5": lambda: coherent_ket(1.0, cutoff=4.5),
    "spdc_ket cutoff=3.5": lambda: spdc_ket(0.5, cutoff=3.5),
    "target_pair_single_mode cutoff=40.5":
        lambda: target_pair_single_mode(number_ket(1), _NOISE, cutoff=40.5),
    "target_pair_bipartite cutoff=40.5":
        lambda: target_pair_bipartite(noon_ket(1), _NOISE, cutoff=40.5),
}


@pytest.mark.parametrize("call", list(NON_INTEGERS.values()), ids=list(NON_INTEGERS))
def test_non_integer_arguments_raise_instead_of_truncating(call):
    with pytest.raises(ParameterDomainError):
        call()


def test_integral_floats_and_numpy_integers_pass():
    assert number_state_error(2.0, _NOISE) == number_state_error(2, _NOISE)
    assert number_ket(np.int64(3)).dims == (4,)
    assert werner_state(np.int32(3), 0.5).dims == (3, 3)
    assert maximally_mixed(4.0).dims == (4,)
    assert thermal_state(_NOISE, cutoff=np.float64(4.0)).dims == (5,)
    assert spdc_ket(0.5, cutoff=np.int64(3)).dims == (4, 4)
    pair = target_pair_single_mode(number_ket(1), _NOISE, cutoff=np.int64(6))
    assert pair.dims == (7,)
    assert chernoff_bound(pair, copies=2.0).copies == 2
