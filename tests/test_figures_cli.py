"""Figure datasets, CSV emission, and the command-line interface."""

import math

import numpy as np
import pytest

from targetdetect import (
    CurveSeries,
    NoiseSpec,
    ParameterDomainError,
    figure1_series,
    figure2_series,
    figure3_series,
    render_csv,
)
from targetdetect import closed_forms as cf
from targetdetect.cli import main
from targetdetect.figures import FIGURE2_DEFAULT_SETS, figure2_copy_grid
from targetdetect.validation import OUT_OF_SCOPE_NOTE, _Tracker, run_validation


def run_cli(argv, capsys):
    code = 0
    try:
        main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


class TestSeries:
    @pytest.mark.parametrize("build, kwargs", [
        (figure1_series, {"m_max": 3.7}),
        (figure1_series, {"m_max": math.nan}),
        (figure1_series, {"m_max": math.inf}),
        (figure1_series, {"m_max": 0}),
        (figure2_copy_grid, {"samples": 5.9}),
        (figure2_copy_grid, {"samples": math.nan}),
        (figure2_copy_grid, {"samples": -1}),
        (figure3_series, {"steps": 4.5}),
        (figure3_series, {"steps": math.inf}),
        (figure3_series, {"steps": 1}),
    ])
    def test_grid_sizes_are_integers_not_truncated(self, build, kwargs):
        with pytest.raises(ParameterDomainError):
            build(**kwargs)

    def test_figure1_ordering_and_range(self):
        for n in (100, 20):
            series = {s.label: s for s in figure1_series(beta=0.05, n=n, m_max=120)}
            assert set(series) == {"number_exact", "noon_qcb", "noon_lb"}
            for s in series.values():
                assert np.all(np.diff(s.x) > 0)
                assert np.all(s.values >= 0.0)
                assert np.all(s.values <= 0.5)
                assert np.all(np.isfinite(s.log10_values))
            # lower bound never exceeds the upper bound, rowwise
            assert np.all(
                series["noon_lb"].log10_values <= series["noon_qcb"].log10_values + 1e-12
            )

    def test_figure1_value_matches_log10_until_underflow(self):
        series = {s.label: s for s in figure1_series(beta=0.05, n=20, m_max=60)}
        s = series["number_exact"]
        positive = s.values > 0.0
        np.testing.assert_allclose(
            np.log10(s.values[positive]), s.log10_values[positive], atol=1e-12
        )

    def test_figure1_columns_are_the_public_closed_forms(self):
        noise = NoiseSpec(beta=0.05)
        series = {s.label: s for s in figure1_series(beta=0.05, n=100, m_max=200)}
        for label, value_fn, evaluate in (
            ("number_exact", cf.number_state_error, cf._number_state_error),
            ("noon_qcb", cf.noon_qcb, cf._noon_qcb),
            ("noon_lb", cf.noon_lower, cf._noon_lower),
        ):
            s = series[label]
            assert np.array_equal(s.values, value_fn(100, noise, s.x))
            assert np.array_equal(s.log10_values, evaluate(100, noise, s.x)[1])

    def test_figure2_columns_are_the_public_closed_forms(self):
        series = {s.label: s for s in figure2_series()}
        for n_b, n_s in FIGURE2_DEFAULT_SETS:
            tag = f"[nb={n_b:g},ns={n_s:g}]"
            for name, value_fn, evaluate in (
                ("coh_qcb", cf.coherent_qcb, cf._coherent_qcb),
                ("coh_lb", cf.coherent_lower, cf._coherent_lower),
                ("spdc_qcb", cf.spdc_qcb, cf._spdc_qcb),
                ("spdc_lb", cf.spdc_lower, cf._spdc_lower),
            ):
                s = series[name + tag]
                assert np.array_equal(s.values, value_fn(n_s, n_b, s.x))
                assert np.array_equal(s.log10_values, evaluate(n_s, n_b, s.x)[1])

    @pytest.mark.parametrize("copies", [1, 7])
    def test_figure3_values_are_the_weak_noise_limits(self, copies):
        series = {s.label: s for s in figure3_series(steps=60, copies=copies)}
        for label, field in (("coh_exact", "coherent"), ("spdc_qcb", "spdc_qcb"),
                             ("spdc_lb", "spdc_lower")):
            s = series[label]
            expected = [getattr(cf.asymptotic_limits(x, copies, cf.NoiseRegime.WEAK_NOISE), field)
                        for x in s.x]
            assert np.array_equal(s.values, expected)
        for k, label in enumerate(("coh_exact", "spdc_qcb", "spdc_lb")):
            s = series[label]
            expected = [cf._weak_noise(x, copies)[k][1] for x in s.x]
            assert np.array_equal(s.log10_values, expected)

    def test_figure2_copy_grid_is_deduplicated_integer(self):
        grid = figure2_copy_grid(4.0, 50)
        assert grid.dtype.kind == "i"
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == 1
        assert grid[-1] == 10_000

    def test_figure2_default_emits_both_parameter_sets(self):
        labels = [s.label for s in figure2_series()]
        assert "coh_qcb[nb=0.75,ns=0.5]" in labels
        assert "spdc_lb[nb=2,ns=30]" in labels
        assert len(labels) == 8

    def test_figure2_explicit_set_plain_labels(self):
        series = {s.label: s for s in figure2_series(n_s=0.5, n_b=0.75, log_m_max=3)}
        assert set(series) == {"coh_qcb", "coh_lb", "spdc_qcb", "spdc_lb"}
        for s in series.values():
            assert np.all(np.isfinite(s.log10_values))
        assert np.all(
            series["coh_lb"].log10_values <= series["coh_qcb"].log10_values + 1e-12
        )
        assert np.all(
            series["spdc_lb"].log10_values <= series["spdc_qcb"].log10_values + 1e-12
        )

    def test_figure3_crossover_visible(self):
        series = {s.label: s for s in figure3_series()}
        coh = series["coh_exact"]
        lb = series["spdc_lb"]
        diff = lb.values - coh.values
        assert diff[0] < 0.0        # entangled lower bound starts below
        assert diff[-1] > 0.0       # and ends above the coherent error
        assert np.all(series["spdc_lb"].values <= series["spdc_qcb"].values + 1e-15)

    def test_figure3_small_signal_approaches_half(self):
        series = figure3_series(n_s_min=1e-9, n_s_max=0.1, steps=3)
        for s in series:
            assert s.values[0] == pytest.approx(0.5, abs=1e-4)


def _reference_csv(series_list, x_name="m"):
    """render_csv's bytes, one field at a time: the per-field formatting it replaced."""
    lines = ["series,m,value,log10_value" if x_name == "m" else "series,n_s,value,log10_value"]
    for s in series_list:
        for x, v, lv in zip(s.x, s.values, s.log10_values):
            x_text = str(int(x)) if x_name == "m" else f"{float(x):.17g}"
            lines.append(f"{s.label},{x_text},{float(v):.17g},{float(lv):.17g}")
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0])
_EDGE_TEXT = {"0", "-0", "4.9406564584124654e-324", "1e+308", "inf", "-inf", "nan"}


class TestCsv:
    @pytest.mark.parametrize("m", [
        np.arange(1, _EDGE_FLOATS.size + 1, dtype=np.int64),
        np.array([1.0, 2.0, 3.0, 10.0, 1e3, 2.0**53, 1e18, 7.9, -0.0]),
    ], ids=["int64", "float"])
    def test_copy_rows_match_the_per_field_formatter(self, m):
        series = [CurveSeries("a", m, _EDGE_FLOATS, _EDGE_FLOATS[::-1]),
                  CurveSeries("empty", m[:0], _EDGE_FLOATS[:0], _EDGE_FLOATS[:0]),
                  CurveSeries("b", m[::-1], _EDGE_FLOATS[::-1], _EDGE_FLOATS)]
        text = render_csv(series)
        assert text == _reference_csv(series)
        assert _EDGE_TEXT <= set(text.replace("\n", ",").split(","))
        as_lists = [CurveSeries(s.label, list(s.x), list(s.values), list(s.log10_values))
                    for s in series]
        assert render_csv(as_lists) == text

    def test_signal_rows_match_the_per_field_formatter(self):
        series = [CurveSeries("s", _EDGE_FLOATS, _EDGE_FLOATS[::-1], _EDGE_FLOATS),
                  figure3_series(n_s_min=0.0, steps=7)[0]]
        text = render_csv(series, x_name="n_s")
        assert text == _reference_csv(series, x_name="n_s")
        assert text.startswith("series,n_s,value,log10_value\ns,0,0.33333333333333331,0\n")
        assert _EDGE_TEXT <= set(text.replace("\n", ",").split(","))

    def test_round_trip_format(self):
        text = render_csv(figure1_series(n=20, m_max=3))
        lines = text.strip().split("\n")
        assert lines[0] == "series,m,value,log10_value"
        assert len(lines) == 1 + 3 * 3
        label, m, value, log10_value = lines[1].split(",")
        assert label == "number_exact"
        assert m == "1"
        assert math.log10(float(value)) == pytest.approx(float(log10_value), abs=1e-12)

    def test_determinism(self):
        a = render_csv(figure2_series(log_m_max=2, samples=10))
        b = render_csv(figure2_series(log_m_max=2, samples=10))
        assert a == b

    def test_underflowed_value_prints_zero_with_finite_log(self):
        text = render_csv(figure2_series(n_s=30.0, n_b=2.0, log_m_max=4, samples=10))
        rows = [line for line in text.strip().split("\n")[1:] if line.startswith("coh_qcb,10000,")]
        assert len(rows) == 1
        _, _, value, log10_value = rows[0].split(",")
        assert value == "0"
        assert float(log10_value) < -10_000


class TestCliCommands:
    def test_figure1_stdout_matches_library(self, capsys):
        code, out, _ = run_cli(["figure1", "--n", "20", "--m-max", "4"], capsys)
        assert code == 0
        assert out == render_csv(figure1_series(n=20, m_max=4))

    def test_figure_out_file(self, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        code, out, _ = run_cli(
            ["figure3", "--steps", "4", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("series,n_s,value,log10_value\n")
        assert text == render_csv(figure3_series(steps=4), x_name="n_s")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(["figure2", "--log-m-max", "2", "--out", str(p)], capsys)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_flag_exits_one(self, capsys):
        code, _, err = run_cli(["figure1", "--m-max", "not-a-number"], capsys)
        assert code == 1

    def test_invalid_params_exit_one(self, capsys):
        code, _, err = run_cli(["figure3", "--n-s-min", "2.0", "--n-s-max", "1.0"], capsys)
        assert code == 1
        code, _, err = run_cli(["figure2", "--n-s", "1.0"], capsys)
        assert code == 1
        code, _, err = run_cli(["figure1", "--beta", "-0.5"], capsys)
        assert code == 1

    def test_compare_number_matches_oracle(self, capsys):
        code, out, _ = run_cli(
            ["compare", "number", "--n", "2", "--beta", "0.5", "--m", "2"], capsys
        )
        assert code == 0
        fields = dict(
            part.split("=") for part in out.split(":")[1].strip().split(" ") if "=" in part
        )
        assert float(fields["closed_exact"]) == pytest.approx(
            float(fields["oracle_exact"]), rel=1e-14, abs=0
        )

    def test_compare_noon_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            ["compare", "noon", "--n", "3", "--beta", "0.3", "--m", "1"], capsys
        )
        assert code == 0
        fields = dict(
            part.split("=") for part in out.split(":")[1].strip().split(" ") if "=" in part
        )
        assert float(fields["closed_qcb"]) == pytest.approx(
            float(fields["oracle_qcb"]), rel=1e-8, abs=0
        )
        assert float(fields["closed_lb"]) == pytest.approx(
            float(fields["oracle_lb"]), rel=1e-8, abs=0
        )

    def test_compare_depolarizing_values(self, capsys):
        code, out, _ = run_cli(["compare", "depolarizing", "--d", "4", "--x", "0.5"], capsys)
        assert code == 0
        assert "closed=1.2500000000e-01" in out
        assert "closed=3.1250000000e-02" in out

    def test_compare_depolarizing_pure_is_exact_at_ten_copies(self, capsys):
        # (1/d)**M / 2: a one-amplitude ket is exact at any copy count
        code, out, _ = run_cli(["compare", "depolarizing", "--d", "5", "--m", "10"], capsys)
        assert code == 0
        [pure] = [line for line in out.splitlines() if line.startswith("depolarizing/pure")]
        assert "oracle_exact=5.1200000000e-08 oracle_qcb=5.1200000000e-08" in pure

    def test_compare_noise_beyond_cutoff_guard_exits_two(self, capsys):
        code, _, err = run_cli(["compare", "number", "--n", "1", "--n-b", "1e17"], capsys)
        assert code == 2
        assert err.startswith("numerical failure:")

    def test_compare_non_finite_signal_exits_one(self, capsys):
        code, _, err = run_cli(["compare", "coherent", "--n-s", "nan", "--n-b", "1"], capsys)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["compare", "number", "--n", "1", "--n-b", "1", "--tail-eps", "0"],
        ["compare", "number", "--n", "1", "--n-b", "1", "--tail-eps", "-1"],
        ["compare", "number", "--n", "1", "--n-b", "1", "--tail-eps", "nan"],
        ["compare", "coherent", "--n-s", "0.5", "--n-b", "1", "--tail-eps", "0"],
        ["validate", "--tail-eps", "0"],
    ])
    def test_tail_budget_out_of_range_exits_one(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_compare_bright_coherent_qcb_is_finite(self, capsys):
        code, out, _ = run_cli(["compare", "coherent", "--n-s", "1000", "--n-b", "1"], capsys)
        assert code == 0
        assert "oracle_qcb=1.7811441017e-218" in out

    def test_compare_squeezed_pair_has_an_exact_value(self, capsys):
        code, out, _ = run_cli(["compare", "spdc", "--n-s", "2", "--n-b", "30"], capsys)
        assert code == 0
        assert "oracle_exact=3.1377588299e-03" in out
        assert "memory guard" not in out

    def test_compare_skips_oracle_when_guard_trips(self, capsys):
        code, out, _ = run_cli(
            ["compare", "coherent", "--n-s", "0.5", "--n-b", "0.75", "--m", "7"], capsys
        )
        assert code == 0
        assert "oracle_exact=n/a" in out
        assert "memory guard" in out

    def test_compare_huge_copy_count_skips_oracle_exact(self, capsys):
        code, out, _ = run_cli(
            ["compare", "coherent", "--n-s", "0.5", "--n-b", "1", "--m", "2000"], capsys
        )
        assert code == 0
        assert "oracle_exact=n/a" in out
        assert "memory guard" in out


    @pytest.mark.parametrize("argv", [
        ["compare", "depolarizing", "--d", "5", "--m", "10"],
        ["compare", "depolarizing", "--d", "3", "--x", "0.25", "--m", "2"],
    ])
    def test_compare_depolarizing_has_no_closed_value_beyond_one_copy(self, argv, capsys):
        # depolarizing_error is a single-copy error; the oracle columns are M-copy values
        code, out, _ = run_cli(argv, capsys)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2 + ("--x" in argv)
        assert all(" closed=n/a oracle_exact=" in line for line in lines)


#: full output of ``compare`` at fixed points: (argv, exit code, stdout, stderr)
COMPARE_PINS = [
    ("noon --n 20 --beta 0.05 --m 100", 0,
     "noon n=20 n_s=0.5 n_b=19.5042 m=100: closed_exact=n/a closed_qcb=6.6247941249e-187 "
     "closed_lb=1.3010494430e-195 oracle_exact=n/a oracle_qcb=6.6247941249e-187 "
     "oracle_lb=1.3010494430e-195 s_star=1.000000 (oracle exact skipped: memory guard)\n", ""),
    ("coherent --n-s 1000 --n-b 1", 0,
     "coherent n=1 n_s=1000 n_b=1 m=1: closed_exact=n/a closed_qcb=1.7811441017e-218 "
     "closed_lb=4.9327894425e-256 oracle_exact=1.7811441017e-218 "
     "oracle_qcb=1.7811441017e-218 oracle_lb=4.9327894425e-256 s_star=1.000000\n", ""),
    ("spdc --n-s 2 --n-b 30", 0,
     "spdc n=1 n_s=2 n_b=30 m=1: closed_exact=n/a closed_qcb=3.1446540881e-03 "
     "closed_lb=1.3861406192e-03 oracle_exact=3.1377588299e-03 oracle_qcb=3.1446540881e-03 "
     "oracle_lb=1.3861406192e-03 s_star=1.000000\n", ""),
    ("number --n 2 --beta 0.5 --m 2", 0,
     "number n=2 n_s=0.5 n_b=1.54149 m=2: closed_exact=1.0476177178e-02 "
     "closed_qcb=1.0476177178e-02 closed_lb=n/a oracle_exact=1.0476177178e-02 "
     "oracle_qcb=1.0476177178e-02 oracle_lb=5.2658174223e-03 s_star=1.000000\n", ""),
    ("noon --n 2 --n-b 0.5 --m 2 --cutoff 30", 0,
     "noon n=2 n_s=0.5 n_b=0.5 m=2: closed_exact=n/a closed_qcb=1.4233941303e-02 "
     "closed_lb=2.6531466573e-03 oracle_exact=1.3157097734e-02 oracle_qcb=1.4233941303e-02 "
     "oracle_lb=2.6531466573e-03 s_star=1.000000\n", ""),
    ("depolarizing --d 4 --x 0.5", 0,
     "depolarizing/pure d=4 m=1: closed=1.2500000000e-01 oracle_exact=1.2500000000e-01 "
     "oracle_qcb=1.2500000000e-01 oracle_lb=6.6987298108e-02 s_star=1.000000\n"
     "depolarizing/max_entangled d=4 m=1: closed=3.1250000000e-02 "
     "oracle_exact=3.1250000000e-02 oracle_qcb=3.1250000000e-02 oracle_lb=1.5877081724e-02 "
     "s_star=1.000000\n"
     "depolarizing/werner d=4 m=1: closed=2.6562500000e-01 oracle_exact=2.6562500000e-01 "
     "oracle_qcb=4.2154440140e-01 oracle_lb=2.3271946865e-01 s_star=0.442082\n", ""),
    # every depolarizing case is checked before a row is printed
    ("depolarizing --d 2 --x 1.5", 1, "", "error: mixing weight must lie in [0, 1], got 1.5\n"),
    ("coherent --n-s nan --n-b 1", 1, "",
     "error: mean photon number must be finite and >= 0, got nan\n"),
    ("number --n 1 --n-b 1e17", 2, "",
     "numerical failure: no cutoff reaches tail 1e-12 at ratio 1.0\n"),
]


@pytest.mark.parametrize("argv, code, out, err", COMPARE_PINS, ids=[p[0] for p in COMPARE_PINS])
def test_compare_output_is_pinned(argv, code, out, err, capsys):
    assert run_cli(["compare", *argv.split()], capsys) == (code, out, err)


class TestCliValidate:
    def test_nan_error_fails_its_row(self):
        tracker = _Tracker("check", 1e-8)
        tracker.update(1e-12, "finite")
        tracker.update(math.nan, "nan")
        tracker.update(1e-10, "finite again")
        assert math.isnan(tracker.row.error)
        assert tracker.row.worst == "nan"
        assert not tracker.row.passed

    def test_quick_validate_passes(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "n=0,1\nnoon_n=1\nbeta=0.5\nn_b=0.5\nn_s=0.5\nm=1\nrandom_pairs=5\nd=2\nx=0.5\n"
        )
        code, out, _ = run_cli(["validate", "--config", str(config)], capsys)
        assert code == 0
        assert "result: PASS" in out
        assert OUT_OF_SCOPE_NOTE in out
        assert "out of scope" in out and "lossy" in out

    def test_validate_report_deterministic(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n=0\nnoon_n=1\nbeta=0.5\nn_b=0.5\nn_s=0.5\nm=1\nrandom_pairs=3\n")
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["validate", "--config", str(config), "--seed", "7"], capsys
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_corrupted_tolerance_exits_two(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n=0\nnoon_n=1\nbeta=0.5\nn_b=0.5\nn_s=0.5\nm=1\nrandom_pairs=3\n")
        code, out, _ = run_cli(
            ["validate", "--config", str(config), "--tol", "1e-16"], capsys
        )
        assert code == 2
        assert "FAIL" in out
        assert "failures:" in out

    def test_unknown_config_key_exits_one(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("bogus=1\n")
        code, _, err = run_cli(["validate", "--config", str(config)], capsys)
        assert code == 1

    @pytest.mark.parametrize("line", [
        "seed=abc", "seed=1.5", "n=1.5", "m=1,2.5", "random_pairs=2.5", "random_dim=0",
        "random_pairs=-3", "seed=-1", "tol=nan", "slack=-1e-9", "tol_truncated=inf",
    ])
    def test_bad_config_value_exits_one(self, line, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"n=0\nnoon_n=1\nbeta=0.5\nn_b=0.5\nn_s=0.5\nm=1\n{line}\n")
        code, out, err = run_cli(["validate", "--config", str(config)], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    def test_run_validation_rejects_unknown_keys(self):
        with pytest.raises(ParameterDomainError, match="unknown config key: s_grid"):
            run_validation({"s_grid": 5, "random_pairs": 0})

    @pytest.mark.parametrize("tol", ["nan", "-1e-8", "inf"])
    def test_bad_tolerance_flag_exits_one(self, tol, capsys):
        code, out, err = run_cli(["validate", "--tol", tol], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    def test_integral_config_values_are_read_exactly(self, tmp_path):
        from targetdetect.validation import load_config

        config = tmp_path / "sweep.cfg"
        config.write_text("seed=1152921504606846977\nn=1e1, 2.0\nrandom_dim=3\n")
        got = load_config(str(config))
        assert got["seed"] == 2**60 + 1
        assert got["n"] == [10, 2] and all(type(v) is int for v in got["n"])
        assert got["random_dim"] == 3
