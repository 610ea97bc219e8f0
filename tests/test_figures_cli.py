"""Figure datasets, CSV emission, and the command-line interface."""

import inspect
import logging
import math
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetdetect import (
    CurveSeries,
    NoiseSpec,
    ParameterDomainError,
    coherent_ket,
    figure1_series,
    figure2_series,
    figure3_series,
    render_csv,
    spdc_ket,
)
from targetdetect import closed_forms as cf
from targetdetect import channels, figures, fock, oracle, validation
from targetdetect.cli import main
from targetdetect.figures import FIGURE2_DEFAULT_SETS, figure2_copy_grid
from targetdetect.validation import (OUT_OF_SCOPE_NOTE, CheckRow, ValidationReport,
                                     default_config, run_validation)


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

    @pytest.mark.parametrize("log_m_max", [0.0, -1.0, math.nan, math.inf, -math.inf, 19.0,
                                           math.log10(2.0**63)])
    def test_copy_grid_top_must_be_a_positive_int64(self, log_m_max):
        with pytest.raises(ParameterDomainError, match="log_m_max"):
            figure2_copy_grid(log_m_max, 4)

    def test_copy_grid_reaches_the_last_int64_log(self):
        top = np.nextafter(math.log10(2.0**63), 0.0)
        grid = figure2_copy_grid(top, 2)
        assert grid.tolist() == [1, int(np.rint(10.0**top))]
        assert 0 < grid[-1] < 2**63 - 1

    @pytest.mark.parametrize("name, value", [("n_s_min", math.nan), ("n_s_min", -math.inf),
                                             ("n_s_max", math.nan), ("n_s_max", math.inf)])
    def test_figure3_bounds_must_be_finite(self, name, value):
        with pytest.raises(ParameterDomainError, match=f"^{name} must be finite"):
            figure3_series(**{name: value})

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


#: CSV value fields: +0.0 drawn most often, so its runs start and end anywhere
_CSV_VALUES = st.one_of(st.just(0.0), st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
                        st.floats())


@st.composite
def _csv_series_lists(draw, x_name):
    """Series lists over a few short grids, some of one length with other points: each series
    takes a grid itself, an equal copy or its list, so series share grids, sit on
    equal-but-distinct ones or on other grids alike."""
    point = st.integers(-3, 2**53) if x_name == "m" else st.floats()
    dtype = float if x_name == "n_s" or draw(st.booleans()) else np.int64
    points = np.array(draw(st.lists(point, max_size=3)), dtype=dtype)
    grids = [points + shift for shift in range(draw(st.integers(1, 3)))]
    grids.append(np.array(draw(st.lists(point, max_size=3)), dtype=dtype))
    series = []
    for _ in range(draw(st.integers(1, 5))):
        grid = draw(st.sampled_from(grids))
        form = draw(st.sampled_from([lambda c: c, np.copy, list]))
        columns = [np.array(draw(st.lists(_CSV_VALUES, min_size=len(grid), max_size=len(grid))))
                   for _ in range(2)]
        series.append(CurveSeries(draw(st.text("a%s-", max_size=3)), form(grid),
                                  *map(form, columns)))
    return series


@pytest.mark.parametrize("x_name", ["m", "n_s"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_series_list_renders_as_the_per_field_formatter(x_name, data):
    series = data.draw(_csv_series_lists(x_name))
    assert render_csv(series, x_name=x_name) == _reference_csv(series, x_name=x_name)


_EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0])
_EDGE_TEXT = {"0", "-0", "4.9406564584124654e-324", "1e+308", "inf", "-inf", "nan"}


class TestCsv:
    @pytest.mark.parametrize("m", [
        np.arange(1, _EDGE_FLOATS.size + 1, dtype=np.int64),
        np.array([1.0, 2.0, 3.0, 10.0, 1e3, 2.0**53, 1e18, 7.0, -0.0]),
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

    @pytest.mark.parametrize("series, x_name, calls", [
        (figure1_series(), "m", 2),
        (figure2_series(), "m", 2),
        (figure3_series(), "n_s", 1),
        (figure1_series() + figure2_series(), "m", 4),
        (figure1_series() + figure3_series(), "n_s", 3),
    ], ids=["figure1", "figure2", "figure3", "figure1+2", "figure1+3"])
    def test_each_grid_is_formatted_once_and_once_more_for_its_zeros(
            self, series, x_name, calls, monkeypatch):
        # one call per distinct grid, and one more for each grid with a +0.0 value
        # (figure1 and figure2 underflow to 0 at their high copy counts; figure3 does not)
        seen = []
        real = figures._grid_rows
        monkeypatch.setattr(figures, "_grid_rows", lambda *args: seen.append(args) or real(*args))
        assert render_csv(series, x_name=x_name) == _reference_csv(series, x_name=x_name)
        assert len(seen) == calls

    @pytest.mark.parametrize("label", ["50%", "%s%%d", "100%%"])
    def test_percent_in_a_label_prints_verbatim(self, label):
        # the label sits inside the row template, so each % must be escaped
        for x_name in ("m", "n_s"):
            series = [CurveSeries(label, np.array([1.0, 2.0]), _EDGE_FLOATS[:2], _EDGE_FLOATS[7:]),
                      CurveSeries(label + "-", np.array([3]), _EDGE_FLOATS[:1], _EDGE_FLOATS[:1])]
            assert render_csv(series, x_name=x_name) == _reference_csv(series, x_name=x_name)

    @pytest.mark.parametrize("m", [7.9, math.nan, math.inf])
    def test_copy_count_that_is_not_a_whole_number_is_rejected(self, m):
        # %d used to print 7.9 as 7, and nan and inf raised bare ValueError / OverflowError
        series = [CurveSeries("a", np.array([1.0, m]), _EDGE_FLOATS[:2], _EDGE_FLOATS[:2])]
        with pytest.raises(ParameterDomainError, match="whole numbers"):
            render_csv(series)

    def test_x_name_is_m_or_n_s(self):
        # the n_s grid under the default x_name="m" used to print 0.05 as 0
        with pytest.raises(ParameterDomainError, match="whole numbers"):
            render_csv(figure3_series(steps=4))
        with pytest.raises(ParameterDomainError, match="x_name"):
            render_csv(figure1_series(n=1, m_max=2), x_name="copies")

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

    @pytest.mark.parametrize("log_m_max", ["nan", "inf", "19"])
    def test_figure2_bad_log_m_max_exits_one_without_a_warning(self, log_m_max, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["figure2", "--log-m-max", log_m_max], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: log_m_max must be > 0")

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

    @pytest.mark.parametrize("n_s, n_b", [("1e100", "1e100"), ("1e200", "1")])
    def test_figure2_past_the_float_range_keeps_lb_below_qcb(self, n_s, n_b, capsys, caplog):
        # the SPDC closed forms overflow their direct products here: the LB's at
        # the first point (QCB 1.67e-201), both at the second
        argv = ["figure2", "--n-s", n_s, "--n-b", n_b, "--log-m-max", "1", "--steps", "2"]
        with caplog.at_level(logging.WARNING):
            code, out, err = run_cli(argv, capsys)
        assert (code, err, caplog.records) == (0, "", [])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        log10 = {(series, int(m)): float(value) for series, m, _, value in rows}
        for m in (1, 10):
            assert math.isfinite(log10["spdc_lb", m])
            assert log10["spdc_lb", m] <= log10["spdc_qcb", m]

    @pytest.mark.parametrize("scenario, probe", [("coherent", coherent_ket), ("spdc", spdc_ket)])
    @pytest.mark.parametrize("cutoff", [6, 60])
    def test_compare_cutoff_truncates_the_probe_too(self, scenario, probe, cutoff):
        # the probe's own cutoff search stops at 14 (coherent) or 39 (spdc) photons; an explicit
        # cutoff below it was refused, and one above it padded that probe with zeros
        pair, _ = validation.thermal_case(scenario, NoiseSpec(n_b=1.0), n_s=1.0, cutoff=cutoff)
        ket = probe(1.0, cutoff)
        assert pair.rho0.dims == pair.rho1.dims == ket.dims
        assert pair.rho1.ket.amplitudes.tobytes() == ket.amplitudes.tobytes()
        assert pair.rho1.ket.norm_deficit == ket.norm_deficit

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
    # every row, depolarizing included, notes the exact value the memory guard skips
    ("depolarizing --d 4 --m 4", 0,
     "depolarizing/pure d=4 m=4: closed=n/a oracle_exact=1.9531250000e-03 "
     "oracle_qcb=1.9531250000e-03 oracle_lb=9.7751804152e-04 s_star=1.000000\n"
     "depolarizing/max_entangled d=4 m=4: closed=n/a oracle_exact=n/a "
     "oracle_qcb=7.6293945312e-06 oracle_lb=3.8147118177e-06 s_star=1.000000 "
     "(oracle exact skipped: memory guard)\n", ""),
    # --cutoff truncates the probe with the noise, below the probe's own cutoff 14 too
    ("coherent --n-s 1 --n-b 1 --cutoff 10", 0,
     "coherent n=1 n_s=1 n_b=1 m=1: closed_exact=n/a closed_qcb=1.5163266493e-01 "
     "closed_lb=7.5245350972e-02 oracle_exact=1.3891892592e-01 oracle_qcb=1.5163266645e-01 "
     "oracle_lb=7.5245351748e-02 s_star=1.000000\n", ""),
    # a plain int copy count beyond int64 takes the same rule in the closed forms and the oracle
    ("coherent --n-s 1 --n-b 1 --m 1000000000000000000000000000000", 0,
     "coherent n=1 n_s=1 n_b=1 m=1000000000000000000000000000000: closed_exact=n/a "
     "closed_qcb=0.0000000000e+00 closed_lb=0.0000000000e+00 oracle_exact=n/a "
     "oracle_qcb=0.0000000000e+00 oracle_lb=0.0000000000e+00 s_star=1.000000 "
     "(oracle exact skipped: memory guard)\n", ""),
    # every depolarizing case is checked before a row is printed
    ("depolarizing --d 2 --x 1.5", 1, "", "error: mixing weight must lie in [0, 1], got 1.5\n"),
    ("coherent --n-s nan --n-b 1", 1, "",
     "error: mean photon number must be finite and >= 0, got nan\n"),
    ("number --n 1 --n-b 1e17", 2, "",
     "numerical failure: no cutoff up to 4194304 reaches tail 1e-12\n"),
]


@pytest.mark.parametrize("argv, code, out, err", COMPARE_PINS, ids=[p[0] for p in COMPARE_PINS])
def test_compare_output_is_pinned(argv, code, out, err, capsys):
    assert run_cli(["compare", *argv.split()], capsys) == (code, out, err)


class TestCliValidate:
    def test_nan_error_fails_its_row(self):
        row = CheckRow("check", 1e-8)
        row.update(1e-12, "finite")
        row.update(math.nan, "nan")
        row.update(1e-10, "finite again")
        assert math.isnan(row.error)
        assert row.worst == "nan"
        assert not row.passed

    def test_worst_location_is_formatted_from_its_args(self):
        row = CheckRow("check", 1e-8)
        row.update(1e-12, "n={} beta={:g} m={}", 1, 0.5, 1)
        row.update(1e-6, "n={} beta={:g} m={}", 3, 0.05, 2)
        row.update(1e-9, "n={} beta={:g} m={}", 4, 0.05, 3)
        report = ValidationReport(rows=[row], config=default_config())
        assert "  check: worst at n=3 beta=0.05 m=2\n" in report.render()

    def test_default_sweep_calls_each_oracle_bound_once_per_use(self, monkeypatch):
        # Chernoff: 126 number, 84 N00N and 96 coherent/SPDC points, and M = 1, 2 and 8 on each
        # of the 100 random pairs; the log-linearity row reuses the sandwich's M = 1 bound.
        # Helstrom: 28 depolarizing and 126 number points, and M = 1 and 2 on each random pair
        counts, seen = Counter(), SimpleNamespace(**vars(oracle))
        for name in ("chernoff_bound", "bhattacharyya_lower", "helstrom_error"):
            def counted(*args, _name=name, _real=getattr(oracle, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            setattr(seen, name, counted)
        monkeypatch.setattr(validation, "oracle", seen)
        assert run_validation().passed
        assert counts == {"chernoff_bound": 606, "bhattacharyya_lower": 380, "helstrom_error": 354}

    def test_default_sweep_calls_each_closed_form_once_per_block(self, monkeypatch):
        # each thermal block takes one call per bound over the columns of all its points:
        # number 42 (n, noise) points, N00N 28, coherent and SPDC 16 (n_s, n_b) points each;
        # the depolarizing forms are single values, one per case
        counts, seen = Counter(), SimpleNamespace(**vars(cf))
        for name, real in vars(cf).items():
            if inspect.isfunction(real) and not name.startswith("_"):
                def counted(*args, _name=name, _real=real, **kwargs):
                    counts[_name] += 1
                    return _real(*args, **kwargs)
                setattr(seen, name, counted)
        monkeypatch.setattr(validation, "cf", seen)
        assert run_validation().passed
        assert counts == {"number_state_error": 1, "noon_qcb": 1, "noon_lower": 1,
                          "coherent_qcb": 1, "coherent_lower": 1, "spdc_qcb": 1, "spdc_lower": 1,
                          "depolarizing_error": 28, "bright_noise_spdc_exponent": 1}

    @pytest.mark.parametrize("scenario", validation.THERMAL_SCENARIOS)
    def test_a_blocks_closed_forms_are_its_points_scalar_calls(self, scenario, monkeypatch):
        # validate reads a block's closed forms from one _closed call over its points'
        # columns, listed noise-major as its pairs are: number and N00N (n, NoiseSpec)
        # points, an object column of noises, and coherent and SPDC (n_s, n_b) points.
        # Each point and copy count keeps the bits of the scalar call at that point
        run = validation.run_validation      # _closed is patched where run_validation reads it
        closed, calls = run.__globals__["_closed"], {}
        monkeypatch.setitem(run.__globals__, "_closed", lambda name, params, copies:
                            calls.setdefault(name, closed(name, params, copies)))
        run({"random_pairs": 0, "d": []})
        config, key = default_config(), validation.THERMAL_SCENARIOS[scenario][2]
        n_b_noises = [NoiseSpec(n_b=n_b) for n_b in config["n_b"]]
        if key == "n_s":
            points = [(n_s, noise.n_b) for noise in n_b_noises for n_s in config[key]]
        else:
            noises = [NoiseSpec(beta=beta) for beta in config["beta"]] + n_b_noises
            points = [(n, noise) for noise in noises for n in config[key]]
        assert config["m"] == [1, 2, 3]
        for form, got in enumerate(calls[scenario]):     # exact, QCB and LB
            want = [[closed(scenario, point, m)[form] for m in config["m"]] for point in points]
            if got is None:
                assert {value for row in want for value in row} == {None}
            else:
                assert got.shape == (len(points), 3) and got.tobytes() == np.array(want).tobytes()

    def test_default_sweep_builds_each_distinct_state_once_per_block(self, monkeypatch):
        # each thermal block is one grid build: a probe ket and its idler marginal once per
        # value, a tail search once per distinct noise (6 of the 7, as n_b = 1 is beta = ln 2;
        # 4 for coherent and SPDC) and a thermal state once per (noise, cutoff): 6 number,
        # 6 N00N, 6 coherent and 10 SPDC.  The coherent and SPDC kets search their own tails,
        # the 24 bipartite depolarizing pairs take a marginal each and the 4 pure ones a ket
        counts = Counter()
        names = ("thermal_state", "partial_trace", "_tail_cutoff", "number_ket", "noon_ket",
                 "coherent_ket", "spdc_ket")
        for name in names:
            real = getattr(fock, name)
            def counted(*args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            for module in (fock, channels, validation):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        assert run_validation().passed
        assert counts == {"thermal_state": 28, "partial_trace": 32, "_tail_cutoff": 28,
                          "number_ket": 10, "noon_ket": 4, "coherent_ket": 4, "spdc_ket": 4}

    def test_default_sweep_builds_its_random_pairs_in_stacks(self, monkeypatch):
        # the 100 random pairs come in one chunk (up to 126 fit), whose Overlaps come from
        # one eigh for its 200 states and one build; each random pair's Helstrom error at
        # M = 1 and 2 takes one eigvalsh of its own.  The number, N00N, coherent and SPDC
        # blocks build their 102 pairs in 10 groups of one spectrum shape, the 4 pure
        # depolarizing pairs (whose Helstrom error takes the rank-one solve) one build each,
        # and the 20 dense depolarizing pairs (Werner x > 0 and maximally entangled) one
        # eigvalsh each
        counts = Counter()
        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (oracle, "_build")):
            monkeypatch.setattr(module, name, lambda *a, _name=name, _real=getattr(module, name):
                                counts.update([_name]) or _real(*a))
        assert run_validation().passed
        assert validation._chunk_size(4) == 126
        assert counts == {"eigh": 1, "_build": 15, "eigvalsh": 220}

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

    def test_a_row_that_checked_nothing_fails(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("n=\nm=\nnoon_n=\nrandom_pairs=0\n")
        code, out, _ = run_cli(["validate", "--config", str(config)], capsys)
        assert code == 2
        assert "result: FAIL" in out
        assert "  number exact vs oracle: no samples\n" in out
        # the depolarizing row needs no copy count, so it still checks its cases
        assert "  depolarizing vs oracle:" not in out
        assert not CheckRow("check", 1e-8).passed

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

    def test_a_random_dim_past_the_dense_guard_stops_before_any_work(self, capsys, tmp_path,
                                                                      monkeypatch):
        # each random pair's Helstrom error at M = 2 is a dense dim**2 matrix, so dim 65 passes
        # the guard 4096 at no copy count.  Unchecked, the whole scenario sweep ran and a chunk
        # was drawn and decomposed before helstrom_error raised
        built = []
        for name in ("depolarizing_case", "thermal_case", "_random_chunks"):
            monkeypatch.setattr(validation, name, lambda *a, _name=name, **k: built.append(_name))
        config = tmp_path / "sweep.cfg"
        config.write_text("random_dim=65\n")
        code, out, err = run_cli(["validate", "--config", str(config)], capsys)
        assert (code, out, built) == (2, "", [])
        assert err == "numerical failure: dimension 4225 of dims (65, 65) exceeds the guard 4096\n"
        monkeypatch.undo()
        validation._check_config({**default_config(), "random_dim": 64})
        report = run_validation({"random_pairs": 0, "random_dim": 600, "d": [], "n": [],
                                 "noon_n": [], "beta": [], "n_b": [], "n_s": []})
        assert next(row for row in report.rows if row.name.startswith("sandwich")).samples == 0

    @pytest.mark.parametrize("build", [
        lambda: validation.thermal_case("bogus", NoiseSpec(n_b=1.0)),
        lambda: validation._thermal_pairs("depolarizing", [NoiseSpec(n_b=1.0)], [1]),
    ], ids=["thermal_case", "_thermal_pairs"])
    def test_an_unknown_thermal_scenario_is_a_domain_error(self, build):
        # a bare KeyError came out of the THERMAL_SCENARIOS lookup
        with pytest.raises(ParameterDomainError, match="one of number, noon, coherent, spdc"):
            build()

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
