"""The pinned output bytes: the benchmark's figure CSVs and the default validate report.

The digests live in ``bench/golden.json``, recorded from the seed code; these
tests read it so that a byte drift in either output fails here too, not only
in the benchmark's output check.
"""

import hashlib
import json
from pathlib import Path

import pytest

from targetdetect import figure1_series, figure2_series, figure3_series, render_csv
from targetdetect.cli import main

GOLDEN = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text(encoding="utf-8"))

#: (golden name, series function, its arguments, CSV x column), as the benchmark renders them
FIGURES = (
    [(f"figure1[beta={beta:g},n={n}]", figure1_series, {"beta": beta, "n": n, "m_max": 2000}, "m")
     for beta in (0.05, 0.5) for n in (1, 20, 100)]
    + [("figure2[log_m_max=6,samples=2000]", figure2_series, {"log_m_max": 6, "samples": 2000}, "m")]
    + [(f"figure3[steps=1000,m={m}]", figure3_series, {"steps": 1000, "copies": m}, "n_s")
       for m in (1, 10)]
)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_golden_figure_is_rendered_here():
    assert sorted(name for name, *_ in FIGURES) == sorted(GOLDEN["figures"])


@pytest.mark.parametrize("name, build, kwargs, x_name", FIGURES, ids=[f[0] for f in FIGURES])
def test_figure_csv_matches_the_golden_digest(name, build, kwargs, x_name):
    assert _sha256(render_csv(build(**kwargs), x_name=x_name)) == GOLDEN["figures"][name]


def test_validate_report_matches_the_golden_digest(capsys):
    assert main(["validate"]) == 0
    out, _ = capsys.readouterr()
    assert out.endswith("result: PASS\n")
    assert _sha256(out) == GOLDEN["validate"]
