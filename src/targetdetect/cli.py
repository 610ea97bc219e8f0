"""Command-line front end: figure datasets as CSV, validation sweeps, comparisons.

Exit codes: 0 on success, 1 for argument errors, 2 for numerical failures
(tolerance breach in ``validate`` or a tripped memory guard).
"""

from __future__ import annotations

import sys

import click

from . import figures, oracle, validation
from .errors import InvalidStateError, ParameterDomainError, SizeLimitError
from .fock import NoiseSpec

_ARGUMENT_ERRORS = (ParameterDomainError, InvalidStateError)


def _write_output(text, out):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@click.group(name="targetdetect")
def cli():
    """Error-probability bounds for photonic target detection."""


@cli.command(name="figure1")
@click.option("--beta", type=float, default=0.05, show_default=True,
              help="Thermal noise exponent.")
@click.option("--n", type=int, default=100, show_default=True,
              help="Photon number of the number-state / N00N input.")
@click.option("--m-max", type=int, default=200, show_default=True,
              help="Largest copy count; the grid is 1..m_max.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default: stdout).")
def figure1(beta, n, m_max, out):
    """Number-state exact error vs N00N bounds over the copy count."""
    series = figures.figure1_series(beta=beta, n=n, m_max=m_max)
    _write_output(figures.render_csv(series), out)


@cli.command(name="figure2")
@click.option("--n-s", type=float, default=None, help="Mean signal photon number.")
@click.option("--n-b", type=float, default=None, help="Mean thermal photon number.")
@click.option("--log-m-max", type=float, default=4.0, show_default=True,
              help="Copy counts sampled log-uniformly up to 10**log_m_max; "
                   "log_m_max must be > 0 and below log10(2**63), about 18.96.")
@click.option("--steps", type=int, default=50, show_default=True,
              help="Number of log-uniform samples before deduplication.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default: stdout).")
def figure2(n_s, n_b, log_m_max, steps, out):
    """Coherent vs two-mode-squeezed bounds over a log-uniform copy grid.

    Without --n-s/--n-b, both built-in parameter sets are emitted with the
    parameters tagged into the series labels.
    """
    series = figures.figure2_series(n_s=n_s, n_b=n_b, log_m_max=log_m_max, samples=steps)
    _write_output(figures.render_csv(series), out)


@cli.command(name="figure3")
@click.option("--n-s-min", type=float, default=0.05, show_default=True)
@click.option("--n-s-max", type=float, default=3.0, show_default=True)
@click.option("--steps", type=int, default=60, show_default=True)
@click.option("--m", "copies", type=int, default=1, show_default=True,
              help="Copy count.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (default: stdout).")
def figure3(n_s_min, n_s_max, steps, copies, out):
    """Weak-noise coherent error vs two-mode-squeezed bounds over signal strength."""
    series = figures.figure3_series(n_s_min=n_s_min, n_s_max=n_s_max, steps=steps,
                                    copies=copies)
    _write_output(figures.render_csv(series, x_name="n_s"), out)


@cli.command(name="validate")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="key=value sweep overrides, lists comma-separated.")
@click.option("--tol", type=float, default=None, help="Override the relative tolerance.")
@click.option("--tail-eps", type=float, default=None, help="Override the truncation budget.")
@click.option("--seed", type=int, default=None, help="Seed for the random-pair checks.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Report output path (default: stdout).")
def validate(config_path, tol, tail_eps, seed, out):
    """Cross-validate every closed form against the brute-force oracle."""
    config = validation.load_config(config_path) if config_path else validation.default_config()
    flags = {"tol": tol, "tol_truncated": tol, "tail_eps": tail_eps, "seed": seed}
    config.update({key: value for key, value in flags.items() if value is not None})
    report = validation.run_validation(config)
    _write_output(report.render(), out)
    if not report.passed:
        sys.exit(2)


def _fmt(x):
    return "n/a" if x is None else f"{x:.10e}"


def _oracle_columns(pair, copies):
    """The oracle's exact/upper/lower columns of a ``compare`` row and s*, with a note where
    the memory guard skips the exact value."""
    try:
        exact, note = oracle.helstrom_error(pair, copies).value, ""
    except SizeLimitError:
        exact, note = None, " (oracle exact skipped: memory guard)"
    upper = oracle.chernoff_bound(pair, copies)
    return (f"oracle_exact={_fmt(exact)} oracle_qcb={_fmt(upper.value)} "
            f"oracle_lb={_fmt(oracle.bhattacharyya_lower(pair, copies).value)} "
            f"s_star={upper.s_star:.6f}{note}")


@cli.command(name="compare")
@click.argument("scenario",
                type=click.Choice([*validation.THERMAL_SCENARIOS, "depolarizing"]))
@click.option("--n", type=int, default=1, show_default=True, help="Photon number.")
@click.option("--beta", type=float, default=None, help="Thermal noise exponent.")
@click.option("--n-b", type=float, default=None, help="Mean thermal photon number.")
@click.option("--n-s", type=float, default=0.5, show_default=True,
              help="Mean signal photon number.")
@click.option("--d", type=int, default=2, show_default=True, help="Qudit dimension.")
@click.option("--x", type=float, default=None, help="Werner mixing weight.")
@click.option("--m", "copies", type=int, default=1, show_default=True, help="Copy count.")
@click.option("--cutoff", type=int, default=None, help="Explicit truncation cutoff.")
@click.option("--tail-eps", type=float, default=1e-12, show_default=True)
def compare(scenario, n, beta, n_b, n_s, d, x, copies, cutoff, tail_eps):
    """Closed forms next to the oracle for a single parameter point."""
    if scenario == "depolarizing":
        names = ["pure", "max_entangled"] + ([] if x is None else ["werner"])
        # every case is built before anything is printed, so a bad x prints no rows
        cases = [(name, *validation.depolarizing_case(d, name, x)) for name in names]
        for name, pair, closed in cases:
            closed = closed if copies == 1 else None     # a single-copy closed form
            click.echo(f"depolarizing/{name} d={d} m={copies}: closed={_fmt(closed)} "
                       f"{_oracle_columns(pair, copies)}")
        return

    if (beta is None) == (n_b is None):
        raise ParameterDomainError("give exactly one of --beta and --n-b")
    noise = NoiseSpec(beta=beta) if beta is not None else NoiseSpec(n_b=n_b)
    pair, closed = validation.thermal_case(scenario, noise, n=n, n_s=n_s, cutoff=cutoff,
                                           tail_eps=tail_eps)
    closed_exact, closed_upper, closed_lower = closed(copies)
    click.echo(
        f"{scenario} n={n} n_s={n_s:g} n_b={noise.n_b:g} m={copies}: "
        f"closed_exact={_fmt(closed_exact)} closed_qcb={_fmt(closed_upper)} "
        f"closed_lb={_fmt(closed_lower)} {_oracle_columns(pair, copies)}"
    )


def main(argv=None):
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except _ARGUMENT_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except SizeLimitError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    return 0


if __name__ == "__main__":
    main()
