"""Analytic error probabilities and bounds for each discrimination scenario.

Every function is a pure formula, evaluated in log space so that large copy
counts neither overflow nor lose the exponent; the M-copy bounds broadcast over
every argument, each point with a scalar call's bits (asymptotic_limits takes
one copy count).  Each bound is evaluated once, by a private function that
checks its arguments and returns the (value, log10 value) pair; the public
value function returns the first half, and the figures read both halves, the
log10 one staying finite long after the probability itself underflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterDomainError
from .fock import (NoiseSpec, _check_copies, _check_int, _check_mean_photons, _check_noise,
                   _check_one_copy_count, _check_weight, _ln, _lower_readout)

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
#: parameter types that a bound passes to its log form as they are
_SCALARS = (int, float, NoiseSpec)
#: the large thermal photon number at which the bright-noise exponent is probed
_BRIGHT_PROBE_N_B = 1e8


class DepolarizingInput(Enum):
    PURE = "pure"
    MAX_ENTANGLED = "max_entangled"
    WERNER = "werner"


class NoiseRegime(Enum):
    BRIGHT_NOISE = "bright_noise"
    WEAK_NOISE = "weak_noise"


def _scalarize(x):
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


def _upper_from_log(log_base, copies):
    """(value, log10 value) of (1/2) * exp(log_base)**copies."""
    ln = copies * log_base + math.log(0.5)
    with np.errstate(under="ignore"):
        return _scalarize(np.exp(ln)), _scalarize(ln / _LN10)


def _lower_from_log(log_overlap, copies):
    """(value, log10 value) of (1/2)(1 - sqrt(1 - exp(log_overlap)**(2 copies)))."""
    value, ln = _lower_readout(log_overlap, copies)
    return _scalarize(value), _scalarize(ln / _LN10)


def _array(what, x):
    """np.asarray(x); a ragged ``x`` raises ParameterDomainError."""
    try:
        return np.asarray(x)
    except ValueError:
        raise ParameterDomainError(f"a {what} argument is ragged, not an array") from None


def _broadcast(what, x, y):
    """np.broadcast_arrays(x, y); a ragged argument, or shapes that do not broadcast, raise
    ParameterDomainError."""
    x, y = _array(what, x), _array(what, y)
    try:
        return np.broadcast_arrays(x, y)
    except ValueError:
        raise ParameterDomainError(f"{what} shapes {x.shape} and {y.shape} do not "
                                   "broadcast") from None


def _bound(readout):
    """Decorator: a bound's scalar log form, ln of its one-copy base at a point (a, b), becomes
    its (value, log10 value) function of ``(a, b, copies)``, broadcast over all three.  Each
    point of an array runs the Python-float form, so it keeps a scalar call's bits (numpy's array
    log and exp round differently) and a bad point raises what it raises alone; ``readout``
    then reads the whole (points x copies) grid.  Two scalars make no numpy call before it."""
    def decorate(log_form):
        @functools.wraps(log_form)
        def bound(a, b, copies):
            if isinstance(a, _SCALARS) and isinstance(b, _SCALARS):
                return readout(log_form(a, b), _check_copies(copies))
            a, b = _broadcast("parameter", a, b)
            points = zip(a.ravel().tolist(), b.ravel().tolist())
            log_base = np.reshape([log_form(*point) for point in points], a.shape)
            copies = _check_copies(copies)
            _broadcast("parameter and copy", log_base, copies)
            return readout(log_base, copies)
        return bound
    return decorate


# ---------------------------------------------------------------------------
# depolarizing vs identity channels on qudits

def depolarizing_error(d, input_kind, x=None):
    """Single-copy error for depolarizing-vs-identity discrimination.

    Pure d-dimensional input: 1/(2d).  Maximally entangled d x d input:
    1/(2 d**2).  Werner input of weight x: (d**2 - x (d**2 - 1)) / (2 d**2).
    """
    d = _check_int(d, "qudit dimension", 2)
    input_kind = DepolarizingInput(input_kind)
    if input_kind is DepolarizingInput.PURE:
        return 1.0 / (2.0 * d)
    if input_kind is DepolarizingInput.MAX_ENTANGLED:
        return 1.0 / (2.0 * d**2)
    if x is None:
        raise ParameterDomainError("Werner input needs a mixing weight x")
    x = _check_weight(x)
    return (d**2 - x * (d**2 - 1.0)) / (2.0 * d**2)


def werner_advantage_threshold(d):
    """Werner weight above which the bipartite input beats any single-party pure input."""
    d = _check_int(d, "qudit dimension", 2)
    return d / (d + 1.0)


# ---------------------------------------------------------------------------
# number states vs N00N states against thermal noise

@_bound(_upper_from_log)
def _number_state_error(n, noise):
    n = _check_int(n, "photon number", 0)
    noise = _check_noise(noise)
    r = noise.boltzmann
    if r == 0.0:
        return -math.log(noise.n_b + 1.0) if n == 0 else -math.inf
    return n * math.log(r) - math.log(noise.n_b + 1.0)


def number_state_error(n, noise, copies=1):
    """Exact error probability for number-state vs thermal discrimination."""
    return _number_state_error(n, noise, copies)[0]


def _noon_terms(n, noise):
    """The checked n and beta of a N00N point, and ln(1 - e**-beta), read by both its bounds."""
    n, beta = _check_int(n, "N00N photon number", 1), _check_noise(noise).beta
    return n, beta, math.log(-math.expm1(-beta)) if not math.isinf(beta) else 0.0


@_bound(_upper_from_log)
def _noon_qcb(n, noise):
    # per-copy Chernoff factor (1 - e**-beta) e**(-n beta) cosh(n beta) / 2,
    # assembled as log1p(e**(-2 n beta)) to stay finite for beta -> inf
    n, beta, log_one_minus = _noon_terms(n, noise)
    return log_one_minus + math.log1p(math.exp(-2.0 * n * beta)) - 2.0 * _LN2


def noon_qcb(n, noise, copies=1):
    """Quantum Chernoff bound for a N00N input of per-mode photon number n."""
    return _noon_qcb(n, noise, copies)[0]


@_bound(_lower_from_log)
def _noon_lower(n, noise):
    # sigma = sqrt((1 - e**-beta)/2) * (1 + e**(-n beta)) / 2
    n, beta, log_one_minus = _noon_terms(n, noise)
    log_sigma = 0.5 * (log_one_minus - _LN2) + math.log1p(math.exp(-n * beta)) - _LN2
    if not log_sigma <= 0.0:
        raise ParameterDomainError(f"root overlap exp({log_sigma}) above 1 for n={n}, beta={beta}")
    return log_sigma


def noon_lower(n, noise, copies=1):
    """Bhattacharyya-derived lower bound for the N00N scenario."""
    return _noon_lower(n, noise, copies)[0]


def noon_threshold(noise):
    """Photon number below which the N00N bound beats the number-state error.

    Solves cosh(n beta) = 2, i.e. n* = arccosh(2)/beta = ln(2 + sqrt(3))/beta;
    the N00N Chernoff bound is strictly smaller exactly for n < n*.
    """
    return math.acosh(2.0) / _check_noise(noise).beta


# ---------------------------------------------------------------------------
# coherent light vs two-mode entangled photons against thermal noise

@_bound(_upper_from_log)
def _coherent_qcb(n_s, n_b):
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    return -n_s / (n_b + 1.0) - math.log(n_b + 1.0)


def coherent_qcb(n_s, n_b, copies=1):
    """Quantum Chernoff bound for a coherent input of mean photon number n_s."""
    return _coherent_qcb(n_s, n_b, copies)[0]


@_bound(_lower_from_log)
def _coherent_lower(n_s, n_b):
    # tau = <alpha| rho_th**(1/2) |alpha> = e**(-n_s (1 - sqrt(n_b/(n_b+1)))) / sqrt(n_b+1),
    # with 1 - sqrt(r) written as (1 - r)/(1 + sqrt(r)) to survive large n_b
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    r = n_b / (n_b + 1.0)
    one_minus_sqrt_r = (1.0 / (n_b + 1.0)) / (1.0 + math.sqrt(r))
    return -n_s * one_minus_sqrt_r - 0.5 * math.log(n_b + 1.0)


def coherent_lower(n_s, n_b, copies=1):
    """Bhattacharyya-derived lower bound for the coherent scenario."""
    return _coherent_lower(n_s, n_b, copies)[0]


def _ln_sum(*logs):
    """ln(sum(exp(logs))), for sums past the float range."""
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _log_of(form, log_form):
    """ln(form()), or log_form() where form() leaves the float range: a float power past
    it raises OverflowError, a product turns inf (and a ratio then 0 or nan)."""
    try:
        x = form()
    except OverflowError:
        x = math.nan
    return math.log(x) if 0.0 < x < math.inf else log_form()


def _spdc_log_denominator(n_s, n_b):
    # ln((n_s+1)**2 (n_b+1) - n_s**2 n_b), expanded to avoid cancellation at large n_b
    return _log_of(lambda: n_b * (2.0 * n_s + 1.0) + (n_s + 1.0) ** 2,
                   lambda: _ln_sum(_ln(n_b) + _ln_sum(_LN2 + _ln(n_s), 0.0), 2.0 * math.log1p(n_s)))


@_bound(_upper_from_log)
def _spdc_qcb(n_s, n_b):
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    return -_spdc_log_denominator(n_s, n_b)


def spdc_qcb(n_s, n_b, copies=1):
    """Quantum Chernoff bound for the two-mode squeezed-vacuum scenario."""
    return _spdc_qcb(n_s, n_b, copies)[0]


@_bound(_lower_from_log)
def _spdc_lower(n_s, n_b):
    # upsilon = 1 / (sqrt((n_s+1)**3 (n_b+1)) - sqrt(n_s**3 n_b)), rationalized:
    # (sqrt(A) + sqrt(B)) / (A - B) with A - B expanded exactly; an upsilon that rounds
    # above 1 saturates in _lower_from_log
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    ln_s, ln_b = _ln(n_s), _ln(n_b)
    return _log_of(
        lambda: (math.sqrt((n_s + 1.0) ** 3 * (n_b + 1.0)) + math.sqrt(n_s**3 * n_b))
        / (n_b * (3.0 * n_s**2 + 3.0 * n_s + 1.0) + (n_s + 1.0) ** 3),
        lambda: _ln_sum(1.5 * math.log1p(n_s) + 0.5 * math.log1p(n_b), 1.5 * ln_s + 0.5 * ln_b)
        - _ln_sum(ln_b + _LN3 + _ln_sum(2.0 * ln_s, ln_s, -_LN3), 3.0 * math.log1p(n_s)))


def spdc_lower(n_s, n_b, copies=1):
    """Bhattacharyya-derived lower bound for the two-mode squeezed-vacuum scenario."""
    return _spdc_lower(n_s, n_b, copies)[0]


# ---------------------------------------------------------------------------
# limiting regimes

@dataclass(frozen=True)
class LimitValues:
    """Limit-regime bounds; fields are None where the regime defines no value."""

    regime: NoiseRegime
    coherent: float
    spdc_qcb: float
    spdc_lower: float = None
    product_noise_exponent: float = None


def bright_noise_spdc_exponent(n_s):
    """Numeric exponent of (2 n_s + 1) per copy in the bright-noise two-mode-squeezed bound.

    Measures how the finite-noise bound scales against the 1/(2 n_b) baseline
    per copy at the large probe n_b = 1e8; the M-copy bound is the M-th power,
    so the exponent does not depend on M.  The printed value arbitrates the
    limiting exponent instead of trusting either algebraic simplification.
    """
    n_s = _check_mean_photons(n_s, "n_s")
    base = 2.0 * n_s + 1.0
    if base == 1.0:
        raise ParameterDomainError(f"2 n_s + 1 rounds to 1 at n_s={n_s}: no exponent to measure")
    n_b = _BRIGHT_PROBE_N_B
    log_q = -_spdc_log_denominator(n_s, n_b)
    return -(log_q + math.log(n_b)) / (math.log(base) if base < math.inf else _LN2 + math.log(n_s))


def asymptotic_limits(n_s, copies, regime, n_b=None):
    """Limit values of the coherent and two-mode-squeezed bounds.

    Bright noise (needs a probe ``n_b`` >= 1, so each power of 1/n_b can only underflow):
    coherent error 1/(2 n_b**M) and the leading bright-noise form of the squeezed-vacuum
    Chernoff bound, with the numerically extrapolated product-noise exponent.  Weak noise:
    the exact coherent error (1/2)(1 - sqrt(1 - e**(-2 M n_s))), the squeezed-vacuum
    Chernoff bound (1/2)(n_s+1)**(-2M), and its lower bound (1/2)(1 - sqrt(1 - (n_s+1)**(-3M))).
    ``copies`` is one copy count: an array raises ParameterDomainError, and so does an
    array ``n_s`` in the bright regime; the weak regime broadcasts over ``n_s``.
    """
    copies = float(_check_one_copy_count(copies))
    regime = NoiseRegime(regime)
    if regime is NoiseRegime.WEAK_NOISE:
        (coherent, _), (qcb, _), (lower, _) = _weak_noise(n_s, copies)
        return LimitValues(regime=regime, coherent=coherent, spdc_qcb=qcb, spdc_lower=lower)
    if _array("parameter", n_s).ndim:
        raise ParameterDomainError("bright-noise limits take one n_s, not an array")
    n_s = _check_mean_photons(n_s, "n_s")
    if n_b is None:
        raise ParameterDomainError("bright-noise limits need an n_b probe value")
    n_b = _check_mean_photons(n_b, "n_b")
    if n_b < 1.0:
        raise ParameterDomainError(f"bright-noise probe n_b must be >= 1, got {n_b}")
    return LimitValues(
        regime=regime,
        coherent=0.5 * n_b**-copies,
        spdc_qcb=0.5 * (n_b * (2.0 * n_s + 1.0)) ** -copies,
        spdc_lower=None,
        product_noise_exponent=bright_noise_spdc_exponent(n_s),
    )


def _weak_noise(n_s, copies):
    """(value, log10) pairs of the weak-noise coherent error and squeezed-vacuum QCB and LB,
    each half shaped like ``n_s`` (a scalar or an array)."""
    n_s = _array("parameter", n_s)
    points = [_check_mean_photons(x, "n_s") for x in n_s.ravel().tolist()]
    m = float(_check_copies(copies))
    # the per-point logs and powers stay Python float operations: numpy's
    # array ** and log1p round differently, which would change the figure digits
    qcb = ([0.5 * (x + 1.0) ** (-2.0 * m) for x in points],
           [math.log10(0.5) - 2.0 * m * math.log10(1.0 + x) for x in points])
    coherent = _lower_from_log(np.array([-x for x in points]), m)
    lower = _lower_from_log(np.array([-1.5 * math.log1p(x) for x in points]), m)
    return tuple(tuple(_scalarize(np.reshape(half, n_s.shape)) for half in pair)
                 for pair in (coherent, qcb, lower))


def weak_noise_crossover():
    """Signal strength where the weak-noise squeezed-vacuum lower bound crosses
    the coherent error at one copy: the root of e**(-2 n_s) = (n_s + 1)**-3,
    found by bisection on [1, 1.3] to a bracket width of 1e-6."""
    f = lambda x: 3.0 * math.log1p(x) - 2.0 * x      # f(1) > 0 > f(1.3)
    lo, hi = 1.0, 1.3
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
