"""Analytic error probabilities and bounds for each discrimination scenario.

Every function is a pure scalar formula (numpy-broadcastable over the copy
count), evaluated in log space so that large copy counts neither overflow nor
lose the exponent.  Each bound is evaluated once, by a private function that
checks its arguments and returns the (value, log10 value) pair; the public
value function returns the first half, and the figures read both halves, the
log10 one staying finite long after the probability itself underflows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterDomainError
from .fock import _check_copies, _check_int, _check_mean_photons, _check_noise, _check_weight

logger = logging.getLogger(__name__)

_LN10 = math.log(10.0)
_LN2 = math.log(2.0)
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


def _exp(x):
    with np.errstate(under="ignore"):
        return np.exp(x)


def _upper_from_log(log_base, copies):
    """(value, log10 value) of (1/2) * exp(log_base)**copies."""
    ln = copies * log_base + math.log(0.5)
    return _scalarize(_exp(ln)), _scalarize(ln / _LN10)


def _lower_from_log(log_overlap, copies):
    """(value, log10 value) of (1/2)(1 - sqrt(1 - exp(log_overlap)**(2 copies)))."""
    log_inner = 2.0 * copies * log_overlap
    with np.errstate(under="ignore"):
        inner = np.exp(log_inner)
        saturated = inner >= 1.0
        clipped = np.where(saturated, 0.0, inner)      # keeps log1p off the -1 pole
        value = np.where(saturated, 0.5, -0.5 * np.expm1(0.5 * np.log1p(-clipped)))
        ln = log_inner - np.log(2.0 * (1.0 + np.sqrt(1.0 - clipped)))
        ln = np.where(saturated, math.log(0.5), ln)
    return _scalarize(value), _scalarize(ln / _LN10)


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

def _number_state_error(n, noise, copies):
    n = _check_int(n, "photon number", 0)
    noise = _check_noise(noise)
    r = noise.boltzmann
    if r == 0.0:
        log_base = -math.log(noise.n_b + 1.0) if n == 0 else -math.inf
    else:
        log_base = n * math.log(r) - math.log(noise.n_b + 1.0)
    return _upper_from_log(log_base, _check_copies(copies))


def number_state_error(n, noise, copies=1):
    """Exact error probability for number-state vs thermal discrimination."""
    return _number_state_error(n, noise, copies)[0]


def _noon_qcb(n, noise, copies):
    # per-copy Chernoff factor (1 - e**-beta) e**(-n beta) cosh(n beta) / 2,
    # assembled as log1p(e**(-2 n beta)) to stay finite for beta -> inf
    n = _check_int(n, "N00N photon number", 1)
    beta = _check_noise(noise).beta
    log_one_minus = math.log(-math.expm1(-beta)) if not math.isinf(beta) else 0.0
    log_q = log_one_minus + math.log1p(math.exp(-2.0 * n * beta)) - 2.0 * _LN2
    return _upper_from_log(log_q, _check_copies(copies))


def noon_qcb(n, noise, copies=1):
    """Quantum Chernoff bound for a N00N input of per-mode photon number n."""
    return _noon_qcb(n, noise, copies)[0]


def _noon_lower(n, noise, copies):
    # sigma = sqrt((1 - e**-beta)/2) * (1 + e**(-n beta)) / 2
    n = _check_int(n, "N00N photon number", 1)
    beta = _check_noise(noise).beta
    log_one_minus = math.log(-math.expm1(-beta)) if not math.isinf(beta) else 0.0
    log_sigma = 0.5 * (log_one_minus - _LN2) + math.log1p(math.exp(-n * beta)) - _LN2
    if not log_sigma <= 0.0:
        raise ParameterDomainError(f"root overlap exp({log_sigma}) above 1 for n={n}, beta={beta}")
    return _lower_from_log(log_sigma, _check_copies(copies))


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

def _coherent_qcb(n_s, n_b, copies):
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    return _upper_from_log(-n_s / (n_b + 1.0) - math.log(n_b + 1.0), _check_copies(copies))


def coherent_qcb(n_s, n_b, copies=1):
    """Quantum Chernoff bound for a coherent input of mean photon number n_s."""
    return _coherent_qcb(n_s, n_b, copies)[0]


def _coherent_lower(n_s, n_b, copies):
    # tau = <alpha| rho_th**(1/2) |alpha> = e**(-n_s (1 - sqrt(n_b/(n_b+1)))) / sqrt(n_b+1),
    # with 1 - sqrt(r) written as (1 - r)/(1 + sqrt(r)) to survive large n_b
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    r = n_b / (n_b + 1.0)
    one_minus_sqrt_r = (1.0 / (n_b + 1.0)) / (1.0 + math.sqrt(r))
    log_tau = -n_s * one_minus_sqrt_r - 0.5 * math.log(n_b + 1.0)
    return _lower_from_log(log_tau, _check_copies(copies))


def coherent_lower(n_s, n_b, copies=1):
    """Bhattacharyya-derived lower bound for the coherent scenario."""
    return _coherent_lower(n_s, n_b, copies)[0]


def _spdc_denominator(n_s, n_b):
    # (n_s+1)**2 (n_b+1) - n_s**2 n_b, expanded to avoid cancellation at large n_b
    return n_b * (2.0 * n_s + 1.0) + (n_s + 1.0) ** 2


def _spdc_qcb(n_s, n_b, copies):
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    denom = _spdc_denominator(n_s, n_b)
    if not denom >= 1.0:
        raise ParameterDomainError(f"Chernoff denominator {denom} below 1 (n_s={n_s}, n_b={n_b})")
    return _upper_from_log(-math.log(denom), _check_copies(copies))


def spdc_qcb(n_s, n_b, copies=1):
    """Quantum Chernoff bound for the two-mode squeezed-vacuum scenario."""
    return _spdc_qcb(n_s, n_b, copies)[0]


def _spdc_lower(n_s, n_b, copies):
    # upsilon = 1 / (sqrt((n_s+1)**3 (n_b+1)) - sqrt(n_s**3 n_b)), rationalized:
    # (sqrt(A) + sqrt(B)) / (A - B) with A - B expanded exactly
    n_s = _check_mean_photons(n_s, "n_s")
    n_b = _check_mean_photons(n_b, "n_b")
    a = (n_s + 1.0) ** 3 * (n_b + 1.0)
    b = n_s**3 * n_b
    diff = n_b * (3.0 * n_s**2 + 3.0 * n_s + 1.0) + (n_s + 1.0) ** 3
    upsilon = (math.sqrt(a) + math.sqrt(b)) / diff
    if not 0.0 < upsilon <= 1.0:
        logger.warning("root overlap %r clamped into (0, 1]", upsilon)
        upsilon = min(max(upsilon, 1e-300), 1.0)
    return _lower_from_log(math.log(upsilon), _check_copies(copies))


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
    if 2.0 * n_s + 1.0 == 1.0:
        raise ParameterDomainError(f"2 n_s + 1 rounds to 1 at n_s={n_s}: no exponent to measure")
    n_b = _BRIGHT_PROBE_N_B
    log_q = -math.log(_spdc_denominator(n_s, n_b))
    return -(log_q + math.log(n_b)) / math.log(2.0 * n_s + 1.0)


def asymptotic_limits(n_s, copies, regime, n_b=None):
    """Limit values of the coherent and two-mode-squeezed bounds.

    Bright noise (needs the probe ``n_b``): coherent error 1/(2 n_b**M) and
    the leading bright-noise form of the squeezed-vacuum Chernoff bound,
    together with the numerically extrapolated product-noise exponent.  Weak
    noise: the exact coherent error (1/2)(1 - sqrt(1 - e**(-2 M n_s))), the
    squeezed-vacuum Chernoff bound (1/2)(n_s+1)**(-2M), and its lower bound
    (1/2)(1 - sqrt(1 - (n_s+1)**(-3M))).
    """
    regime = NoiseRegime(regime)
    if regime is NoiseRegime.WEAK_NOISE:
        (coherent, _), (qcb, _), (lower, _) = _weak_noise(n_s, copies)
        return LimitValues(regime=regime, coherent=coherent, spdc_qcb=qcb, spdc_lower=lower)
    n_s = _check_mean_photons(n_s, "n_s")
    copies_f = float(_check_copies(copies))
    if n_b is None:
        raise ParameterDomainError("bright-noise limits need an n_b probe value")
    n_b = _check_mean_photons(n_b, "n_b")
    if n_b <= 0.0:
        raise ParameterDomainError("bright-noise probe n_b must be > 0")
    return LimitValues(
        regime=regime,
        coherent=0.5 * n_b**-copies_f,
        spdc_qcb=0.5 * (n_b * (2.0 * n_s + 1.0)) ** -copies_f,
        spdc_lower=None,
        product_noise_exponent=bright_noise_spdc_exponent(n_s),
    )


def _weak_noise(n_s, copies):
    """(value, log10) pairs of the weak-noise coherent error and squeezed-vacuum QCB and LB,
    each half shaped like ``n_s`` (a scalar or an array)."""
    points = [_check_mean_photons(x, "n_s") for x in np.ravel(n_s).tolist()]
    m = float(_check_copies(copies))
    # the per-point logs and powers stay Python float operations: numpy's
    # array ** and log1p round differently, which would change the figure digits
    qcb = ([0.5 * (x + 1.0) ** (-2.0 * m) for x in points],
           [math.log10(0.5) - 2.0 * m * math.log10(1.0 + x) for x in points])
    coherent = _lower_from_log(np.array([-x for x in points]), m)
    lower = _lower_from_log(np.array([-1.5 * math.log1p(x) for x in points]), m)
    shape = np.shape(n_s)
    return tuple(tuple(_scalarize(np.reshape(half, shape)) for half in pair)
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
