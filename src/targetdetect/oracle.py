"""Brute-force evaluation of discrimination error probabilities and bounds.

Everything here works directly on density matrices (eigendecompositions,
tensor powers, trace norms) and imports nothing from the closed-form module, so
these routines are the ground truth the closed forms are validated against; both
read an M-copy Bhattacharyya bound from its overlap by fock's one readout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from types import MappingProxyType

import numpy as np

from .errors import ParameterDomainError
from .fock import (DENSE_DIM_LIMIT, DIM_LIMIT, _check_dims, _check_one_copy_count, _dense_spectra,
                   _kron, _ln, _lower_readout, spectral_decomposition)

logger = logging.getLogger(__name__)

#: cap on the Newton steps of the Chernoff minimum
CHERNOFF_MAX_ITER = 50
#: cap on the Newton steps of the rank-one secular solve
SECULAR_MAX_ITER = 50
#: float64 machine epsilon and smallest normal number, read once for the Newton loops
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
#: the s of every quantity the build fixes: both ends of [0, 1] and the root overlap's 1/2
_FIXED_S = np.array([[0.0], [1.0], [0.5]])


class BoundKind(Enum):
    EXACT = "exact"
    CHERNOFF_UPPER = "chernoff_upper"
    BHATTACHARYYA_LOWER = "bhattacharyya_lower"


@dataclass(frozen=True, init=False)
class BoundResult:
    """A bound value with the evidence of how it was computed.  Frozen; ``__init__`` fills the
    instance dict in one update (a frozen dataclass's own sets each field through
    object.__setattr__), with a fresh ``diagnostics`` dict when none is given."""

    value: float
    kind: BoundKind
    copies: int
    s_star: float = None
    cutoffs: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def __init__(self, value, kind, copies, s_star=None, cutoffs=(), diagnostics=None):
        self.__dict__.update(value=value, kind=kind, copies=copies, s_star=s_star, cutoffs=cutoffs,
                             diagnostics={} if diagnostics is None else diagnostics)


def _outer_rows(a, b):
    """The Kronecker product of each row of ``a`` with the same row of ``b``."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _power(x, copies, product):
    """``x``'s ``copies``-fold power under the Kronecker ``product``, squared over the bits
    of ``copies`` from the top; up to 3 copies it is the left fold (np.kron's bits)."""
    power = x
    for bit in bin(copies)[3:]:
        power = product(power, power)
        if bit == "1":
            power = product(power, x)
    return power


def _spectra(rho0, rho1):
    """(vals0, vals1, W): both spectra and the squared eigenvector overlaps W.

    W is None for two diagonal states, whose eigenvectors are both the
    computational basis.  A diagonal state against a ket is read on the ket's
    nonzero amplitudes only: every other row of W is zero, so the diagonal is
    taken there, and W is the one column of the normalized ket's squared
    amplitudes.
    """
    for diag, pure in ((rho0, rho1), (rho1, rho0)):
        if pure.ket is not None and diag.ket is None and diag.matrix is None:
            psi, support, nrm_sq = pure.ket.amplitudes, pure.ket.support, pure.ket.norm_sq
            d = diag.diagonal_or_none()[support]
            w = np.abs(psi[support] / math.sqrt(nrm_sq)).reshape(-1, 1) ** 2
            if pure is rho1:
                return d, np.array([nrm_sq]), w
            return np.array([nrm_sq]), d, w.T
    vals0, vecs0 = spectral_decomposition(rho0)
    vals1, vecs1 = spectral_decomposition(rho1)
    if vecs0 is None and vecs1 is None:
        return vals0, vals1, None
    if vecs0 is None:
        return vals0, vals1, np.abs(vecs1) ** 2                     # dim x r1
    if vecs1 is None:
        return vals0, vals1, (np.abs(vecs0) ** 2).T                 # r0 x dim
    return vals0, vals1, _weights(vecs0, vecs1)                     # r0 x r1


def _weights(vecs0, vecs1):
    """W_ij = |<u_i|v_j>|**2 of two eigenvector matrices, or of two stacks of them."""
    return np.abs(vecs0.conj().swapaxes(-1, -2) @ vecs1) ** 2


def _contract(rows, diagonal, a, b, s):
    """(..., 4) stack (q, q', q'', sum t |g|) of the rows (..., 4, r0, r1), or (..., 4, n) for two
    diagonals, at s, an array that broadcasts with a[..., :1]: the one place the spectra a (..., r0)
    and b (..., r1) are raised to s and 1 - s, by numpy's pow with its sqrt at s = 1/2.  The
    longer side is summed first, so a pair and its swap add the same terms in the same order, and
    by the same vector-matrix products at any s and in any stack, so a pair keeps its bits."""
    half = s == 0.5
    x, y = np.where(half, np.sqrt(a), a**s), np.where(half, np.sqrt(b), b ** (1.0 - s))
    if diagonal:
        stack = rows @ (x * y)[..., None]
    elif x.shape[-1] >= y.shape[-1]:
        stack = (x[..., None, None, :] @ rows).reshape(*x.shape[:-1], 4, -1) @ y[..., None]
    else:
        stack = (rows @ y[..., None, :, None]).reshape(*x.shape[:-1], 4, -1) @ x[..., None]
    return stack[..., 0]


class Overlap:
    """q(s) = Tr[rho0**s rho1**(1-s)] for one pair, from one eigensystem per state.

    ``pair`` is a HypothesisPair, built once and read as given.  The squared
    eigenvector overlaps W are formed once, and every eigenvalue that is zero or
    whose weights are all zero is dropped with its row or column: each dropped
    term is zero at every s in [0, 1], because s = 0 means the limit s -> 0+,
    in which 0**s stays 0.  Each contraction then costs the states' support,
    not the truncated dimension, and so does the build of a diagonal state
    against a ket (see _spectra).  With the log-gap ``gap``, g_ij = ln a_i - ln b_j,
    the build stacks the rows W, W g, W g**2 and W |g| once (for two diagonals
    1, g, g**2 and |g|, elementwise), and ``contract`` alone reads q, q', q'' and
    the rounding floor of q' from them, at one s or on a grid of s.  Every
    quantity a bound reads is fixed by the build, from that one contraction:
    the Chernoff ``minimum``, the root overlap q(1/2) and ``ends``, (q(0), q(1)),
    where the rank-one solve of a pair with a ket side starts.  Its arrays are
    read-only and its search record a read-only mapping, so no consumer can
    change what the other bounds on the pair (HypothesisPair.overlap) read.
    The build runs over a leading pair axis (_build): ``Overlap(pair)`` is a
    stack of one, and Overlap.stack builds any pairs at once.
    """

    def __init__(self, pair):
        _fill((self,), (pair,))

    @classmethod
    def stack(cls, pairs):
        """The Overlaps, each with Overlap(pair)'s bits, of any ``pairs``, from as few builds as
        their spectra allow (see _fill)."""
        return _fill([cls.__new__(cls) for _ in pairs], pairs)

    def contract(self, s):
        """(q, q', q'', sum t |g|) at one s in [0, 1]: the row stack contracted with a**s and
        b**(1-s) (see _contract), as a one-point contract_grid.  A 1-D array of G values of s
        gives contract_grid's (4, G) stack, each column with its point value's bits."""
        stack = contract_grid((self,), s)[0]
        return stack[:, 0] if np.ndim(s) == 0 else stack


def contract_grid(overlaps, s):
    """Overlap.contract on ``s``, a number or a 1-D grid in [0, 1], for each of ``overlaps``,
    Overlaps of one shape such as a stacked build's: their (len(overlaps), 4, G) stack, by one
    contraction (G = 1 for a number)."""
    grid = np.asarray(s, dtype=float)
    if grid.ndim > 1 or not (grid.min(initial=0.0) >= 0.0 and grid.max(initial=1.0) <= 1.0):
        raise ParameterDomainError(f"s must be a number or a 1-D array in [0, 1], got {s}")
    a, b, rows = (np.array([[getattr(overlap, name)] for overlap in overlaps])
                  for name in ("vals0", "vals1", "rows"))
    return _contract(rows, overlaps[0].weights is None, a, b, grid.reshape(-1, 1)).swapaxes(1, 2)


def _fill(overlaps, pairs):
    """Build and return ``overlaps`` of ``pairs``: dense pairs of one shape and type take one eigh,
    any other pair _spectra.  A zero product a_i W_ij b_j (a_i b_i for two diagonals), or none,
    drops its row or column and is built alone; the others share one _build per (r0, r1, W None)."""
    spectra, dense = [None] * len(pairs), {}
    for i, pair in enumerate(pairs):
        m0, m1 = pair.rho0.matrix, pair.rho1.matrix
        if m0 is None or m1 is None or m0.dtype != m1.dtype:
            spectra[i] = _spectra(pair.rho0, pair.rho1)
        else:
            dense.setdefault((m0.shape, m0.dtype), []).append(i)
    for members in dense.values():
        vals, vecs = _dense_spectra(np.array([(pairs[i].rho0.matrix, pairs[i].rho1.matrix)
                                              for i in members]))
        for i, *spectrum in zip(members, vals[:, 0], vals[:, 1], _weights(vecs[:, 0], vecs[:, 1])):
            spectra[i] = spectrum
    builds = {}
    for i, (vals0, vals1, weights) in enumerate(spectra):
        terms = vals0 * vals1 if weights is None else vals0[:, None] * weights * vals1
        key = (vals0.size, vals1.size, weights is None)
        if not 0 < np.count_nonzero(terms) == terms.size:
            rows, cols = vals0 > 0.0, vals1 > 0.0
            if weights is None:
                rows = cols = rows & cols
            else:
                rows &= weights.any(axis=1)
                cols &= weights.any(axis=0)
                weights = weights[rows][:, cols]
            spectra[i], key = (vals0[rows], vals1[cols], weights), i
        builds.setdefault(key, []).append(i)
    for members in builds.values():
        _build(*([column[i] for i in members] for column in (overlaps, pairs, spectra)))
    return overlaps


def _build(overlaps, pairs, spectra):
    """Fill ``overlaps`` of ``pairs`` from their ``spectra`` (a, b, W), stacked to a (B, r0),
    b (B, r1) and W (B, r0, r1), None for two diagonals: each step runs once over the pair
    axis, and each pair keeps views."""
    a, b, weights = (None if x[0] is None else np.array(x) for x in zip(*spectra))
    diagonal = weights is None
    log_a, log_b = np.log(a), np.log(b)
    g = log_a - log_b if diagonal else log_a[:, :, None] - log_b[:, None, :]
    rows = np.empty((len(a), 4, *g.shape[1:]))
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = 1.0, g, g * g, np.abs(g)
    if not diagonal:
        rows *= weights[:, None]
    for array in (a, b, g, rows):
        array.flags.writeable = False
    # (q0, q'(0), q1, q'(1), q(1/2)) of each pair, from one contraction
    fixed = _contract(rows[:, None], diagonal, a[:, None], b[:, None], _FIXED_S)
    ends = np.hstack((fixed[:, :2, :2].reshape(-1, 4), fixed[:, 2, :1])).tolist()
    newton = [not (slope1 < 0.0 or slope0 > 0.0 or slope0 == slope1 == 0.0)
              for _, slope0, _, slope1, _ in ends]
    found = _search(partial(_contract, rows, diagonal, a, b), ends, newton) if any(newton) else None
    debug = logger.isEnabledFor(logging.DEBUG)
    for i, (overlap, pair, (q0, slope0, q1, slope1, root)) in enumerate(zip(overlaps, pairs, ends)):
        overlap.vals0, overlap.vals1, overlap.gap, overlap.rows = a[i], b[i], g[i], rows[i]
        overlap.weights = None if diagonal else rows[i, 0]
        if debug:       # a ket has one eigenvalue, any other state dim
            full0, full1 = (1 if rho.ket is not None else rho.dim for rho in (pair.rho0, pair.rho1))
            logger.debug("support %d/%d x %d/%d", a[i].size, full0, b[i].size, full1)
        if newton[i]:
            s, q, steps, capped = (column[i] for column in found)
            if capped:
                logger.warning("Chernoff Newton search hit its %d-step cap", CHERNOFF_MAX_ITER)
            logger.debug("endpoint slopes %.6e, %.6e: s* = %.17g by %d Newton steps",
                         slope0, slope1, s, steps)
            how = {"s_rule": "newton", "slope": None, "refine_iterations": steps}
        else:
            s, q, slope = (1.0, q1, slope1) if slope1 < 0.0 else (0.0, q0, slope0)
            logger.debug("s* = %g by the endpoint slope %.6e", s, slope)
            how = {"s_rule": "endpoint_slope", "slope": slope, "refine_iterations": 0}
        overlap.minimum = s, q, MappingProxyType(how)
        overlap.root_overlap, overlap.ends = root, (q0, q1)


def _search(contract, ends, newton):
    """(s*, q_min, Newton steps, stopped at the cap) lists for the pairs marked ``newton``,
    from ``ends``, each pair's (q0, q'(0), q1, q'(1), q(1/2)), by ``contract(s)``, s (pairs, 1).

    q(s) = sum_ij W_ij a_i**s b_j**(1-s) is a positive sum of exponentials in s, so it
    is convex.  q'(1) < 0 puts the minimum at s = 1, and q'(0) > 0 puts it at s = 0.
    Both slopes exactly 0 (identical states) make q constant, and the tie goes to the
    smallest s, s = 0.  Otherwise q'(0) <= 0 <= q'(1) brackets the minimum, the root
    of q', and safeguarded Newton (rtsafe, Press et al., Numerical Recipes) finds it
    from the secant root of the endpoint slopes, with q'' = sum t g**2 > 0.  A Newton
    step that leaves the bracket [lo, hi] of the root is replaced by a bisection.  The
    search stops when |q'| is within its rounding floor, eps * sum t |g|, or when no
    float is left inside the bracket; a stop on the step size would let rounding
    noise near the root bisect for dozens of steps.  A step moves only the pairs still
    searching (``active``).
    """
    s = np.array([slope0 / (slope0 - slope1) if run else 0.0
                  for (_, slope0, _, slope1, _), run in zip(ends, newton)])
    active, lo, hi = np.array(newton), np.zeros(len(s)), np.ones(len(s))
    steps, capped = np.zeros(len(s), dtype=int), np.zeros(len(s), dtype=bool)
    while True:
        q, slope, curvature, floor = contract(s[:, None]).T
        active &= (np.abs(slope) > _EPS * floor) & (lo < s) & (s < hi)
        capped |= active & (steps == CHERNOFF_MAX_ITER)
        active &= ~capped
        if not active.any():
            return s.tolist(), q.tolist(), steps.tolist(), capped.tolist()
        i = np.flatnonzero(active)
        down = slope[i] < 0.0
        lo[i], hi[i] = np.where(down, s[i], lo[i]), np.where(down, hi[i], s[i])
        step = s[i] - slope[i] / curvature[i]
        s[i] = np.where((lo[i] < step) & (step < hi[i]), step, 0.5 * (lo[i] + hi[i]))
        steps[i] += 1


def chernoff_bound(pair, copies=1):
    """Quantum Chernoff upper bound (1/2) (min_s q(s))**copies.

    ``pair`` is a HypothesisPair, built once: every call on it reads the minimum
    its Overlap found when it was built, at every copy count.
    """
    copies = int(_check_one_copy_count(copies))
    best_s, best_q, how = pair.overlap.minimum
    # q_min may round above 1 (two equal states): the value and its log both clamp at 1/2.
    # The value is 0.5 * q**M, not the closed forms' exp(M ln q + ln 1/2): the rank-one
    # solve starts from the same float q**M, so exact <= QCB holds in floating point.
    q = min(best_q, 1.0)
    log_value = math.log(0.5) + copies * _ln(q)
    value = 0.5 * q**copies
    diagnostics = {"grid_size": 0, **how, "q_min": best_q, "log_value": log_value}
    return BoundResult(value=value, kind=BoundKind.CHERNOFF_UPPER, copies=copies,
                       s_star=best_s, cutoffs=pair.cutoffs, diagnostics=diagnostics)


def bhattacharyya_lower(pair, copies=1):
    """Lower bound (1/2)(1 - sqrt(1 - Tr[rho0**(1/2) rho1**(1/2)]**(2 copies)))."""
    copies = int(_check_one_copy_count(copies))
    overlap = pair.overlap.root_overlap
    if overlap > 1.0 + 1e-10:
        logger.warning("root-overlap %r clamped to 1", overlap)
    value, log_value = map(float, _lower_readout(_ln(overlap), copies))
    return BoundResult(value=value, kind=BoundKind.BHATTACHARYYA_LOWER, copies=copies,
                       cutoffs=pair.cutoffs,
                       diagnostics={"root_overlap": overlap, "log_value": log_value})


def _rank_one_error(d, w, q, copies):
    """Helstrom error of rho0**M against |psi><psi|**M, from the rank-one secular equation.

    ``d`` is rho0's support spectrum and ``w`` psi's weights on it,
    w_i = |<v_i|psi>|**2 for the normalized psi, so w0 = 1 - sum(w) is psi's
    mass on rho0's kernel; ``q`` = sum_i w_i d_i.  For M copies d and w become
    Kronecker powers over the support, and w0 the mass off it.  rho0 - |psi><psi|
    has one negative eigenvalue -mu, with sum_i w_i / (d_i + mu) + w0 / mu = 1
    (Golub 1973), and the error is delta / 2 with delta = 1 - mu the root of

        f(delta) = sum_i w_i (delta - d_i) / (d_i + 1 - delta) + w0 delta / (1 - delta),

    a form without the 1 - (1 - x) cancellation.  f is convex and increasing
    with its root at or below q**M, so Newton's method started there falls
    monotonically onto it.  All three inputs come from the pair's Overlap,
    where ``q`` is the float the Chernoff bound reads at the ket's end of
    [0, 1], so exact <= QCB holds in floating point too.  A step below 4 M ulps
    of delta is not taken: each M-fold product may be rounded by up to M / 2
    ulps, so such a step moves nothing but rounding, and a basis-state psi
    (one d, w = 1, root q**M) keeps its start at any M.  Below the normal
    float range the log of delta / 2 is taken from that start, ln(1/2) +
    M ln q, not from the few digits left: delta lies below q**M by a relative
    amount of the order of the d_i that carry q**M, which are tiny by then.
    rho0's trace deficit sits outside psi's support and does not enter f;
    psi's own norm deficit moves delta by a relative amount of that order.
    Only the support is guarded and expanded, never the truncated dimension.
    Returns (delta / 2, diagnostics with ``log_value``).
    """
    w0 = max(1.0 - float(w.sum()), 0.0)
    delta = q**copies
    _check_dims(d.shape, DIM_LIMIT, copies)
    if copies > 1:
        d, w = _power(np.array((d, w)), copies, _outer_rows)
        w0 = -math.expm1(copies * math.log1p(-w0)) if w0 < 1.0 else 1.0
    iterations = 0
    while iterations < SECULAR_MAX_ITER:
        gap = d + (1.0 - delta)
        f = float(w @ ((delta - d) / gap))
        if w0:
            f += w0 * delta / (1.0 - delta)
        if f <= 0.0:    # at or past the root: the slope is formed only for a step
            break
        slope = float(w @ gap**-2)
        if w0:
            slope += w0 / (1.0 - delta) ** 2
        step = f / slope
        if step <= 4.0 * copies * _EPS * delta:
            break
        delta -= step
        iterations += 1
    else:
        logger.warning("secular Newton solve stopped at its %d-step cap", SECULAR_MAX_ITER)
    value = 0.5 * delta
    log_value = math.log(value) if value >= _TINY else math.log(0.5) + copies * _ln(q)
    return value, {"support_size": d.size, "iterations": iterations, "log_value": log_value}


def _exact(value, path, pair, copies, **found):
    """helstrom_error's EXACT BoundResult: ``value``, found by ``path``, clamped to [0, 1/2],
    with the pair's trace deficits and what the path ``found`` as its diagnostics."""
    value = min(max(value, 0.0), 0.5)
    diagnostics = {"trace_deficits": (pair.rho0.trace_deficit, pair.rho1.trace_deficit), **found,
                   "path": path}
    diagnostics.setdefault("log_value", _ln(value))
    return BoundResult(value=value, kind=BoundKind.EXACT, copies=copies, cutoffs=pair.cutoffs,
                       diagnostics=diagnostics)


def helstrom_error(pair, copies=1):
    """Exact minimum error probability (1/2)(1 - (1/2)||rho0**M - rho1**M||_1), M = ``copies``,
    of one pair: the one place a Helstrom path is chosen.

    A pair with a ket side takes the rank-one secular equation (see _rank_one_error) when either
    state carries a trace deficit or the ket has exactly one nonzero amplitude (a number-state
    probe, exact at any M); its support size r**M must pass fock's DIM_LIMIT.  Otherwise dim**M
    must pass DIM_LIMIT (two diagonals) or DENSE_DIM_LIMIT before any matrix is made dense, and
    _power squares up the two diagonals or the two dense matrices, in real arithmetic when both
    are real.  Only the rank-one path reads the pair's Overlap (HypothesisPair.overlap).
    """
    copies = int(_check_one_copy_count(copies))
    rho0, rho1 = pair.rho0, pair.rho1
    deficit = rho0.trace_deficit > 0.0 or rho1.trace_deficit > 0.0
    for side, ket in ((1, rho1.ket), (0, rho0.ket)):
        if ket is not None and (deficit or ket.support.size == 1):
            # the other state's support spectrum, the ket's weights on it (W's one column or
            # row) and q at the ket's end of [0, 1]
            overlap = pair.overlap
            value, solve = _rank_one_error((overlap.vals1, overlap.vals0)[side],
                                           overlap.weights.sum(axis=side), overlap.ends[side],
                                           copies)
            return _exact(value, "rank_one_secular", pair, copies, **solve)
    d0 = rho0.diagonal_or_none()
    d1 = None if d0 is None else rho1.diagonal_or_none()
    diagonal = d1 is not None
    tensor_dim = _check_dims(pair.dims, DIM_LIMIT if diagonal else DENSE_DIM_LIMIT, copies)
    if diagonal:
        eig = np.subtract(*_power(np.array((d0, d1)), copies, _outer_rows))
    else:   # only the difference outlives this statement, so eigvalsh runs beside one matrix
        eig = np.linalg.eigvalsh(_power(rho0.to_dense(), copies, _kron)
                                 - _power(rho1.to_dense(), copies, _kron))
    return _exact(0.5 * (1.0 - 0.5 * float(np.abs(eig).sum())),
                  "diagonal_product" if diagonal else "dense_tensor_power", pair, copies,
                  tensor_dim=tensor_dim)
