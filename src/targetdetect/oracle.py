"""Brute-force evaluation of discrimination error probabilities and bounds.

Everything here works directly on density matrices (eigendecompositions,
tensor powers, trace norms); no analytic shortcut from the closed-form module
is used, so these routines serve as the ground truth the closed forms are
validated against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce

import numpy as np

from .channels import HypothesisPair
from .errors import ParameterDomainError
from .fock import (DENSE_DIM_LIMIT, DIM_LIMIT, _check_copies, _check_dims, _clamped_eigenvalues,
                   spectral_decomposition, tensor)

logger = logging.getLogger(__name__)

#: cap on the Newton steps of the Chernoff minimum
CHERNOFF_MAX_ITER = 50
#: cap on the Newton steps of the rank-one secular solve
SECULAR_MAX_ITER = 50


class BoundKind(Enum):
    EXACT = "exact"
    CHERNOFF_UPPER = "chernoff_upper"
    BHATTACHARYYA_LOWER = "bhattacharyya_lower"


@dataclass(frozen=True)
class BoundResult:
    """A bound value with the evidence of how it was computed."""

    value: float
    kind: BoundKind
    copies: int
    s_star: float = None
    cutoffs: tuple = ()
    diagnostics: dict = field(default_factory=dict)


def _as_states(pair):
    if not isinstance(pair, (HypothesisPair, Overlap)):
        pair = HypothesisPair(*pair)
    return pair.rho0, pair.rho1, pair.cutoffs


def _power(rows, copies):
    """The ``copies``-fold Kronecker power of each row of ``rows``, by repeated squaring."""
    if copies == 1:
        return rows
    half = _power(rows, copies // 2)
    square = (half[:, :, None] * half[:, None, :]).reshape(len(rows), -1)
    return (square[:, :, None] * rows[:, None, :]).reshape(len(rows), -1) if copies % 2 else square


def _validate_copies(copies):
    """The copy count as an int, by fock's rule; a plain int >= 1 skips its numpy overhead."""
    return copies if type(copies) is int and copies >= 1 else int(_check_copies(copies))


def _spectra(rho0, rho1):
    """(vals0, vals1, W): both spectra and the squared eigenvector overlaps W.

    W is None for two diagonal states, whose eigenvectors are both the
    computational basis.  A diagonal state against a ket is read on the ket's
    nonzero amplitudes only: every other row of W is zero, so the diagonal is
    taken there after the PSD check over all of it, and W is the one column
    of the normalized ket's squared amplitudes.
    """
    for diag, pure in ((rho0, rho1), (rho1, rho0)):
        if pure.ket is not None and diag.ket is None and diag.matrix is None:
            psi, support = pure.ket.amplitudes, pure.ket_support
            nrm_sq = float(np.vdot(psi, psi).real)
            d = _clamped_eigenvalues(diag.diagonal_or_none(), support)
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
    return vals0, vals1, np.abs(vecs0.conj().T @ vecs1) ** 2        # r0 x r1


class Overlap:
    """q(s) = Tr[rho0**s rho1**(1-s)] for one pair, from one eigensystem per state.

    ``pair`` is a HypothesisPair or a (rho0, rho1) tuple.  The squared
    eigenvector overlaps are formed once, and every eigenvalue that is zero or
    whose weights are all zero is dropped with its row or column: each dropped
    term is zero at every s in [0, 1], because s = 0 means the limit s -> 0+,
    in which 0**s stays 0.  The cost of each evaluation then scales with the
    states' support, not with the truncated dimension, and so does the build
    of a diagonal state against a ket (see _spectra).  Pass one Overlap to
    several bound calls to reuse the eigensystems and the Chernoff minimum.
    """

    def __init__(self, pair):
        self.rho0, self.rho1, self.cutoffs = _as_states(pair)
        vals0, vals1, weights = _spectra(self.rho0, self.rho1)
        rows, cols = vals0 > 0.0, vals1 > 0.0
        if weights is None:
            rows = cols = rows & cols
        else:
            rows &= weights.any(axis=1)
            cols &= weights.any(axis=0)
            weights = weights[rows][:, cols]
        self.weights = weights
        self.vals0, self.vals1 = vals0[rows], vals1[cols]
        # a ket has one eigenvalue, any other state dim of them
        full0, full1 = (1 if rho.ket is not None else rho.dim for rho in (self.rho0, self.rho1))
        logger.debug("support %d/%d x %d/%d", self.vals0.size, full0, self.vals1.size, full1)
        self._minimum = None

    def evaluate(self, ss):
        """q(s) at every s of the 1-D array ``ss``, as one (grid x support) contraction."""
        ss = np.asarray(ss, dtype=float)
        if not np.all((ss >= 0.0) & (ss <= 1.0)):
            raise ParameterDomainError(f"s must lie in [0, 1], got {ss}")
        a = self.vals0[None, :] ** ss[:, None]
        b = self.vals1[None, :] ** (1.0 - ss)[:, None]
        if self.weights is not None:
            a = a @ self.weights
        return np.einsum("gi,gi->g", a, b)

    def _at(self, s):
        """q at one s: the same contraction on vectors."""
        a = self.vals0**s
        if self.weights is not None:
            a = a @ self.weights
        return float(a @ self.vals1 ** (1.0 - s))

    def minimum(self):
        """(s*, q_min, how) of q over [0, 1], found once per Overlap; ``how`` holds the
        diagnostics of the search (see _endpoint_minimum and _newton_minimum)."""
        if self._minimum is None:
            self._minimum = self._endpoint_minimum()
        return self._minimum

    def _endpoint_minimum(self):
        """(s*, q(s*), how), from the slope at one end of [0, 1] when that settles it.

        q(s) = sum_ij W_ij a_i**s b_j**(1-s) is a positive sum of exponentials
        in s, so it is convex.  Then q'(1) = sum_ij W_ij a_i (ln a_i - ln b_j)
        < 0 puts the minimum at s = 1, and q'(0) = sum_ij W_ij b_j (ln a_i -
        ln b_j) > 0 puts it at s = 0.  Both slopes exactly 0 (identical states)
        make q constant, and the tie goes to the smallest s, s = 0.  Computed
        in one pass over the support.  Otherwise q'(0) <= 0 <= q'(1) brackets
        the minimum, and _newton_minimum finds it.
        """
        a, b, w = self.vals0, self.vals1, self.weights
        if w is None:
            gap = np.log(a) - np.log(b)
            q1, slope1, q0, slope0 = a.sum(), a @ gap, b.sum(), gap @ b
        else:
            gap = np.subtract.outer(np.log(a), np.log(b))
            gap *= w
            q1, slope1 = a @ w.sum(axis=1), a @ gap.sum(axis=1)
            q0, slope0 = w.sum(axis=0) @ b, gap.sum(axis=0) @ b
        if slope1 < 0.0:
            s_star, q_min, slope = 1.0, float(q1), float(slope1)
        elif slope0 > 0.0 or slope0 == slope1 == 0.0:
            s_star, q_min, slope = 0.0, float(q0), float(slope0)
        else:
            return self._newton_minimum(float(slope0), float(slope1))
        logger.debug("s* = %g by the endpoint slope %.6e", s_star, slope)
        return s_star, q_min, {"s_rule": "endpoint_slope", "slope": slope, "refine_iterations": 0}

    def _newton_minimum(self, slope0, slope1):
        """The interior minimum as the root of q', by safeguarded Newton (rtsafe, Press et
        al., Numerical Recipes) from the secant root of the endpoint slopes q'(0), q'(1).

        With g_ij = ln a_i - ln b_j and the terms t_ij = W_ij a_i**s b_j**(1-s),
        q' = sum t g and q'' = sum t g**2 > 0.  A Newton step that leaves the
        bracket [lo, hi] of the root is replaced by a bisection.  The search
        stops when |q'| is within its rounding floor, eps * sum t |g|, or when
        no float is left inside the bracket; a stop on the step size would let
        rounding noise near the root bisect for dozens of steps.
        """
        a, b, w = self.vals0, self.vals1, self.weights
        gap = np.log(a) - np.log(b) if w is None else np.subtract.outer(np.log(a), np.log(b))
        # contracted with the terms t, these rows give q, q', q'' and sum t |g|
        rows = np.stack([np.ones_like(gap), gap, gap * gap, np.abs(gap)])
        rows = rows if w is None else rows * w

        def derivatives(s):
            x, y = a**s, b ** (1.0 - s)
            return rows @ (x * y) if w is None else (x @ rows) @ y

        s, lo, hi, steps = slope0 / (slope0 - slope1), 0.0, 1.0, 0
        q, slope, curvature, floor = derivatives(s)
        while abs(slope) > np.finfo(float).eps * floor and lo < s < hi:
            if steps == CHERNOFF_MAX_ITER:
                logger.warning("Chernoff Newton search hit its %d-step cap", CHERNOFF_MAX_ITER)
                break
            lo, hi = (s, hi) if slope < 0.0 else (lo, s)
            s -= slope / curvature
            if not lo < s < hi:
                s = 0.5 * (lo + hi)
            steps += 1
            q, slope, curvature, floor = derivatives(s)
        logger.debug("endpoint slopes %.6e, %.6e: s* = %.17g by %d Newton steps",
                     slope0, slope1, s, steps)
        return float(s), float(q), {"s_rule": "newton", "slope": None, "refine_iterations": steps}


def _as_overlap(pair):
    return pair if isinstance(pair, Overlap) else Overlap(pair)


def chernoff_bound(pair, copies=1):
    """Quantum Chernoff upper bound (1/2) (min_s q(s))**copies.

    ``pair`` may be an Overlap, whose minimum is then reused across copy
    counts; see Overlap.minimum for the minimization.
    """
    copies = _validate_copies(copies)
    ov = _as_overlap(pair)
    best_s, best_q, how = ov.minimum()
    log_value = -math.inf if best_q == 0.0 else math.log(0.5) + copies * math.log(best_q)
    value = min(max(0.5 * best_q**copies, 0.0), 0.5)
    diagnostics = {"grid_size": 0, **how, "q_min": best_q, "log_value": log_value}
    return BoundResult(value=value, kind=BoundKind.CHERNOFF_UPPER, copies=copies,
                       s_star=best_s, cutoffs=ov.cutoffs, diagnostics=diagnostics)


def bhattacharyya_lower(pair, copies=1):
    """Lower bound (1/2)(1 - sqrt(1 - Tr[rho0**(1/2) rho1**(1/2)]**(2 copies)))."""
    copies = _validate_copies(copies)
    ov = _as_overlap(pair)
    overlap = ov._at(0.5)
    clamped = min(max(overlap, 0.0), 1.0)
    if abs(clamped - overlap) > 1e-10:
        logger.warning("root-overlap %r clamped into [0, 1]", overlap)
    if clamped == 0.0:
        value, log_value = 0.0, -math.inf
    else:
        # arranged to avoid the 1 - (1 - x) cancellation when the inner power is tiny
        log_inner = 2.0 * copies * math.log(clamped)
        inner = math.exp(log_inner)
        if inner >= 1.0:
            value, log_value = 0.5, math.log(0.5)
        else:
            value = -0.5 * math.expm1(0.5 * math.log1p(-inner))
            log_value = log_inner - math.log(2.0 * (1.0 + math.sqrt(1.0 - inner)))
    return BoundResult(value=value, kind=BoundKind.BHATTACHARYYA_LOWER, copies=copies,
                       cutoffs=ov.cutoffs,
                       diagnostics={"root_overlap": overlap, "log_value": log_value})


def _rank_one_error(d, w, copies):
    """Helstrom error of rho0**M against |psi><psi|**M, from the rank-one secular equation.

    ``d`` is rho0's support spectrum and ``w`` psi's weights on it,
    w_i = |<v_i|psi>|**2 for the normalized psi, so w0 = 1 - sum(w) is psi's
    mass on rho0's kernel.  For M copies d and w become Kronecker powers over
    the support, and w0 the mass off it.  rho0 - |psi><psi| has one negative
    eigenvalue -mu, with sum_i w_i / (d_i + mu) + w0 / mu = 1 (Golub 1973),
    and the error is delta / 2 with delta = 1 - mu the root of

        f(delta) = sum_i w_i (delta - d_i) / (d_i + 1 - delta) + w0 delta / (1 - delta),

    a form without the 1 - (1 - x) cancellation.  f is convex and increasing
    with its root at or below q(1)**M, q(1) = sum_i w_i d_i, so Newton's
    method started there falls monotonically onto it.  That start is the
    float the Chernoff bound reads at s* = 1 (see Overlap._endpoint_minimum),
    so exact <= QCB holds in floating point too.  A step below 4 M ulps of
    delta is not taken: each M-fold product may be rounded by up to M / 2
    ulps, so such a step moves nothing but rounding, and a basis-state psi
    (one d, w = 1, root q(1)**M) keeps its start at any M.  Below the normal
    float range the log of delta / 2 is taken from that start, ln(1/2) +
    M ln q(1), not from the few digits left: delta lies below q(1)**M by a
    relative amount of the order of the d_i that carry q(1)**M, which are
    tiny by then.  rho0's trace deficit sits outside psi's support and does
    not enter f; psi's own norm deficit moves delta by a relative amount of
    that order.  Only the support is guarded and expanded, never the
    truncated dimension.  Returns (delta / 2, diagnostics with ``log_value``).
    """
    w0 = max(1.0 - float(w.sum()), 0.0)
    q1 = float(d @ w)
    delta = q1**copies
    _check_dims((d.size,) * min(copies, DIM_LIMIT.bit_length()), DIM_LIMIT)
    if copies > 1:
        d, w = _power(np.stack([d, w]), copies)
        w0 = -math.expm1(copies * math.log1p(-w0)) if w0 < 1.0 else 1.0
    iterations = 0
    while iterations < SECULAR_MAX_ITER:
        gap = d + (1.0 - delta)
        f, slope = float(w @ ((delta - d) / gap)), float(w @ gap**-2)
        if w0:
            f += w0 * delta / (1.0 - delta)
            slope += w0 / (1.0 - delta) ** 2
        if f <= 0.0:
            break
        step = f / slope
        if step <= 4.0 * copies * np.finfo(float).eps * delta:
            break
        delta -= step
        iterations += 1
    else:
        logger.warning("secular Newton solve stopped at its %d-step cap", SECULAR_MAX_ITER)
    value = 0.5 * delta
    if value >= np.finfo(float).tiny:
        log_value = math.log(value)
    elif q1 > 0.0:
        log_value = math.log(0.5) + copies * math.log(q1)
    else:
        log_value = -math.inf
    return value, {"support_size": d.size, "iterations": iterations, "log_value": log_value}


def helstrom_error(pair, copies=1):
    """Exact minimum error probability (1/2)(1 - (1/2)||rho0**M - rho1**M||_1), M = ``copies``.

    A pair with a ket side takes the rank-one secular equation (see
    _rank_one_error) when either state carries a trace deficit or the ket has
    exactly one nonzero amplitude (a number-state probe, exact at any M); its
    support size r**M must pass fock's DIM_LIMIT.  Otherwise dim**M must pass
    DIM_LIMIT (two diagonals: the powers are the diagonals' Kronecker powers)
    or DENSE_DIM_LIMIT before ``fock.tensor`` builds the dense powers.
    ``pair`` may be an Overlap, which the rank-one path then reuses; it builds
    one otherwise.
    """
    copies = _validate_copies(copies)
    rho0, rho1, cutoffs = _as_states(pair)
    d0, d1 = rho0.diagonal_or_none(), rho1.diagonal_or_none()
    diagonal = d0 is not None and d1 is not None
    diagnostics = {"trace_deficits": (rho0.trace_deficit, rho1.trace_deficit)}

    def exact(value, path):
        value = min(max(value, 0.0), 0.5)
        diagnostics["path"] = path
        diagnostics.setdefault("log_value", math.log(value) if value > 0.0 else -math.inf)
        return BoundResult(value=value, kind=BoundKind.EXACT,
                           copies=copies, cutoffs=cutoffs, diagnostics=diagnostics)

    deficit = rho0.trace_deficit > 0.0 or rho1.trace_deficit > 0.0
    for ket, axis in ((rho1, 1), (rho0, 0)):
        if ket.ket is not None and (deficit or ket.ket_support.size == 1):
            ov = _as_overlap(pair)
            # the other state's support spectrum and the ket's one weight column
            # (row, as rho0), which is empty if the ket is orthogonal to it
            d = ov.vals0 if axis else ov.vals1
            value, solve = _rank_one_error(d, ov.weights.sum(axis=axis), copies)
            diagnostics.update(solve)
            return exact(value, "rank_one_secular")

    if diagonal:
        d0, d1 = _clamped_eigenvalues(d0), _clamped_eigenvalues(d1)
    limit = DIM_LIMIT if diagonal else DENSE_DIM_LIMIT
    # each copy of dimension >= 2 at least doubles the product, so listing more
    # copies than the limit has bits cannot change whether the guard trips
    diagnostics["tensor_dim"] = _check_dims(rho0.dims * min(copies, limit.bit_length()), limit)
    if diagonal:
        eig = np.subtract(*_power(np.stack([d0, d1]), copies))
    else:
        # only the difference outlives this statement, so eigvalsh runs beside one matrix
        eig = np.linalg.eigvalsh(reduce(tensor, [rho0] * copies).to_dense()
                                 - reduce(tensor, [rho1] * copies).to_dense())
    value = 0.5 * (1.0 - 0.5 * float(np.abs(eig).sum()))
    return exact(value, "diagonal_product" if diagonal else "dense_tensor_power")
