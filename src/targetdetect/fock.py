"""Truncated Fock-space states and the linear algebra every other module consumes.

States over one or two bosonic modes are stored in the photon-number basis,
truncated at a per-mode cutoff.  Infinite families (thermal, coherent,
two-mode squeezed) record the probability mass lost to truncation instead of
renormalizing; renormalization would bias every overlap computed downstream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, ParameterDomainError, SizeLimitError

logger = logging.getLogger(__name__)

#: default truncation budget: tail mass a constructed state may drop
TAIL_EPS = 1e-12
#: eigenvalues below -EIG_CLAMP_TOL are an error; in [-EIG_CLAMP_TOL, 0) they clamp to 0
EIG_CLAMP_TOL = 1e-12
#: largest dimension for which dense matrices may be materialized
DENSE_DIM_LIMIT = 4096
#: hard cap on any state dimension, whatever its form, and on automatic cutoffs
DIM_LIMIT = 1 << 22


def _check_mean_photons(value, name):
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ParameterDomainError(f"{name} must be finite and >= 0, got {value}")
    return value


def _check_int(value, name, low):
    """``value`` as an int >= ``low``: integral floats pass; 2.5, NaN and inf raise."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or number < low:
        raise ParameterDomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return number


def _check_weight(x):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ParameterDomainError(f"mixing weight must lie in [0, 1], got {x}")
    return x


def _check_deficit(deficit):
    """A trace or norm deficit as a float in [0, 1]; NaN and inf fail too."""
    deficit = float(deficit)
    if not 0.0 <= deficit <= 1.0:
        raise InvalidStateError(f"truncation deficit must lie in [0, 1], got {deficit}")
    return deficit


def _check_noise(noise):
    if not isinstance(noise, NoiseSpec):
        raise ParameterDomainError("noise must be a NoiseSpec")
    return noise


def _check_copies(copies):
    """Copy counts (a scalar or an array) as floats; each must be a finite integer >= 1."""
    copies = np.asarray(copies)
    if np.any(copies < 1):
        raise ParameterDomainError("copy count must be a positive integer")
    if not np.issubdtype(copies.dtype, np.integer) and not np.all(
        np.isfinite(copies) & (copies == np.floor(copies))
    ):
        raise ParameterDomainError("copy count must be a positive integer")
    return copies.astype(float)


class NoiseSpec:
    """Thermal noise strength, given either as a mean photon number or an exponent.

    The two parameterizations are tied by ``n_b = 1 / (e**beta - 1)``; supply
    exactly one and the other is derived.  ``n_b = 0`` (``beta = inf``) is the
    zero-temperature limit.
    """

    __slots__ = ("n_b", "beta")

    def __init__(self, n_b=None, beta=None):
        if (n_b is None) == (beta is None):
            raise ParameterDomainError("supply exactly one of n_b, beta")
        if n_b is not None:
            self.n_b = n_b = _check_mean_photons(n_b, "mean thermal photon number")
            self.beta = math.inf if n_b == 0.0 else math.log1p(1.0 / n_b)
        else:
            beta = float(beta)
            if not beta > 0.0:
                raise ParameterDomainError(f"noise exponent must be > 0, got {beta}")
            self.beta = beta
            self.n_b = 0.0 if math.isinf(beta) else 1.0 / math.expm1(beta)

    @property
    def boltzmann(self):
        """The per-photon weight ratio n_b / (n_b + 1) = e**-beta."""
        return self.n_b / (self.n_b + 1.0)

    def __repr__(self):
        return f"NoiseSpec(n_b={self.n_b!r}, beta={self.beta!r})"

    def __eq__(self, other):
        return isinstance(other, NoiseSpec) and (self.n_b, self.beta) == (other.n_b, other.beta)


@dataclass(frozen=True)
class FockKet:
    """A pure state over a truncated one- or two-mode photon-number basis.

    ``amplitudes`` is the flattened coefficient vector; for two modes the
    basis index is ``k_signal * dims[1] + k_idler``.  ``norm_deficit`` is the
    squared-norm mass beyond the cutoff (exactly 0 for finitely supported
    states).
    """

    amplitudes: np.ndarray
    dims: tuple
    norm_deficit: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if amps.size != int(np.prod(self.dims)):
            raise InvalidStateError(
                f"amplitude vector of length {amps.size} does not match dims {self.dims}"
            )
        if not np.isfinite(amps).all():
            raise InvalidStateError("amplitudes must be finite")
        object.__setattr__(self, "norm_deficit", _check_deficit(self.norm_deficit))

    @property
    def dim(self):
        return self.amplitudes.size

    @property
    def n_modes(self):
        return len(self.dims)

    @property
    def cutoffs(self):
        return tuple(d - 1 for d in self.dims)

    @property
    def norm_sq(self):
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def embed(self, dims):
        """Zero-pad each mode up to the larger basis sizes ``dims``."""
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.n_modes or any(d < o for d, o in zip(dims, self.dims)):
            raise ParameterDomainError(f"cannot embed dims {self.dims} into {dims}")
        _check_dims(dims)
        block = self.amplitudes.reshape(self.dims)
        pad = [(0, d - o) for d, o in zip(dims, self.dims)]
        return FockKet(np.pad(block, pad).ravel(), dims, self.norm_deficit)

    def projector(self):
        """The (possibly sub-normalized) projector |psi><psi| as a DensityOperator."""
        return DensityOperator(None, self.dims, trace_deficit=self.norm_deficit, ket=self)


def _check_dims(dims, limit=DIM_LIMIT):
    """The dimension prod(dims); above ``limit`` raise SizeLimitError before any allocation."""
    n = math.prod(dims)
    if n > limit:
        raise SizeLimitError(f"dimension {n} of dims {tuple(dims)} exceeds the guard {limit}")
    return n


def _cutoff(cutoff, auto, modes=1):
    """The per-mode cutoff: ``cutoff`` by the integer rule, or ``auto()`` when it is None.

    The dimension of ``modes`` modes at that cutoff passes the size guard
    before the caller allocates anything.
    """
    cutoff = auto() if cutoff is None else _check_int(cutoff, "cutoff", 0)
    _check_dims((cutoff + 1,) * modes)
    return cutoff


class DensityOperator:
    """Hermitian, PSD, trace<=1 operator on a truncated basis, in one of three forms.

    The form is fixed at construction and never re-detected:

    * pure: ``ket`` is given (``matrix`` is None) and the operator is
      |psi><psi|, kept as the ket alone: nothing of size dim**2 is stored,
      and diagonal_or_none() is None even for a basis state;
    * diagonal: ``matrix`` is a 1-D real vector holding the diagonal, or a
      square array whose off-diagonal entries are exactly zero;
    * dense: ``matrix`` is any other square array, kept as ``matrix``.

    ``trace_deficit`` records the probability mass the truncation dropped, so
    trace + trace_deficit ~= 1 for every constructor in this package.  A pure
    operator keeps the indices of its ket's nonzero amplitudes as
    ``ket_support`` (None in the other forms).
    """

    def __init__(self, matrix, dims, trace_deficit=0.0, ket=None):
        self.dims = tuple(int(d) for d in dims)
        self.dim = n = _check_dims(self.dims)
        self.trace_deficit = _check_deficit(trace_deficit)
        self.ket = ket
        self.matrix = diag = self.ket_support = None
        if ket is not None:
            if matrix is not None:
                raise InvalidStateError("give either a matrix or a ket, not both")
            if ket.dims != self.dims:
                raise InvalidStateError(f"ket dims {ket.dims} do not match dims {self.dims}")
            self.ket_support = np.flatnonzero(ket.amplitudes)
        else:
            matrix = np.asarray(matrix)
            if matrix.shape not in ((n,), (n, n)):
                raise InvalidStateError(
                    f"matrix shape {matrix.shape} does not match dims {self.dims}"
                )
            if not np.isfinite(matrix).all():
                raise InvalidStateError("matrix entries must be finite")
            if matrix.ndim == 1:
                diag = matrix.astype(float)
            else:
                matrix = matrix.astype(complex, copy=False)
                on_diag = np.diagonal(matrix)
                off_diagonal = np.count_nonzero(matrix) - np.count_nonzero(on_diag)
                if off_diagonal == 0 and not on_diag.imag.any():
                    diag = on_diag.real.copy()
                else:
                    self.matrix = matrix
        if diag is not None:
            diag.flags.writeable = False
        self._diagonal = diag

    @classmethod
    def _dense(cls, matrix, dims, trace_deficit):
        """A dense-form operator from a square matrix known not to be diagonal, unscanned."""
        op = cls.__new__(cls)
        op.dims = dims
        op.dim = matrix.shape[0]
        op.trace_deficit = trace_deficit
        op.ket = op.ket_support = op._diagonal = None
        op.matrix = matrix
        return op

    @property
    def cutoffs(self):
        return tuple(d - 1 for d in self.dims)

    @property
    def trace(self):
        if self.ket is not None:
            return self.ket.norm_sq
        if self.matrix is None:
            return float(self._diagonal.sum())
        return float(np.trace(self.matrix).real)

    def to_dense(self):
        """The dim x dim matrix; raises SizeLimitError above DENSE_DIM_LIMIT."""
        if self.matrix is not None:
            return self.matrix
        _check_dims(self.dims, DENSE_DIM_LIMIT)
        if self.ket is not None:
            psi = self.ket.amplitudes
            return np.outer(psi, psi.conj())
        return np.diag(self._diagonal.astype(complex))

    def diagonal_or_none(self):
        """The real diagonal (read-only) if the operator is diagonal, else None."""
        return self._diagonal


def _geometric_cutoff(ratio, tail_eps):
    """Smallest K with ratio**(K+1) < tail_eps; SizeLimitError if K reaches DIM_LIMIT."""
    if not 0.0 < tail_eps < 1.0:
        raise ParameterDomainError(f"tail budget must lie in (0, 1), got {tail_eps}")
    if ratio <= 0.0:
        return 0
    # both guards come before the +-1 corrections, which only end for ratio < 1
    if ratio >= 1.0:
        raise SizeLimitError(f"no cutoff reaches tail {tail_eps} at ratio {ratio}")
    k = max(int(math.ceil(math.log(tail_eps) / math.log(ratio))) - 1, 0)
    if k >= DIM_LIMIT:
        raise SizeLimitError(f"cutoff {k} for tail {tail_eps} exceeds the guard {DIM_LIMIT}")
    while ratio ** (k + 1) >= tail_eps:
        k += 1
    while k > 0 and ratio**k < tail_eps:
        k -= 1
    return k


def _poisson_pmf(mean, log_mean, k):
    """P(X = k) for X ~ Poisson(mean), from the log pmf."""
    return math.exp(k * log_mean - mean - math.lgamma(k + 1))


def _poisson_tail(mean, cutoff):
    """P(X > cutoff) for X ~ Poisson(mean).

    At or above the mean the terms beyond ``cutoff`` fall by mean/(k+1) and
    are summed upward; below it the head up to ``cutoff`` falls by k/mean
    going down, and the tail is its complement.  Each sum stops once a term
    no longer changes it.
    """
    if mean == 0.0:
        return 0.0
    log_mean = math.log(mean)
    if cutoff + 1 >= mean:
        k = cutoff + 1
        term, tail = _poisson_pmf(mean, log_mean, k), 0.0
        while tail + term != tail:
            tail += term
            k += 1
            term *= mean / k
        return tail
    k = cutoff
    term, head = _poisson_pmf(mean, log_mean, k), 0.0
    while head + term != head:
        head += term
        term *= k / mean
        k -= 1
    return 1.0 - head


def _poisson_cutoff(mean, tail_eps):
    """Smallest K with Poisson(mean) tail beyond K below tail_eps.

    A start K, 12 standard deviations above the mean, moves up by that step
    until its tail meets the budget, raising SizeLimitError once no K up to
    DIM_LIMIT does; then K walks down by tail(K - 1) = tail(K) + pmf(K).
    """
    if not 0.0 < tail_eps < 1.0:
        raise ParameterDomainError(f"tail budget must lie in (0, 1), got {tail_eps}")
    if mean == 0.0:
        return 0
    step = int(12.0 * math.sqrt(mean) + 12.0)
    k = min(max(8, int(mean) + step), DIM_LIMIT)
    tail = _poisson_tail(mean, k)
    while tail >= tail_eps:
        if k >= DIM_LIMIT:
            raise SizeLimitError(f"no cutoff below {DIM_LIMIT} reaches Poisson tail {tail_eps}")
        k = min(k + step, DIM_LIMIT)
        tail = _poisson_tail(mean, k)
    log_mean = math.log(mean)
    while k > 0:
        tail += _poisson_pmf(mean, log_mean, k)
        if tail >= tail_eps:
            break
        k -= 1
    return k


def thermal_state(noise, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal state with geometric photon-number distribution of mean ``noise.n_b``.

    Diagonal entries are n_b**k / (n_b+1)**(k+1); the geometric tail beyond
    the cutoff is recorded as ``trace_deficit``, never folded back in.  With
    ``cutoff=None`` the smallest cutoff meeting ``tail_eps`` is chosen.
    """
    r = _check_noise(noise).boltzmann
    cutoff = _cutoff(cutoff, lambda: _geometric_cutoff(r, tail_eps))
    k = np.arange(cutoff + 1)
    diag = r**k / (noise.n_b + 1.0)
    deficit = float(r ** (cutoff + 1))
    return DensityOperator(diag, (cutoff + 1,), trace_deficit=deficit)


def coherent_ket(n_s, cutoff=None, tail_eps=TAIL_EPS):
    """Coherent state of mean photon number ``n_s``, amplitude taken real >= 0.

    Amplitudes are exp(-n_s/2) n_s**(l/2) / sqrt(l!); the Poisson tail beyond
    the cutoff becomes ``norm_deficit``.
    """
    n_s = _check_mean_photons(n_s, "mean photon number")
    cutoff = _cutoff(cutoff, lambda: _poisson_cutoff(n_s, tail_eps))
    if n_s == 0.0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return FockKet(amps, (cutoff + 1,), 0.0)
    k = np.arange(cutoff + 1)
    log_factorial = np.fromiter(map(math.lgamma, range(1, cutoff + 2)), float, cutoff + 1)
    log_amp = -0.5 * n_s + 0.5 * (k * math.log(n_s) - log_factorial)
    amps = np.exp(log_amp).astype(complex)
    return FockKet(amps, (cutoff + 1,), _poisson_tail(n_s, cutoff))


def number_ket(n, cutoff=None):
    """Photon-number eigenstate |n>; the cutoff defaults to n itself."""
    n = _check_int(n, "photon number", 0)
    cutoff = _cutoff(cutoff, lambda: n)
    if cutoff < n:
        raise ParameterDomainError(f"cutoff {cutoff} cannot hold photon number {n}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return FockKet(amps, (cutoff + 1,), 0.0)


def noon_ket(n):
    """Two-mode state (|2n,0> + |0,2n>)/sqrt(2); mean photon number n per mode."""
    n = _check_int(n, "N00N photon number", 1)      # n = 0 degenerates to vacuum
    d = 2 * n + 1
    _check_dims((d, d))
    amps = np.zeros(d * d, dtype=complex)
    amps[(2 * n) * d + 0] = 1.0 / math.sqrt(2.0)
    amps[0 * d + 2 * n] = 1.0 / math.sqrt(2.0)
    return FockKet(amps, (d, d), 0.0)


def spdc_ket(n_s, cutoff=None, tail_eps=TAIL_EPS):
    """Two-mode squeezed vacuum: sqrt(n_s**k/(n_s+1)**(k+1)) on |k,k>.

    ``n_s`` is the mean photon number per mode; the Schmidt tail beyond the
    per-mode cutoff becomes ``norm_deficit``.
    """
    n_s = _check_mean_photons(n_s, "mean photon number")
    r = n_s / (n_s + 1.0)
    d = _cutoff(cutoff, lambda: _geometric_cutoff(r, tail_eps), modes=2) + 1
    k = np.arange(d)
    schmidt = np.sqrt(r**k / (n_s + 1.0))
    amps = np.zeros(d * d, dtype=complex)
    amps[k * d + k] = schmidt
    return FockKet(amps, (d, d), float(r**d))


def maximally_entangled_qudit(d):
    """Two-qudit state with uniform amplitude 1/sqrt(d) on |k,k>."""
    d = _check_int(d, "qudit dimension", 2)
    _check_dims((d, d))
    amps = np.zeros(d * d, dtype=complex)
    amps[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    return FockKet(amps, (d, d), 0.0)


def werner_state(d, x):
    """Mixture (1-x)/d^2 * I + x |Phi><Phi| of noise and a maximally entangled projector."""
    x = _check_weight(x)
    phi = maximally_entangled_qudit(d)
    if x == 1.0:
        return phi.projector()
    d = phi.dims[0]
    _check_dims(phi.dims, DENSE_DIM_LIMIT)
    mat = ((1.0 - x) / d**2) * np.eye(d * d, dtype=complex)
    mat += x * np.outer(phi.amplitudes, phi.amplitudes.conj())
    return DensityOperator(mat, (d, d))


def maximally_mixed(d):
    """The state I/d on a single d-dimensional system."""
    d = _check_int(d, "dimension", 1)
    _check_dims((d,))
    return DensityOperator(np.full(d, 1.0 / d), (d,))


def tensor(a, b):
    """Kronecker product of two density operators; subsystem lists concatenate.

    Two diagonal factors give a diagonal product, and so does a zero diagonal
    factor (the product is zero); anything else is built dense.  Each entry
    is one broadcast multiply, as in np.kron, so the bits are np.kron's.
    """
    dims = a.dims + b.dims
    n = _check_dims(dims)
    deficit = a.trace_deficit + b.trace_deficit - a.trace_deficit * b.trace_deficit
    da, db = a.diagonal_or_none(), b.diagonal_or_none()
    if da is not None and db is not None:
        return DensityOperator((da[:, None] * db[None, :]).ravel(), dims, trace_deficit=deficit)
    _check_dims(dims, DENSE_DIM_LIMIT)
    diag = da if db is None else db
    if diag is not None and not diag.any():
        return DensityOperator(np.zeros(n), dims, trace_deficit=deficit)
    ma, mb = a.to_dense(), b.to_dense()
    product = (ma[:, None, :, None] * mb[None, :, None, :]).reshape(n, n)
    return DensityOperator._dense(product, dims, deficit)


def partial_trace(rho, keep):
    """Trace out every subsystem except ``keep`` (an index into rho.dims)."""
    dims = rho.dims
    if len(dims) < 2:
        raise ParameterDomainError("partial trace needs at least two subsystems")
    if not 0 <= keep < len(dims):
        raise ParameterDomainError(f"subsystem index {keep} out of range for dims {dims}")
    d_before = int(np.prod(dims[:keep], initial=1))
    d_keep = dims[keep]
    d_after = int(np.prod(dims[keep + 1:], initial=1))
    if rho.ket is not None:
        block = rho.ket.amplitudes.reshape(d_before, d_keep, d_after)
        rows = np.moveaxis(block, 1, 0).reshape(d_keep, -1)
        mat = rows @ rows.conj().T
    elif rho.matrix is None:
        mat = rho.diagonal_or_none().reshape(d_before, d_keep, d_after).sum(axis=(0, 2))
    else:
        t = rho.matrix.reshape(d_before, d_keep, d_after, d_before, d_keep, d_after)
        mat = np.einsum("idjiej->de", t)
    return DensityOperator(mat, (d_keep,), trace_deficit=rho.trace_deficit)


def _clamped_eigenvalues(vals, keep=None):
    """``vals`` (the entries ``keep`` indexes, if given) clamped at 0, after the PSD check
    over all of ``vals``."""
    vals = np.asarray(vals, dtype=float)
    low = vals.min(initial=0.0)
    if low < -EIG_CLAMP_TOL:
        raise InvalidStateError(f"eigenvalue {low:.3e} below the PSD tolerance -{EIG_CLAMP_TOL}")
    if keep is not None:
        vals = vals[keep]
    return np.where(vals < 0.0, 0.0, vals)


def spectral_decomposition(op):
    """Eigenvalues and eigenvectors of a density operator, read from its form.

    Returns ``(values, vectors)`` where ``vectors`` is a dim x r column matrix,
    or None meaning the computational basis (diagonal operator).  Pure
    operators resolve to their single eigenpair and diagonal ones to their
    diagonal without any eigensolver; negative eigenvalues within tolerance
    are clamped to zero.
    """
    if op.ket is not None:
        psi = op.ket.amplitudes
        nrm_sq = float(np.vdot(psi, psi).real)
        if nrm_sq == 0.0:
            return np.zeros(1), psi.reshape(-1, 1)
        return np.array([nrm_sq]), (psi / math.sqrt(nrm_sq)).reshape(-1, 1)
    if op.matrix is None:
        return _clamped_eigenvalues(op.diagonal_or_none()), None
    vals, vecs = np.linalg.eigh(op.matrix)
    vals = _clamped_eigenvalues(vals)
    # eigh of a rank-deficient matrix leaves O(dim * eps) junk eigenvalues;
    # raised to small powers they would contribute O(1), so zero them out
    floor = vals.max(initial=0.0) * op.dim * 1e-15
    vals = np.where(vals < floor, 0.0, vals)
    return vals, vecs
