"""Truncated Fock-space states and the linear algebra every other module consumes.

States over one or two bosonic modes are stored in the photon-number basis,
truncated at a per-mode cutoff.  Infinite families (thermal, coherent,
two-mode squeezed) record the probability mass lost to truncation instead of
renormalizing; renormalization would bias every overlap computed downstream.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import InvalidStateError, ParameterDomainError, SizeLimitError

logger = logging.getLogger(__name__)

#: default truncation budget: tail mass a constructed state may drop
TAIL_EPS = 1e-12
#: eigenvalues below -EIG_CLAMP_TOL are an error; in [-EIG_CLAMP_TOL, 0) they clamp to 0
EIG_CLAMP_TOL = 1e-12
#: rounding allowance on trace + deficit <= 1: measured over their whole range, the package's
#: builders reach |trace + deficit - 1| = 1.6e-9 for coherent kets (n_s = 4e6, where each
#: log-amplitude sums terms near 6e7), 5.5e-12 for thermal states (n_b = 1e5) and 2e-15 for
#: squeezed vacua, so a fixed 1e-12 would reject valid kets
NORM_TOL = 1e-8
#: largest dimension for which dense matrices may be materialized
DENSE_DIM_LIMIT = 4096
#: hard cap on any state dimension, whatever its form, and on automatic cutoffs
DIM_LIMIT = 1 << 22
#: largest plain-int copy count: every one up to it converts to a float
_MAX_INT_COPIES = int(np.finfo(float).max)


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


def _check_norm(trace, deficit, vector=False):
    """Reject a state whose trace and truncation deficit add up to more than 1 + NORM_TOL,
    or, unless it is a ket's ``vector``, to less than 1 - NORM_TOL."""
    if trace + deficit > 1.0 + NORM_TOL:
        raise InvalidStateError(
            f"trace {trace!r} plus deficit {deficit!r} exceeds 1 by more than {NORM_TOL}")
    if not vector and trace + deficit < 1.0 - NORM_TOL:
        raise InvalidStateError(
            f"trace {trace!r} plus deficit {deficit!r} falls short of 1 by more than {NORM_TOL}")


def _check_noise(noise):
    if not isinstance(noise, NoiseSpec):
        raise ParameterDomainError("noise must be a NoiseSpec")
    return noise


def _check_copies(copies):
    """Copy counts, each an integer >= 1 that is finite as a float: a plain int comes back
    as itself, anything else (a scalar or an array of numbers) as floats."""
    if type(copies) is int:
        if 1 <= copies <= _MAX_INT_COPIES:
            return copies
    else:
        try:
            copies = np.asarray(copies)
        except ValueError:      # a ragged sequence: an object array, refused below
            copies = np.asarray(None)
        if copies.dtype.kind in "biuf" and np.all(copies >= 1) and (
            copies.dtype.kind in "iu" or np.all(np.isfinite(copies) & (copies == np.floor(copies)))
        ):
            return copies.astype(float)
    raise ParameterDomainError("copy count must be a positive integer, finite as a float")


def _check_one_copy_count(copies):
    """One copy count by _check_copies' rule, which refuses a ragged sequence first; an array of
    them raises ParameterDomainError."""
    copies = _check_copies(copies)
    if type(copies) is not int and np.ndim(copies):
        raise ParameterDomainError("expected one copy count, not an array")
    return copies


def _ln(x):
    """ln x, and -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _lower_readout(log_overlap, copies):
    """(value, ln value) of the M-copy lower bound (1/2)(1 - sqrt(1 - tau**(2 M))) from ln tau
    and M = ``copies``, elementwise: the oracle's and the closed forms' one readout.  2 M ln tau
    is clamped at 0 (an overlap that rounds above 1 gives 1/2), and the value is arranged
    without the 1 - (1 - x) cancellation where the inner power is tiny."""
    log_inner = np.minimum(2.0 * copies * log_overlap, 0.0)
    with np.errstate(under="ignore", divide="ignore"):
        inner = np.exp(log_inner)
        value = -0.5 * np.expm1(0.5 * np.log1p(-inner))
        return value, log_inner - np.log(2.0 * (1.0 + np.sqrt(1.0 - inner)))


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

    def __hash__(self):
        return hash((self.n_b, self.beta))


class FockKet:
    """A pure state over a truncated one- or two-mode photon-number basis.

    ``amplitudes`` is the flattened coefficient vector; for two modes the
    basis index is ``k_signal * dims[1] + k_idler``.  ``norm_deficit`` is the
    squared-norm mass beyond the cutoff (exactly 0 for finitely supported
    states).  Everything is fixed when the ket is built: ``norm_sq``, the
    squared norm, is summed once, and ``support`` holds the indices of the
    nonzero amplitudes.  Both arrays are read-only.  An input the caller can
    still write (a writable array or a view) is copied; an owned read-only
    array is adopted as it is.  Two kets are equal only if they are the same
    object.
    """

    def __init__(self, amplitudes, dims, norm_deficit=0.0):
        self.dims = tuple(map(int, dims))
        self.cutoffs = tuple(d - 1 for d in self.dims)
        self.n_modes = len(self.dims)
        amps = np.asarray(amplitudes, dtype=complex)
        if not amps.flags.owndata or (amps is amplitudes and amps.flags.writeable):
            amps = amps.copy()
        amps.flags.writeable = False
        self.amplitudes, self.dim = amps, amps.size
        if amps.shape != (math.prod(self.dims),):
            raise InvalidStateError(
                f"amplitude array of shape {amps.shape} does not match dims {self.dims}")
        if not np.isfinite(amps).all():
            raise InvalidStateError("amplitudes must be finite")
        self.norm_deficit = _check_deficit(norm_deficit)
        self.norm_sq = float(np.vdot(amps, amps).real)
        _check_norm(self.norm_sq, self.norm_deficit, vector=True)
        self.support = np.flatnonzero(amps)
        self.support.flags.writeable = False

    def embed(self, dims):
        """Zero-pad each mode up to ``dims``, bit for bit as np.pad; the ket itself at its own."""
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.n_modes or any(d < o for d, o in zip(dims, self.dims)):
            raise ParameterDomainError(f"cannot embed dims {self.dims} into {dims}")
        if dims == self.dims:
            return self
        amps = np.zeros(_check_dims(dims), dtype=complex)
        amps.reshape(dims)[tuple(map(slice, self.dims))] = self.amplitudes.reshape(self.dims)
        amps.flags.writeable = False
        return FockKet(amps, dims, self.norm_deficit)

    def projector(self):
        """The (possibly sub-normalized) projector |psi><psi| as a DensityOperator."""
        return DensityOperator(None, self.dims, ket=self)


def _ket(dims, index, values, deficit=0.0):
    """The ket on ``dims`` with amplitudes ``values`` at flat ``index`` and zero elsewhere.

    ``dims`` passes the size guard before the vector is zero-filled, and the vector is
    handed over read-only, so FockKet adopts it uncopied.
    """
    amps = np.zeros(_check_dims(dims), dtype=complex)
    amps[index] = values
    amps.flags.writeable = False
    return FockKet(amps, dims, deficit)


def _check_dims(dims, limit=DIM_LIMIT, copies=1):
    """The dimension of ``copies`` copies of ``dims``; above ``limit`` raise SizeLimitError
    before any allocation.  Each copy of dimension >= 2 at least doubles the product, so
    copies past the bit length of ``limit`` cannot change the verdict and are left out."""
    dims = tuple(dims) * min(copies, limit.bit_length())
    n = math.prod(dims)
    if n > limit:
        raise SizeLimitError(f"dimension {n} of dims {dims} exceeds the guard {limit}")
    return n


def _cutoff(cutoff, auto, modes=1, least=0):
    """The per-mode cutoff: ``cutoff`` by the integer rule, at least ``least``, or ``auto()``.

    The dimension of ``modes`` modes at that cutoff passes the size guard
    before the caller allocates anything.
    """
    cutoff = auto() if cutoff is None else _check_int(cutoff, "cutoff", least)
    _check_dims((cutoff + 1,) * modes)
    return cutoff


class DensityOperator:
    """Hermitian, PSD, trace<=1 operator on a truncated basis, in one of three forms.

    The form is the one the input has, fixed at construction and never
    re-detected; no matrix entry is read to choose it:

    * pure: ``ket`` is given (``matrix`` is None) and the operator is
      |psi><psi|, kept as the ket alone: nothing of size dim**2 is stored,
      and diagonal_or_none() is None even for a basis state;
    * diagonal: ``matrix`` is a 1-D vector holding the diagonal; a complex one must
      pass _check_hermitian.  It is stored real, an entry below -EIG_CLAMP_TOL raises
      InvalidStateError, and one in [-EIG_CLAMP_TOL, 0) is stored as 0 (read as is);
    * dense: ``matrix`` is a square array, kept as ``matrix`` even when its
      off-diagonal entries are zero (pass the 1-D diagonal instead).  Its
      arithmetic is the input's: a real input is stored as float64 and a
      complex one as complex128, always as a read-only copy, so a later write
      into the caller's array cannot change the state.  It must be Hermitian
      to EIG_CLAMP_TOL (see _check_hermitian), else InvalidStateError.  A
      dense state is a stack of one: DensityOperator.stack holds its checks.

    ``trace_deficit`` records the probability mass the truncation dropped, so
    trace + trace_deficit ~= 1: a sum off 1 by more than NORM_TOL raises
    InvalidStateError (a FockKet, a vector, may fall short).  A pure operator takes its
    trace and deficit from its ket (``norm_sq`` and ``norm_deficit``); an
    explicit ``trace_deficit`` that differs from the ket's raises
    InvalidStateError.  ``trace`` and ``cutoffs`` are set when it is built.
    """

    def __init__(self, matrix, dims, trace_deficit=None, ket=None):
        if ket is None and np.ndim(matrix) != 1:       # a dense state is a stack of one
            vars(self).update(vars(self.stack(np.asarray(matrix)[None], dims, trace_deficit)[0]))
            return
        _set_space(self, dims, trace_deficit)
        self.ket = ket
        if ket is not None:
            if matrix is not None:
                raise InvalidStateError("give either a matrix or a ket, not both")
            if ket.dims != self.dims:
                raise InvalidStateError(f"ket dims {ket.dims} do not match dims {self.dims}")
            if trace_deficit is not None and self.trace_deficit != ket.norm_deficit:
                raise InvalidStateError(f"trace deficit {self.trace_deficit!r} differs from "
                                        f"the ket's norm deficit {ket.norm_deficit!r}")
            self.trace, self.trace_deficit = ket.norm_sq, ket.norm_deficit
        else:
            matrix = np.asarray(matrix)
            _check_shape(matrix.shape, (self.dim,), self.dims)
            if not np.isfinite(matrix).all():
                raise InvalidStateError("matrix entries must be finite")
            if matrix.dtype.kind == "c":
                _check_hermitian(matrix[:, None, None])
            self._diagonal = _clamped_eigenvalues(matrix.real)
            self._diagonal.flags.writeable = False
            self.trace = float(self._diagonal.sum())
        _check_norm(self.trace, self.trace_deficit)

    @classmethod
    def stack(cls, matrices, dims, trace_deficit=None):
        """Dense states on ``dims``, one per matrix of the (B, dim, dim) stack ``matrices``, each
        with ``trace_deficit``: every check runs once over the stack (the size guard, the shape,
        finiteness, Hermiticity, trace + deficit), and each state holds a read-only view of the
        one checked copy.  ``DensityOperator(matrix, dims)`` is a stack of one."""
        head = cls.__new__(cls)
        _set_space(head, dims, trace_deficit)
        shape = (head.dim, head.dim)
        try:
            matrices = np.asarray(matrices)
        except ValueError:      # matrices of unequal shapes: the first of a wrong one raises
            for matrix in matrices:
                _check_shape(np.shape(matrix), shape, head.dims)
            raise
        _check_shape(matrices.shape[1:], shape, head.dims)
        if not np.isfinite(matrices).all():
            raise InvalidStateError("matrix entries must be finite")
        checked = matrices.astype(complex if matrices.dtype.kind == "c" else float)
        checked.flags.writeable = False
        _check_hermitian(checked)
        traces = np.trace(checked, axis1=1, axis2=2).real.tolist()
        for trace in (max(traces, default=1.0), min(traces, default=1.0)):   # decide for all
            _check_norm(trace, head.trace_deficit)
        states = [cls.__new__(cls) for _ in traces]
        for state, matrix, trace in zip(states, checked, traces):
            vars(state).update(vars(head), matrix=matrix, trace=trace)
        return states

    def to_dense(self):
        """The dim x dim matrix; raises SizeLimitError above DENSE_DIM_LIMIT."""
        if self.matrix is not None:
            return self.matrix
        _check_dims(self.dims, DENSE_DIM_LIMIT)
        if self.ket is not None:
            psi = self.ket.amplitudes
            return np.outer(psi, psi.conj())
        return np.diag(self._diagonal)

    def diagonal_or_none(self):
        """The real diagonal (read-only) if the operator is diagonal, else None."""
        return self._diagonal


def _set_space(state, dims, trace_deficit):
    """Give ``state`` its ``dims``, ``cutoffs``, ``dim`` (after the size guard) and checked
    ``trace_deficit`` (0 for None), and no form yet: ``ket``, ``matrix`` and diagonal None."""
    state.dims = tuple(map(int, dims))
    state.cutoffs = tuple(d - 1 for d in state.dims)
    state.dim = _check_dims(state.dims)
    state.trace_deficit = 0.0 if trace_deficit is None else _check_deficit(trace_deficit)
    state.ket = state.matrix = state._diagonal = None


def _check_shape(shape, want, dims):
    """Reject a state's matrix ``shape`` other than ``want``, its form's shape on ``dims``."""
    if shape != want:
        raise InvalidStateError(f"matrix shape {shape} does not match dims {dims}")


def _check_hermitian(matrix):
    """Reject a (B, n, n) stack ``matrix`` in which some A - A^H has a real or imaginary part
    beyond EIG_CLAMP_TOL.

    A diagonal enters as its stack of 1 x 1 matrices, whose A - A^H is 2i Im A.  The
    allowance is absolute: no entry of a state with trace <= 1 exceeds 1 in modulus.  eigh
    reads one triangle only, so without this check a non-Hermitian input would be taken for
    the Hermitian matrix of that triangle.  A - A^H is formed once for the whole stack, its
    modulus taken in place on its real and imaginary parts: 256 MiB for a complex matrix at
    DENSE_DIM_LIMIT.
    """
    parts = (matrix - matrix.conj().swapaxes(1, 2)).view(matrix.real.dtype)   # Re, Im of each
    skew = np.abs(parts, out=parts).max(initial=0.0)
    if skew > EIG_CLAMP_TOL:
        raise InvalidStateError(
            f"matrix is not Hermitian: A - A^H reaches {skew:.3e}, above {EIG_CLAMP_TOL}")


def _tail_cutoff(tail, tail_eps):
    """Smallest K >= 0 with tail(K) < tail_eps, for a ``tail`` that falls as K grows: the
    one cutoff search of every infinite family.  ``tail_eps`` is checked first; the top of
    the bracket doubles until its tail meets the budget (SizeLimitError if not even K =
    DIM_LIMIT does), and the bracket is bisected."""
    if not 0.0 < tail_eps < 1.0:
        raise ParameterDomainError(f"tail budget must lie in (0, 1), got {tail_eps}")
    lo, hi = -1, 0
    while not tail(hi) < tail_eps:
        if hi == DIM_LIMIT:
            raise SizeLimitError(f"no cutoff up to {DIM_LIMIT} reaches tail {tail_eps}")
        lo, hi = hi, min(2 * hi + 1, DIM_LIMIT)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail(mid) < tail_eps else (mid, hi)
    return hi


def _geometric_tail(r, cutoff):
    """The mass r**(cutoff+1) beyond ``cutoff`` of a photon number whose weights fall by r."""
    return r ** (cutoff + 1)


def _poisson_tail(mean, cutoff):
    """P(X > cutoff) for X ~ Poisson(mean).

    At or above the mean the terms beyond ``cutoff`` fall by mean/(k+1) and
    are summed upward; below it the head up to ``cutoff`` falls by k/mean
    going down, and the tail is its complement.  Each sum stops once a term
    no longer changes it.
    """
    if mean == 0.0:
        return 0.0
    upward = cutoff + 1 >= mean
    k = cutoff + 1 if upward else cutoff
    term, total = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)), 0.0
    while total + term != total:
        total += term
        if upward:
            k += 1
            term *= mean / k
        else:
            term *= k / mean
            k -= 1
    return total if upward else 1.0 - total


def thermal_state(noise, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal state with geometric photon-number distribution of mean ``noise.n_b``.

    Diagonal entries are n_b**k / (n_b+1)**(k+1); the geometric tail beyond
    the cutoff is recorded as ``trace_deficit``, never folded back in.  With
    ``cutoff=None`` the smallest cutoff meeting ``tail_eps`` is chosen.
    """
    r = _check_noise(noise).boltzmann
    cutoff = _cutoff(cutoff, lambda: _tail_cutoff(lambda k: _geometric_tail(r, k), tail_eps))
    k = np.arange(cutoff + 1)
    diag = r**k / (noise.n_b + 1.0)
    return DensityOperator(diag, (cutoff + 1,), trace_deficit=_geometric_tail(r, cutoff))


def coherent_ket(n_s, cutoff=None, tail_eps=TAIL_EPS):
    """Coherent state of mean photon number ``n_s``, amplitude taken real >= 0.

    Amplitudes are exp(-n_s/2) n_s**(l/2) / sqrt(l!); the Poisson tail beyond
    the cutoff becomes ``norm_deficit``.
    """
    n_s = _check_mean_photons(n_s, "mean photon number")
    cutoff = _cutoff(cutoff, lambda: _tail_cutoff(lambda k: _poisson_tail(n_s, k), tail_eps))
    if n_s == 0.0:
        return number_ket(0, cutoff)
    k = np.arange(cutoff + 1)
    log_factorial = np.fromiter(map(math.lgamma, range(1, cutoff + 2)), float, cutoff + 1)
    log_amp = -0.5 * n_s + 0.5 * (k * math.log(n_s) - log_factorial)
    amps = np.exp(log_amp).astype(complex)
    amps.flags.writeable = False
    return FockKet(amps, (cutoff + 1,), _poisson_tail(n_s, cutoff))


def number_ket(n, cutoff=None):
    """Photon-number eigenstate |n>; the cutoff defaults to n itself."""
    n = _check_int(n, "photon number", 0)
    cutoff = _cutoff(cutoff, lambda: n, least=n)
    return _ket((cutoff + 1,), n, 1.0)


def noon_ket(n):
    """Two-mode state (|2n,0> + |0,2n>)/sqrt(2); mean photon number n per mode."""
    n = _check_int(n, "N00N photon number", 1)      # n = 0 degenerates to vacuum
    d = 2 * n + 1
    return _ket((d, d), [(2 * n) * d + 0, 0 * d + 2 * n], 1.0 / math.sqrt(2.0))


def spdc_ket(n_s, cutoff=None, tail_eps=TAIL_EPS):
    """Two-mode squeezed vacuum: sqrt(n_s**k/(n_s+1)**(k+1)) on |k,k>.

    ``n_s`` is the mean photon number per mode; the Schmidt tail beyond the
    per-mode cutoff becomes ``norm_deficit``.
    """
    n_s = _check_mean_photons(n_s, "mean photon number")
    r = n_s / (n_s + 1.0)
    d = _cutoff(cutoff, lambda: _tail_cutoff(lambda k: _geometric_tail(r, k), tail_eps),
                modes=2) + 1
    k = np.arange(d)
    return _ket((d, d), k * d + k, np.sqrt(r**k / (n_s + 1.0)), _geometric_tail(r, d - 1))


def maximally_entangled_qudit(d):
    """Two-qudit state with uniform amplitude 1/sqrt(d) on |k,k>."""
    d = _check_int(d, "qudit dimension", 2)
    return _ket((d, d), slice(None, None, d + 1), 1.0 / math.sqrt(d))     # |k,k> is at k * (d + 1)


def werner_state(d, x):
    """Mixture (1-x)/d^2 * I + x |Phi><Phi| of noise and a maximally entangled projector:
    diagonal at x = 0, the pure projector at x = 1 and dense in between, where the
    matrix is real, so its eigensolves run in real arithmetic."""
    x = _check_weight(x)
    phi = maximally_entangled_qudit(d)
    if x == 1.0:
        return phi.projector()
    d = phi.dims[0]
    if x == 0.0:
        return DensityOperator(np.full(d * d, 1.0 / d**2), phi.dims)
    _check_dims(phi.dims, DENSE_DIM_LIMIT)
    psi = phi.amplitudes.real
    mat = ((1.0 - x) / d**2) * np.eye(d * d)
    mat += x * np.outer(psi, psi)
    return DensityOperator(mat, (d, d))


def maximally_mixed(d):
    """The state I/d on a single d-dimensional system."""
    d = _check_int(d, "dimension", 1)
    _check_dims((d,))
    return DensityOperator(np.full(d, 1.0 / d), (d,))


def tensor(a, b):
    """Kronecker product of two density operators; subsystem lists concatenate.

    Two diagonal factors give a diagonal product; anything else is built
    dense, by _kron, in the arithmetic of its factors: real unless one of
    them is complex.
    """
    dims = a.dims + b.dims
    _check_dims(dims)
    deficit = a.trace_deficit + b.trace_deficit - a.trace_deficit * b.trace_deficit
    da, db = a.diagonal_or_none(), b.diagonal_or_none()
    if da is not None and db is not None:
        return DensityOperator((da[:, None] * db[None, :]).ravel(), dims, trace_deficit=deficit)
    _check_dims(dims, DENSE_DIM_LIMIT)
    return DensityOperator(_kron(a.to_dense(), b.to_dense()), dims, trace_deficit=deficit)


def _kron(a, b):
    """np.kron of two square matrices, bit for bit: each entry is one broadcast multiply."""
    n = len(a) * len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def partial_trace(rho, keep):
    """Trace out every subsystem except ``keep`` (an index into rho.dims).

    The d_keep x d_keep marginal is returned diagonal (as its 1-D diagonal)
    when it has no nonzero off-diagonal entry and a real diagonal, as the
    marginals of every ket in this package do, and dense otherwise.
    """
    dims = rho.dims
    if len(dims) < 2:
        raise ParameterDomainError("partial trace needs at least two subsystems")
    keep = _check_int(keep, "subsystem index", 0)
    if keep >= len(dims):
        raise ParameterDomainError(f"subsystem index {keep} out of range for dims {dims}")
    d_before, d_keep, d_after = math.prod(dims[:keep]), dims[keep], math.prod(dims[keep + 1:])
    if rho.ket is not None:
        block = rho.ket.amplitudes.reshape(d_before, d_keep, d_after)
        rows = block.transpose(1, 0, 2).reshape(d_keep, -1)
        mat = rows @ rows.conj().T
    elif rho.matrix is None:
        mat = rho.diagonal_or_none().reshape(d_before, d_keep, d_after).sum(axis=(0, 2))
    else:
        t = rho.matrix.reshape(d_before, d_keep, d_after, d_before, d_keep, d_after)
        mat = np.einsum("idjiej->de", t)
    if mat.ndim == 2:
        on_diag = np.diagonal(mat)
        if np.count_nonzero(mat) == np.count_nonzero(on_diag) and not on_diag.imag.any():
            mat = on_diag.real
    return DensityOperator(mat, (d_keep,), trace_deficit=rho.trace_deficit)


def _clamped_eigenvalues(vals):
    """A float copy of ``vals`` clamped at 0, after the PSD check: below -EIG_CLAMP_TOL raises."""
    vals = np.array(vals, dtype=float)
    low = vals.min(initial=0.0)
    if low < -EIG_CLAMP_TOL:
        raise InvalidStateError(f"eigenvalue {low:.3e} below the PSD tolerance -{EIG_CLAMP_TOL}")
    if low < 0.0:
        vals[vals < 0.0] = 0.0
    return vals


def spectral_decomposition(op):
    """Eigenvalues and eigenvectors of a density operator, read from its form.

    Returns ``(values, vectors)`` where ``vectors`` is a dim x r column matrix,
    or None meaning the computational basis (diagonal operator).  Pure
    operators resolve to their single eigenpair and diagonal ones to their
    diagonal, checked and clamped when it was built, without any eigensolver.
    A dense operator's eigenvalues below -EIG_CLAMP_TOL raise InvalidStateError,
    and those within tolerance are clamped to zero.
    """
    if op.ket is not None:
        psi, nrm_sq = op.ket.amplitudes, op.ket.norm_sq
        if nrm_sq == 0.0:
            return np.zeros(1), psi.reshape(-1, 1)
        return np.array([nrm_sq]), (psi / math.sqrt(nrm_sq)).reshape(-1, 1)
    if op.matrix is None:
        return op.diagonal_or_none(), None
    return _dense_spectra(op.matrix)


def _dense_spectra(matrices):
    """(values, vectors) of a dense density matrix, or of a stack of them (..., dim, dim),
    from one eigh, with spectral_decomposition's PSD check and clamp."""
    vals, vecs = np.linalg.eigh(matrices)
    vals = _clamped_eigenvalues(vals)
    # eigh of a rank-deficient matrix leaves O(dim * eps) junk eigenvalues;
    # raised to small powers they would contribute O(1), so zero them out
    floor = vals.max(axis=-1, keepdims=True, initial=0.0) * matrices.shape[-1] * 1e-15
    return np.where(vals < floor, 0.0, vals), vecs
