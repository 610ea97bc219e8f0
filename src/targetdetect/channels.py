"""Builders for the (rho0, rho1) pairs behind each discrimination scenario.

rho0 is the channel-0 output ("object not there" / depolarized input), rho1
the channel-1 output (the input returned unchanged).  For bipartite inputs
the channel acts on the first (signal) subsystem only, so the idler marginal
is identical under both hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, ParameterDomainError
from .fock import (
    TAIL_EPS,
    DensityOperator,
    FockKet,
    _check_int,
    _check_noise,
    _geometric_cutoff,
    maximally_mixed,
    partial_trace,
    tensor,
    thermal_state,
)


@dataclass(frozen=True)
class HypothesisPair:
    """One binary discrimination problem: the two hypothesis states on one space."""

    rho0: DensityOperator
    rho1: DensityOperator

    def __post_init__(self):
        if self.rho0.dims != self.rho1.dims:
            raise InvalidStateError(
                f"hypothesis states live on different spaces: {self.rho0.dims} vs {self.rho1.dims}"
            )

    @property
    def dims(self):
        return self.rho0.dims

    @property
    def cutoffs(self):
        return self.rho0.cutoffs


def _check_unit_ket(ket):
    if abs(ket.norm_sq - 1.0) > 1e-10:
        raise InvalidStateError(
            f"input ket must be normalized; squared norm is {ket.norm_sq!r}"
        )


def depolarizing_pair(input_state, bipartite=False):
    """Outputs of the completely depolarizing channel vs the identity channel.

    Single party: (I/d, |psi><psi|).  Bipartite (channel on the first
    subsystem only): (I/d  x  Tr_first[rho], rho).  ``input_state`` may be a
    unit FockKet or, for mixed inputs such as Werner states, a DensityOperator.
    """
    if isinstance(input_state, FockKet):
        _check_unit_ket(input_state)
        rho1 = input_state.projector()
    else:
        rho1 = input_state
    if bipartite:
        if len(rho1.dims) != 2:
            raise ParameterDomainError("bipartite variant needs a two-subsystem input")
        d = rho1.dims[0]
        marginal = partial_trace(rho1, keep=1)
        rho0 = tensor(maximally_mixed(d), marginal)
    else:
        if len(rho1.dims) != 1:
            raise ParameterDomainError("single-party variant needs a one-subsystem input")
        d = rho1.dims[0]
        rho0 = maximally_mixed(d)
    return HypothesisPair(rho0, rho1)


def _common_cutoff(support, noise, cutoff, tail_eps, what):
    """The signal cutoff both hypotheses share.

    An explicit ``cutoff`` must hold the input's ``support``; otherwise the
    larger of the support and the thermal truncation policy is taken.
    """
    ratio = _check_noise(noise).boltzmann
    if cutoff is None:
        return max(support, _geometric_cutoff(ratio, tail_eps))
    cutoff = _check_int(cutoff, "cutoff", 0)
    if cutoff < support:
        raise ParameterDomainError(f"cutoff {cutoff} is smaller than the {what} support {support}")
    return cutoff


def target_pair_single_mode(input_ket, noise, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal channel vs identity channel on a single-mode input.

    The pair is embedded in a common cutoff: the larger of the input support
    and the thermal truncation (policy cutoff unless ``cutoff`` is given).
    """
    if input_ket.n_modes != 1:
        raise ParameterDomainError("single-mode scenario needs a one-mode input ket")
    common = _common_cutoff(input_ket.dims[0] - 1, noise, cutoff, tail_eps, "input")
    rho0 = thermal_state(noise, cutoff=common)
    rho1 = input_ket.embed((common + 1,)).projector()
    return HypothesisPair(rho0, rho1)


def _idler_support(ket):
    block = ket.amplitudes.reshape(ket.dims)
    return np.flatnonzero(np.abs(block).sum(axis=0))


def target_pair_bipartite(input_ket, noise, cutoff=None, tail_eps=TAIL_EPS,
                          compress_idler=False):
    """Thermal channel on the signal mode vs identity, idler retained.

    rho0 = rho_thermal  x  Tr_signal[|Psi><Psi|], rho1 = |Psi><Psi|.  With
    ``compress_idler`` the idler is restricted to the basis states the input
    actually populates (e.g. {|0>, |2n>} for the two-mode superposition
    states); both hypotheses act within that support, so every trace and
    overlap is unchanged.
    """
    if input_ket.n_modes != 2:
        raise ParameterDomainError("bipartite scenario needs a two-mode input ket")
    common = _common_cutoff(input_ket.dims[0] - 1, noise, cutoff, tail_eps, "signal")
    ket = input_ket
    if compress_idler:
        keep = _idler_support(ket)
        if keep.size < ket.dims[1]:
            block = ket.amplitudes.reshape(ket.dims)[:, keep]
            ket = FockKet(block.ravel(), (ket.dims[0], keep.size), ket.norm_deficit)
    ket = ket.embed((common + 1, ket.dims[1]))
    rho1 = ket.projector()
    idler_marginal = partial_trace(rho1, keep=1)
    rho0 = tensor(thermal_state(noise, cutoff=common), idler_marginal)
    return HypothesisPair(rho0, rho1)
