"""Builders for the (rho0, rho1) pairs behind each discrimination scenario.

rho0 is the channel-0 output ("object not there" / depolarized input), rho1
the channel-1 output (the input returned unchanged).  For bipartite inputs
the channel acts on the first (signal) subsystem only, so the idler marginal
is identical under both hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidStateError, ParameterDomainError
from .fock import (
    TAIL_EPS,
    DensityOperator,
    FockKet,
    _check_noise,
    _cutoff,
    _geometric_tail,
    _tail_cutoff,
    maximally_mixed,
    partial_trace,
    tensor,
    thermal_state,
)
from .oracle import Overlap


@dataclass(frozen=True)
class HypothesisPair:
    """One binary discrimination problem: two DensityOperators on one space."""

    rho0: DensityOperator
    rho1: DensityOperator

    def __post_init__(self):
        if not all(isinstance(rho, DensityOperator) for rho in (self.rho0, self.rho1)):
            raise InvalidStateError("a hypothesis state must be a DensityOperator; a ket enters "
                                    "as ket.projector()")
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

    @cached_property
    def overlap(self):
        """The pair's oracle.Overlap, built on first use and shared by every bound on the pair."""
        return Overlap(self)


def stack_overlaps(pairs):
    """Give each of ``pairs`` its Overlap from one stacked build (oracle.Overlap.stack), kept as
    its ``overlap``, and return ``pairs``; a pair keeps one it has."""
    for pair, overlap in zip(pairs, Overlap.stack(pairs)):
        vars(pair).setdefault("overlap", overlap)
    return pairs


def _channel_pair(rho1, signal):
    """The one channel rule: channel 0 replaces the first (signal) subsystem of ``rho1`` by the
    state ``signal`` and keeps any second (idler) one, rho0 = signal  x  Tr_signal[rho1];
    channel 1 returns ``rho1`` unchanged."""
    rho0 = signal if len(rho1.dims) == 1 else tensor(signal, partial_trace(rho1, keep=1))
    return HypothesisPair(rho0, rho1)


def depolarizing_pair(input_state, bipartite=False):
    """Outputs of the completely depolarizing channel vs the identity channel.

    Single party: (I/d, |psi><psi|).  Bipartite (channel on the first
    subsystem only): (I/d  x  Tr_first[rho], rho).  ``input_state`` may be a
    unit FockKet or, for mixed inputs such as Werner states, a DensityOperator.
    """
    if isinstance(input_state, FockKet):
        if abs(input_state.norm_sq - 1.0) > 1e-10:
            raise InvalidStateError(
                f"input ket must be normalized; squared norm is {input_state.norm_sq!r}")
        rho1 = input_state.projector()
    else:
        rho1 = input_state
    if len(rho1.dims) != 1 + bipartite:
        raise ParameterDomainError(f"this variant needs a {1 + bipartite}-subsystem input")
    return _channel_pair(rho1, maximally_mixed(rho1.dims[0]))


def _thermal_pair(ket, modes, noise, cutoff, tail_eps, compress_idler=False):
    """Thermal channel on the signal mode of a ``modes``-mode ``ket`` vs identity, both in one
    signal cutoff: an explicit ``cutoff`` that holds the input's support, or the larger of the
    support and the thermal truncation policy."""
    if ket.n_modes != modes:
        raise ParameterDomainError(f"this scenario needs a {modes}-mode input ket")
    support, r = ket.dims[0] - 1, _check_noise(noise).boltzmann
    common = _cutoff(cutoff, lambda: max(support, _tail_cutoff(lambda k: _geometric_tail(r, k),
                                                               tail_eps)), least=support)
    if compress_idler:
        block = ket.amplitudes.reshape(ket.dims)
        keep = np.flatnonzero(np.abs(block).sum(axis=0))
        if keep.size < ket.dims[1]:
            ket = FockKet(block[:, keep].ravel(), (ket.dims[0], keep.size), ket.norm_deficit)
    rho1 = ket.embed((common + 1, *ket.dims[1:])).projector()
    return _channel_pair(rho1, thermal_state(noise, cutoff=common))


def target_pair_single_mode(input_ket, noise, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal channel vs identity channel on a single-mode input, (rho_thermal, |psi><psi|)."""
    return _thermal_pair(input_ket, 1, noise, cutoff, tail_eps)


def target_pair_bipartite(input_ket, noise, cutoff=None, tail_eps=TAIL_EPS,
                          compress_idler=False):
    """Thermal channel on the signal mode vs identity, idler retained.

    rho0 = rho_thermal  x  Tr_signal[|Psi><Psi|], rho1 = |Psi><Psi|.  With
    ``compress_idler`` the idler is restricted to the basis states the input
    actually populates (e.g. {|0>, |2n>} for the two-mode superposition
    states); both hypotheses act within that support, so every trace and
    overlap is unchanged.
    """
    return _thermal_pair(input_ket, 2, noise, cutoff, tail_eps, compress_idler)
