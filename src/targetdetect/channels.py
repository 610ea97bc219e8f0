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


def _channel_pair(rho1, signal, idler=None):
    """The one channel rule: channel 0 replaces the first (signal) subsystem of ``rho1`` by the
    state ``signal`` and keeps any second (idler) one, rho0 = signal  x  Tr_signal[rho1], that
    marginal taken here unless ``idler`` gives it; channel 1 returns ``rho1`` unchanged."""
    if idler is None and len(rho1.dims) == 2:
        idler = partial_trace(rho1, keep=1)
    return HypothesisPair(signal if idler is None else tensor(signal, idler), rho1)


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


def _thermal_grid(kets, noises, modes, cutoff=None, tail_eps=TAIL_EPS, compress_idler=False):
    """Thermal channel on the signal mode vs identity for each ``modes``-mode probe of ``kets``
    under each of ``noises``, noise-major: the pair of ``noises[i]`` and ``kets[j]`` is at
    i len(kets) + j.  Each pair takes one signal cutoff for both hypotheses: an explicit
    ``cutoff`` that holds the probe's support, or the larger of the support and the noise's
    thermal truncation policy.

    Each ket's mode check, idler compression (``compress_idler``, two-mode probes only) and
    idler marginal run once (the marginal from the ket before its signal is zero-padded, which
    leaves Tr_signal as it is), each noise's tail search once, and each (noise, cutoff)
    thermal state is built once; _channel_pair forms every pair.
    """
    probes, tails, thermals, idlers, pairs = [], {}, {}, {}, []
    for ket in kets:
        if ket.n_modes != modes:
            raise ParameterDomainError(f"this scenario needs a {modes}-mode input ket")
        if compress_idler and modes == 2:
            block = ket.amplitudes.reshape(ket.dims)
            keep = np.flatnonzero(np.abs(block).sum(axis=0))
            if keep.size < ket.dims[1]:
                ket = FockKet(block[:, keep].ravel(), (ket.dims[0], keep.size), ket.norm_deficit)
        probes.append(ket)
    for noise in noises:
        r = _check_noise(noise).boltzmann
        if cutoff is None and noise not in tails:
            tails[noise] = _tail_cutoff(lambda k: _geometric_tail(r, k), tail_eps)
        for j, ket in enumerate(probes):
            support = ket.dims[0] - 1
            common = _cutoff(cutoff, lambda: max(support, tails[noise]), least=support)
            rho1 = ket.embed((common + 1, *ket.dims[1:])).projector()
            key = (noise, common)
            if key not in thermals:
                thermals[key] = thermal_state(noise, cutoff=common)
            if modes == 2 and j not in idlers:
                idlers[j] = partial_trace(ket.projector(), keep=1)
            pairs.append(_channel_pair(rho1, thermals[key], idlers.get(j)))
    return pairs


def target_pair_single_mode(input_ket, noise, cutoff=None, tail_eps=TAIL_EPS):
    """Thermal channel vs identity channel on a single-mode input, (rho_thermal, |psi><psi|)."""
    return _thermal_grid([input_ket], [noise], 1, cutoff, tail_eps)[0]


def target_pair_bipartite(input_ket, noise, cutoff=None, tail_eps=TAIL_EPS,
                          compress_idler=False):
    """Thermal channel on the signal mode vs identity, idler retained.

    rho0 = rho_thermal  x  Tr_signal[|Psi><Psi|], rho1 = |Psi><Psi|.  With
    ``compress_idler`` the idler is restricted to the basis states the input
    actually populates (e.g. {|0>, |2n>} for the two-mode superposition
    states); both hypotheses act within that support, so every trace and
    overlap is unchanged.
    """
    return _thermal_grid([input_ket], [noise], 2, cutoff, tail_eps, compress_idler)[0]
