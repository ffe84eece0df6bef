"""Condensate-impurity parameters mapped onto the pulse-protocol pipeline.

A two-level impurity sitting in a weakly interacting condensate couples to
density fluctuations with strength g_s depending on its internal state s.
Splitting the coupling into a state-independent shift (dropped: it is a pure
phase on both qubit branches and cancels in the readout) and a sigma_z part
leaves an effective coupling

    lambda_eff = (g_e - g_g) sqrt(rho0) / 2,

while each excitation mode k enters with the Bogoliubov weight
u_k + v_k = sqrt(E_k / omega_k), E_k = k^2 / (2 m_B),
omega_k = sqrt(E_k (E_k + 2 g rho0)). The weight multiplies the impurity's
localization transform, so the mapped system is again the displacement
protocol with F(k) -> w(k) F(k) and the Bogoliubov dispersion in place of
the relativistic one. The dispersion is isolated in _dispersion so an
alternative is a one-line swap.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .errors import Record, ValidationError, finite, positive, read_object, real
from .gaussian_field import ModeSet, _kmag
from .pulse_protocol import _SMEARING_KINDS, PulseSchedule, _smearing, displacement_surface

__all__ = [
    "BecParams",
    "BogoliubovWeighted",
    "MappedProtocol",
    "bogoliubov_omega",
    "bogoliubov_weight",
    "map_to_protocol",
    "params_from_dict",
]


class BecParams(Record):
    """Condensate and impurity parameters.

    g_rho0 is the interaction scale g rho0 (chemical potential); couplings
    g_g, g_e are the impurity-state-dependent density couplings. The
    impurity's gap is no field: it sets only the pulse carrier, which drops
    out of the readout.
    """

    rho0: float
    g_g: float
    g_e: float
    g_rho0: float
    m_B: float
    _rules = {"rho0": positive, "g_g": finite, "g_e": finite, "g_rho0": positive,
              "m_B": positive}


def _dispersion(kmag, m_B: float, g_rho0: float):
    """E_k = k^2 / (2 m_B) and omega_k = sqrt(E_k (E_k + 2 g rho0)) at kmag."""
    E = np.square(kmag) / (2.0 * m_B)
    return E, np.sqrt(E * (E + 2.0 * g_rho0))


def _weight(kmag, m_B: float, g_rho0: float):
    """u_k + v_k = sqrt(E_k / omega_k) at kmag, which must not hold 0."""
    if np.any(kmag == 0.0):
        raise ValidationError("k = 0 carries no Bogoliubov excitation")
    E, omega = _dispersion(kmag, m_B, g_rho0)
    return np.sqrt(E / omega)


def bogoliubov_omega(k, params: BecParams):
    """Excitation frequency omega_k = sqrt(E_k (E_k + 2 g rho0)).

    Phonon-like (c |k|) for k << sqrt(2 m_B g rho0), free-particle
    quadratic far above.
    """
    return _dispersion(_kmag(k), params.m_B, params.g_rho0)[1]


def bogoliubov_weight(k, params: BecParams):
    """Density-coupling weight u_k + v_k = sqrt(E_k / omega_k); k = 0 has no
    excitation to couple to and is rejected."""
    return _weight(_kmag(k), params.m_B, params.g_rho0)


class BogoliubovWeighted(Record):
    """Smearing wrapper folding the mode weight (and the coupling sign) into
    the transform: F_eff(k) = sign * w(k) * F_base(k).

    Wrapping the smearing instead of patching displacement_param keeps the
    mapped run bit-identical to a scalar-field run with the weighted profile.
    """

    base: object
    m_B: float
    g_rho0: float
    sign: float = 1.0
    _rules = {"base": _smearing, "m_B": positive, "g_rho0": positive, "sign": real}

    def __post_init__(self) -> None:
        if self.sign not in (-1.0, 1.0):
            raise ValidationError("sign must be +1 or -1")

    def ft(self, kmag, n: int):
        return self.sign * _weight(kmag, self.m_B, self.g_rho0) * self.base.ft(kmag, n)


_SMEARING_KINDS["bogoliubov_weighted"] = BogoliubovWeighted


class MappedProtocol(Record, eq=False):
    """Result of the mapping: a schedule ready for displacement_param, the
    Bogoliubov frequencies to use instead of the ModeSet's own, and the
    per-mode weights. schedule is None when g_e = g_g (nothing is encoded)."""

    modes: ModeSet
    schedule: PulseSchedule | None
    omegas: NDArray[np.float64]
    weights: NDArray[np.float64]
    lambda_eff: float

    @property
    def no_signal(self) -> bool:
        return self.schedule is None

    def displacements(self) -> NDArray[np.complex128]:
        """xi per mode under the mapped schedule and dispersion."""
        if self.no_signal:
            return np.zeros(self.modes.n_modes, dtype=complex)
        s, m = self.schedule, self.modes
        return displacement_surface(s.lam, s.smearing, s.switching, [s.N], [s.tau],
                                    m.wavenumbers, self.omegas, m.box_side, m.spatial_dim)[0, 0]


def map_to_protocol(
    params: BecParams, modes: ModeSet, template: PulseSchedule
) -> MappedProtocol:
    """Build the effective displacement protocol for a condensate impurity.

    The template supplies tau, N, switching and the impurity localization
    profile; its coupling field is ignored in favour of lambda_eff. A
    negative lambda_eff is folded into the smearing sign since the schedule
    stores a magnitude.
    """
    weights = bogoliubov_weight(modes.wavevectors, params)  # refuses k = 0
    omegas = bogoliubov_omega(modes.wavevectors, params)
    lambda_eff = (params.g_e - params.g_g) * math.sqrt(params.rho0) / 2.0
    sched = None
    if lambda_eff != 0.0:
        sign = math.copysign(1.0, lambda_eff)
        smearing = BogoliubovWeighted(template.smearing, params.m_B, params.g_rho0, sign)
        sched = PulseSchedule(abs(lambda_eff), template.tau, template.N, smearing,
                              template.switching)
    return MappedProtocol(modes=modes, schedule=sched, omegas=omegas, weights=weights,
                          lambda_eff=lambda_eff if sched else 0.0)


# --------------------------------------------------------------------------
# serialization

def params_from_dict(doc: dict) -> BecParams:
    return read_object(doc, BecParams, "bec")
