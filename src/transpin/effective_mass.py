"""Relativistic effective-mass picture of guided and surface waves.

A propagating guided mode disperses like a relativistic massive particle::

    (hbar omega)^2 = (hbar k_z c)^2 + (m0 c^2)^2,   m0 = hbar omega_c / c^2

with group velocity ``v_g = c sqrt(1 - (omega_c/omega)^2)``, phase velocity
``v_p = c^2/v_g`` and total effective rest mass ``M0 = W sqrt(1-v_g^2/c^2)/c^2
= W omega_c/(omega c^2) = n m0`` for ``n`` quanta.  The transverse and
longitudinal parts of the four-momentum are Minkowski-orthogonal, and any
field component solves a 1+1-dimensional Klein-Gordon equation in ``(t, z)``
with mass ``m0``.

A surface wave plays the same game with the roles of phase and group
velocity exchanged: its *energy transport* velocity equals the (subluminal)
phase velocity ``v = omega/k_z``, the per-quantum mass is ``m_s = hbar kappa
omega / (c^2 k_z)``, and the rest-mass density profile follows the energy
density, ``rho0(x) = (w(x)/c^2) sqrt(1 - v^2/c^2)``.

Note the momentum bookkeeping difference: a guided quantum carries ``p =
hbar k_z`` (which equals ``(v_g/c^2) hbar omega`` because ``v_g v_p = c^2``),
while a surface quantum carries ``p = (v/c^2) hbar omega = hbar omega^2 /
(k_z c^2)`` -- smaller than ``hbar k_z`` by exactly ``(omega/(c k_z))^2``.
The volume quadrature decides in favor of the latter; see
``docs/derivations.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import (GuidedModeSpec, ModeFamily, SurfaceWaveSpec,
                    _require_propagating, guided_field_phasor)

__all__ = [
    "GuidedMassReport",
    "SurfaceMassReport",
    "FourMomentumSplit",
    "guided_mass_report",
    "surface_mass_report",
    "surface_rest_mass_density",
    "dispersion_residual",
    "klein_gordon_stencil_residual",
    "four_momentum_split",
    "minkowski_dot",
    "phase_split_residual",
]

#: metric signature (-,+,+,+)
_METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class GuidedMassReport:
    """Per-quantum and total effective-mass data of a guided mode.

    For evanescent modes only ``m0`` and ``epsilon`` are defined;
    ``relativistic_applicable`` is False and the velocity/momentum/total
    fields are ``None`` (there is no subluminal transport picture below
    cutoff).
    """

    m0: float
    epsilon: float
    relativistic_applicable: bool
    p: float | None
    v_g: float | None
    v_p: float | None
    M0: float | None


@dataclass(frozen=True)
class SurfaceMassReport:
    """Effective-mass data of a surface wave (always subluminal).

    ``gamma = |k_z|/kappa`` is the Lorentz factor of the transport velocity.
    """

    m_s: float
    M_s: float
    epsilon: float
    p: float
    v: float
    gamma: float


def guided_mass_report(spec: GuidedModeSpec) -> GuidedMassReport:
    """Effective-mass observables of a guided mode (see module docstring)."""
    con = spec.constants
    m0 = con.hbar * spec.omega_c / con.c**2
    epsilon = con.hbar * spec.omega
    if not spec.is_propagating:
        return GuidedMassReport(m0=m0, epsilon=epsilon,
                                relativistic_applicable=False,
                                p=None, v_g=None, v_p=None, M0=None)
    k_z = float(spec.k_z.real)
    v_g = con.c**2 * k_z / spec.omega
    W = spec.closed_forms()[0]
    # sqrt(1 - (v_g/c)^2) = omega_c/omega, which does not cancel far above cutoff
    M0 = W * spec.omega_c / (spec.omega * con.c**2)
    return GuidedMassReport(
        m0=m0, epsilon=epsilon, relativistic_applicable=True,
        p=con.hbar * k_z, v_g=v_g, v_p=spec.omega / k_z, M0=M0)


def surface_mass_report(spec: SurfaceWaveSpec) -> SurfaceMassReport:
    """Effective-mass observables of a surface wave."""
    con = spec.constants
    omega, kappa = spec.omega, spec.kappa
    abs_kz = abs(spec.k_z)
    v = omega / spec.k_z
    m_s = con.hbar * kappa * omega / (con.c**2 * abs_kz)
    # M_s = integral of rho0 over the cross-section and decay axis
    M_s = abs_kz * con.eps0 * spec.area * spec.amplitude**2 / (4.0 * omega**2)
    return SurfaceMassReport(
        m_s=m_s, M_s=M_s,
        epsilon=con.hbar * omega,
        p=v * con.hbar * omega / con.c**2,
        v=v, gamma=abs_kz / kappa)


def surface_rest_mass_density(spec: SurfaceWaveSpec, x):
    """Rest-mass density ``rho0(x) = (kappa |k_z|/(2 omega^2)) eps0 h'^2 e^{-2 kappa x}``.

    Its integral over the decay axis and the area is ``M_s``.
    """
    con, omega, kappa = spec.constants, spec.omega, spec.kappa
    scale = (kappa * abs(spec.k_z) / (2.0 * omega**2)) * con.eps0 * spec.amplitude**2
    return scale * np.exp(-2.0 * kappa * np.asarray(x, float))


# --------------------------------------------------------------------------
# dispersion / Klein-Gordon diagnostics


def dispersion_residual(spec: GuidedModeSpec | SurfaceWaveSpec,
                        k_z: float | None = None) -> float:
    """Normalized residual of the dispersion relation, zero on-branch.

    ``omega^2 - c^2 k_z^2 - spec.rest_term``: ``omega_c^2`` for a guided mode
    (the cutoff acts as a rest-energy term), ``-c^2 kappa^2`` for a surface
    wave (the decay rate enters with the opposite sign, which is what makes
    the effective mass imaginary-free only through kappa*omega/k_z).  The
    magnitude is divided by the largest of the three terms, so rounding in
    them reads as ~1e-16 at any scale; for a propagating guided mode that
    term is ``omega^2``.  Pass an explicit ``k_z`` to probe off-branch
    values.  A 1% increase gives ``0.0201 (c k_z / omega)^2`` while
    ``omega^2`` stays the largest term, and ``0.0201 / 1.0201`` once the
    perturbed ``c^2 k_z^2`` is (a surface wave, or a guided mode with ``c
    k_z > omega / 1.01``).
    """
    con = spec.constants
    kz = spec.k_z if k_z is None else k_z
    kz2 = complex(kz) ** 2  # imaginary k_z: kz^2 real negative
    terms = (spec.omega**2, con.c**2 * kz2, spec.rest_term)
    residual = terms[0] - terms[1] - terms[2]
    return abs(complex(residual)) / max(abs(term) for term in terms)


def _second_derivative_5pt(values, h: float):
    """Fourth-order central second derivative from 5 equispaced samples."""
    f_2m, f_m, f_0, f_p, f_2p = values
    return (-f_2m + 16.0 * f_m - 30.0 * f_0 + 16.0 * f_p - f_2p) / (12.0 * h * h)


def klein_gordon_stencil_residual(spec: GuidedModeSpec) -> float:
    """Finite-difference Klein-Gordon residual of a sampled field component.

    Applies the 5-point stencil of ``(1/c^2) d^2/dt^2 - d^2/dz^2 +
    (m0 c/hbar)^2`` to the longitudinal phasor component (``E_z`` for TM,
    ``B_z`` for TE) along ``t`` and ``z``, with steps of 1e-3 of the
    respective periods, around ``t = 0`` and a tenth of a guided wavelength
    along ``z`` at an antinode of that component.  The field is periodic in
    ``z``, so a centre tied to the wavelength rather than to the length keeps
    the ``z`` samples resolved at any ``L``.  The ten samples come from one
    phasor call on a 10-point ``(z, t)`` array, with the bits of ten scalar
    calls.  Returns ``|residual| / ((omega/c)^2 |psi|)``; truncation keeps
    this around 1e-11 (6e-12 on the verify modes), comfortably inside the
    1e-6 acceptance bound, while a 1% off-branch ``k_z`` fails it by ~4
    orders.
    """
    _require_propagating(spec, "the (t, z) Klein-Gordon stencil")
    con = spec.constants
    geom, idx = spec.geometry, spec.index
    # antinode of the longitudinal component: |psi| = amplitude there
    if idx.family is ModeFamily.TM:
        x0, y0 = geom.a / (2.0 * idx.m), geom.b / (2.0 * idx.n)
    else:
        x0, y0 = 0.0, 0.0
    k_z = float(spec.k_z.real)
    wavelength = 2.0 * math.pi / abs(k_z)
    z0 = 0.1 * wavelength
    dt = 1e-3 * (2.0 * math.pi / spec.omega)
    dz = 1e-3 * wavelength
    steps = (-2, -1, 0, 1, 2)
    # the five t samples at z0, then the five z samples at t = 0, in one call
    z = np.array([z0] * 5 + [z0 + j * dz for j in steps])
    t = np.array([j * dt for j in steps] + [0.0] * 5)
    field = guided_field_phasor(spec, (x0, y0, z), t)
    vec = field.E if idx.family is ModeFamily.TM else field.B
    samples = vec[..., 2].tolist()  # the longitudinal component in both families
    t_samples, z_samples = samples[:5], samples[5:]
    psi0 = t_samples[2]
    d2t = _second_derivative_5pt(t_samples, dt)
    d2z = _second_derivative_5pt(z_samples, dz)
    mass_term = (spec.omega_c / con.c) ** 2 * psi0
    residual = d2t / con.c**2 - d2z + mass_term
    return abs(residual) / ((spec.omega / con.c) ** 2 * abs(psi0))


# --------------------------------------------------------------------------
# four-momentum split


@dataclass(frozen=True)
class FourMomentumSplit:
    """Transverse/longitudinal split of the per-quantum four-momentum.

    Components are ``(E/c, p_x, p_y, p_z)`` with metric ``diag(-1,1,1,1)``.
    ``p_T = (0, hbar k_x, hbar k_y, 0)`` is spacelike with norm
    ``hbar omega_c / c``; ``p_L = (hbar omega/c, 0, 0, hbar k_z)``; the two
    are Minkowski-orthogonal and sum to the total.
    """

    p_total: np.ndarray
    p_T: np.ndarray
    p_L: np.ndarray


def minkowski_dot(u, v) -> float:
    """Four-vector inner product with signature ``(-,+,+,+)``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ _METRIC @ v)


def four_momentum_split(spec: GuidedModeSpec) -> FourMomentumSplit:
    """Per-quantum four-momentum of a propagating guided mode, split T/L."""
    _require_propagating(spec, "the four-momentum split")
    con = spec.constants
    geom, idx = spec.geometry, spec.index
    kx = idx.m * math.pi / geom.a
    ky = idx.n * math.pi / geom.b
    k_z = float(spec.k_z.real)
    hb = con.hbar
    p_T = np.array([0.0, hb * kx, hb * ky, 0.0])
    p_L = np.array([hb * spec.omega / con.c, 0.0, 0.0, hb * k_z])
    return FourMomentumSplit(p_total=p_T + p_L, p_T=p_T, p_L=p_L)


def phase_split_residual(split: FourMomentumSplit, events) -> float:
    """Max relative error of ``p.x = p_T.x_T + p_L.x_L`` over sample events.

    ``events`` is an ``(N, 4)`` array of ``(c t, x, y, z)`` coordinates; each
    product is one :func:`numpy.vecdot` over all events, which rounds each
    row as :func:`minkowski_dot` does.  The identity is structural (the split
    merely regroups terms), so the residual is pure floating-point noise,
    ~1e-16 relative.  No events give 0.0.
    """
    events = np.atleast_2d(np.asarray(events, dtype=float))
    x_T = np.zeros_like(events)
    x_T[:, 1:3] = events[:, 1:3]
    x_L = np.zeros_like(events)
    x_L[:, ::3] = events[:, ::3]
    lhs = np.vecdot(split.p_total @ _METRIC, events)
    rhs = np.vecdot(split.p_T @ _METRIC, x_T) + np.vecdot(split.p_L @ _METRIC, x_L)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / scale, initial=0.0))
