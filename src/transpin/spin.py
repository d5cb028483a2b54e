"""Time-averaged spin, energy and momentum densities of monochromatic fields.

For a monochromatic field with ``exp(-i*omega*t)`` phasors, the cycle
averages used throughout are

* electric spin density   ``s_e = (eps0/2) Re(E x A*)`` with ``A = -i E/omega``
* magnetic spin density   ``s_m = (eps0/2) Re(B x C*)`` with ``C = -i c^2 B/omega``
* energy density          ``w   = (eps0/4) (|E|^2 + c^2 |B|^2)``
* momentum density        ``p   = (eps0/2) Re(E x B*)``

The two spin densities are *alternative* (dual) descriptions, not additive
halves: for a pure TM mode ``s_m`` vanishes identically and ``s_e`` carries
the whole structure, and vice versa for TE.  The optional symmetrized
combination ``s = (s_e + s_m)/2`` (common in the dual-symmetric literature,
e.g. Bliokh & Nori, Phys. Rep. 592, 1 (2015)) is available as an explicit
method and is never applied silently.

Closed forms for the rectangular-waveguide and surface-wave densities are
provided alongside the generic phasor pipeline; the two agree to ~1e-15
relative and are cross-checked against brute-force time averaging of the
instantaneous fields (:func:`time_average_oracle`).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .constants import SI, PhysicalConstants
from .errors import ConfigurationError, DomainError
from .modes import (FieldPhasor, GuidedModeSpec, ModeFamily, SurfaceWaveSpec,
                    _check_float_range, _row_blocks)

__all__ = [
    "PotentialPhasor",
    "SpinDensityPair",
    "vector_potentials",
    "spin_densities",
    "energy_density",
    "momentum_density",
    "analytic_spin_guided",
    "analytic_spin_surface",
    "spin_map",
    "time_average_oracle",
    "instantaneous_spin_sampler",
    "instantaneous_energy_sampler",
]


@dataclass(frozen=True)
class PotentialPhasor:
    """Transverse-gauge potentials: ``E = -dA/dt`` and ``B = -(1/c^2) dC/dt``."""

    A: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class SpinDensityPair:
    """Electric and magnetic spin densities, real arrays of shape ``(..., 3)``."""

    s_e: np.ndarray
    s_m: np.ndarray

    def combined(self) -> np.ndarray:
        """Dual-symmetrized density ``(s_e + s_m)/2``; halves single-branch values."""
        return 0.5 * (self.s_e + self.s_m)

    def total(self) -> np.ndarray:
        """Plain sum; equals the non-vanishing branch for pure TM/TE modes."""
        return self.s_e + self.s_m


def _cross(a, b) -> np.ndarray:
    """``np.cross(a, b)`` on the trailing axis, formed one component at a time.

    Each component takes np.cross's operations in its order (``a1 b2 - a2
    b1``, ``a2 b0 - a0 b2``, ``a0 b1 - a1 b0``), so the bits are its bits,
    without its axis moves and dtype copies.
    """
    out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[..., i], b[..., j], out=out[..., k])
        out[..., k] -= a[..., j] * b[..., i]
    return out


def vector_potentials(field: FieldPhasor, omega: float,
                      constants: PhysicalConstants = SI) -> PotentialPhasor:
    """Monochromatic potentials ``A = -i E/omega`` and ``C = -i c^2 B/omega``."""
    if not (omega > 0.0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    return PotentialPhasor(A=-1j * field.E / omega,
                           C=-1j * constants.c**2 * field.B / omega)


def spin_densities(field: FieldPhasor, omega: float,
                   constants: PhysicalConstants = SI) -> SpinDensityPair:
    """Cycle-averaged spin densities from the phasor bilinears.

    Equivalent closed forms: ``s_e = (eps0/2/omega) Im(E* x E)`` and
    ``s_m = (eps0 c^2/2/omega) Im(B* x B)``.
    """
    pots = vector_potentials(field, omega, constants)
    s_e = 0.5 * constants.eps0 * _cross(field.E, pots.A.conj()).real
    s_m = 0.5 * constants.eps0 * _cross(field.B, pots.C.conj()).real
    return SpinDensityPair(s_e=s_e, s_m=s_m)


def energy_density(field: FieldPhasor, constants: PhysicalConstants = SI) -> np.ndarray:
    """Cycle-averaged energy density ``(eps0/4)(|E|^2 + c^2 |B|^2)``."""
    e2 = (np.abs(field.E) ** 2).sum(axis=-1)
    b2 = (np.abs(field.B) ** 2).sum(axis=-1)
    return 0.25 * constants.eps0 * (e2 + constants.c**2 * b2)


def momentum_density(field: FieldPhasor, constants: PhysicalConstants = SI) -> np.ndarray:
    """Cycle-averaged momentum density ``(eps0/2) Re(E x B*)``."""
    return 0.5 * constants.eps0 * _cross(field.E, field.B.conj()).real


# --------------------------------------------------------------------------
# closed-form spin densities


def _guided_scales(spec: GuidedModeSpec) -> tuple[float, float, float]:
    """``(kx, ky, K)``: the transverse wavenumbers and the guided spin prefactor."""
    geom, con = spec.geometry, spec.constants
    kx = spec.index.m * math.pi / geom.a
    ky = spec.index.n * math.pi / geom.b
    K = float(spec.k_z.real) * spec.amplitude**2 / (
        2.0 * con.mu0 * spec.omega_c**2 * spec.omega)
    return kx, ky, K


def _surface_peak(spec: SurfaceWaveSpec) -> float:
    """The surface spin density at the interface, ``eps0 h'^2 kappa k_z c^2 / omega^3``."""
    con = spec.constants
    return (con.eps0 * spec.amplitude**2 * spec.kappa * spec.k_z * con.c**2
            / spec.omega**3)


def _decayed(peak: float, exponent: float) -> float:
    """``peak * exp(exponent)`` for ``exponent <= 0``, where ``exp`` alone may underflow.

    Where ``exp(exponent)`` is a normal float the product is formed as
    written.  Deeper, ``exp`` would round to a subnormal or to zero before
    the peak scales it back up, so the peak is multiplied by four factors
    ``exp(exponent/4)`` in turn.  Each factor is a normal float for every
    exponent whose product is not zero (above about -1455), so the result is
    within a few ulp of ``peak * exp(exponent)`` wherever that is a normal
    float.
    """
    decay = math.exp(exponent)
    if decay >= sys.float_info.min:
        return peak * decay
    quarter = math.exp(0.25 * exponent)
    # left to right: quarter**4 would underflow as exp(exponent) does
    return peak * quarter * quarter * quarter * quarter


def analytic_spin_guided(spec: GuidedModeSpec, point) -> SpinDensityPair:
    """Closed-form guided spin densities at transverse ``point = (x, y)``.

    With the shared prefactor ``K = k_z h^2 / (2 mu0 omega_c^2 omega)``:

    TM (electric branch only)::

        s_x = -(n pi/b) K sin^2(m pi x/a) sin(2 n pi y/b)
        s_y = +(m pi/a) K sin(2 m pi x/a) sin^2(n pi y/b)

    TE (magnetic branch only)::

        s_x = +(n pi/b) K cos^2(m pi x/a) sin(2 n pi y/b)
        s_y = -(m pi/a) K sin(2 m pi x/a) cos^2(n pi y/b)

    The z-components vanish, as does the opposite branch.  For evanescent
    modes (imaginary ``k_z``) every component is identically zero: all field
    components then share a common phase, so the spin bilinears are real.
    """
    geom, idx = spec.geometry, spec.index
    x = np.asarray(point[0], dtype=float)
    y = np.asarray(point[1], dtype=float)
    # written as "every coordinate lies inside", so that NaN fails them
    if not np.all((x >= 0.0) & (x <= geom.a)):
        raise DomainError(f"x must lie in [0, {geom.a}]")
    if not np.all((y >= 0.0) & (y <= geom.b)):
        raise DomainError(f"y must lie in [0, {geom.b}]")

    shape = np.broadcast(x, y).shape + (3,)
    zeros = np.zeros(shape)
    if not spec.is_propagating:
        return SpinDensityPair(s_e=zeros, s_m=zeros.copy())

    kx, ky, K = _guided_scales(spec)
    s = np.zeros(shape)
    if idx.family is ModeFamily.TM:
        s[..., 0] = -ky * K * np.sin(kx * x) ** 2 * np.sin(2.0 * ky * y)
        s[..., 1] = kx * K * np.sin(2.0 * kx * x) * np.sin(ky * y) ** 2
        return SpinDensityPair(s_e=s, s_m=zeros)
    s[..., 0] = ky * K * np.cos(kx * x) ** 2 * np.sin(2.0 * ky * y)
    s[..., 1] = -kx * K * np.sin(2.0 * kx * x) * np.cos(ky * y) ** 2
    return SpinDensityPair(s_e=zeros, s_m=s)


def analytic_spin_surface(spec: SurfaceWaveSpec, x) -> SpinDensityPair:
    """Closed-form surface spin density at depth ``x >= 0``.

    The single non-zero component is transverse (along y)::

        s_y = eps0 h'^2 (kappa k_z c^2 / omega^3) exp(-2 kappa x)

    carried by the electric branch for TM and the magnetic branch for TE.
    Deep in the tail, where ``exp(-2 kappa x)`` alone underflows, the product
    is still formed to a few ulp (:func:`_decayed`).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise DomainError("surface wave is defined on the vacuum side x >= 0")
    shape = x.shape + (3,)
    zeros = np.zeros(shape)
    s = np.zeros(shape)
    # libm's exp on Python floats, not numpy's: numpy's AVX-512 float64 exp
    # differs from it in the last bit for some arguments, so the map's bytes
    # would follow the host; and an exponent too large for a float becomes
    # -inf, so its value 0, with no numpy overflow warning
    peak, rate = _surface_peak(spec), -2.0 * spec.kappa
    s[..., 1] = np.reshape([_decayed(peak, rate * depth) for depth in x.ravel().tolist()],
                           x.shape)
    if spec.family is ModeFamily.TM:
        return SpinDensityPair(s_e=s, s_m=zeros)
    return SpinDensityPair(s_e=zeros, s_m=s)


def spin_map(spec: GuidedModeSpec | SurfaceWaveSpec, nx: int, ny: int, *,
             combine: bool = False, x_max_kappa: float = 5.0, z_periods: float = 1.0):
    """Check a spin map of ``nx`` by ``ny`` points, then return ``(xs, blocks)``.

    A guided map spans ``[0, a] x [0, b]``, a surface map ``x_max_kappa/kappa``
    of depth by ``z_periods`` guided wavelengths along ``z``.  ``xs`` is
    ``linspace(0, x_max, nx)``.  ``blocks`` yields ``(ys, spins)`` per row
    block of :func:`~transpin.modes._row_blocks`: the stations ``arange(start,
    stop) * y_max/(ny - 1)``, the last set to ``y_max`` as ``linspace`` sets
    it, and ``spins`` of shape ``(ys.size, nx, 3)``, ``s_e + s_m`` or under
    ``combine`` ``(s_e + s_m)/2``: one :func:`analytic_spin_guided` call, or
    read-only views of a surface map's one depth profile, since the densities
    do not depend on ``z``.  Every check runs before this returns, the
    arguments' first: ``ValueError`` names ``nx`` or ``ny`` if it is not an
    integer >= 2, ``x_max_kappa`` or ``z_periods`` if it is not finite and
    > 0, and an extent (``x_max``, ``z_max``) or the peak of a spin column
    returned (``sx_peak``, ``sy_peak``, ``mag_peak``) that is not a finite
    normal float; a row numpy cannot allocate raises ``MemoryError``, and an
    ``ny`` too large for a float ``OverflowError``.
    """
    for name, count in (("nx", nx), ("ny", ny)):
        if not (isinstance(count, numbers.Integral) and count >= 2):
            raise ValueError(f"{name} must be an integer >= 2, got {count!r}")
    for name, extent in (("x_max_kappa", x_max_kappa), ("z_periods", z_periods)):
        if not 0.0 < extent < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {extent!r}")
    pick = SpinDensityPair.combined if combine else SpinDensityPair.total
    scale = 0.5 if combine else 1.0
    guided = isinstance(spec, GuidedModeSpec)
    if guided:
        x_max, y_max = spec.geometry.a, spec.geometry.b
        peaks = {}
        if spec.is_propagating:
            kx, ky, K = _guided_scales(spec)
            sx, sy = scale * (ky * K), scale * (kx * K)
            if ky:  # n = 0 zeroes the s_x column by structure
                peaks["sx_peak"] = sx
            peaks["sy_peak"] = sy
            peaks["mag_peak"] = math.hypot(sx, sy)
    else:
        x_max = x_max_kappa / spec.kappa
        y_max = z_periods * 2.0 * math.pi / abs(spec.k_z)
        peaks = {"x_max": x_max, "z_max": y_max, "sy_peak": scale * _surface_peak(spec)}
    _check_float_range(**peaks)
    try:
        xs = np.linspace(0.0, x_max, nx)
    except (ValueError, IndexError) as exc:
        # numpy refuses some sizes it cannot allocate with these, not MemoryError
        raise MemoryError(str(exc) or type(exc).__name__) from None
    profile = None if guided else pick(analytic_spin_surface(spec, xs))
    step = y_max / (ny - 1)

    def blocks():
        for block in _row_blocks(ny, nx):
            ys = np.arange(block.start, block.stop) * step
            if block.stop == ny:
                ys[-1] = y_max
            yield ys, (pick(analytic_spin_guided(spec, (xs[None, :], ys[:, None]))) if guided
                       else np.broadcast_to(profile, (ys.size, *profile.shape)))

    return xs, blocks()


# --------------------------------------------------------------------------
# brute-force oracle


def time_average_oracle(sampler, omega: float, samples: int = 64):
    """Average ``sampler(t)`` over one period with a uniform left-point grid.

    For trigonometric integrands whose harmonics are all below ``samples``
    this equals the exact cycle average (discrete orthogonality), which makes
    it a brute-force oracle for the phasor bilinear formulas.  The whole grid
    is evaluated in one call.

    Parameters
    ----------
    sampler : callable
        ``t -> ndarray``; instantaneous (real-field) density.  It receives
        every sample time at once, as an ndarray of shape ``(samples,)``,
        and returns the samples on axis 0, shape ``(samples, ...)``.
    omega : float
        Angular frequency; the period is ``2*pi/omega``.
    samples : int
        Number of equispaced samples; a whole number, at least 4.
    """
    if not (omega > 0.0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    # a fractional count would space the samples period/samples apart and
    # run the grid past one period
    if not (4 <= samples < math.inf) or samples != int(samples):
        raise ConfigurationError(
            f"need a whole number of at least 4 samples per period, got {samples}")
    period = 2.0 * math.pi / omega
    t = np.arange(samples) * period / samples
    return np.mean(np.asarray(sampler(t)), axis=0)


def _time_major_phasor(spec, point, t) -> FieldPhasor:
    """The phasor at ``point`` for every time in ``t``, on a new leading axis.

    The axes of ``t`` come first and the broadcast shape of the point's
    coordinates after them, so an array of times never pairs element-wise
    with an array of points of the same length.
    """
    t = np.asarray(t, dtype=float)
    axes = t.shape + (1,) * np.broadcast(*point).ndim
    return spec.phasor(point, t.reshape(axes))


def instantaneous_spin_sampler(spec, point):
    """Sampler of the instantaneous total spin density ``eps0 (E x A + B x C)``.

    Returns a callable ``t -> ndarray`` of shape ``t.shape + point_shape +
    (3,)``, built from the *real* fields and potentials and suitable for
    :func:`time_average_oracle`; its average must reproduce
    ``spin_densities(...).total()``.
    """
    con = spec.constants

    def sample(t):
        field = _time_major_phasor(spec, point, t)
        pots = vector_potentials(field, spec.omega, con)
        e_r, b_r = np.real(field.E), np.real(field.B)
        a_r, c_r = np.real(pots.A), np.real(pots.C)
        return con.eps0 * (_cross(e_r, a_r) + _cross(b_r, c_r))

    return sample


def instantaneous_energy_sampler(spec, point):
    """Sampler of the instantaneous energy density ``(eps0/2)(E^2 + c^2 B^2)``.

    Returns a callable ``t -> ndarray`` of shape ``t.shape + point_shape``.
    """
    con = spec.constants

    def sample(t):
        field = _time_major_phasor(spec, point, t)
        e_r, b_r = np.real(field.E), np.real(field.B)
        return 0.5 * con.eps0 * (np.sum(e_r * e_r, axis=-1)
                                 + con.c**2 * np.sum(b_r * b_r, axis=-1))

    return sample
