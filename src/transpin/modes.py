"""Complex field phasors of guided and evanescent electromagnetic modes.

Two geometries are covered:

* **Guided modes** of an ideal rectangular waveguide (perfectly conducting
  walls at ``x in {0, a}``, ``y in {0, b}``, propagation along z).  TM_mn
  modes are built from the longitudinal electric amplitude ``E_z``; TE_mn
  modes from the longitudinal magnetic amplitude ``B_z``.  See e.g. Jackson,
  *Classical Electrodynamics*, ch. 8, or Pozar, *Microwave Engineering*,
  ch. 3.

* **Evanescent surface waves** on the vacuum side ``x > 0`` of a planar
  interface, produced by total internal reflection inside a denser medium
  (refractive index ``eta``, internal incidence angle ``phi`` with
  ``eta*sin(phi) > 1``).  The wave travels along z with a superluminal-phase
  wavenumber ``k_z = (omega/c)*eta*sin(phi)`` and decays along x with rate
  ``kappa = (omega/c)*sqrt(eta^2 sin^2 phi - 1)``.

All phasors carry the full space-time factor ``exp(-i*(omega*t - k_z*z))``
(or its surface counterpart), so the physical field is simply
``Re(phasor)``.  Evaluation functions broadcast over numpy arrays in the
coordinates; field vectors live on the trailing axis of shape ``(..., 3)``.

Both spec kinds answer ``phasor``, ``closed_forms``, ``rest_term`` (the
``Omega^2`` of ``omega^2 = c^2 k_z^2 + Omega^2``), ``fd_scales`` and
``is_propagating`` for themselves, so a caller needs no branch on the kind.
A spec derives each of its scalars (``omega_c``, ``k_z``, ``kappa`` and
the ``closed_forms()`` tuple) once, on first use, and keeps it in its
instance dict; ``==``, ``hash``, ``replace`` and ``asdict`` see the fields
only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .constants import SI, PhysicalConstants
from .errors import DomainError, InvalidModeError, UnsupportedModeError

__all__ = [
    "ModeFamily",
    "ModeIndex",
    "WaveguideGeometry",
    "GuidedModeSpec",
    "SurfaceWaveSpec",
    "FieldPhasor",
    "cutoff_frequency",
    "axial_wavenumber",
    "guided_field_phasor",
    "surface_field_phasor",
    "maxwell_residuals",
]


class ModeFamily(str, Enum):
    """Transverse-magnetic (``E_z != 0``) or transverse-electric (``B_z != 0``)."""

    TM = "TM"
    TE = "TE"


@dataclass(frozen=True)
class ModeIndex:
    """Validated (family, m, n) triple.

    TM requires ``m >= 1`` and ``n >= 1`` (both transverse sine factors must
    be non-trivial); TE requires ``m >= 1``, ``n >= 0``.
    """

    family: ModeFamily
    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", ModeFamily(self.family))
        if self.m != int(self.m) or self.n != int(self.n):
            raise InvalidModeError(f"mode indices must be integers, got ({self.m}, {self.n})")
        if self.family is ModeFamily.TM and (self.m < 1 or self.n < 1):
            raise InvalidModeError(f"TM requires m >= 1 and n >= 1, got ({self.m}, {self.n})")
        if self.family is ModeFamily.TE and (self.m < 1 or self.n < 0):
            raise InvalidModeError(f"TE requires m >= 1 and n >= 0, got ({self.m}, {self.n})")


# The mode formulas raise these quantities to at most the third power
# (``omega**3`` in the surface spin density), so each one must keep its cube
# a finite normal float.
_SCALE_RANGE = (sys.float_info.min ** (1.0 / 3.0), sys.float_info.max ** (1.0 / 3.0))


def _check_scale(name: str, value) -> None:
    """Reject a non-finite ``value`` or one whose cube leaves the float range."""
    low, high = _SCALE_RANGE
    if not (low <= abs(value) <= high):
        raise ValueError(
            f"{name} must be finite with magnitude in [{low:.3g}, {high:.3g}], "
            f"got {value!r}")


def _check_float_range(**values: float) -> None:
    """Raise ``ValueError`` naming the first value that is not a finite normal float.

    Two parameters that are each in range can still push a total past the
    float range together, or its underflow can leave it zero or subnormal.
    """
    for name, value in values.items():
        if not (sys.float_info.min <= abs(value) < math.inf):
            raise ValueError(
                f"{name} = {value!r} leaves the float range; the mode "
                "parameters are too extreme together")


@dataclass(frozen=True)
class WaveguideGeometry:
    """Rectangular cross-section ``a x b`` and quantization length ``L``.

    The convention ``a >= b`` makes TE10 the dominant mode.
    """

    a: float
    b: float
    length: float

    def __post_init__(self) -> None:
        if not (self.a >= self.b > 0.0):
            raise ValueError(f"need a >= b > 0, got a={self.a!r}, b={self.b!r}")
        if not (self.length > 0.0):
            raise ValueError(f"length must be positive, got {self.length!r}")
        for name in ("a", "b", "length"):
            _check_scale(name, getattr(self, name))

    @property
    def volume(self) -> float:
        return self.a * self.b * self.length


def cutoff_frequency(index: ModeIndex, geometry: WaveguideGeometry,
                     constants: PhysicalConstants = SI) -> float:
    """Angular cutoff frequency ``omega_c = c*pi*sqrt((m/a)^2 + (n/b)^2)``."""
    return constants.c * math.pi * math.hypot(index.m / geometry.a, index.n / geometry.b)


def axial_wavenumber(omega: float, omega_c: float, constants: PhysicalConstants = SI):
    """Positive-branch axial wavenumber from ``omega^2 = omega_c^2 + c^2 k_z^2``.

    Returns a real float above cutoff and a purely imaginary complex number
    ``i*beta`` (decay rate ``beta > 0``) below cutoff.  Propagation direction
    is applied by the caller (negate for -z).
    """
    if omega <= 0.0 or omega_c <= 0.0:
        raise ValueError(f"omega and omega_c must be positive, got {omega!r}, {omega_c!r}")
    gap = omega * omega - omega_c * omega_c
    if gap >= 0.0:
        return math.sqrt(gap) / constants.c
    return 1j * math.sqrt(-gap) / constants.c


def _require_propagating(spec: GuidedModeSpec | SurfaceWaveSpec, what: str) -> None:
    if not spec.is_propagating:
        raise UnsupportedModeError(
            f"{what} is defined for propagating modes only "
            f"(omega = {spec.omega:.6g} <= omega_c = {spec.omega_c:.6g})")


def _normal_product(factors: tuple[float, ...]) -> float | None:
    """The left-to-right product of ``factors``; ``None`` once a partial product is not normal."""
    product = 1.0
    for factor in factors:
        # a Python float, which overflows to inf without a numpy warning
        product *= float(factor)
        if not (sys.float_info.min <= abs(product) <= sys.float_info.max):
            return None
    return product


def _ratio(numerator: tuple[float, ...], denominator: tuple[float, ...]) -> float:
    """``prod(numerator) / prod(denominator)`` on the factors' mantissas.

    The powers of two are applied once at the end, so no partial product
    underflows, and a result that the plain expression keeps normal has the
    same bits.  Factors are taken after any ``**``, which does not always
    round the same on a mantissa.  Where every partial product and the
    quotient of the plain expression are normal floats, that quotient is
    returned as is: scaling by a power of two is exact in the normal range,
    so it has the bits of the mantissa path.
    """
    top, bottom = _normal_product(numerator), _normal_product(denominator)
    if top is not None and bottom is not None:
        value = top / bottom
        if sys.float_info.min <= abs(value) <= sys.float_info.max:
            return value
    top = [math.frexp(factor) for factor in numerator]
    bottom = [math.frexp(factor) for factor in denominator]
    value = math.prod(m for m, _ in top) / math.prod(m for m, _ in bottom)
    try:
        return math.ldexp(value, sum(e for _, e in top) - sum(e for _, e in bottom))
    except OverflowError:
        return math.copysign(math.inf, value)


@dataclass(frozen=True)
class GuidedModeSpec:
    """A fully specified guided mode.

    Parameters
    ----------
    geometry, index : domain and mode labels.
    omega : float
        Angular frequency [rad/s].
    amplitude : float
        Field normalization ``h``: equal to ``E_0`` for TM modes and to
        ``c*B_0`` for TE modes, so both families share one amplitude scale
        of electric-field dimension.
    direction : int
        +1 for propagation along +z, -1 for -z (negates ``k_z``).
    """

    geometry: WaveguideGeometry
    index: ModeIndex
    omega: float
    amplitude: float
    direction: int = +1
    constants: PhysicalConstants = SI

    def __post_init__(self) -> None:
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if not (self.amplitude > 0.0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude!r}")
        if self.direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        _check_scale("omega", self.omega)
        _check_scale("amplitude", self.amplitude)
        # with omega and omega_c in range, k_z is finite as well
        _check_scale("omega_c (from a, b, m, n)", self.omega_c)

    @cached_property
    def omega_c(self) -> float:
        return cutoff_frequency(self.index, self.geometry, self.constants)

    @cached_property
    def k_z(self):
        """Signed axial wavenumber (imaginary for evanescent modes)."""
        return self.direction * axial_wavenumber(self.omega, self.omega_c, self.constants)

    @property
    def is_propagating(self) -> bool:
        return self.omega > self.omega_c

    @property
    def rest_term(self) -> float:
        """``omega_c^2``: the cutoff acts as a rest-energy term."""
        return self.omega_c**2

    def phasor(self, point, t=0.0) -> FieldPhasor:
        """The phasor at ``point`` and ``t``; see :func:`guided_field_phasor`."""
        return guided_field_phasor(self, point, t)

    def closed_forms(self) -> tuple[float, float, float]:
        """Closed-form ``(W, P_z, S_perp)`` of a propagating guided mode.

        With ``V = a*b*L`` and ``nu = 2`` for TE_m0, else 1: TE_m0 keeps
        ``cos^2(0*y) = 1``, so one transverse average of 1/2 is absent::

            W      = nu * eps0 omega^2 V h^2 / (8 omega_c^2)
            P_z    = nu * eps0 omega k_z V h^2 / (8 omega_c^2)
            S_perp = nu * eps0 c k_z V h^2 / (4 omega_c omega)
        """
        return self._closed_forms

    @cached_property
    def _closed_forms(self) -> tuple[float, float, float]:
        _require_propagating(self, "closed-form totals")
        con = self.constants
        nu = 2.0 if (self.index.family is ModeFamily.TE and self.index.n == 0) else 1.0
        V = self.geometry.volume
        h2 = self.amplitude**2
        omega, omega_c = self.omega, self.omega_c
        k_z = float(self.k_z.real)
        W = _ratio((nu, con.eps0, omega**2, V, h2), (8.0, omega_c**2))
        P_z = _ratio((nu, con.eps0, omega, k_z, V, h2), (8.0, omega_c**2))
        S_perp = _ratio((nu, con.eps0, con.c, k_z, V, h2), (4.0, omega_c, omega))
        return W, P_z, S_perp

    def fd_scales(self) -> tuple[float, float]:
        """Step ``h = 1e-6 min(a, b)`` and scale ``omega/c`` of :func:`maxwell_residuals`."""
        return 1e-6 * min(self.geometry.a, self.geometry.b), self.omega / self.constants.c


@dataclass(frozen=True)
class SurfaceWaveSpec:
    """An evanescent surface wave on the vacuum side of a planar interface.

    ``eta`` and ``phi`` describe the totally internally reflected parent
    wave; ``area`` is the transverse quantization area in the (y, z) plane.
    ``amplitude`` is ``h' = c*a_0`` (TM, where ``a_0`` is the magnetic
    amplitude) or ``h' = b_0`` (TE, electric amplitude), again giving both
    families a common electric-field scale.
    """

    family: ModeFamily
    eta: float
    phi: float
    omega: float
    amplitude: float
    area: float
    direction: int = +1
    constants: PhysicalConstants = SI

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", ModeFamily(self.family))
        if not (0.0 < self.eta < math.inf):
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not (0.0 < self.phi < math.pi / 2):
            raise DomainError(f"phi must lie in (0, pi/2), got {self.phi!r}")
        if self.eta * math.sin(self.phi) <= 1.0:
            raise DomainError(
                f"eta*sin(phi) = {self.eta * math.sin(self.phi)!r} <= 1: "
                "no total internal reflection, no evanescent tail")
        if not (self.omega > 0.0):
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if not (self.amplitude > 0.0):
            raise ValueError(f"amplitude must be positive, got {self.amplitude!r}")
        if not (self.area > 0.0):
            raise ValueError(f"area must be positive, got {self.area!r}")
        if self.direction not in (+1, -1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction!r}")
        for name in ("omega", "amplitude", "area"):
            _check_scale(name, getattr(self, name))
        _check_scale("kappa (from omega, eta, phi)", self.kappa)
        _check_scale("k_z (from omega, eta, phi)", self.k_z)

    @cached_property
    def kappa(self) -> float:
        """Transverse decay rate [1/m]; always positive."""
        s = self.eta * math.sin(self.phi)
        return (self.omega / self.constants.c) * math.sqrt(s * s - 1.0)

    @cached_property
    def k_z(self) -> float:
        """Signed axial wavenumber; ``|k_z| > omega/c`` always."""
        return self.direction * (self.omega / self.constants.c) * self.eta * math.sin(self.phi)

    #: a surface wave always carries energy along z
    is_propagating = True

    @property
    def rest_term(self) -> float:
        """``-(c kappa)^2``: the decay rate enters with the opposite sign."""
        return -(self.constants.c * self.kappa) ** 2

    def phasor(self, point, t=0.0) -> FieldPhasor:
        """The phasor at ``point`` and ``t``; see :func:`surface_field_phasor`."""
        return surface_field_phasor(self, point, t)

    def closed_forms(self) -> tuple[float, float, float]:
        """Closed-form ``(W, P_z, S_y)`` of a surface wave.

        With ``A`` the transverse area::

            W   = eps0 A h'^2 k_z^2 c^2 / (4 kappa omega^2)
            P_z = eps0 A h'^2 k_z / (4 kappa omega)
            S_y = eps0 A h'^2 k_z c^2 / (2 omega^3)
        """
        return self._closed_forms

    @cached_property
    def _closed_forms(self) -> tuple[float, float, float]:
        con = self.constants
        A, h2 = self.area, self.amplitude**2
        omega, k_z, kappa = self.omega, self.k_z, self.kappa
        W = _ratio((con.eps0, A, h2, k_z**2, con.c**2), (4.0, kappa, omega**2))
        P_z = _ratio((con.eps0, A, h2, k_z), (4.0, kappa, omega))
        S_y = _ratio((con.eps0, A, h2, k_z, con.c**2), (2.0, omega**3))
        return W, P_z, S_y

    def fd_scales(self) -> tuple[float, float]:
        """Step ``h = 1e-6/kappa`` and scale ``|k_z|`` of :func:`maxwell_residuals`."""
        return 1e-6 / self.kappa, abs(self.k_z)


@dataclass(frozen=True)
class FieldPhasor:
    """Complex E and B phasors on the trailing axis: shape ``(..., 3)``.

    E in V/m, B in T (SI).  The physical fields are ``Re(E)``, ``Re(B)``.
    """

    E: np.ndarray
    B: np.ndarray


def _stack3(*components) -> np.ndarray:
    """The three components broadcast together on a new trailing complex axis.

    A component given as ``None`` is a structural zero, written as ``0j``.
    """
    out = np.empty(np.broadcast(*(c for c in components if c is not None)).shape + (3,),
                   complex)
    for k, c in enumerate(components):
        out[..., k] = 0.0 if c is None else c
    return out


def _guided_factors(spec: GuidedModeSpec, x, y):
    """The real factors of the guided phasor's components at ``x``, ``y``.

    At ``z = t = 0`` the phasor is ``E = (i F_Ex, i F_Ey, F_Ez)`` and
    ``B = (i F_Bx, i F_By, F_Bz)``: each transverse component is ``i`` times
    a real factor, and the longitudinal one is its factor.  Returns ``(F_E,
    F_B)``, each a tuple ``(F_x, F_y, F_z)`` of float arrays broadcast over
    ``x`` and ``y``, signed as in the Notes of :func:`guided_field_phasor`.
    The family's structural zero, ``F_Bz`` for TM and ``F_Ez`` for TE, is
    ``None`` and is not built.  ``x`` and ``y`` are float arrays the caller
    has checked.
    """
    geom, idx, con = spec.geometry, spec.index, spec.constants
    omega, omega_c, k_z = spec.omega, spec.omega_c, spec.k_z
    kx = idx.m * math.pi / geom.a
    ky = idx.n * math.pi / geom.b
    r = con.c**2 / omega_c**2
    sx, cx = np.sin(kx * x), np.cos(kx * x)
    sy, cy = np.sin(ky * y), np.cos(ky * y)

    if idx.family is ModeFamily.TM:
        e0 = spec.amplitude
        return ((kx * k_z * r * e0 * cx * sy,
                 ky * k_z * r * e0 * sx * cy,
                 e0 * sx * sy),
                (-ky * (omega / omega_c**2) * e0 * sx * cy,
                 kx * (omega / omega_c**2) * e0 * cx * sy,
                 None))
    b0 = spec.amplitude / con.c
    return ((-ky * omega * r * b0 * cx * sy,
             kx * omega * r * b0 * sx * cy,
             None),
            (-kx * k_z * r * b0 * sx * cy,
             -ky * k_z * r * b0 * cx * sy,
             b0 * cx * cy))


def _require_finite(**values) -> None:
    """Raise :class:`DomainError` naming the first array with a non-finite entry."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite")


#: most nodes of one row block, so that the real temporaries of a guided
#: quadrature block (32 KB each) stay in cache
_BLOCK_NODES = 4096


def _row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` of at most ``_BLOCK_NODES // width`` rows, or one row."""
    step = max(1, _BLOCK_NODES // width)
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def guided_field_phasor(spec: GuidedModeSpec, point, t=0.0) -> FieldPhasor:
    """Evaluate the guided-mode phasor at ``point = (x, y, z)`` and time ``t``.

    Parameters
    ----------
    spec : GuidedModeSpec
    point : tuple of float or ndarray
        Coordinates; broadcast against each other and ``t``.  Every ``x``
        must lie in ``[0, a]`` and every ``y`` in ``[0, b]``, so NaN is
        rejected; ``z`` must be finite.
    t : float or ndarray, optional
        Must be finite.

    Returns
    -------
    FieldPhasor

    Raises
    ------
    DomainError
        For a coordinate or time outside its domain.

    Notes
    -----
    TM components (with ``r = c^2/omega_c^2`` and transverse wavenumbers
    ``k_x = m*pi/a``, ``k_y = n*pi/b``)::

        E_x = i k_x k_z r E0 cos(k_x x) sin(k_y y) * P
        E_y = i k_y k_z r E0 sin(k_x x) cos(k_y y) * P
        E_z =             E0 sin(k_x x) sin(k_y y) * P
        B_x = -i k_y (omega/omega_c^2) E0 sin(k_x x) cos(k_y y) * P
        B_y = +i k_x (omega/omega_c^2) E0 cos(k_x x) sin(k_y y) * P

    and TE components::

        E_x = -i k_y omega r B0 cos(k_x x) sin(k_y y) * P
        E_y = +i k_x omega r B0 sin(k_x x) cos(k_y y) * P
        B_x = -i k_x k_z r B0 sin(k_x x) cos(k_y y) * P
        B_y = -i k_y k_z r B0 cos(k_x x) sin(k_y y) * P
        B_z =            B0 cos(k_x x) cos(k_y y) * P

    where ``P = exp(-i*(omega*t - k_z*z))``.  Both satisfy the source-free
    Maxwell equations exactly (checked by :func:`maxwell_residuals`).  Each
    component is its real factor from :func:`_guided_factors`, which the
    guided quadrature plane calls directly, times its unit ``i`` or ``1``
    and ``P``; here they are stacked on the trailing axis, with ``0j`` for
    the family's zero ``B_z`` (TM) or ``E_z`` (TE).
    """
    geom = spec.geometry
    x = np.asarray(point[0], dtype=float)
    y = np.asarray(point[1], dtype=float)
    z = np.asarray(point[2], dtype=float)
    t = np.asarray(t, dtype=float)
    # written as "every coordinate lies inside", so that NaN fails them
    if not ((x >= 0.0) & (x <= geom.a)).all():
        raise DomainError(f"x must lie in [0, {geom.a}]")
    if not ((y >= 0.0) & (y <= geom.b)).all():
        raise DomainError(f"y must lie in [0, {geom.b}]")
    _require_finite(z=z, t=t)
    phase = np.exp(-1j * (spec.omega * t - spec.k_z * z))
    E, B = (_stack3(*(None if f is None else unit * f * phase
                      for f, unit in zip(factors, (1j, 1j, 1.0))))
            for factors in _guided_factors(spec, x, y))
    return FieldPhasor(E=E, B=B)


def surface_field_phasor(spec: SurfaceWaveSpec, point, t=0.0) -> FieldPhasor:
    """Evaluate the surface-wave phasor at ``point = (x, y, z)``, ``x >= 0``.

    TM carries ``(E_x, E_z, B_y)``; TE carries ``(E_y, B_x, B_z)``.  The
    longitudinal component lags/leads its transverse partner by pi/2 (the
    ``-i kappa/omega`` and ``+i kappa/omega`` factors), which is the origin
    of the transverse spin of these waves.  A NaN ``x``, or a non-finite
    ``z`` or ``t``, raises :class:`DomainError`.
    """
    con = spec.constants
    x = np.asarray(point[0], dtype=float)
    z = np.asarray(point[2], dtype=float)
    t = np.asarray(t, dtype=float)
    if not (x >= 0.0).all():
        raise DomainError("surface wave is defined on the vacuum side x >= 0")
    _require_finite(z=z, t=t)

    omega, k_z, kappa = spec.omega, spec.k_z, spec.kappa
    F = np.exp(1j * (k_z * z - omega * t) - kappa * x)
    c2 = con.c**2

    if spec.family is ModeFamily.TM:
        a0 = spec.amplitude / con.c
        E = _stack3((k_z / omega) * c2 * a0 * F, None, -1j * (kappa / omega) * c2 * a0 * F)
        B = _stack3(None, a0 * F, None)
    else:
        b0 = spec.amplitude
        E = _stack3(None, b0 * F, None)
        B = _stack3(-(k_z / omega) * b0 * F, None, 1j * (kappa / omega) * b0 * F)
    return FieldPhasor(E=E, B=B)


# --------------------------------------------------------------------------
# finite-difference Maxwell diagnostics


def _fd_vector_derivatives(evaluate, point, h):
    """The field at ``point`` and its central-difference gradients along each axis.

    The centre and its six ``+/-h`` neighbours are evaluated in one call on
    a 7-point stencil.  Returns ``(f0, dE, dB)``: the centre's
    :class:`FieldPhasor` and, for each axis, the derivatives of E and B.
    """
    stencil = np.array([point] * 7, dtype=float)
    for axis in range(3):
        stencil[1 + 2 * axis, axis] += h
        stencil[2 + 2 * axis, axis] -= h
    field = evaluate(tuple(stencil.T))
    dE = [(field.E[1 + 2 * axis] - field.E[2 + 2 * axis]) / (2.0 * h) for axis in range(3)]
    dB = [(field.B[1 + 2 * axis] - field.B[2 + 2 * axis]) / (2.0 * h) for axis in range(3)]
    return FieldPhasor(E=field.E[0], B=field.B[0]), dE, dB


def maxwell_residuals(spec, point, t=0.0) -> dict:
    """Normalized source-free Maxwell residuals at an interior point.

    Computes ``div E``, ``div B`` and ``curl E - i*omega*B`` (Faraday for the
    ``exp(-i*omega*t)`` convention) by central differences with the step
    ``h``, normalized by ``k_scale * max(|E|, c|B|)``; ``(h, k_scale)`` is
    ``spec.fd_scales()``.  The point and its six neighbours take one
    ``spec.phasor`` call.  A correct mode implementation keeps all three
    below ~1e-10; the acceptance threshold is 1e-8.
    """
    con = spec.constants
    h, k_scale = spec.fd_scales()
    f0, dE, dB = _fd_vector_derivatives(lambda p: spec.phasor(p, t), point, h)
    div_e = dE[0][..., 0] + dE[1][..., 1] + dE[2][..., 2]
    div_b = dB[0][..., 0] + dB[1][..., 1] + dB[2][..., 2]
    curl_e = np.stack([
        dE[1][..., 2] - dE[2][..., 1],
        dE[2][..., 0] - dE[0][..., 2],
        dE[0][..., 1] - dE[1][..., 0],
    ], axis=-1)
    faraday = curl_e - 1j * spec.omega * f0.B

    e_scale = float(np.max(np.abs(f0.E)))
    b_scale = con.c * float(np.max(np.abs(f0.B)))
    scale = k_scale * max(e_scale, b_scale)
    return {
        "div_e": float(abs(complex(div_e))) / scale,
        "div_b": float(abs(complex(div_b))) / scale,
        "faraday": float(np.max(np.abs(faraday))) / scale,
    }
