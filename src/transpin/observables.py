"""Integrated observables: energy, momentum, total transverse spin, quantization.

Guided totals are tensor-product midpoint rules over the cross section
``[0,a] x [0,b]`` in the plane ``z = 0``, times the length ``L``: the
densities of a propagating mode do not depend on z, and they are trig
polynomials periodic on the cell with at most ``max(m, n)`` harmonics per
axis, so a rule with more nodes than harmonics is exact to rounding.
Surface totals are one-node midpoint rules in ``u = exp(-2 kappa x)`` over
the whole half space ``x >= 0``, exact because every surface density is a
constant times ``u``, times the transverse quantization area.  The
integrands are the pointwise densities of
:mod:`transpin.spin`, bit for bit (a guided plane forms ``|E_i|^2``,
``|B_i|^2`` and ``Re(E x B*)_z`` once and sums them as those densities do),
so the totals are independent of the closed forms they are tested against.

Setting ``W = n hbar omega`` in ``spec.closed_forms()`` fixes the amplitude
for ``n`` quanta and turns the totals into the per-quantum laws::

    guided   P_z    = n hbar k_z
             S_perp = 2 n hbar c k_z omega_c / omega^2  = +/- n hbar sin(2 theta)
    surface  P_z    = (v/c^2) n hbar omega   with  v = omega/k_z
             S_y    = 2 n hbar kappa / k_z   = 2 n hbar tan(theta')

where ``cos(theta) = |k_z| c / omega`` (guided) and ``tan(theta') =
kappa/|k_z|`` (surface) are the polarization-ellipse angles.

The total transverse spin of a guided mode needs care: its spin-density
*vector* integrates to zero over the cell (the pattern circulates), so the
meaningful total is the energy-weighted ellipse form ``S_perp =
(W/omega) * sin(2 theta)`` with ``theta`` taken from quadrature field
averages -- see ``docs/derivations.md`` for why the naive alternatives fail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .effective_mass import (dispersion_residual, guided_mass_report,
                             klein_gordon_stencil_residual, surface_mass_report)
from .errors import ResolutionError
from .modes import (GuidedModeSpec, ModeFamily, SurfaceWaveSpec, _check_float_range,
                    _guided_factors, _require_propagating, _row_blocks, surface_field_phasor)
from .spin import energy_density, momentum_density, spin_densities

__all__ = [
    "GuidedObservables",
    "SurfaceObservables",
    "integrate_guided",
    "integrate_surface",
    "amplitude_for_quanta",
    "quantized_transverse_spin_guided",
    "quantized_transverse_spin_surface",
    "ellipticity_surface",
    "balance_integral",
    "evaluate",
    "report",
]

#: quanta within this distance of an integer are reported as that integer
_QUANTA_SNAP = 1e-6
#: largest max(m, n) the guided quadrature plane is built for
_MAX_MODE_INDEX = 200


@dataclass(frozen=True)
class GuidedObservables:
    """Quadrature totals of one propagating guided mode.

    ``n_quanta`` is ``W/(hbar*omega)``; ``n_quanta_integer`` is its rounded
    value when within 1e-6, else ``None``.
    """

    W: float
    P_z: float
    S_perp: float
    v: float
    theta: float
    ellipticity: float
    n_quanta: float
    n_quanta_integer: int | None


@dataclass(frozen=True)
class SurfaceObservables:
    W: float
    P_z: float
    S_y: float
    v: float
    theta_prime: float
    ellipticity: float
    n_quanta: float
    n_quanta_integer: int | None


def _snap_quanta(n_quanta: float) -> int | None:
    nearest = round(n_quanta)
    if nearest >= 1 and abs(n_quanta - nearest) <= _QUANTA_SNAP:
        return int(nearest)
    return None


def _transverse_rules(spec: GuidedModeSpec):
    """Midpoint ``(nodes, spacing)`` rules on ``[0, a]`` and ``[0, b]``.

    Each axis gets ``N = max(2(m+n)+2, 2*max(m, n)+1)`` uniform nodes at the
    cell midpoints, the one transverse rule of every guided quadrature.
    Every guided integrand is periodic on the cell with at most ``max(m, n)``
    harmonics per axis, and the midpoint rule integrates each harmonic below
    ``N`` exactly (discrete orthogonality), so a plane integral is
    ``hx * hy * f.sum()`` to rounding.  ``max(m, n)`` above
    ``_MAX_MODE_INDEX`` raises :class:`ResolutionError`.
    """
    m, n = spec.index.m, spec.index.n
    nodes = max(2 * (m + n) + 2, 2 * max(m, n) + 1)
    if max(m, n) > _MAX_MODE_INDEX:
        raise ResolutionError(
            f"mode indices m = {m}, n = {n} need {nodes} midpoint nodes per "
            f"transverse axis; the quadrature supports max(m, n) <= "
            f"{_MAX_MODE_INDEX}")
    hx, hy = spec.geometry.a / nodes, spec.geometry.b / nodes
    centres = np.arange(nodes) + 0.5
    return (centres * hx, hx), (centres * hy, hy)


def _guided_plane(spec: GuidedModeSpec):
    """The cell weight and field bilinears of one guided quadrature plane.

    Forms the phasor's real factors once per node of the grid of
    :func:`_transverse_rules` in the plane ``z = 0``: one
    :func:`~transpin.modes._guided_factors` call per row block of at most
    ``_BLOCK_NODES`` nodes, and no domain check, since every midpoint node
    lies inside the cell.  Returns ``(cell, e2, b2, s_z)``: the node weight
    ``hx * hy``; the transverse and longitudinal intensities ``e2 = (|E_x|^2
    + |E_y|^2, |E_z|^2)`` and likewise ``b2``, each with shape ``(2, nx,
    ny)``; and ``Re(E x B*)_z`` with shape ``(nx, ny)``; 40 B a node in all.
    At ``z = t = 0`` each component is ``i`` or ``1`` times its real factor
    ``F``, so ``|X|^2 = F^2`` and ``Re(E x B*)_z = F_Ex F_By - F_Ey F_Bx``,
    all on float arrays, and the family's structural zero gives the
    intensity ``0.0`` without being squared.  Every bilinear is formed node
    by node, and holds the bits that the complex forms (``abs(X)**2`` and
    the :func:`numpy.cross` component) give on a whole-plane
    :func:`~transpin.modes.guided_field_phasor`.  A
    propagating mode carries ``exp(i k_z z)`` with real ``k_z``, so every
    bilinear density is the same on each plane, and a cell integral is ``L``
    times the plane integral ``cell * f.sum()``.
    """
    (xs, hx), (ys, hy) = _transverse_rules(spec)
    e2, b2 = np.empty((2, xs.size, ys.size)), np.empty((2, xs.size, ys.size))
    s_z = np.empty((xs.size, ys.size))
    for block in _row_blocks(xs.size, ys.size):
        E, B = _guided_factors(spec, xs[block, None], ys[None, :])
        # an overflow shows as inf or nan in a total, which the range checks name
        with np.errstate(over="ignore", invalid="ignore"):
            s_z[block] = E[0] * B[1] - E[1] * B[0]
            for out, (F_x, F_y, F_z) in ((e2, E), (b2, B)):
                out[0, block] = F_x**2 + F_y**2
                out[1, block] = 0.0 if F_z is None else F_z**2
        del E, B, F_x, F_y, F_z  # freed before the next block's factors are built
    return hx * hy, e2, b2, s_z


def integrate_guided(spec: GuidedModeSpec) -> GuidedObservables:
    """Quadrature totals ``(W, P_z, S_perp, ...)`` of a propagating guided mode.

    The rule is ``max(2(m+n)+2, 2*max(m, n)+1)`` midpoint nodes per
    transverse axis on the plane ``z = 0``, times the length ``L`` (the
    densities do not depend on z), exact to rounding.  The phasor's real
    factors are formed in row blocks of that plane by :func:`_guided_plane`,
    with no complex array and no zero component, so the plane costs the
    40 B a node of its intensities plus one block,
    and each total is one sum over the whole plane.  ``theta`` and
    ``ellipticity = h_long/h_perp = tan(theta)`` are read from the mean
    squares of the field that carries the family's longitudinal component:
    E for TM, where ``e = omega_c/(|k_z| c)`` exactly, and B for TE, whose
    electric ellipse is degenerate (``E_z = 0``).  ``S_perp`` counts
    ``s_e + s_m``; the dual-symmetric ``(s_e + s_m)/2`` is its half, because
    a guided mode has one branch.

    Parameters
    ----------
    spec : GuidedModeSpec
        Must be propagating (``omega > omega_c``).

    Raises
    ------
    UnsupportedModeError
        For evanescent modes (their totals diverge with L or vanish).
    ValueError
        If a total, ``n_quanta`` or a field intensity leaves the float range.
    """
    _require_propagating(spec, "volume integration")
    con = spec.constants
    omega = spec.omega
    k_z = float(spec.k_z.real)
    length = spec.geometry.length

    cell, e2, b2, s_z = _guided_plane(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        w_den = 0.25 * con.eps0 * ((e2[0] + e2[1]) + con.c**2 * (b2[0] + b2[1]))
        W = length * float(cell * w_den.sum())
        P_z = length * float(cell * (0.5 * con.eps0 * s_z).sum())
        # before the intensities, which overflow whenever W does
        _check_float_range(W=W)
        v2 = b2 if spec.index.family is ModeFamily.TE else e2
        area = spec.geometry.a * spec.geometry.b
        h_perp2 = float(cell * v2[0].sum()) / area
        h_long2 = float(cell * v2[1].sum()) / area
        _check_float_range(h_perp2=h_perp2, h_long2=h_long2)
    product = h_perp2 * h_long2
    # the product can underflow or overflow while each factor is normal; the
    # split root, taken only then, keeps the bits of every other S_perp
    root = (math.sqrt(product) if sys.float_info.min <= product < math.inf
            else math.sqrt(h_perp2) * math.sqrt(h_long2))
    sin_2theta = 2.0 * root / (h_perp2 + h_long2)
    S_perp = math.copysign(1.0, k_z) * (W / omega) * sin_2theta

    theta = math.atan2(math.sqrt(h_long2), math.sqrt(h_perp2))
    n_quanta = W / (con.hbar * omega)
    _check_float_range(P_z=P_z, S_perp=S_perp, n_quanta=n_quanta)
    return GuidedObservables(
        W=W, P_z=P_z, S_perp=S_perp,
        v=P_z * con.c**2 / W,
        theta=theta,
        ellipticity=math.sqrt(h_long2 / h_perp2),
        n_quanta=n_quanta,
        n_quanta_integer=_snap_quanta(n_quanta),
    )


def integrate_surface(spec: SurfaceWaveSpec) -> SurfaceObservables:
    """Quadrature totals of a surface wave over the half space ``x >= 0``.

    The rule is one midpoint node in ``u = exp(-2*kappa*x)`` on ``(0, 1]``,
    so ``x = -ln(u)/(2 kappa)`` and ``dx = du/(2 kappa u)``.  Every density
    is a constant times ``exp(-2 kappa x) = u``, so the integrand in ``u`` is
    constant and one node is exact: the totals are the pointwise densities at
    ``u0 = 1/2`` times the weight ``1/(2 kappa u0)``.  ``S_y`` counts
    ``s_e + s_m``, twice the dual-symmetric value of this single-branch wave.
    A total or ``n_quanta`` outside the float range raises ``ValueError``.
    """
    con = spec.constants
    omega = spec.omega
    u0 = 0.5
    weight = 1.0 / (2.0 * spec.kappa * u0)
    field = surface_field_phasor(spec, (-math.log(u0) / (2.0 * spec.kappa), 0.0, 0.0))

    A = spec.area
    with np.errstate(over="ignore", invalid="ignore"):
        w_den = energy_density(field, con)
        p_den = momentum_density(field, con)[..., 2]
        s_y = spin_densities(field, omega, con).total()[..., 1]
        W = A * float(weight * w_den)
        P_z = A * float(weight * p_den)
        S_y = A * float(weight * s_y)
    n_quanta = W / (con.hbar * omega)
    _check_float_range(W=W, P_z=P_z, S_y=S_y, n_quanta=n_quanta)
    return SurfaceObservables(
        W=W, P_z=P_z, S_y=S_y,
        v=P_z * con.c**2 / W,
        theta_prime=math.atan(spec.kappa / abs(spec.k_z)),
        ellipticity=spec.kappa / abs(spec.k_z),
        n_quanta=n_quanta,
        n_quanta_integer=_snap_quanta(n_quanta),
    )


# --------------------------------------------------------------------------
# quantization


def _check_quanta(n: int) -> int:
    if not (1 <= n < math.inf) or n != int(n):
        raise ValueError(f"quantum number must be a positive integer, got {n!r}")
    return int(n)


def amplitude_for_quanta(n: int, spec) -> float:
    """Amplitude ``h`` (or ``h'``) that normalizes the total energy to ``n hbar omega``.

    Inverts the closed-form energy, so feeding the result back through the
    quadrature returns ``W = n hbar omega`` to ~1e-14.  The returned value
    replaces ``spec.amplitude`` (e.g. via :func:`dataclasses.replace`); the
    amplitude already present on ``spec`` is ignored.
    """
    n = _check_quanta(n)
    _require_propagating(spec, "quantized amplitude")
    target = n * spec.constants.hbar * spec.omega
    unit = spec if spec.amplitude == 1.0 else replace(spec, amplitude=1.0)
    return math.sqrt(target / unit.closed_forms()[0])


def quantized_transverse_spin_guided(n: int, spec: GuidedModeSpec) -> float:
    """Per-quantum guided transverse spin ``2 n hbar c k_z omega_c / omega^2``.

    Equals ``sign(k_z) * n hbar sin(2 theta)`` and peaks at ``n hbar`` for
    ``omega = sqrt(2) omega_c``.  Matches the quadrature ``S_perp`` when the
    amplitude is set by :func:`amplitude_for_quanta`.
    """
    n = _check_quanta(n)
    _require_propagating(spec, "quantized transverse spin")
    con = spec.constants
    k_z = float(spec.k_z.real)
    return 2.0 * n * con.hbar * con.c * k_z * spec.omega_c / spec.omega**2


def quantized_transverse_spin_surface(n: int, spec: SurfaceWaveSpec) -> float:
    """Per-quantum surface transverse spin ``2 n hbar kappa / k_z``."""
    n = _check_quanta(n)
    return 2.0 * n * spec.constants.hbar * spec.kappa / spec.k_z


# --------------------------------------------------------------------------
# ellipticity


def ellipticity_surface(spec: SurfaceWaveSpec) -> tuple[float, float]:
    """Surface ellipse ratio ``e = kappa/|k_z| = tan(theta')`` and ``theta'``.

    Read off the phasor component magnitudes at a sample point:
    ``|E_z/E_x|`` for TM, ``|B_z/B_x|`` for TE.  Always below 1 because
    ``k_z^2 c^2 = kappa^2 c^2 + omega^2``.
    """
    field = surface_field_phasor(spec, (0.0, 0.0, 0.0))
    vec = field.E if spec.family is ModeFamily.TM else field.B
    e = float(np.abs(vec[..., 2]) / np.abs(vec[..., 0]))
    return e, math.atan(e)


# --------------------------------------------------------------------------
# electric/magnetic balance


def balance_integral(spec: GuidedModeSpec, b_amplitude_scale: float = 1.0) -> float:
    """Volume integral ``(eps0/4) * Int Re(E.E* - c^2 B.B*) dV`` [J].

    Vanishes for every propagating mode: the electric and magnetic energies
    are equal in the cycle average.  ``b_amplitude_scale`` rescales the
    magnetic branch and exists purely as a fault-injection control for the
    verification suite (any value other than 1 must produce a residual of
    order ``W``).
    """
    _require_propagating(spec, "balance integral")
    con = spec.constants
    cell, e2, b2, _ = _guided_plane(spec)
    b2 = (b2[0] + b2[1]) * b_amplitude_scale**2
    integrand = 0.25 * con.eps0 * ((e2[0] + e2[1]) - con.c**2 * b2)
    return spec.geometry.length * float(cell * integrand.sum())


# --------------------------------------------------------------------------
# identities of one spec


def _rel(actual, expected):
    """``|actual - expected| / |expected|`` at every scale; NaN stays NaN.

    Against ``expected == 0`` the gap is 0 for an exact zero and ``inf``
    for anything else.
    """
    gap = abs(actual - expected)
    if expected == 0.0:
        return gap if gap == 0.0 or math.isnan(gap) else math.inf
    return gap / abs(expected)


def _over_root(numerator: float, radicand: float) -> float:
    """``numerator / sqrt(radicand)``; ``inf`` where the root rounds to 0 or below."""
    return math.inf if radicand <= 0.0 else numerator / math.sqrt(radicand)


def evaluate(spec: GuidedModeSpec | SurfaceWaveSpec):
    """``(obs, mass, gaps)``: quadrature totals, mass record and identity gaps.

    ``gaps`` holds named relative gaps, zero to rounding for a correct mode:
    the totals ``W``, ``P_z`` and ``S_perp`` or ``S_y`` against
    ``closed_forms()``, ``dispersion``, ``v``, ``ellipticity``, ``theta`` and
    ``mass_triangle``; guided ``v_g_v_p``, surface ``gamma`` and ``P_gamma``;
    and for an integer ``n = obs.n_quanta_integer`` the per-quantum laws
    ``S_quantized``, ``W_quanta``, ``n_quanta``, ``M_n_m`` and ``W_gamma``.
    The quadrature runs before the mass record and ``closed_forms()``, so an
    error names what the quadrature names; a Lorentz root that rounds to 0
    or below makes its quotient ``inf``.
    """
    c = spec.constants.c
    if isinstance(spec, GuidedModeSpec):
        obs, mass = integrate_guided(spec), guided_mass_report(spec)
        n = obs.n_quanta_integer
        spin_name, spin, theta = "S_perp", obs.S_perp, obs.theta
        v, rest, total = mass.v_g, mass.m0, mass.M0
        spin_law = quantized_transverse_spin_guided
        ellipse = spec.omega_c / (abs(float(spec.k_z.real)) * c)
        gaps = {"v_g_v_p": _rel(mass.v_g * mass.v_p, c**2)}
        if n is not None:
            gaps["W_gamma"] = _rel(mass.epsilon * n, _over_root(
                mass.M0 * c**2, 1.0 - (mass.v_g / c) ** 2))
    else:
        obs, mass = integrate_surface(spec), surface_mass_report(spec)
        n = obs.n_quanta_integer
        spin_name, spin, theta = "S_y", obs.S_y, obs.theta_prime
        v, rest, total = mass.v, mass.m_s, mass.M_s
        spin_law = quantized_transverse_spin_surface
        ellipse = spec.kappa / abs(spec.k_z)
        gamma = _over_root(1.0, 1.0 - (mass.v / c) ** 2)
        gaps = {"gamma": _rel(gamma, mass.gamma),
                "P_gamma": _rel(obs.P_z, mass.M_s * mass.v * gamma)}
        if n is not None:
            gaps["W_gamma"] = _rel(obs.W, mass.M_s * c**2 * gamma)
    W, P_z, S = spec.closed_forms()
    gaps.update({
        "W": _rel(obs.W, W),
        "P_z": _rel(obs.P_z, P_z),
        spin_name: _rel(spin, S),
        "dispersion": dispersion_residual(spec),
        "v": _rel(obs.v, v),
        "ellipticity": _rel(obs.ellipticity, ellipse),
        "theta": _rel(math.tan(theta), ellipse),
        "mass_triangle": _rel(mass.epsilon**2, (mass.p * c) ** 2 + (rest * c**2) ** 2),
    })
    if n is not None:
        gaps.update({
            "S_quantized": _rel(spin, spin_law(n, spec)),
            "W_quanta": _rel(obs.W, n * spec.constants.hbar * spec.omega),
            "n_quanta": _rel(obs.n_quanta, n),
            "M_n_m": _rel(total, n * rest),
        })
    return obs, mass, gaps


def report(spec: GuidedModeSpec | SurfaceWaveSpec, *, combine: bool = False) -> dict:
    """The ``transpin report`` document of one mode, a dict of JSON values.

    Holds the spec's mode data, the :func:`evaluate` totals and mass record,
    the spin over ``hbar`` and the ``residuals``: the gaps ``W``, ``P_z``,
    the spin and ``dispersion``, and for a guided mode the Klein-Gordon
    stencil residual.  Under ``combine`` the spin is the dual-symmetric
    ``(s_e + s_m)/2``, half the quadrature's, and a half that is not a finite
    normal float raises ``ValueError`` naming the spin.
    """
    obs, mass, gaps = evaluate(spec)
    if isinstance(spec, GuidedModeSpec):
        spin = "S_perp"
        doc = {
            "kind": "guided",
            "family": spec.index.family.value,
            "m": spec.index.m,
            "n": spec.index.n,
            "geometry": asdict(spec.geometry),
            "omega_c": spec.omega_c,
            "sin_two_theta": math.sin(2.0 * obs.theta),
        }
        residuals = {"klein_gordon": klein_gordon_stencil_residual(spec)}
    else:
        spin = "S_y"
        doc = {
            "kind": "surface",
            "family": spec.family.value,
            "eta": spec.eta,
            "phi_deg": math.degrees(spec.phi),
            "kappa": spec.kappa,
            "area": spec.area,
            "tan_theta_prime": obs.ellipticity,
        }
        residuals = {}
    totals = asdict(obs)
    if combine:
        # the dual-symmetric (s_e + s_m)/2 halves these single-branch spins
        # and their closed form alike, so the spin's relative gap stands
        totals[spin] *= 0.5
        _check_float_range(**{spin: totals[spin]})
    residuals.update({key: gaps[key] for key in ("W", "P_z", spin, "dispersion")})
    doc.update({
        "omega": spec.omega,
        "k_z": float(spec.k_z.real),
        "amplitude": spec.amplitude,
        "combine_spins": combine,
        "observables": totals,
        "mass": asdict(mass),
        f"{spin}_over_hbar": totals[spin] / spec.constants.hbar,
        "residuals": residuals,
    })
    return doc
