"""Named self-verification checks behind ``transpin verify``.

Each check measures residuals against analytically expected values and
compares the worst to a pinned tolerance.  The checks of one mode's totals,
quantization, velocities, ellipse and mass identities take the worst of a
named subset of :func:`transpin.observables.evaluate` gaps over fixed specs,
the gaps that ``transpin report`` prints its residuals from; the others build
their own inputs.  The catalogue doubles as executable documentation of the
non-obvious reconciliations (see ``docs/derivations.md``): the TE_m0 doubling
of the volume totals, the surface momentum-per-quantum form, and the
circular-basis pole convention each have a dedicated check.

Each check is declared once, as a body under ``@_check(name, tolerance,
detail)``, and the checks run in source order.  The body returns
``measured``; it returns ``(measured, ok)`` when the check has a control
beyond the tolerance, and ``(measured, ok, detail)`` when it builds its
detail at run time.  The one pass rule is ``measured <= tolerance and ok``,
so a NaN ``measured`` fails.

The largest checks are ``guided-totals-vs-closed-forms`` (18 specs),
``algebra-helicity-eigensystem`` (1050 directions), ``guided-ellipticity``,
``guided-quantization``, ``guided-mass-identities`` and
``guided-time-average-oracle``: each guided ``evaluate`` integrates one
quadrature plane.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .constants import NATURAL, SI
from .effective_mass import (dispersion_residual, four_momentum_split,
                             klein_gordon_stencil_residual, minkowski_dot,
                             phase_split_residual, surface_rest_mass_density)
from .modes import (GuidedModeSpec, ModeFamily, ModeIndex, SurfaceWaveSpec,
                    WaveguideGeometry, cutoff_frequency, guided_field_phasor,
                    maxwell_residuals, surface_field_phasor)
from .observables import (_rel, amplitude_for_quanta, balance_integral,
                          ellipticity_surface, evaluate, integrate_guided,
                          integrate_surface)
from .spin import (analytic_spin_guided, analytic_spin_surface,
                   energy_density, instantaneous_energy_sampler,
                   instantaneous_spin_sampler, momentum_density,
                   spin_densities, time_average_oracle)
from .spin_algebra import (LEVI_CIVITA, HelicityEigensystem, SixSpinor,
                           build_spin_matrices, commutator_table,
                           decompose_polarization, generator_closure_rank,
                           helicity_eigensystem, load_reference_commutator_table,
                           to_chiral, to_standard)

__all__ = ["CheckResult", "run_checks", "check_names"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


#: every check by name, in source order, which is the run order
_CHECKS: dict[str, Callable[[], CheckResult]] = {}


def _check(name: str, tolerance: float, detail: str = ""):
    """Register the decorated body as the check ``name`` (see the module docstring)."""
    def register(body):
        def run() -> CheckResult:
            out = body()
            if not isinstance(out, tuple):
                out = (out, True)
            measured, ok, text = (*out, detail)[:3]
            return CheckResult(name, measured <= tolerance and ok, measured, tolerance, text)
        _CHECKS[name] = run
        return body
    return register


_GEOMETRY = WaveguideGeometry(a=0.0229, b=0.0102, length=0.37)
_MODES = [("TM", 1, 1), ("TM", 2, 1), ("TM", 2, 2),
          ("TE", 1, 0), ("TE", 1, 1), ("TE", 2, 1)]
_RATIOS = (1.1, math.sqrt(2.0), 2.0)


def _guided(family, m, n, ratio, amplitude=1.0, direction=+1, constants=SI,
            geometry=_GEOMETRY):
    index = ModeIndex(ModeFamily(family), m, n)
    omega_c = cutoff_frequency(index, geometry, constants)
    return GuidedModeSpec(geometry, index, ratio * omega_c, amplitude,
                          direction, constants)


def _surface(family="TM", eta=1.5, phi_deg=60.0, omega=1.2e15, amplitude=1.0,
             area=1e-6, direction=+1, constants=SI):
    return SurfaceWaveSpec(ModeFamily(family), eta, math.radians(phi_deg),
                           omega, amplitude, area, direction, constants)


def _worst(*values: float) -> float:
    """The largest of ``values``, or the first NaN among them.

    ``max(worst, x)`` keeps ``worst`` when ``x`` is NaN, so a check would
    pass a NaN it measured.  Without NaN this is ``max``, which returns the
    first of equal values.
    """
    for value in values:
        if value != value:
            return value
    return max(values)


def _gaps(specs, *names: str) -> float:
    """The worst of the named :func:`~transpin.observables.evaluate` gaps over ``specs``."""
    every = [evaluate(spec)[2] for spec in specs]
    return _worst(*(gaps[name] for gaps in every for name in names))


def _quantized(spec, n_quanta: int):
    """``spec`` with the amplitude that holds ``n_quanta`` quanta."""
    return replace(spec, amplitude=amplitude_for_quanta(n_quanta, spec))


# --------------------------------------------------------------------------
# field checks


@_check("fields-maxwell-residuals", 1e-8, "FD divergence and Faraday residuals, all families")
def _check_fields_maxwell():
    worst = 0.0
    for family, m, n in _MODES:
        spec = _guided(family, m, n, 1.8)
        res = maxwell_residuals(spec, (0.3 * _GEOMETRY.a, 0.4 * _GEOMETRY.b, 0.05))
        worst = _worst(worst, *res.values())
    for family in ("TM", "TE"):
        spec = _surface(family=family)
        res = maxwell_residuals(spec, (0.5 / spec.kappa, 0.0, 1e-7))
        worst = _worst(worst, *res.values())
    return worst


@_check("fields-boundary-conditions", 1e-15, "tangential E and normal B vanish on all four walls")
def _check_fields_boundary():
    worst = 0.0
    a, b = _GEOMETRY.a, _GEOMETRY.b
    walls = [((0.0, b / 3, 0.1), (1, 2), 0), ((a, b / 3, 0.1), (1, 2), 0),
             ((a / 3, 0.0, 0.1), (0, 2), 1), ((a / 3, b, 0.1), (0, 2), 1)]
    # the reference point first, then each wall's point, in one phasor call
    points = np.array([(a / 2, b / 2, 0.0)] + [point for point, _, _ in walls])
    for family, m, n in _MODES:
        spec = _guided(family, m, n, 1.5)
        field = guided_field_phasor(spec, tuple(points.T))
        ref = float(np.max(np.abs(field.E[0]))) + spec.amplitude
        for E, B, (_, tangential, normal_b) in zip(field.E[1:], field.B[1:], walls):
            for comp in tangential:
                worst = _worst(worst, float(np.abs(E[comp])) / ref)
            worst = _worst(worst, spec.constants.c * float(np.abs(B[normal_b])) / ref)
    return worst


# --------------------------------------------------------------------------
# guided checks


@_check("guided-totals-vs-closed-forms", 1e-9, "quadrature W, P_z, S_perp over 6 modes x 3 ratios")
def _check_guided_totals():
    return _gaps((_guided(family, m, n, ratio) for family, m, n in _MODES
                  for ratio in _RATIOS), "W", "P_z", "S_perp")


@_check("guided-quantization", 1e-9,
        "S_perp = 2 n hbar c k_z omega_c/omega^2; = n hbar at sqrt(2) omega_c")
def _check_guided_quantization():
    worst = _gaps((_quantized(_guided("TM", 1, 1, ratio), n_quanta)
                   for n_quanta in (1, 2, 5) for ratio in _RATIOS),
                  "S_quantized", "W_quanta", "n_quanta")
    # circular point: S_perp = n hbar exactly at omega = sqrt(2) omega_c
    spec = _quantized(_guided("TE", 1, 0, math.sqrt(2.0)), 3)
    worst = _worst(worst, _rel(integrate_guided(spec).S_perp,
                               3 * spec.constants.hbar))
    return worst


@_check("guided-balance", 1e-12)
def _check_guided_balance():
    worst = 0.0
    for family, m, n in _MODES:
        spec = _guided(family, m, n, math.sqrt(2.0))
        W = spec.closed_forms()[0]
        worst = _worst(worst, abs(balance_integral(spec)) / W)
    spec = _guided("TE", 1, 0, 2.0)
    faulted = abs(balance_integral(spec, b_amplitude_scale=1.01))
    control_ok = faulted / spec.closed_forms()[0] > 1e-3
    return worst, control_ok, ("electric = magnetic energy; fault injection detected"
                               if control_ok else "FAULT CONTROL FAILED")


@_check("guided-pipeline-vs-analytic-spin", 1e-12,
        "bilinear pipeline vs closed forms, 16 points/mode")
def _check_guided_pipeline_spin():
    worst = 0.0
    rng = np.random.default_rng(7)
    for family, m, n in _MODES:
        spec = _guided(family, m, n, 1.7)
        xs = rng.uniform(0.0, _GEOMETRY.a, 16)
        ys = rng.uniform(0.0, _GEOMETRY.b, 16)
        field = guided_field_phasor(spec, (xs, ys, 0.123))
        pipeline = spin_densities(field, spec.omega, spec.constants)
        closed = analytic_spin_guided(spec, (xs, ys))
        scale = float(np.max(np.abs(closed.s_e) + np.abs(closed.s_m)))
        worst = _worst(worst,
                       float(np.max(np.abs(pipeline.s_e - closed.s_e))) / scale,
                       float(np.max(np.abs(pipeline.s_m - closed.s_m))) / scale)
    return worst


def _oracle_residual(spec, point, energy: bool = False) -> float:
    """Worst relative gap between 64-sample time averages and the phasor bilinears.

    ``point`` holds coordinate arrays; every point is sampled in one call.
    The spin gap is scaled by the local ``w/omega``; with ``energy`` the
    averaged energy density is compared too.
    """
    con = spec.constants
    field = spec.phasor(point)
    w = energy_density(field, con)
    averaged = time_average_oracle(
        instantaneous_spin_sampler(spec, point), spec.omega, 64)
    formula = spin_densities(field, spec.omega, con).total()
    gaps = np.max(np.abs(averaged - formula), axis=-1) / (w / spec.omega)
    if energy:
        w_avg = time_average_oracle(
            instantaneous_energy_sampler(spec, point), spec.omega, 64)
        gaps = np.maximum(gaps, np.abs(w_avg - w) / np.maximum(np.abs(w), 1e-300))
    return float(np.max(gaps))


@_check("guided-time-average-oracle", 1e-10, "64-sample brute-force averages vs phasor bilinears")
def _check_guided_oracle():
    worst = 0.0
    rng = np.random.default_rng(11)
    for family, m, n in [("TM", 1, 1), ("TE", 1, 0), ("TE", 2, 1)]:
        spec = _guided(family, m, n, math.sqrt(2.0))
        # filled row by row: each point's x, y, z are consecutive draws
        points = rng.uniform(0.0, (_GEOMETRY.a, _GEOMETRY.b, _GEOMETRY.length), (8, 3))
        worst = _worst(worst, _oracle_residual(spec, tuple(points.T), energy=True))
    return worst


@_check("guided-structural-zeros", 1e-15, "s_z, idle branch, and evanescent spins vanish")
def _check_guided_structural_zeros():
    worst = 0.0
    rng = np.random.default_rng(13)
    for family, m, n in _MODES:
        spec = _guided(family, m, n, 1.9)
        xs = rng.uniform(0.0, _GEOMETRY.a, 12)
        ys = rng.uniform(0.0, _GEOMETRY.b, 12)
        field = guided_field_phasor(spec, (xs, ys, 0.0))
        pair = spin_densities(field, spec.omega, spec.constants)
        scale = float(np.max(energy_density(field, spec.constants))) / spec.omega
        dead = pair.s_m if family == "TM" else pair.s_e
        worst = _worst(worst, float(np.max(np.abs(pair.total()[..., 2]))) / scale,
                       float(np.max(np.abs(dead))) / scale)
    # evanescent: both densities vanish identically
    spec = _guided("TM", 1, 1, 0.8)
    xs = rng.uniform(0.0, _GEOMETRY.a, 12)
    ys = rng.uniform(0.0, _GEOMETRY.b, 12)
    field = guided_field_phasor(spec, (xs, ys, 0.0))
    pair = spin_densities(field, spec.omega, spec.constants)
    scale = float(np.max(energy_density(field, spec.constants))) / spec.omega
    worst = _worst(worst, float(np.max(np.abs(pair.s_e) + np.abs(pair.s_m))) / scale)
    return worst


@_check("spin-momentum-locking", 1e-15, "k_z -> -k_z negates every transverse spin sample")
def _check_spin_momentum_locking():
    worst = 0.0
    rng = np.random.default_rng(17)
    for family, m, n in _MODES:
        fwd = _guided(family, m, n, 1.6, direction=+1)
        bwd = replace(fwd, direction=-1)
        xs = rng.uniform(0.0, _GEOMETRY.a, 12)
        ys = rng.uniform(0.0, _GEOMETRY.b, 12)
        s_f = analytic_spin_guided(fwd, (xs, ys)).total()
        s_b = analytic_spin_guided(bwd, (xs, ys)).total()
        scale = max(float(np.max(np.abs(s_f))), 1e-300)
        worst = _worst(worst, float(np.max(np.abs(s_f + s_b))) / scale)
    s_f = analytic_spin_surface(_surface(direction=+1), 0.0).total()
    s_b = analytic_spin_surface(_surface(direction=-1), 0.0).total()
    worst = _worst(worst, float(np.max(np.abs(s_f + s_b))) / float(np.max(np.abs(s_f))))
    return worst


@_check("guided-velocity-duality", 1e-12,
        "energy velocity = group velocity c^2 k_z/omega; v_g v_p = c^2")
def _check_guided_velocity_duality():
    return _gaps((_guided("TE", 1, 0, ratio) for ratio in _RATIOS), "v", "v_g_v_p")


@_check("guided-spin-extinction", 1e-9,
        "per-quantum |S_perp| peaks at n hbar for omega = sqrt(2) omega_c")
def _check_guided_spin_extinction():
    # per-quantum spin sin(2 theta) peaks at omega = sqrt(2) omega_c and
    # falls off monotonically on both sides
    ratios = [1.01, 1.1, 1.2, math.sqrt(2.0), 2.0, 3.0, 6.0]
    values = []
    for ratio in ratios:
        spec = _quantized(_guided("TM", 1, 1, ratio), 1)
        values.append(abs(integrate_guided(spec).S_perp) / spec.constants.hbar)
    peak = values[ratios.index(math.sqrt(2.0))]
    rising = all(values[i] < values[i + 1] for i in range(ratios.index(math.sqrt(2.0))))
    falling = all(values[i] > values[i + 1]
                  for i in range(ratios.index(math.sqrt(2.0)), len(values) - 1))
    return _rel(peak, 1.0), rising and falling


@_check("guided-mass-identities", 1e-12,
        "energy-momentum-mass triangle, M0 = n m0, W = gamma M0 c^2")
def _check_guided_mass_identities():
    return _gaps((_quantized(_guided("TE", 1, 1, ratio), n_quanta)
                  for ratio in (1.1, 2.0, 10.0) for n_quanta in (1, 2, 5)),
                 "mass_triangle", "v_g_v_p", "M_n_m", "W_gamma")


@_check("guided-klein-gordon", 1e-6,
        "5-point stencil + branch residual; 1% off-branch control separated")
def _check_guided_kg_stencil():
    worst_on = 0.0
    for family, m, n in [("TM", 1, 1), ("TE", 1, 0)]:
        spec = _guided(family, m, n, math.sqrt(2.0))
        worst_on = _worst(worst_on, klein_gordon_stencil_residual(spec),
                          dispersion_residual(spec))
    spec = _guided("TM", 1, 1, math.sqrt(2.0))
    k_z = float(spec.k_z.real)
    off = dispersion_residual(spec, k_z=1.01 * k_z)
    expected_off = 2.01e-2 * (spec.constants.c * k_z / spec.omega) ** 2
    separated = off > 1e3 * max(worst_on, 1e-300) and _rel(off, expected_off) < 1e-2
    return worst_on, separated


@_check("guided-four-momentum-split", 1e-12,
        "Minkowski orthogonality, |p_T|, phase regrouping at 100 events")
def _check_four_momentum_split():
    rng = np.random.default_rng(23)
    worst = 0.0
    for ratio in (1.3, 2.5):
        spec = _guided("TM", 2, 1, ratio)
        split = four_momentum_split(spec)
        con = spec.constants
        worst = _worst(worst, abs(minkowski_dot(split.p_T, split.p_L)) /
                       (np.linalg.norm(split.p_T) * np.linalg.norm(split.p_L)))
        worst = _worst(worst, _rel(math.sqrt(minkowski_dot(split.p_T, split.p_T)),
                                   con.hbar * spec.omega_c / con.c))
        events = rng.uniform(-1.0, 1.0, size=(100, 4))
        worst = _worst(worst, phase_split_residual(split, events))
    return worst


@_check("guided-te-m0-doubling", 1e-9)
def _check_te_m0_doubling():
    """Resolving check: TE_m0 volume totals double the generic closed forms.

    The generic m, n >= 1 forms contain two transverse averages of 1/2; for
    n = 0 the cos(n pi y / b) factors are 1 and one average disappears.  The
    honest quadrature therefore returns exactly twice the generic form for
    TE10, and the package's closed forms carry that factor.
    """
    spec = _guided("TE", 1, 0, math.sqrt(2.0))
    obs = integrate_guided(spec)
    con = spec.constants
    V = spec.geometry.volume
    generic_W = con.eps0 * spec.omega**2 * V * spec.amplitude**2 / (8 * spec.omega_c**2)
    ratio = obs.W / generic_W
    return (_rel(ratio, 2.0), True,
            f"quadrature W(TE10) / generic closed form = {ratio:.12f} (expected 2)")


@_check("guided-ellipticity", 1e-10,
        "quadrature h_long/h_perp = omega_c/(|k_z| c) for TM (E) and TE (B)")
def _check_guided_ellipticity():
    return _gaps((_guided(family, m, n, ratio)
                  for family, m, n in [("TM", 1, 1), ("TM", 2, 2), ("TE", 1, 0), ("TE", 2, 1)]
                  for ratio in (1.05, math.sqrt(2.0), 3.0)), "ellipticity", "theta")


# --------------------------------------------------------------------------
# surface checks


@_check("surface-totals-vs-closed-forms", 1e-9, "one-node half-space quadrature, both families")
def _check_surface_totals():
    return _gaps((_surface(family, eta, phi_deg) for family in ("TM", "TE")
                  for eta in (1.45, 2.0) for phi_deg in (50.0, 70.0)), "W", "P_z", "S_y")


@_check("surface-quantization", 1e-9, "S_y = 2 n hbar tan(theta'); n_quanta = W/(hbar omega)")
def _check_surface_quantization():
    return _gaps((_quantized(_surface(family, 1.45, 65.0), n_quanta)
                  for family in ("TM", "TE") for n_quanta in (1, 3)),
                 "S_quantized", "W_quanta", "n_quanta")


@_check("surface-momentum-form", 1e-9)
def _check_surface_momentum_form():
    """Resolving check: which per-quantum momentum the quadrature supports.

    For one quantum the integrated momentum equals ``(v/c^2) hbar omega``
    with ``v = omega/k_z`` -- not ``hbar k_z``.  The two differ by exactly
    ``(omega/(c k_z))^2`` (they coincide in the guided case, where
    ``v_g v_p = c^2`` makes ``(v_g/c^2) hbar omega = hbar k_z``).
    """
    spec = _quantized(_surface("TM", 1.5, 60.0), 1)
    obs = integrate_surface(spec)
    con = spec.constants
    v = spec.omega / spec.k_z
    supported = _rel(obs.P_z, (v / con.c**2) * con.hbar * spec.omega)
    factor = obs.P_z / (con.hbar * spec.k_z)
    expected_factor = (spec.omega / (con.c * spec.k_z)) ** 2
    return (supported, _rel(factor, expected_factor) <= 1e-9,
            f"P_z = (v/c^2) hbar omega; P_z/(hbar k_z) = (omega/c k_z)^2 = {expected_factor:.6f}")


@_check("surface-mass-identities", 1e-12,
        "m_s triangle, M_s = n m_s, gamma = k_z/kappa, pointwise density triangle")
def _check_surface_mass_identities():
    specs = [_quantized(_surface(family, 1.6, 55.0), 2) for family in ("TM", "TE")]
    worst = _gaps(specs, "mass_triangle", "M_n_m", "W_gamma", "P_gamma", "gamma", "v")
    for spec in specs:
        con = spec.constants
        # pointwise: w^2 - p_z^2 c^2 = rho0^2 c^4 along the decay axis
        xs = np.linspace(0.0, 5.0 / spec.kappa, 24)
        field = surface_field_phasor(spec, (xs, 0.0, 0.0))
        w = energy_density(field, con)
        p_z = momentum_density(field, con)[..., 2]
        lhs = w**2 - (p_z * con.c) ** 2
        rhs = (surface_rest_mass_density(spec, xs) * con.c**2) ** 2
        worst = _worst(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    return worst


@_check("surface-pipeline-and-oracle", 1e-10, "pipeline vs closed form vs 64-sample brute force")
def _check_surface_pipeline_and_oracle():
    worst = 0.0
    rng = np.random.default_rng(29)
    for family in ("TM", "TE"):
        spec = _surface(family, 1.7, 58.0)
        xs = rng.uniform(0.0, 4.0 / spec.kappa, 8)
        field = surface_field_phasor(spec, (xs, 0.0, 0.0))
        pipeline = spin_densities(field, spec.omega, spec.constants)
        closed = analytic_spin_surface(spec, xs)
        scale = float(np.max(np.abs(closed.total())))
        worst = _worst(worst,
                       float(np.max(np.abs(pipeline.s_e - closed.s_e))) / scale,
                       float(np.max(np.abs(pipeline.s_m - closed.s_m))) / scale)
        worst = _worst(worst, _oracle_residual(spec, (xs[:4], 0.0, 0.0)))
    return worst


@_check("surface-subluminal", 1.0, "W^2 > (P_z c)^2 and |v| < c for all surface waves")
def _check_surface_subluminal():
    worst_v = 0.0
    ok = True
    for family in ("TM", "TE"):
        for eta, phi_deg in ((1.45, 50.0), (2.0, 70.0)):
            spec = _surface(family, eta, phi_deg)
            obs = integrate_surface(spec)
            con = spec.constants
            ok = ok and (obs.W**2 - (obs.P_z * con.c) ** 2 > 0.0)
            ok = ok and abs(obs.v) < con.c
            worst_v = _worst(worst_v, abs(obs.v) / con.c)
    return worst_v, ok


@_check("surface-ellipticity", 1e-12, "|E_z/E_x| (TM) and |B_z/B_x| (TE) = kappa/|k_z| < 1")
def _check_surface_ellipticity():
    specs = [_surface(family, 1.8, 62.0) for family in ("TM", "TE")]
    worst = _gaps(specs, "ellipticity", "theta")
    for spec in specs:
        e, theta_prime = ellipticity_surface(spec)
        expected = spec.kappa / abs(spec.k_z)
        worst = _worst(worst, _rel(e, expected), _rel(math.tan(theta_prime), expected))
    return worst


# --------------------------------------------------------------------------
# algebra checks


@_check("algebra-structure", 1e-13,
        "tau entries, commutators, Casimirs, U involution, S antisymmetry")
def _check_algebra_structure():
    sms = build_spin_matrices()
    worst = 0.0
    # entries: (tau_k)_{lm} = -i eps_{klm}
    worst = _worst(worst, float(np.max(np.abs(sms.tau - (-1j) * LEVI_CIVITA))))
    # commutators and Casimir
    for i in range(3):
        for j in range(3):
            expected = 1j * np.einsum("k,kab->ab", LEVI_CIVITA[i, j], sms.tau)
            bracket = sms.tau[i] @ sms.tau[j] - sms.tau[j] @ sms.tau[i]
            worst = _worst(worst, float(np.max(np.abs(bracket - expected))))
    worst = _worst(worst, float(np.max(np.abs(
        np.einsum("kab,kbc->ac", sms.tau, sms.tau) - 2.0 * np.eye(3)))))
    worst = _worst(worst, float(np.max(np.abs(
        np.einsum("kab,kbc->ac", sms.Sigma, sms.Sigma) - 2.0 * np.eye(6)))))
    # U is a real involutive unitary
    worst = _worst(worst, float(np.max(np.abs(sms.U @ sms.U - np.eye(6)))))
    worst = _worst(worst, float(np.max(np.abs(sms.U - sms.U.T))))
    # S antisymmetry
    worst = _worst(worst, float(np.max(np.abs(sms.S + np.swapaxes(sms.S, 0, 1)))))
    return worst


@_check("algebra-closure", 1e-12, "structure constants reproduce the frozen fixture; rank 6")
def _check_algebra_closure():
    table = commutator_table()
    reference = load_reference_commutator_table()
    residual = float(table.pop("residual"))
    reference = {k: v for k, v in reference.items() if k != "residual"}
    return residual, table == reference and generator_closure_rank() == 6


@_check("algebra-helicity-eigensystem", 1e-13,
        "1050 directions incl. 50 near-pole; pole vectors match printed forms")
def _check_helicity_eigensystem():
    rng = np.random.default_rng(31)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    near = []
    for sign in (1.0, -1.0):
        t = rng.uniform(0.0, 1e-9, 25)
        ph = rng.uniform(0.0, 2 * math.pi, 25)
        near.append(np.stack([t * np.cos(ph), t * np.sin(ph),
                              sign * np.sqrt(1.0 - t * t)], axis=1))
    dirs = np.vstack([dirs] + near)
    basis = helicity_eigensystem(dirs)
    # vectors[i, l] is the eigenvector of helicity lams[l] about dirs[i]
    vectors = np.stack([basis.e_plus, basis.e_zero, basis.e_minus], axis=1)
    lams = np.array([+1.0, 0.0, -1.0])
    # tau.n per direction first: the three-operand form takes twice as long
    n_dot_tau = np.einsum("ik,kab->iab", dirs, build_spin_matrices().tau)
    applied = np.einsum("iab,ilb->ila", n_dot_tau, vectors)
    worst = _worst(float(np.max(np.abs(applied - lams[:, None] * vectors))),
                   float(np.max(np.abs(np.linalg.norm(vectors, axis=-1) - 1.0))))
    # printed special cases, up to a global phase
    printed = np.array([[1.0, 1j, 0.0], [0.0, 1j, -1.0], [1.0, 0.0, -1j]]) / math.sqrt(2.0)
    e_plus = helicity_eigensystem(np.eye(3)[[2, 0, 1]]).e_plus  # +z, +x, +y
    overlaps = np.abs(np.sum(np.conj(printed) * e_plus, axis=-1))
    worst_phase = float(np.max(np.abs(overlaps - 1.0)))
    return worst, worst_phase <= 1e-13


@_check("algebra-spin-bridge", 1e-12, "circular imbalance along y tracks s_e_y; x/z balanced")
def _check_spin_decomposition_bridge():
    """Matrix picture vs density picture of the surface transverse spin.

    Decomposing the TM surface electric phasor about +y must give the
    circular imbalance the same sign as s_e_y (and flip with direction),
    while the decompositions about +z and +x stay balanced: the +/- pi/2
    phase lives between E_x and E_z, so the spin points along y only.
    """
    worst = 0.0
    ok = True
    tau_y = build_spin_matrices().tau[1]
    # the +y, +z and +x bases from one batched call; each row has its own call's bits
    axes = helicity_eigensystem(np.eye(3)[[1, 2, 0]])
    y_basis, *balanced = [HelicityEigensystem(**{k: v[row] for k, v in vars(axes).items()})
                          for row in range(3)]
    for direction in (+1, -1):
        spec = _surface("TM", 1.5, 60.0, direction=direction)
        field = surface_field_phasor(spec, (0.2 / spec.kappa, 0.0, 0.0))
        E = np.asarray(field.E)
        s_y = float(analytic_spin_surface(spec, 0.2 / spec.kappa).s_e[..., 1])
        along_y = decompose_polarization(E, y_basis)
        ok = ok and (along_y.circular_imbalance() * s_y > 0.0)
        for basis in balanced:
            coeffs = decompose_polarization(E, basis)
            imbalance = abs(coeffs.circular_imbalance())
            scale = float(np.sum(np.abs(E) ** 2))
            worst = _worst(worst, imbalance / scale)
        # expectation value of tau.y reproduces the imbalance
        expect = float(np.real(np.conj(E) @ (tau_y @ E)))
        worst = _worst(worst, _rel(expect, along_y.circular_imbalance()))
    return worst, ok


@_check("algebra-six-spinor-round-trip", 1e-13, "U maps standard <-> chiral; norms preserved")
def _check_six_spinor_round_trip():
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(10):
        E = rng.normal(size=3) + 1j * rng.normal(size=3)
        B = rng.normal(size=3) + 1j * rng.normal(size=3)
        std = SixSpinor.standard_from_fields(E, B)
        chi = SixSpinor.chiral_from_fields(E, B)
        worst = _worst(worst, float(np.max(np.abs(to_chiral(std).values - chi.values))))
        worst = _worst(worst, float(np.max(np.abs(to_standard(chi).values - std.values))))
        worst = _worst(worst, _rel(float(np.linalg.norm(chi.values)),
                                   float(np.linalg.norm(std.values))))
    return worst


@_check("natural-units", 1e-9, "c = eps0 = hbar = 1 reproduces the per-quantum laws directly")
def _check_natural_units():
    worst = 0.0
    geometry = WaveguideGeometry(1.0, 0.5, 2.0)
    spec = _quantized(_guided("TM", 1, 1, math.sqrt(2.0), constants=NATURAL,
                              geometry=geometry), 1)
    obs = integrate_guided(spec)
    worst = _worst(worst, _rel(obs.W, spec.omega), _rel(obs.S_perp, 1.0))
    con = NATURAL
    worst = _worst(worst, abs(con.c**2 * con.eps0 * con.mu0 - 1.0))
    return worst


def check_names() -> list[str]:
    """Names of all registered checks, in execution order."""
    return list(_CHECKS)


def run_checks(name_filter: str | None = None,
               inject_fault: bool = False) -> list[CheckResult]:
    """Run the catalogue, optionally filtered by substring.

    A check that raises fails, with NaN ``measured`` and ``tolerance``.
    ``inject_fault=True`` appends a deliberately failing check (negative
    control proving the runner reports failures and exits non-zero).
    """
    results = []
    for name, fn in _CHECKS.items():
        if name_filter is not None and name_filter not in name:
            continue
        try:
            results.append(fn())
        except Exception as exc:  # a check that cannot finish has not passed
            results.append(CheckResult(name, False, math.nan, math.nan,
                                       f"raised {type(exc).__name__}: {exc}"))
    if inject_fault:
        results.append(CheckResult(
            "injected-fault", False, 1.0, 0.0,
            "deliberate failure requested via --inject-fault"))
    return results
