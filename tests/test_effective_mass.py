"""Effective-mass observables: guided and surface pictures, stencil checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from numpy.testing import assert_allclose

from transpin import (GuidedModeSpec, ModeFamily, ModeIndex,
                      UnsupportedModeError, WaveguideGeometry,
                      amplitude_for_quanta, cutoff_frequency,
                      dispersion_residual, effective_mass, energy_density,
                      four_momentum_split, guided_field_phasor,
                      guided_mass_report, integrate_guided,
                      klein_gordon_stencil_residual, minkowski_dot,
                      momentum_density, phase_split_residual,
                      surface_field_phasor, surface_mass_report,
                      surface_rest_mass_density)
from transpin.constants import SI
from transpin.effective_mass import _second_derivative_5pt

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# guided mass picture


def test_rest_mass_is_cutoff_energy(make_guided):
    spec = make_guided("TE", 1, 0, ratio=2.0)
    report = guided_mass_report(spec)
    assert_allclose(report.m0, SI.hbar * spec.omega_c / SI.c**2, rtol=1e-15)
    assert report.relativistic_applicable


def test_energy_momentum_mass_triangle(make_guided):
    for ratio in (1.01, SQRT2, 8.0):
        report = guided_mass_report(make_guided("TM", 1, 1, ratio=ratio))
        lhs = report.epsilon**2
        rhs = (report.p * SI.c) ** 2 + (report.m0 * SI.c**2) ** 2
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_group_phase_velocity_duality(make_guided):
    for ratio in (1.1, 2.0, 20.0):
        report = guided_mass_report(make_guided("TE", 2, 1, ratio=ratio))
        assert_allclose(report.v_g * report.v_p, SI.c**2, rtol=1e-12)
        assert report.v_g < SI.c < report.v_p


def test_total_mass_counts_quanta(make_guided):
    for n in (1, 3):
        spec = make_guided("TE", 1, 1, ratio=1.6)
        spec = replace(spec, amplitude=amplitude_for_quanta(n, spec))
        report = guided_mass_report(spec)
        assert_allclose(report.M0, n * report.m0, rtol=1e-12)
        W = integrate_guided(spec).W
        gamma = 1.0 / math.sqrt(1.0 - (report.v_g / SI.c) ** 2)
        assert_allclose(W, report.M0 * SI.c**2 * gamma, rtol=1e-9)


def test_evanescent_mode_has_no_kinematic_report(make_guided):
    report = guided_mass_report(make_guided("TM", 1, 1, ratio=0.5))
    assert not report.relativistic_applicable
    assert report.m0 > 0.0  # the rest mass is a cutoff property
    assert report.v_g is None and report.v_p is None and report.M0 is None


# ---------------------------------------------------------------------------
# dispersion / wave-equation diagnostics


def test_dispersion_residual_on_and_off_branch(make_guided):
    spec = make_guided("TM", 2, 1, ratio=1.9)
    assert dispersion_residual(spec) <= 1e-14
    k_z = float(np.real(spec.k_z))
    off = dispersion_residual(spec, k_z=1.01 * k_z)
    assert_allclose(off, 2.01e-2 * (SI.c * k_z / spec.omega) ** 2, rtol=1e-2)


def test_dispersion_residual_for_surface_wave(make_surface):
    spec = make_surface("TE")
    assert dispersion_residual(spec) <= 1e-14
    assert dispersion_residual(spec, k_z=0.99 * spec.k_z) > 1e-3


def test_dispersion_residual_divides_by_its_largest_term(make_guided, make_surface):
    # a propagating guided mode: omega^2 is the largest term, so the
    # residual is the plain |omega^2 - c^2 k_z^2 - omega_c^2| / omega^2
    spec = make_guided("TE", 2, 1, ratio=1.3)
    k_z = float(np.real(spec.k_z))
    plain = abs(spec.omega**2 - SI.c**2 * k_z**2 - spec.omega_c**2) / spec.omega**2
    assert dispersion_residual(spec) == plain
    # a surface wave with eta = 1e20: c^2 k_z^2 ~ eta^2 omega^2 is the scale
    spec = make_surface("TM", eta=1e20)
    assert dispersion_residual(spec) <= 1e-9
    # 1% off-branch: |1 - 1.01^2| c^2 k_z^2 over the now largest 1.01^2 c^2 k_z^2
    off = dispersion_residual(spec, k_z=1.01 * spec.k_z)
    assert_allclose(off, 0.0201 / 1.0201, rtol=1e-9)


def test_five_point_stencil_on_reference_function():
    # d^2/dx^2 sin(3x) = -9 sin(3x); the 5-point formula is 4th order
    h = 1e-3
    x0 = 0.731
    values = [math.sin(3.0 * (x0 + k * h)) for k in (-2, -1, 0, 1, 2)]
    got = _second_derivative_5pt(values, h)
    assert_allclose(got, -9.0 * math.sin(3.0 * x0), rtol=1e-10)


def test_longitudinal_components_obey_massive_wave_equation(make_guided):
    for family, m, n in [("TM", 1, 1), ("TM", 2, 2), ("TE", 1, 0)]:
        spec = make_guided(family, m, n, ratio=SQRT2)
        assert klein_gordon_stencil_residual(spec) <= 1e-6


@pytest.mark.parametrize("field, value", [("length", 1e20), ("omega", 1e20)])
def test_stencil_residual_holds_at_any_scale(make_guided, field, value):
    # the stencil is centred a tenth of a guided wavelength along z, so
    # neither a huge cell nor a huge frequency leaves its steps unresolved
    spec = make_guided("TM", 1, 1)
    if field == "length":
        spec = replace(spec, geometry=replace(spec.geometry, length=value))
    else:
        spec = replace(spec, omega=value)
    assert klein_gordon_stencil_residual(spec) <= 1e-9


def _ten_scalar_stencil_samples(spec):
    """The stencil's longitudinal samples, one scalar phasor call each.

    Five ``t`` steps at ``z0``, then five ``z`` steps at ``t = 0``, at the
    points :func:`klein_gordon_stencil_residual` documents.
    """
    geom, idx = spec.geometry, spec.index
    tm = idx.family is ModeFamily.TM
    x0, y0 = (geom.a / (2.0 * idx.m), geom.b / (2.0 * idx.n)) if tm else (0.0, 0.0)
    wavelength = 2.0 * math.pi / abs(float(spec.k_z.real))
    z0, dz = 0.1 * wavelength, 1e-3 * wavelength
    dt = 1e-3 * (2.0 * math.pi / spec.omega)
    steps = (-2, -1, 0, 1, 2)
    points = [(z0, j * dt) for j in steps] + [(z0 + j * dz, 0.0) for j in steps]
    fields = [guided_field_phasor(spec, (x0, y0, z), t) for z, t in points]
    return np.array([complex((f.E if tm else f.B)[..., 2]) for f in fields])


def _seeded_guided_specs(rng, count):
    """Both families and directions, ``max(m, n) <= 60``, a, b and L over three decades."""
    for _ in range(count):
        family = ModeFamily(rng.choice(["TE", "TM"]))
        low = 1 if family is ModeFamily.TM else 0
        m, n = int(rng.integers(1, 61)), int(rng.integers(low, 61))
        a = 10.0 ** rng.uniform(-3.0, 0.0)
        geometry = WaveguideGeometry(a=a, b=a * 10.0 ** rng.uniform(-3.0, 0.0),
                                     length=10.0 ** rng.uniform(-3.0, 0.0))
        index = ModeIndex(family, m, n)
        omega = rng.uniform(1.01, 4.0) * cutoff_frequency(index, geometry, SI)
        yield GuidedModeSpec(geometry, index, omega, 10.0 ** rng.uniform(-3.0, 3.0),
                             int(rng.choice([1, -1])), SI)


def test_stencil_equals_ten_scalar_phasor_calls(monkeypatch):
    phasor, fields = effective_mass.guided_field_phasor, []

    def spy(spec, point, t=0.0):
        fields.append(phasor(spec, point, t))
        return fields[-1]

    monkeypatch.setattr(effective_mass, "guided_field_phasor", spy)
    for spec in _seeded_guided_specs(np.random.default_rng(23), 2000):
        fields.clear()
        klein_gordon_stencil_residual(spec)
        (field,) = fields
        vec = field.E if spec.index.family is ModeFamily.TM else field.B
        assert vec[..., 2].tobytes() == _ten_scalar_stencil_samples(spec).tobytes()


def test_wave_equation_stencil_requires_propagation(make_guided):
    with pytest.raises(UnsupportedModeError):
        klein_gordon_stencil_residual(make_guided("TM", 1, 1, ratio=0.9))


# ---------------------------------------------------------------------------
# four-momentum split


def test_four_momentum_split_structure(make_guided):
    spec = make_guided("TM", 2, 1, ratio=1.4)
    split = four_momentum_split(spec)
    # longitudinal part: photon-like pair (energy, axial momentum)
    assert_allclose(split.p_L[0], SI.hbar * spec.omega / SI.c, rtol=1e-15)
    assert_allclose(split.p_L[3], SI.hbar * float(np.real(spec.k_z)), rtol=1e-15)
    assert split.p_L[1] == 0.0 and split.p_L[2] == 0.0
    # transverse part: spacelike, no energy component
    assert split.p_T[0] == 0.0 and split.p_T[3] == 0.0
    assert_allclose(split.p_total, split.p_T + split.p_L, rtol=1e-15)
    # Minkowski-orthogonal split, transverse norm = rest energy / c
    assert abs(minkowski_dot(split.p_T, split.p_L)) <= 1e-12 * (
        np.linalg.norm(split.p_T) * np.linalg.norm(split.p_L))
    assert_allclose(math.sqrt(minkowski_dot(split.p_T, split.p_T)),
                    SI.hbar * spec.omega_c / SI.c, rtol=1e-12)
    # the longitudinal invariant mass is the effective rest mass
    assert_allclose(math.sqrt(-minkowski_dot(split.p_L, split.p_L)),
                    guided_mass_report(spec).m0 * SI.c, rtol=1e-12)


def test_phase_regroups_into_transverse_and_longitudinal_parts(make_guided):
    spec = make_guided("TE", 2, 1, ratio=2.2)
    split = four_momentum_split(spec)
    events = np.random.default_rng(5).uniform(-3.0, 3.0, size=(200, 4))
    assert phase_split_residual(split, events) <= 1e-12


def _per_event_split_residual(split, events):
    """The residual as one minkowski_dot per term and event."""
    worst = 0.0
    for event in np.atleast_2d(np.asarray(events, dtype=float)):
        x_T = np.array([0.0, event[1], event[2], 0.0])
        x_L = np.array([event[0], 0.0, 0.0, event[3]])
        lhs = minkowski_dot(split.p_total, event)
        rhs = minkowski_dot(split.p_T, x_T) + minkowski_dot(split.p_L, x_L)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return worst


def test_phase_split_residual_equals_the_per_event_loop(make_guided):
    rng = np.random.default_rng(23)
    for family, m, n, ratio in [("TM", 2, 1, 1.3), ("TM", 2, 1, 2.5), ("TE", 1, 0, 1.7)]:
        split = four_momentum_split(make_guided(family, m, n, ratio=ratio))
        for events in (rng.uniform(-1.0, 1.0, (100, 4)),
                       rng.uniform(-1e3, 1e3, (2000, 4)), [0.5, -0.25, 0.75, 1.0]):
            got = phase_split_residual(split, events)
            assert type(got) is float
            assert got == _per_event_split_residual(split, events)
        assert phase_split_residual(split, np.empty((0, 4))) == 0.0


# ---------------------------------------------------------------------------
# surface mass picture


def test_surface_masses_and_boost_factor(make_surface):
    for family in ("TM", "TE"):
        spec = make_surface(family, eta=1.6, phi_deg=55.0)
        spec = replace(spec, amplitude=amplitude_for_quanta(3, spec))
        report = surface_mass_report(spec)
        assert_allclose(report.m_s,
                        SI.hbar * spec.kappa * spec.omega / (SI.c**2 * spec.k_z),
                        rtol=1e-15)
        assert_allclose(report.M_s, 3.0 * report.m_s, rtol=1e-12)
        lhs = report.epsilon**2
        rhs = (report.p * SI.c) ** 2 + (report.m_s * SI.c**2) ** 2
        assert_allclose(lhs, rhs, rtol=1e-12)
        gamma = 1.0 / math.sqrt(1.0 - (report.v / SI.c) ** 2)
        assert_allclose(gamma, spec.k_z / spec.kappa, rtol=1e-12)
        assert report.gamma == spec.k_z / spec.kappa


def test_surface_rest_density_closes_pointwise_triangle(make_surface):
    spec = make_surface("TM", amplitude=1.7)
    xs = np.linspace(0.0, 4.0 / spec.kappa, 17)
    field = surface_field_phasor(spec, (xs, 0.0, 0.0))
    w = energy_density(field, SI)
    p_z = momentum_density(field, SI)[..., 2]
    assert_allclose(w**2 - (p_z * SI.c) ** 2,
                    (surface_rest_mass_density(spec, xs) * SI.c**2) ** 2, rtol=1e-12)


def test_surface_rest_density_integrates_to_total_mass(make_surface):
    # independent adaptive quadrature of rho0 over the decay axis
    spec = make_surface("TE", amplitude=0.9)
    integral, abserr = scipy.integrate.quad(
        lambda x: float(surface_rest_mass_density(spec, x)), 0.0, 60.0 / spec.kappa,
        epsabs=0.0, epsrel=1e-12)
    assert abserr <= 1e-10 * integral
    assert_allclose(integral * spec.area, surface_mass_report(spec).M_s, rtol=1e-9)


def test_surface_mass_positive_for_backward_wave(make_surface):
    report = surface_mass_report(make_surface("TM", direction=-1))
    assert report.m_s > 0.0 and report.M_s > 0.0
    assert report.v < 0.0
