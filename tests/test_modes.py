"""Field construction: cutoffs, dispersion, phasors, boundary conditions.

The finite-difference Maxwell check here is written independently of the
package's own residual helper (different stencil arrangement and step) so the
two implementations cross-validate each other.
"""

import cmath
import inspect
import math
import struct
import sys
from dataclasses import asdict, fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from transpin import (DomainError, GuidedModeSpec, InvalidModeError,
                      ModeFamily, ModeIndex, SurfaceWaveSpec,
                      WaveguideGeometry, axial_wavenumber, cutoff_frequency,
                      guided_field_phasor, maxwell_residuals,
                      surface_field_phasor)
from transpin.constants import NATURAL, SI
from transpin.modes import _fd_vector_derivatives, _guided_factors, _ratio, _stack3


# ---------------------------------------------------------------------------
# cutoff / dispersion


def test_cutoff_matches_extended_precision_reference(bench_geometry):
    # recompute omega_c = c*pi*sqrt((m/a)^2 + (n/b)^2) at 50 digits
    mpmath.mp.dps = 50
    for family, m, n in [("TM", 1, 1), ("TM", 3, 2), ("TE", 1, 0), ("TE", 5, 4)]:
        index = ModeIndex(ModeFamily(family), m, n)
        got = cutoff_frequency(index, bench_geometry, SI)
        expected = mpmath.mpf(SI.c) * mpmath.pi * mpmath.sqrt(
            (mpmath.mpf(m) / mpmath.mpf("0.0229")) ** 2
            + (mpmath.mpf(n) / mpmath.mpf("0.0102")) ** 2)
        assert abs(got - float(expected)) <= 1e-13 * float(expected)


def test_cutoff_ordering_te10_is_lowest(bench_geometry):
    te10 = cutoff_frequency(ModeIndex(ModeFamily.TE, 1, 0), bench_geometry, SI)
    others = [cutoff_frequency(ModeIndex(ModeFamily(f), m, n), bench_geometry, SI)
              for f, m, n in [("TE", 2, 0), ("TE", 1, 1), ("TM", 1, 1)]]
    assert all(te10 < other for other in others)


def test_axial_wavenumber_branches():
    omega_c = 1.0e10
    k = axial_wavenumber(2.0e10, omega_c, SI)
    assert isinstance(k, float) and k > 0.0
    assert_allclose(k, math.sqrt(4.0e20 - 1.0e20) / SI.c, rtol=1e-15)
    k_ev = axial_wavenumber(0.5e10, omega_c, SI)
    assert k_ev.real == 0.0 and k_ev.imag > 0.0
    assert axial_wavenumber(omega_c, omega_c, SI) == 0.0


@settings(max_examples=60, deadline=None)
@given(ratio=st.floats(min_value=1.0001, max_value=50.0),
       omega_c=st.floats(min_value=1e3, max_value=1e16))
def test_dispersion_round_trip(ratio, omega_c):
    omega = ratio * omega_c
    k = axial_wavenumber(omega, omega_c, SI)
    assert abs(omega**2 - (SI.c * k) ** 2 - omega_c**2) <= 1e-12 * omega**2


def test_spec_is_propagating_flag(make_guided):
    assert make_guided(ratio=1.5).is_propagating
    assert not make_guided(ratio=0.9).is_propagating
    assert not make_guided(ratio=1.0).is_propagating  # k_z = 0 carries no power


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("family, m, n", [
    ("TM", 0, 1), ("TM", 1, 0), ("TM", 0, 0), ("TE", 0, 0),
    ("TM", -1, 1), ("TE", 1, -1),
])
def test_rejected_mode_indices(family, m, n):
    with pytest.raises(InvalidModeError):
        ModeIndex(ModeFamily(family), m, n)


def test_te_allows_zero_second_index():
    index = ModeIndex(ModeFamily.TE, 1, 0)
    assert (index.m, index.n) == (1, 0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        WaveguideGeometry(a=0.01, b=0.02, length=1.0)  # broad wall must be >= b
    with pytest.raises(ValueError):
        WaveguideGeometry(a=0.02, b=0.0, length=1.0)
    with pytest.raises(ValueError):
        WaveguideGeometry(a=0.02, b=0.01, length=-1.0)


def test_surface_spec_requires_total_internal_reflection():
    with pytest.raises(DomainError):
        SurfaceWaveSpec(ModeFamily.TM, eta=1.2, phi=math.radians(30.0),
                        omega=1e15, amplitude=1.0, area=1.0)
    # grazing the critical angle from below is still not evanescent
    with pytest.raises(DomainError):
        SurfaceWaveSpec(ModeFamily.TE, eta=2.0, phi=math.asin(0.499),
                        omega=1e15, amplitude=1.0, area=1.0)
    # a product just below 1 is shown as itself, not rounded up to 1.000000
    eta, phi = 1.0000000001, math.radians(89.99)
    with pytest.raises(DomainError) as err:
        SurfaceWaveSpec(ModeFamily.TM, eta=eta, phi=phi,
                        omega=1e15, amplitude=1.0, area=1.0)
    shown = float(str(err.value).split(" = ")[1].split(" <= ")[0])
    assert shown == eta * math.sin(phi) < 1.0


def test_guided_field_rejects_points_outside_cross_section(make_guided):
    spec = make_guided()
    with pytest.raises(DomainError):
        guided_field_phasor(spec, (-1e-6, 0.001, 0.0))
    with pytest.raises(DomainError):
        guided_field_phasor(spec, (0.001, 0.0103, 0.0))


def test_surface_field_rejects_points_inside_medium(make_surface):
    with pytest.raises(DomainError):
        surface_field_phasor(make_surface(), (-1e-9, 0.0, 0.0))


# ---------------------------------------------------------------------------
# phasor structure


def test_tm_longitudinal_component_profile(make_guided):
    """E_z carries the sin x sin y membrane profile scaled by the amplitude."""
    spec = make_guided("TM", 2, 1, amplitude=3.7)
    a, b = spec.geometry.a, spec.geometry.b
    x, y = 0.31 * a, 0.77 * b
    field = guided_field_phasor(spec, (x, y, 0.0))
    expected = 3.7 * math.sin(2 * math.pi * x / a) * math.sin(math.pi * y / b)
    assert_allclose(field.E[..., 2], expected, rtol=1e-15)
    assert field.B[..., 2] == 0.0  # no longitudinal magnetic field in TM


def test_te_longitudinal_component_profile(make_guided):
    spec = make_guided("TE", 1, 2, amplitude=0.4)
    a, b = spec.geometry.a, spec.geometry.b
    x, y = 0.12 * a, 0.69 * b
    field = guided_field_phasor(spec, (x, y, 0.0))
    expected = (0.4 / SI.c) * math.cos(math.pi * x / a) * math.cos(2 * math.pi * y / b)
    assert_allclose(field.B[..., 2], expected, rtol=1e-15)
    assert field.E[..., 2] == 0.0


def test_te10_has_three_live_components(make_guided):
    spec = make_guided("TE", 1, 0)
    field = guided_field_phasor(spec, (0.3 * spec.geometry.a, 0.004, 0.05))
    assert field.E[..., 0] == 0.0 and field.E[..., 2] == 0.0
    assert field.B[..., 1] == 0.0
    assert abs(field.E[..., 1]) > 0.0
    assert abs(field.B[..., 0]) > 0.0 and abs(field.B[..., 2]) > 0.0


def test_phase_advances_with_z_and_time(make_guided):
    spec = make_guided("TM", 1, 1)
    point = (0.3 * spec.geometry.a, 0.4 * spec.geometry.b, 0.0)
    k_z = float(np.real(spec.k_z))
    dz = 0.37 / k_z
    f0 = guided_field_phasor(spec, point)
    fz = guided_field_phasor(spec, (point[0], point[1], dz))
    assert_allclose(fz.E, f0.E * cmath.exp(1j * k_z * dz), rtol=1e-12)
    dt = 0.21 / spec.omega
    ft = guided_field_phasor(spec, point, t=dt)
    assert_allclose(ft.E, f0.E * cmath.exp(-1j * spec.omega * dt), rtol=1e-12)


def test_amplitude_scales_linearly(make_guided):
    base = make_guided("TE", 2, 1, amplitude=1.0)
    scaled = make_guided("TE", 2, 1, amplitude=2.5)
    point = (0.2 * base.geometry.a, 0.8 * base.geometry.b, 0.01)
    f1 = guided_field_phasor(base, point)
    f2 = guided_field_phasor(scaled, point)
    assert_allclose(f2.E, 2.5 * f1.E, rtol=1e-15)
    assert_allclose(f2.B, 2.5 * f1.B, rtol=1e-15)


def test_tangential_e_and_normal_b_vanish_on_walls(make_guided):
    for family, m, n in [("TM", 1, 1), ("TM", 2, 2), ("TE", 1, 0), ("TE", 2, 1)]:
        spec = make_guided(family, m, n)
        a, b = spec.geometry.a, spec.geometry.b
        scale = abs(np.max(np.abs(
            guided_field_phasor(spec, (a / 2, b / 2, 0.0)).E))) + 1.0
        for x, y, tangential, normal in [
            (0.0, 0.37 * b, (1, 2), 0), (a, 0.37 * b, (1, 2), 0),
            (0.61 * a, 0.0, (0, 2), 1), (0.61 * a, b, (0, 2), 1),
        ]:
            field = guided_field_phasor(spec, (x, y, 0.02))
            for axis in tangential:
                assert abs(field.E[..., axis]) <= 1e-15 * scale
            assert abs(field.B[..., normal]) * SI.c <= 1e-15 * scale


def test_evanescent_guided_field_decays_without_phase(make_guided):
    spec = make_guided("TM", 1, 1, ratio=0.6)
    beta = float(np.imag(spec.k_z))
    assert beta > 0.0
    point = (0.4 * spec.geometry.a, 0.5 * spec.geometry.b)
    f1 = guided_field_phasor(spec, (*point, 0.01))
    f2 = guided_field_phasor(spec, (*point, 0.03))
    ratio = f2.E[..., 2] / f1.E[..., 2]
    assert_allclose(ratio, math.exp(-beta * 0.02), rtol=1e-12)
    assert abs(ratio.imag) <= 1e-15


def test_surface_field_decay_and_transverse_structure(make_surface):
    for family in ("TM", "TE"):
        spec = make_surface(family)
        f0 = surface_field_phasor(spec, (0.0, 0.0, 0.0))
        f1 = surface_field_phasor(spec, (1.0 / spec.kappa, 0.0, 0.0))
        live = f0.E if family == "TM" else f0.B
        dead = f0.B if family == "TM" else f0.E
        # the longitudinal-plane pair lives on one field; the other field
        # holds the single transverse component
        assert abs(live[..., 0]) > 0.0 and abs(live[..., 2]) > 0.0
        assert abs(live[..., 1]) == 0.0
        assert abs(dead[..., 0]) == 0.0 and abs(dead[..., 2]) == 0.0
        assert abs(dead[..., 1]) > 0.0
        assert_allclose(np.abs(f1.E) + np.abs(f1.B),
                        (np.abs(f0.E) + np.abs(f0.B)) * math.exp(-1.0),
                        rtol=1e-12)


def test_surface_longitudinal_pair_is_in_quadrature(make_surface):
    # div E = 0 with the exp(ik_z z - kappa x) profile forces
    # E_z = -i (kappa/k_z) E_x: a quarter-wave phase offset whose sense
    # fixes the sign of the transverse spin
    spec = make_surface("TM")
    field = surface_field_phasor(spec, (0.1 / spec.kappa, 0.0, 0.0))
    ratio = field.E[..., 2] / field.E[..., 0]
    assert_allclose(ratio, -1j * spec.kappa / spec.k_z, rtol=1e-12)


# ---------------------------------------------------------------------------
# Maxwell cross-checks


def _central_curl_divergence(sample, point, step):
    """4th-order central-difference curl and divergence of a vector field."""
    coeffs = [(-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0)]
    jac = np.zeros((3, 3), dtype=complex)  # jac[i, j] = d F_i / d x_j
    for j in range(3):
        for offset, weight in coeffs:
            shifted = list(point)
            shifted[j] += offset * step
            jac[:, j] += weight * sample(shifted) / step
    div = np.trace(jac)
    curl = np.array([jac[2, 1] - jac[1, 2],
                     jac[0, 2] - jac[2, 0],
                     jac[1, 0] - jac[0, 1]])
    return curl, div


@pytest.mark.parametrize("family, m, n", [("TM", 1, 1), ("TM", 2, 1),
                                          ("TE", 1, 0), ("TE", 2, 2)])
def test_guided_phasors_satisfy_source_free_maxwell(make_guided, family, m, n):
    spec = make_guided(family, m, n, ratio=1.8)
    a, b = spec.geometry.a, spec.geometry.b
    point = [0.34 * a, 0.41 * b, 0.07]
    step = 1e-6 * min(a, b)
    e_at = lambda p: np.asarray(guided_field_phasor(spec, tuple(p)).E)
    b_at = lambda p: np.asarray(guided_field_phasor(spec, tuple(p)).B)
    curl_e, div_e = _central_curl_divergence(e_at, point, step)
    curl_b, div_b = _central_curl_divergence(b_at, point, step)
    E = e_at(point)
    B = b_at(point)
    scale = max(np.max(np.abs(E)), SI.c * np.max(np.abs(B)))
    k_ref = spec.omega / SI.c
    assert np.max(np.abs(curl_e - 1j * spec.omega * B)) <= 1e-8 * k_ref * scale
    assert np.max(np.abs(curl_b + 1j * spec.omega / SI.c**2 * E)) <= 1e-8 * k_ref * scale / SI.c
    assert abs(div_e) <= 1e-8 * k_ref * scale
    assert abs(div_b) <= 1e-8 * k_ref * scale / SI.c


def test_surface_phasors_satisfy_source_free_maxwell(make_surface):
    for family in ("TM", "TE"):
        spec = make_surface(family)
        point = [0.7 / spec.kappa, 0.0, 1e-8]
        step = 1e-6 / spec.kappa
        e_at = lambda p: np.asarray(surface_field_phasor(spec, tuple(p)).E)
        b_at = lambda p: np.asarray(surface_field_phasor(spec, tuple(p)).B)
        curl_e, div_e = _central_curl_divergence(e_at, point, step)
        curl_b, div_b = _central_curl_divergence(b_at, point, step)
        B = b_at(point)
        E = e_at(point)
        scale = max(np.max(np.abs(E)), SI.c * np.max(np.abs(B)))
        k_ref = spec.omega / SI.c
        assert np.max(np.abs(curl_e - 1j * spec.omega * B)) <= 1e-8 * k_ref * scale
        assert np.max(np.abs(curl_b + 1j * spec.omega / SI.c**2 * E)) <= 1e-8 * k_ref * scale / SI.c
        assert abs(div_e) <= 1e-8 * k_ref * scale
        assert abs(div_b) <= 1e-8 * k_ref * scale / SI.c


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _scalar_fd_derivatives(spec, point, h):
    """The centre and each axis's central differences, one scalar phasor call a point."""
    dE, dB = [], []
    for axis in range(3):
        plus, minus = list(point), list(point)
        plus[axis] = point[axis] + h
        minus[axis] = point[axis] - h
        fp, fm = spec.phasor(tuple(plus)), spec.phasor(tuple(minus))
        dE.append((fp.E - fm.E) / (2.0 * h))
        dB.append((fp.B - fm.B) / (2.0 * h))
    return spec.phasor(point), dE, dB


def test_maxwell_stencil_equals_seven_scalar_phasor_calls(make_guided, make_surface,
                                                          bench_geometry):
    # the verify catalogue's modes and points
    a, b = bench_geometry.a, bench_geometry.b
    cases = [(make_guided(family, m, n, ratio=1.8), (0.3 * a, 0.4 * b, 0.05))
             for family, m, n in [("TM", 1, 1), ("TM", 2, 1), ("TM", 2, 2),
                                  ("TE", 1, 0), ("TE", 1, 1), ("TE", 2, 1)]]
    cases += [(spec, (0.5 / spec.kappa, 0.0, 1e-7))
              for spec in (make_surface("TM"), make_surface("TE"))]
    for spec, point in cases:
        h = spec.fd_scales()[0]
        f0, dE, dB = _fd_vector_derivatives(spec.phasor, point, h)
        w0, wE, wB = _scalar_fd_derivatives(spec, point, h)
        assert _same_bits(f0.E, w0.E) and _same_bits(f0.B, w0.B)
        assert all(map(_same_bits, dE, wE)) and all(map(_same_bits, dB, wB))


def test_stack3_equals_the_np_stack_form():
    rng = np.random.default_rng(3)
    cx = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    cy = rng.normal(size=(1, 5))
    for parts in [(cx, cy, 0.0), (1.5, -0.0, 2j), (cy, cx, np.zeros((4, 5))),
                  (cx, None, cy), (None, 2j, None)]:
        # None is a structural zero, written as 0j
        want = np.stack(np.broadcast_arrays(*(np.asarray(0j if c is None else c, complex)
                                              for c in parts)), axis=-1)
        assert _same_bits(_stack3(*parts), want)


def test_guided_phasor_stacks_the_kernel_components_bit_for_bit(bench_geometry):
    rng = np.random.default_rng(32)
    a, b = bench_geometry.a, bench_geometry.b
    for trial in range(40):
        family = (ModeFamily.TM, ModeFamily.TE)[trial % 2]
        top = int(rng.integers(1, 201))
        low = int(rng.integers(family is ModeFamily.TM, top + 1))
        m, n = (top, low) if rng.random() < 0.5 else (low, top)
        index = ModeIndex(family, m, n)
        omega = rng.uniform(1.01, 4.0) * cutoff_frequency(index, bench_geometry, SI)
        spec = GuidedModeSpec(bench_geometry, index, omega, 10.0 ** rng.uniform(-3.0, 3.0),
                              (1, -1)[trial // 2 % 2], SI)
        # the walls and random interior points, a column of z and a row of t
        x = np.concatenate([[0.0, a], rng.uniform(0.0, a, 5)])[:, None, None]
        y = np.concatenate([[0.0, b], rng.uniform(0.0, b, 4)])[None, :, None]
        z, t = rng.uniform(-1.0, 1.0, (7, 1, 1)), rng.uniform(0.0, 1e-9, 3)
        field = guided_field_phasor(spec, (x, y, z), t)
        phase = np.exp(-1j * (spec.omega * t - spec.k_z * z))
        E, B = (tuple(None if f is None else unit * f * phase
                      for f, unit in zip(factors, (1j, 1j, 1.0)))
                for factors in _guided_factors(spec, x, y))
        assert (E[2] is None, B[2] is None) == (family is ModeFamily.TE,
                                                family is ModeFamily.TM)
        for stacked, parts in ((field.E, E), (field.B, B)):
            for k, part in enumerate(parts):
                want = np.zeros((7, 6, 3), complex) if part is None else part
                assert _same_bits(stacked[..., k], want), (spec, k)


def test_packaged_maxwell_residuals_agree_with_local_check(make_guided):
    res = maxwell_residuals(make_guided("TE", 2, 1, ratio=1.8),
                            (0.0075, 0.0041, 0.05))
    assert set(res) == {"div_e", "div_b", "faraday"}
    assert max(res.values()) <= 1e-8


# The members each spec kind answers for itself, with their parameter names
# (``None`` for a property or attribute).  A caller holding either kind uses
# them without a branch, so both classes must match this table, and a new
# knob on a member has to be a deliberate edit of it.
_SPEC_PROTOCOL = {
    "phasor": ("self", "point", "t"),
    "closed_forms": ("self",),
    "fd_scales": ("self",),
    "rest_term": None,
    "is_propagating": None,
    "k_z": None,
}


@pytest.mark.parametrize("cls", [GuidedModeSpec, SurfaceWaveSpec])
def test_both_spec_kinds_share_one_protocol(cls):
    members = {name: (tuple(inspect.signature(getattr(cls, name)).parameters)
                      if inspect.isfunction(getattr(cls, name)) else None)
               for name in _SPEC_PROTOCOL}
    assert members == _SPEC_PROTOCOL
    methods = {name for name, value in vars(cls).items()
               if inspect.isfunction(value) and not name.startswith("_")}
    assert methods == {name for name, params in _SPEC_PROTOCOL.items() if params}


def test_natural_units_cutoff():
    geometry = WaveguideGeometry(1.0, 0.5, 1.0)
    got = cutoff_frequency(ModeIndex(ModeFamily.TM, 1, 1), geometry, NATURAL)
    assert_allclose(got, math.pi * math.sqrt(1.0 + 4.0), rtol=1e-15)


# ---------------------------------------------------------------------------
# derived scalars: cached on the spec, bit-exact ratios


def _mantissa_ratio(numerator, denominator):
    # the mantissa-only body of modes._ratio, as it was before the plain fast path
    top = [math.frexp(factor) for factor in numerator]
    bottom = [math.frexp(factor) for factor in denominator]
    value = math.prod(m for m, _ in top) / math.prod(m for m, _ in bottom)
    try:
        return math.ldexp(value, sum(e for _, e in top) - sum(e for _, e in bottom))
    except OverflowError:
        return math.copysign(math.inf, value)


def _plain_stays_normal(numerator, denominator):
    def partials(factors):
        product, out = 1.0, []
        for factor in factors:
            product *= factor
            out.append(product)
        return out

    def normal(value):
        return sys.float_info.min <= abs(value) <= sys.float_info.max

    top, bottom = partials(numerator), partials(denominator)
    return all(map(normal, top + bottom)) and normal(top[-1] / bottom[-1])


def test_ratio_keeps_the_bits_of_the_mantissa_path():
    rng = np.random.default_rng(2024)
    cases = [
        ((1e-160, 1e-160, 1e200), (3.0,)),           # subnormal partial, back to normal
        ((3e-170, 7e-150, 1e300, 1e10), (1.7,)),     # the same in the middle of a product
        ((1e200, 1e200, 1e-250), (7.0,)),            # overflowing partial, normal result
        ((2.0,), (1e200, 1e200, 1e-250)),            # the same in the denominator
        ((1e-300,), (1e10,)),                        # subnormal quotient
        ((5e-320, 3.0), (7.0,)),                     # subnormal factor
        ((1e300, 1e10), (1e-5,)),                    # overflowing quotient
        ((0.0, 3.0), (2.0,)), ((-0.0, 3.0), (2.0,)),  # zeros
        ((-3.0, 7.0), (11.0, -13.0)), ((-3.0,), (11.0,)),
    ]
    for _ in range(20000):
        decades = rng.uniform(-150.0, 150.0, rng.integers(1, 8)).tolist()
        factors = [float(rng.uniform(1.0, 10.0)) * 10.0 ** d for d in decades]
        factors = [-f if rng.random() < 0.2 else f for f in factors]
        if rng.random() < 0.02:
            factors[rng.integers(len(factors))] = 0.0
        split = int(rng.integers(1, len(factors) + 1))
        numerator, denominator = tuple(factors[:split]), tuple(factors[split:]) or (1.0,)
        if 0.0 in denominator:
            continue
        cases.append((numerator, denominator))
    fast = 0
    for numerator, denominator in cases:
        got, expected = _ratio(numerator, denominator), _mantissa_ratio(numerator, denominator)
        assert struct.pack("<d", got) == struct.pack("<d", expected), (numerator, denominator)
        fast += _plain_stays_normal(numerator, denominator)
    # both paths are exercised
    assert 2000 < fast < len(cases) - 2000


def _guided_scalars(spec):
    return spec.omega_c, spec.k_z, spec.closed_forms()


def test_guided_spec_scalars_are_cached_and_fresh_after_replace(make_guided):
    spec = make_guided("TE", 2, 1, ratio=1.7, amplitude=2.5, direction=-1)
    assert spec.closed_forms() is spec.closed_forms()
    assert spec.omega_c == cutoff_frequency(spec.index, spec.geometry, spec.constants)
    assert spec.k_z == -axial_wavenumber(spec.omega, spec.omega_c, spec.constants)
    for changes in ({"omega": 1.3 * spec.omega}, {"amplitude": 7.0}, {"direction": 1}):
        moved = replace(spec, **changes)
        built = GuidedModeSpec(**{**{f.name: getattr(spec, f.name) for f in fields(spec)},
                                  **changes})
        assert _guided_scalars(moved) == _guided_scalars(built)
        assert _guided_scalars(moved) != _guided_scalars(spec)


def test_surface_spec_scalars_are_cached_and_fresh_after_replace(make_surface):
    spec = make_surface("TE", eta=1.8, phi_deg=65.0, amplitude=3.0)
    s = spec.eta * math.sin(spec.phi)
    assert spec.kappa == (spec.omega / SI.c) * math.sqrt(s * s - 1.0)
    assert spec.k_z == (spec.omega / SI.c) * spec.eta * math.sin(spec.phi)
    assert spec.closed_forms() is spec.closed_forms()
    for changes in ({"omega": 2.0e15}, {"amplitude": 0.5}):
        moved = replace(spec, **changes)
        built = make_surface("TE", eta=1.8, phi_deg=65.0,
                             **{"amplitude": 3.0, **changes})
        assert (moved.kappa, moved.k_z, moved.closed_forms()) == (
            built.kappa, built.k_z, built.closed_forms())
        assert moved.closed_forms() != spec.closed_forms()


def test_cached_scalars_leave_equality_hash_and_fields_alone(make_guided, make_surface):
    for make in (lambda: make_guided("TM", 2, 1, ratio=1.4),
                 lambda: make_surface("TM", eta=2.0, phi_deg=70.0)):
        warm, cold = make(), make()
        warm.closed_forms()
        assert "_closed_forms" in vars(warm) and "_closed_forms" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold)
        assert list(asdict(warm)) == [f.name for f in fields(warm)]
        assert replace(warm) == cold
