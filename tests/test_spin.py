"""Spin / energy / momentum densities and their brute-force oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from transpin import (ConfigurationError, DomainError, FieldPhasor, WaveguideGeometry,
                      analytic_spin_guided, analytic_spin_surface, energy_density,
                      guided_field_phasor, momentum_density, spin, spin_densities,
                      spin_map, surface_field_phasor, time_average_oracle,
                      vector_potentials)
from transpin.constants import NATURAL, SI
from transpin.spin import (_cross, _surface_peak, instantaneous_energy_sampler,
                           instantaneous_spin_sampler)

RNG = np.random.default_rng(2026)


def _random_points(spec, count):
    return (RNG.uniform(0.0, spec.geometry.a, count),
            RNG.uniform(0.0, spec.geometry.b, count),
            RNG.uniform(0.0, spec.geometry.length, count))


# ---------------------------------------------------------------------------
# potentials


def test_vector_potential_time_derivative_recovers_field(make_guided):
    """E = -dA/dt and c^2 B = -dC/dt for the physical (real) fields.

    This pins the potentials independently of the -iE/omega shortcut: the
    real part of A e^{-i omega t} is differentiated numerically in time.
    """
    spec = make_guided("TE", 2, 1, ratio=1.9)
    point = (0.21 * spec.geometry.a, 0.66 * spec.geometry.b, 0.04)
    omega = spec.omega
    dt = 1e-8 / omega

    def physical(phasor, t):
        return np.real(phasor * np.exp(-1j * omega * t))

    field = guided_field_phasor(spec, point)
    pot = vector_potentials(field, omega, SI)
    for t in (0.0, 0.3 / omega, 1.1 / omega):
        dA = (physical(pot.A, t + dt) - physical(pot.A, t - dt)) / (2 * dt)
        dC = (physical(pot.C, t + dt) - physical(pot.C, t - dt)) / (2 * dt)
        assert_allclose(-dA, physical(field.E, t),
                        atol=1e-7 * np.max(np.abs(field.E)))
        assert_allclose(-dC, SI.c**2 * physical(field.B, t),
                        atol=1e-7 * SI.c**2 * np.max(np.abs(field.B)))


@settings(max_examples=40, deadline=None)
@given(re=arrays(np.float64, 3, elements=st.floats(-10, 10)),
       im=arrays(np.float64, 3, elements=st.floats(-10, 10)))
def test_electric_spin_equals_quarter_cross_identity(re, im):
    # (eps0/2) Re[E x (iE*/omega)] == (eps0/2 omega) Im[E* x E] for any phasor
    E = re + 1j * im
    omega = 3.0e9
    field = FieldPhasor(E=E, B=np.zeros(3, dtype=complex))
    pair = spin_densities(field, omega, SI)
    expected = (SI.eps0 / (2.0 * omega)) * np.imag(np.cross(np.conj(E), E))
    assert_allclose(pair.s_e, expected, atol=1e-18 + 1e-12 * np.max(np.abs(expected)))
    assert np.all(pair.s_m == 0.0)


# ---------------------------------------------------------------------------
# closed forms vs the bilinear pipeline


@pytest.mark.parametrize("family, m, n", [("TM", 2, 1), ("TM", 1, 1),
                                          ("TE", 1, 0), ("TE", 2, 2)])
def test_pipeline_matches_guided_closed_forms(make_guided, family, m, n):
    spec = make_guided(family, m, n, ratio=1.45, amplitude=2.2)
    xs, ys, _ = _random_points(spec, 40)
    field = guided_field_phasor(spec, (xs, ys, 0.017))
    pair = spin_densities(field, spec.omega, SI)
    closed = analytic_spin_guided(spec, (xs, ys))
    scale = np.max(np.abs(closed.s_e) + np.abs(closed.s_m))
    assert np.max(np.abs(pair.s_e - closed.s_e)) <= 1e-12 * scale
    assert np.max(np.abs(pair.s_m - closed.s_m)) <= 1e-12 * scale


def test_pipeline_matches_surface_closed_forms(make_surface):
    for family in ("TM", "TE"):
        spec = make_surface(family, eta=1.7, phi_deg=55.0, amplitude=0.8)
        xs = RNG.uniform(0.0, 3.0 / spec.kappa, 32)
        field = surface_field_phasor(spec, (xs, 0.0, 0.0))
        pair = spin_densities(field, spec.omega, SI)
        closed = analytic_spin_surface(spec, xs)
        scale = np.max(np.abs(closed.total()))
        assert np.max(np.abs(pair.total() - closed.total())) <= 1e-12 * scale
        # the spin lives on the field carrying the in-quadrature pair
        dead = pair.s_e if family == "TE" else pair.s_m
        assert np.max(np.abs(dead)) <= 1e-15 * scale


def test_guided_spin_is_single_branch_and_planar(make_guided):
    for family in ("TM", "TE"):
        spec = make_guided(family, 2, 1, ratio=1.3)
        xs, ys, _ = _random_points(spec, 25)
        pair = analytic_spin_guided(spec, (xs, ys))
        dead = pair.s_m if family == "TM" else pair.s_e
        assert np.all(dead == 0.0)
        assert np.all(pair.total()[..., 2] == 0.0)


def test_evanescent_guided_mode_has_no_spin(make_guided):
    spec = make_guided("TM", 1, 1, ratio=0.7)
    xs, ys, zs = _random_points(spec, 25)
    field = guided_field_phasor(spec, (xs, ys, zs))
    pair = spin_densities(field, spec.omega, SI)
    w = energy_density(field, SI)
    scale = np.max(w) / spec.omega
    assert np.max(np.abs(pair.s_e)) <= 1e-15 * scale
    assert np.max(np.abs(pair.s_m)) <= 1e-15 * scale
    assert np.all(analytic_spin_guided(spec, (xs, ys)).total() == 0.0)


def test_spin_flips_sign_with_propagation_direction(make_guided, make_surface):
    fwd = make_guided("TE", 2, 1, ratio=1.6, direction=+1)
    bwd = make_guided("TE", 2, 1, ratio=1.6, direction=-1)
    xs, ys, _ = _random_points(fwd, 30)
    s_f = analytic_spin_guided(fwd, (xs, ys)).total()
    s_b = analytic_spin_guided(bwd, (xs, ys)).total()
    assert np.max(np.abs(s_f + s_b)) <= 1e-15 * np.max(np.abs(s_f))

    xs = RNG.uniform(0.0, 2.0 / make_surface().kappa, 16)
    s_f = analytic_spin_surface(make_surface(direction=+1), xs).total()
    s_b = analytic_spin_surface(make_surface(direction=-1), xs).total()
    assert np.max(np.abs(s_f + s_b)) <= 1e-15 * np.max(np.abs(s_f))


def test_combined_spin_is_half_of_total_for_single_branch(make_guided):
    spec = make_guided("TM", 1, 1)
    xs, ys, _ = _random_points(spec, 10)
    pair = analytic_spin_guided(spec, (xs, ys))
    assert_allclose(pair.combined(), 0.5 * pair.total(), rtol=0, atol=0)


def test_surface_spin_direction_and_sign(make_surface):
    # forward TM wave: spin along +y on the vacuum side, electric branch only
    spec = make_surface("TM")
    s = analytic_spin_surface(spec, 0.0)
    assert s.s_e[..., 1] > 0.0
    assert s.s_e[..., 0] == 0.0 and s.s_e[..., 2] == 0.0
    assert np.all(s.s_m == 0.0)


def _surface_reference(spec, x):
    """``s_y`` at depth ``x`` from the float peak and exponent, in 60 digits."""
    with mpmath.workdps(60):
        peak = mpmath.mpf(_surface_peak(spec))
        return float(peak * mpmath.exp(mpmath.mpf(-2.0 * spec.kappa) * mpmath.mpf(x)))


@pytest.mark.parametrize("depth", [800.0, 1200.0])
@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("setting", [
    {"amplitude": 1e100},
    # a peak of 2.7e238, so the value at 2 kappa x = 1200 is a normal float
    {"amplitude": 5e102, "omega": 1e-33, "constants": NATURAL},
], ids=["si-1e100", "natural-5e102"])
def test_surface_spin_survives_the_underflow_of_its_decay(depth, direction, setting,
                                                          make_surface):
    # exp(-2 kappa x) is subnormal beyond 2 kappa x = 708 and 0.0 beyond 745,
    # but the peak scales the value back up
    spec = make_surface("TE", direction=direction, **setting)
    x = depth / (2.0 * spec.kappa)
    value = float(analytic_spin_surface(spec, x).s_m[1])
    assert value == pytest.approx(_surface_reference(spec, x), rel=1e-12, abs=0.0)


def test_surface_spin_keeps_its_bits_where_the_decay_is_normal(make_surface):
    for direction in (+1, -1):
        spec = make_surface("TM", amplitude=1e100, direction=direction)
        xs = np.linspace(0.0, 708.0 / (2.0 * spec.kappa), 2001)  # exp(-708) is normal
        expected = [_surface_peak(spec) * math.exp(-2.0 * spec.kappa * x) for x in xs.tolist()]
        assert analytic_spin_surface(spec, xs).s_e[:, 1].tolist() == expected


# ---------------------------------------------------------------------------
# spin maps


@pytest.mark.parametrize("combine", [False, True])
@pytest.mark.parametrize("kind, nx, ny", [
    ("guided", 4097, 3), ("guided", 3, 3000), ("guided", 41, 21),
    ("surface", 301, 11), ("surface", 3, 3000),
])
def test_spin_map_blocks_equal_one_render_on_the_linspace_grid(kind, nx, ny, combine,
                                                               make_guided, make_surface):
    if kind == "guided":
        spec = make_guided("TM", 2, 1, direction=-1)
        x_max, y_max = spec.geometry.a, spec.geometry.b
    else:
        spec = make_surface("TE", eta=2.0, phi_deg=70.0)
        x_max, y_max = 7.5 / spec.kappa, 2.5 * 2.0 * math.pi / abs(spec.k_z)
    xs, blocks = spin_map(spec, nx, ny, combine=combine, x_max_kappa=7.5, z_periods=2.5)
    blocks = list(blocks)
    assert all(spins.shape == (ys.size, nx, 3) for ys, spins in blocks)
    ys = np.concatenate([ys for ys, _ in blocks])
    spins = np.concatenate([spins for _, spins in blocks])
    X, Y = np.meshgrid(np.linspace(0.0, x_max, nx), np.linspace(0.0, y_max, ny))
    pair = (analytic_spin_guided(spec, (X, Y)) if kind == "guided"
            else analytic_spin_surface(spec, X))
    want = pair.combined() if combine else pair.total()
    assert xs.tobytes() == X[0].tobytes() and ys.tobytes() == Y[:, 0].tobytes()
    assert spins.shape == want.shape and spins.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, combine, quantity", [
    ("guided", False, "sy_peak"), ("guided", True, "sy_peak"),
    ("surface", True, "sy_peak"), ("surface-extent", False, "x_max"),
])
def test_spin_map_checks_every_peak_before_it_evaluates(kind, combine, quantity, make_guided,
                                                         make_surface, monkeypatch):
    calls = []
    for name in ("analytic_spin_guided", "analytic_spin_surface"):
        monkeypatch.setattr(spin, name, lambda *args: calls.append(args))
    x_max_kappa = 5.0
    if kind == "guided":  # each field is in range, the s_y peak is not
        spec = make_guided("TE", 1, 0, amplitude=1e100,
                           geometry=WaveguideGeometry(3e100, 1.0, 1.0))
    elif kind == "surface":
        # s_e + s_m peaks at 3.18e-308, a normal float, and its half does not
        spec = make_surface(amplitude=1e-100, omega=3e96)
    else:
        spec, x_max_kappa = make_surface(omega=1e-50), 1e300
    with pytest.raises(ValueError, match=f"^{quantity} = .* leaves the float range"):
        spin_map(spec, 3, 2, combine=combine, x_max_kappa=x_max_kappa)
    assert calls == []


@pytest.mark.parametrize("kind, nx, ny, extents, name", [
    ("guided", 2, 1, {}, "ny"), ("guided", 0, 3, {}, "nx"), ("guided", 1, 2, {}, "nx"),
    ("guided", 3, 0, {}, "ny"), ("surface", 2, 2, {"z_periods": -1.0}, "z_periods"),
    ("surface", 2, 2, {"x_max_kappa": -5.0}, "x_max_kappa"),
])
def test_spin_map_names_a_bad_argument_before_it_evaluates(kind, nx, ny, extents, name,
                                                           make_guided, make_surface,
                                                           monkeypatch):
    calls = []
    for function in ("analytic_spin_guided", "analytic_spin_surface"):
        monkeypatch.setattr(spin, function, lambda *args: calls.append(args))
    spec = make_guided("TE", 1, 0) if kind == "guided" else make_surface()
    with pytest.raises(ValueError, match=f"^{name} must be "):
        spin_map(spec, nx, ny, **extents)
    assert calls == []


def test_the_plain_map_of_a_subnormal_half_peak_is_normal(make_surface):
    spec = make_surface(amplitude=1e-100, omega=3e96)
    _, blocks = spin_map(spec, 2, 2)
    (_, spins), = blocks
    assert spins[:, 0, 1].tolist() == [3.1789647880819057e-308] * 2


# ---------------------------------------------------------------------------
# time-average oracles


def test_spin_formula_matches_time_average(make_guided):
    spec = make_guided("TM", 1, 1)
    for point in [(0.002, 0.003, 0.0), (0.011, 0.0071, 0.12)]:
        field = guided_field_phasor(spec, point)
        scale = float(energy_density(field, SI)) / spec.omega
        averaged = time_average_oracle(
            instantaneous_spin_sampler(spec, point), spec.omega, samples=64)
        formula = spin_densities(field, spec.omega, SI).total()
        assert np.max(np.abs(averaged - formula)) <= 1e-10 * scale


def test_energy_formula_matches_time_average(make_surface):
    spec = make_surface("TE")
    point = (0.4 / spec.kappa, 0.0, 0.0)
    averaged = time_average_oracle(
        instantaneous_energy_sampler(spec, point), spec.omega, samples=128)
    field = surface_field_phasor(spec, point)
    assert_allclose(averaged, energy_density(field, SI), rtol=1e-12)


def test_oracle_converges_quadratically_in_sample_count(make_guided):
    # the trapezoid-on-a-period rule is exact for the bilinear integrand
    # once samples > 2; this guards the sampler against phase drift
    spec = make_guided("TE", 1, 0)
    point = (0.007, 0.004, 0.02)
    sampler = instantaneous_spin_sampler(spec, point)
    coarse = time_average_oracle(sampler, spec.omega, samples=8)
    fine = time_average_oracle(sampler, spec.omega, samples=256)
    assert_allclose(coarse, fine, atol=1e-13 * np.max(np.abs(fine) + 1e-300))


def test_oracle_calls_the_sampler_once_with_every_time():
    calls = []

    def sampler(t):
        calls.append(t)
        return np.cos(t) ** 2

    averaged = time_average_oracle(sampler, 1.0, samples=64)
    assert len(calls) == 1
    assert isinstance(calls[0], np.ndarray) and calls[0].shape == (64,)
    assert_allclose(averaged, 0.5, rtol=1e-15)


def _looped_oracle(sampler, omega, samples=64):
    """The per-sample reference: one scalar-time sampler call per sample."""
    period = 2.0 * math.pi / omega
    return np.mean([sampler(j * period / samples) for j in range(samples)], axis=0)


@pytest.mark.parametrize("family", ["TM", "TE"])
def test_oracle_equals_a_per_sample_loop_guided(family, make_guided):
    spec = make_guided(family, 2, 1)
    for point in [(0.002, 0.003, 0.0), (0.011, 0.0071, 0.12)]:
        for make in (instantaneous_spin_sampler, instantaneous_energy_sampler):
            sampler = make(spec, point)
            assert_allclose(time_average_oracle(sampler, spec.omega),
                            _looped_oracle(sampler, spec.omega),
                            rtol=1e-14, atol=0)


@pytest.mark.parametrize("family", ["TM", "TE"])
def test_oracle_equals_a_per_sample_loop_surface(family, make_surface):
    spec = make_surface(family)
    for depth in (0.0, 0.4, 2.5):
        point = (depth / spec.kappa, 0.0, 1e-7)
        for make in (instantaneous_spin_sampler, instantaneous_energy_sampler):
            sampler = make(spec, point)
            assert_allclose(time_average_oracle(sampler, spec.omega),
                            _looped_oracle(sampler, spec.omega),
                            rtol=1e-14, atol=0)


@pytest.mark.parametrize("family", ["TM", "TE"])
def test_oracle_over_as_many_points_as_samples_matches_scalar_calls(family, make_guided):
    # 64 points against 64 samples: were time and points to share an axis,
    # each time would pair with one point and the result would be wrong
    spec = make_guided(family, 1, 1)
    xs, ys, zs = _random_points(spec, 64)
    for make in (instantaneous_spin_sampler, instantaneous_energy_sampler):
        batched = time_average_oracle(make(spec, (xs, ys, zs)), spec.omega, 64)
        single = np.stack([time_average_oracle(make(spec, p), spec.omega, 64)
                           for p in zip(xs, ys, zs)])
        assert batched.shape == single.shape
        assert_allclose(batched, single, rtol=1e-14, atol=0)


def test_oracle_rejects_tiny_sample_counts(make_guided):
    sampler = instantaneous_spin_sampler(make_guided(), (0.001, 0.001, 0.0))
    with pytest.raises(ConfigurationError):
        time_average_oracle(sampler, 1e9, samples=3)


@pytest.mark.parametrize("samples", [4.5, 63.9, math.nan, math.inf])
def test_oracle_rejects_a_fractional_sample_count(samples):
    # np.arange(4.5) is 5 samples period/4.5 apart: past one period
    with pytest.raises(ConfigurationError, match="whole number of at least 4 samples"):
        time_average_oracle(lambda t: t, 1.0, samples=samples)
    assert time_average_oracle(lambda t: t, 1.0, samples=4.0) == 0.75 * math.pi


# (function, index of the bad coordinate, non-finite values it rejects, message);
# the coordinates are (x, y, z, t), as many as the function reads
_NON_FINITE_COORDINATES = [
    (guided_field_phasor, 0, (math.nan, math.inf, -math.inf), r"x must lie in \[0, "),
    (guided_field_phasor, 1, (math.nan, math.inf, -math.inf), r"y must lie in \[0, "),
    (guided_field_phasor, 2, (math.nan, math.inf, -math.inf), "z must be finite"),
    (guided_field_phasor, 3, (math.nan, math.inf, -math.inf), "t must be finite"),
    # x = +inf is the far end of the vacuum side, where the field is 0
    (surface_field_phasor, 0, (math.nan, -math.inf), "vacuum side x >= 0"),
    (surface_field_phasor, 2, (math.nan, math.inf, -math.inf), "z must be finite"),
    (surface_field_phasor, 3, (math.nan, math.inf, -math.inf), "t must be finite"),
    (analytic_spin_guided, 0, (math.nan, math.inf, -math.inf), r"x must lie in \[0, "),
    (analytic_spin_guided, 1, (math.nan, math.inf, -math.inf), r"y must lie in \[0, "),
    (analytic_spin_surface, 0, (math.nan, -math.inf), "vacuum side x >= 0"),
]


def _call_at(function, spec, coordinates):
    if function in (guided_field_phasor, surface_field_phasor):
        return function(spec, tuple(coordinates[:3]), coordinates[3])
    if function is analytic_spin_guided:
        return function(spec, tuple(coordinates[:2]))
    return function(spec, coordinates[0])


@pytest.mark.parametrize("function, coordinate, values, message", _NON_FINITE_COORDINATES,
                         ids=[f"{case[0].__name__}-{'xyzt'[case[1]]}"
                              for case in _NON_FINITE_COORDINATES])
def test_a_non_finite_coordinate_raises_domain_error(make_guided, make_surface, function,
                                                    coordinate, values, message):
    guided = function in (guided_field_phasor, analytic_spin_guided)
    spec = make_guided("TM", 2, 1) if guided else make_surface("TE")
    inside = [0.001, 0.001, 0.0, 0.0] if guided else [0.0, 0.0, 0.0, 0.0]
    result = _call_at(function, spec, inside)
    assert all(np.isfinite(part).all() for part in vars(result).values())
    for value in values:
        # one bad entry among good ones: every entry is checked
        coordinates = [np.full(3, good) for good in inside]
        coordinates[coordinate][1] = value
        with pytest.raises(DomainError, match=message):
            _call_at(function, spec, coordinates)


# ---------------------------------------------------------------------------
# energy and momentum


def test_energy_momentum_densities_for_te10(make_guided):
    """TE10 profile: w and p_z peak at the center line, vanish at side walls."""
    spec = make_guided("TE", 1, 0, ratio=math.sqrt(2.0))
    a = spec.geometry.a
    field_mid = guided_field_phasor(spec, (a / 2, 0.004, 0.0))
    field_wall = guided_field_phasor(spec, (0.0, 0.004, 0.0))
    p_mid = momentum_density(field_mid, SI)
    assert p_mid[..., 2] > 0.0
    assert abs(p_mid[..., 0]) <= 1e-16 * p_mid[..., 2]
    assert abs(p_mid[..., 1]) <= 1e-16 * p_mid[..., 2]
    # at the wall only B_z survives -> energy but no forward momentum
    p_wall = momentum_density(field_wall, SI)
    assert abs(p_wall[..., 2]) <= 1e-16 * p_mid[..., 2]
    assert energy_density(field_wall, SI) > 0.0


def test_surface_energy_and_momentum_profiles(make_surface):
    spec = make_surface("TM", amplitude=2.0)
    con = spec.constants
    h2 = spec.amplitude**2
    xs = np.array([0.0, 0.5 / spec.kappa, 2.0 / spec.kappa])
    field = surface_field_phasor(spec, (xs, 0.0, 0.0))
    w = energy_density(field, con)
    p = momentum_density(field, con)
    decay = np.exp(-2.0 * spec.kappa * xs)
    assert_allclose(
        w, (spec.k_z**2 * con.c**2 / (2.0 * spec.omega**2)) * con.eps0 * h2 * decay,
        rtol=1e-12)
    assert_allclose(
        p[..., 2], (spec.k_z / (2.0 * spec.omega)) * con.eps0 * h2 * decay, rtol=1e-12)
    # subluminal pointwise: w >= |p| c
    assert np.all(w >= np.linalg.norm(p, axis=-1) * con.c)


@pytest.mark.parametrize("a_shape, b_shape", [((3,), (3,)), ((7, 3), (7, 3)),
                                              ((4, 1, 3), (5, 3)), ((3,), (2, 6, 3))])
@pytest.mark.parametrize("dtype", [float, complex])
def test_cross_equals_np_cross_bit_for_bit(a_shape, b_shape, dtype):
    rng = np.random.default_rng(41)

    def draw(shape):
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, shape)
        return values + 1j * rng.normal(size=shape) if dtype is complex else values

    a, b = draw(a_shape), draw(b_shape)
    for left, right in ((a, b), (a, np.conj(b)), (a[..., ::-1], b)):
        got, want = _cross(left, right), np.cross(left, right)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
