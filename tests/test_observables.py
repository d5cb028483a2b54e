"""Volume totals, quantization chains, ellipticity, and resolution control."""

import inspect
import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from transpin import (GuidedModeSpec, ModeFamily, ModeIndex, ResolutionError,
                      UnsupportedModeError, WaveguideGeometry, amplitude_for_quanta,
                      balance_integral, cutoff_frequency, ellipticity_surface,
                      energy_density, guided_field_phasor, guided_mass_report,
                      integrate_guided, integrate_surface, modes, momentum_density,
                      observables, quantized_transverse_spin_guided,
                      quantized_transverse_spin_surface, report, spin_densities,
                      surface_field_phasor)
from transpin.cli import main
from transpin.constants import NATURAL, SI

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# guided totals


@pytest.mark.parametrize("family, m, n", [("TM", 1, 1), ("TE", 1, 0), ("TE", 2, 1)])
@pytest.mark.parametrize("ratio", [1.1, SQRT2, 2.0])
def test_guided_quadrature_matches_closed_forms(make_guided, family, m, n, ratio):
    spec = make_guided(family, m, n, ratio=ratio, amplitude=0.37)
    obs = integrate_guided(spec)
    W, P_z, S = spec.closed_forms()
    assert_allclose(obs.W, W, rtol=1e-9)
    assert_allclose(obs.P_z, P_z, rtol=1e-9)
    assert_allclose(obs.S_perp, S, rtol=1e-9)


_INDICES = st.one_of(
    st.tuples(st.just("TM"), st.integers(1, 200), st.integers(1, 200)),
    st.tuples(st.just("TE"), st.integers(1, 200), st.integers(0, 200)))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(index=_INDICES, ratio=st.floats(1.0, 5.0, exclude_min=True),
       log_aspect=st.floats(-1.0, 0.0), log_amplitude=st.floats(-6.0, 6.0),
       direction=st.sampled_from([1, -1]))
def test_midpoint_rule_is_exact_up_to_the_index_bound(make_guided, bench_geometry, index,
                                                      ratio, log_aspect, log_amplitude,
                                                      direction):
    family, m, n = index
    geometry = replace(bench_geometry, b=bench_geometry.a * 10.0**log_aspect)
    spec = make_guided(family, m, n, ratio=ratio, amplitude=10.0**log_amplitude,
                       direction=direction, geometry=geometry)
    obs = integrate_guided(spec)
    for total, closed in zip((obs.W, obs.P_z, obs.S_perp), spec.closed_forms()):
        assert abs(total - closed) <= 1e-9 * abs(closed)
    assert abs(balance_integral(spec)) <= 1e-12 * obs.W
    expected = spec.omega_c / (abs(float(np.real(spec.k_z))) * spec.constants.c)
    assert abs(obs.ellipticity - expected) <= 1e-10 * expected


def test_half_width_mode_doubles_the_generic_total(make_guided):
    """A TE_m0 profile has no second transverse average, so its volume
    totals carry twice the value the generic two-average expression gives."""
    te10 = make_guided("TE", 1, 0, ratio=SQRT2)
    te11 = make_guided("TE", 1, 1, ratio=SQRT2)
    con = te10.constants
    for spec, factor in ((te10, 2.0), (te11, 1.0)):
        V = spec.geometry.volume
        generic = con.eps0 * spec.omega**2 * V * spec.amplitude**2 / (
            8.0 * spec.omega_c**2)
        assert_allclose(integrate_guided(spec).W, factor * generic, rtol=1e-9)


def test_guided_totals_scale_with_amplitude_squared(make_guided):
    small = integrate_guided(make_guided("TM", 2, 1, amplitude=1.0))
    large = integrate_guided(make_guided("TM", 2, 1, amplitude=3.0))
    assert_allclose(large.W, 9.0 * small.W, rtol=1e-12)
    assert_allclose(large.S_perp, 9.0 * small.S_perp, rtol=1e-12)


def test_energy_velocity_equals_group_velocity(make_guided):
    for ratio in (1.2, SQRT2, 3.0):
        spec = make_guided("TE", 1, 0, ratio=ratio)
        obs = integrate_guided(spec)
        assert_allclose(obs.v, obs.P_z * SI.c**2 / obs.W, rtol=1e-12)
        assert_allclose(obs.v, guided_mass_report(spec).v_g, rtol=1e-12)
        assert obs.v < SI.c


def test_below_cutoff_integration_is_rejected(make_guided):
    with pytest.raises(UnsupportedModeError):
        integrate_guided(make_guided("TM", 1, 1, ratio=0.8))


# ---------------------------------------------------------------------------
# quantization


@pytest.mark.parametrize("n_quanta", [1, 2, 5])
def test_guided_spin_quantization(make_guided, n_quanta):
    for ratio in (1.1, SQRT2, 2.0):
        spec = make_guided("TM", 1, 1, ratio=ratio)
        spec = replace(spec, amplitude=amplitude_for_quanta(n_quanta, spec))
        obs = integrate_guided(spec)
        assert_allclose(obs.W, n_quanta * SI.hbar * spec.omega, rtol=1e-9)
        assert_allclose(obs.P_z, n_quanta * SI.hbar * float(np.real(spec.k_z)),
                        rtol=1e-9)
        expected = quantized_transverse_spin_guided(n_quanta, spec)
        assert_allclose(obs.S_perp, expected, rtol=1e-9)
        assert obs.n_quanta_integer == n_quanta
        # the per-quantum transverse spin never exceeds hbar
        assert abs(obs.S_perp) <= n_quanta * SI.hbar * (1.0 + 1e-12)


def test_spin_reaches_one_quantum_at_circular_point(make_guided):
    spec = make_guided("TE", 1, 0, ratio=SQRT2)
    spec = replace(spec, amplitude=amplitude_for_quanta(1, spec))
    obs = integrate_guided(spec)
    assert_allclose(obs.S_perp, SI.hbar, rtol=1e-9)
    assert_allclose(math.sin(2.0 * obs.theta), 1.0, rtol=1e-12)


def test_arbitrary_amplitude_gives_no_integer_quanta(make_guided):
    spec = make_guided("TM", 1, 1, amplitude=1.0)
    obs = integrate_guided(spec)
    assert obs.n_quanta_integer is None
    assert obs.n_quanta > 0.0


def test_quanta_inversion_round_trip_for_half_width_mode(make_guided):
    # the doubling factor must be carried by the amplitude inversion too
    spec = make_guided("TE", 1, 0, ratio=1.7)
    spec = replace(spec, amplitude=amplitude_for_quanta(4, spec))
    assert_allclose(integrate_guided(spec).n_quanta, 4.0, rtol=1e-9)


def test_quantized_amplitude_keeps_the_bits_of_a_unit_spec(make_guided, make_surface):
    # the reference inversion goes through a spec replaced at amplitude 1.0,
    # whatever amplitude the spec it is given carries
    rng = np.random.default_rng(19)
    for _ in range(100):
        con = (SI, NATURAL)[rng.integers(2)]
        direction = (1, -1)[rng.integers(2)]
        family, m, n = [("TM", 1, 1), ("TE", 1, 0), ("TE", 2, 1), ("TM", 3, 2)][rng.integers(4)]
        n_quanta = int(rng.integers(1, 6))
        guided = make_guided(family, m, n, ratio=rng.uniform(1.01, 4.0),
                             direction=direction, constants=con)
        surface = make_surface(family, eta=rng.uniform(1.2, 3.0),
                               phi_deg=rng.uniform(50.0, 85.0),
                               omega=10.0 ** rng.uniform(10, 16) if con is SI
                               else rng.uniform(0.1, 10),
                               area=10.0 ** rng.uniform(-8, 0), direction=direction,
                               constants=con)
        for spec in (guided, surface):
            target = n_quanta * con.hbar * spec.omega
            expected = math.sqrt(target / replace(spec, amplitude=1.0).closed_forms()[0])
            for amplitude in (1.0, 1, 10.0 ** rng.uniform(-6, 6)):
                assert amplitude_for_quanta(
                    n_quanta, replace(spec, amplitude=amplitude)) == expected


def test_natural_unit_quantization(make_guided, unit_geometry):
    spec = make_guided("TM", 1, 1, ratio=SQRT2, constants=NATURAL,
                       geometry=unit_geometry)
    spec = replace(spec, amplitude=amplitude_for_quanta(1, spec))
    obs = integrate_guided(spec)
    assert_allclose(obs.W, spec.omega, rtol=1e-9)
    assert_allclose(obs.S_perp, 1.0, rtol=1e-9)


# ---------------------------------------------------------------------------
# balance


def test_electric_and_magnetic_energies_balance(make_guided):
    for family, m, n in [("TM", 1, 1), ("TM", 2, 2), ("TE", 1, 0), ("TE", 2, 1)]:
        for ratio in (1.1, SQRT2, 2.0):
            spec = make_guided(family, m, n, ratio=ratio)
            W = spec.closed_forms()[0]
            assert abs(balance_integral(spec)) <= 1e-12 * W


def test_balance_integral_detects_injected_imbalance(make_guided):
    spec = make_guided("TE", 1, 0)
    W = spec.closed_forms()[0]
    assert abs(balance_integral(spec, b_amplitude_scale=1.01)) > 1e-3 * W


# ---------------------------------------------------------------------------
# ellipticity


def test_guided_ellipticity_tracks_cutoff_ratio(make_guided):
    for ratio in (1.05, SQRT2, 4.0):
        spec = make_guided("TM", 2, 1, ratio=ratio)
        obs = integrate_guided(spec)
        expected = spec.omega_c / (float(np.real(spec.k_z)) * SI.c)
        assert_allclose(obs.ellipticity, expected, rtol=1e-10)
        assert_allclose(math.tan(obs.theta), expected, rtol=1e-10)
    # circular at sqrt(2) omega_c: the ellipse degenerates to a circle
    obs = integrate_guided(make_guided("TM", 1, 1, ratio=SQRT2))
    e, theta = obs.ellipticity, obs.theta
    assert_allclose(e, 1.0, rtol=1e-10)
    assert_allclose(theta, math.pi / 4.0, rtol=1e-10)


def test_te_ellipticity_needs_the_magnetic_ellipse(make_guided):
    # E_z = 0 for TE, so the family's magnetic ellipse is the one measured
    spec = make_guided("TE", 1, 0)
    assert_allclose(integrate_guided(spec).ellipticity, spec.omega_c / (float(np.real(spec.k_z)) * SI.c),
                    rtol=1e-10)


def test_surface_ellipticity_is_decay_over_propagation(make_surface):
    for family in ("TM", "TE"):
        spec = make_surface(family, eta=1.9, phi_deg=64.0)
        e, theta_prime = ellipticity_surface(spec)
        assert_allclose(e, spec.kappa / abs(spec.k_z), rtol=1e-12)
        assert_allclose(math.tan(theta_prime), spec.kappa / abs(spec.k_z),
                        rtol=1e-12)
        assert e < 1.0  # evanescent ellipse is always sub-circular


# ---------------------------------------------------------------------------
# surface totals


@pytest.mark.parametrize("family", ["TM", "TE"])
@pytest.mark.parametrize("eta, phi_deg", [(1.45, 50.0), (1.45, 70.0),
                                          (2.0, 50.0), (2.0, 70.0)])
def test_surface_quadrature_matches_closed_forms(make_surface, family, eta, phi_deg):
    spec = make_surface(family, eta=eta, phi_deg=phi_deg, amplitude=1.3)
    obs = integrate_surface(spec)
    W, P_z, S_y = spec.closed_forms()
    assert_allclose(obs.W, W, rtol=1e-9)
    assert_allclose(obs.P_z, P_z, rtol=1e-9)
    assert_allclose(obs.S_y, S_y, rtol=1e-9)


def test_closed_forms_keep_the_bits_of_the_plain_products(make_guided, make_surface):
    # the plain products, as written before the mantissa split: the
    # reference wherever no partial product leaves the normal range
    rng = np.random.default_rng(7)
    for _ in range(300):
        con = (SI, NATURAL)[rng.integers(2)]
        amplitude = 10.0 ** rng.uniform(-6, 6)
        direction = (1, -1)[rng.integers(2)]
        family, m, n = [("TM", 1, 1), ("TE", 1, 0), ("TE", 2, 1), ("TM", 3, 2)][rng.integers(4)]
        spec = make_guided(family, m, n, ratio=rng.uniform(1.01, 4.0), amplitude=amplitude,
                           direction=direction, constants=con)
        nu = 2.0 if (family, n) == ("TE", 0) else 1.0
        V, h2 = spec.geometry.volume, amplitude**2
        omega, omega_c, k_z = spec.omega, spec.omega_c, float(np.real(spec.k_z))
        assert spec.closed_forms() == (
            nu * con.eps0 * omega**2 * V * h2 / (8.0 * omega_c**2),
            nu * con.eps0 * omega * k_z * V * h2 / (8.0 * omega_c**2),
            nu * con.eps0 * con.c * k_z * V * h2 / (4.0 * omega_c * omega))
        spec = make_surface(family, eta=rng.uniform(1.2, 3.0), phi_deg=rng.uniform(50.0, 85.0),
                            omega=10.0 ** rng.uniform(10, 16) if con is SI else rng.uniform(0.1, 10),
                            amplitude=amplitude, area=10.0 ** rng.uniform(-8, 0),
                            direction=direction, constants=con)
        A, omega, k_z, kappa = spec.area, spec.omega, spec.k_z, spec.kappa
        assert spec.closed_forms() == (
            con.eps0 * A * h2 * k_z**2 * con.c**2 / (4.0 * kappa * omega**2),
            con.eps0 * A * h2 * k_z / (4.0 * kappa * omega),
            con.eps0 * A * h2 * k_z * con.c**2 / (2.0 * omega**3))


def test_surface_spin_quantization(make_surface):
    for n_quanta in (1, 3):
        spec = make_surface("TE", eta=1.45, phi_deg=65.0)
        spec = replace(spec, amplitude=amplitude_for_quanta(n_quanta, spec))
        obs = integrate_surface(spec)
        assert_allclose(obs.W, n_quanta * SI.hbar * spec.omega, rtol=1e-9)
        expected = 2.0 * n_quanta * SI.hbar * spec.kappa / spec.k_z
        assert_allclose(obs.S_y, expected, rtol=1e-9)
        assert_allclose(quantized_transverse_spin_surface(n_quanta, spec),
                        expected, rtol=1e-15)
        assert obs.n_quanta_integer == n_quanta


def test_surface_momentum_per_quantum_follows_energy_transport(make_surface):
    """The integrated momentum per quantum is (v/c^2) hbar omega with
    v = omega/k_z — smaller than hbar k_z by exactly (omega/(c k_z))^2,
    which is < 1 because omega < c k_z for an evanescent wave."""
    spec = make_surface("TM", eta=1.5, phi_deg=60.0)
    spec = replace(spec, amplitude=amplitude_for_quanta(1, spec))
    obs = integrate_surface(spec)
    v = spec.omega / spec.k_z
    assert_allclose(obs.P_z, (v / SI.c**2) * SI.hbar * spec.omega, rtol=1e-9)
    factor = obs.P_z / (SI.hbar * spec.k_z)
    assert_allclose(factor, (spec.omega / (SI.c * spec.k_z)) ** 2, rtol=1e-9)
    assert factor < 1.0


def test_surface_direction_reversal(make_surface):
    fwd = integrate_surface(make_surface("TE", direction=+1))
    bwd = integrate_surface(make_surface("TE", direction=-1))
    assert_allclose(bwd.W, fwd.W, rtol=1e-12)
    assert_allclose(bwd.P_z, -fwd.P_z, rtol=1e-12)
    assert_allclose(bwd.S_y, -fwd.S_y, rtol=1e-12)


def test_infinite_depth_integrates_the_half_space(make_surface):
    # the half space x >= 0 is the integral to infinite depth
    for family in ("TM", "TE"):
        spec = make_surface(family, eta=1.7, phi_deg=58.0)
        obs = integrate_surface(spec)
        assert_allclose((obs.W, obs.P_z, obs.S_y), spec.closed_forms(), rtol=1e-15)


@pytest.mark.parametrize("depth", [12.0, 20.0, 1e4, math.inf])
def test_surface_quadrature_evaluates_one_node(make_surface, monkeypatch, capsys, depth):
    phasor = observables.surface_field_phasor
    points = []

    def spy(spec, point, t=0.0):
        points.append(point)
        return phasor(spec, point, t)

    monkeypatch.setattr(observables, "surface_field_phasor", spy)
    spec = make_surface("TE", direction=-1)
    integrate_surface(spec)
    # a report runs the same quadrature whatever spin-map depth it is given
    assert main(["report", "--kind", "surface", "--x-max-kappa", repr(depth)]) == 0
    kappa = json.loads(capsys.readouterr().out)["kappa"]
    [(x, y, z), (x_report, y_report, z_report)] = points
    assert np.shape(x) == () and y == 0.0 and z == 0.0
    assert np.shape(x_report) == () and y_report == 0.0 and z_report == 0.0
    # the midpoint u0 = 1/2 of (0, 1] in u = exp(-2 kappa x)
    assert x == -math.log(0.5) / (2.0 * spec.kappa)
    assert x_report == -math.log(0.5) / (2.0 * kappa)


def _slab_totals(spec, depth):
    """The one-node rule on ``0 <= kappa x <= depth``: the midpoint of
    ``[exp(-2 depth), 1]`` in ``u`` with the weight ``(1 - exp(-2 depth))/(2 kappa u0)``."""
    tail = math.exp(-2.0 * depth)
    u0 = 0.5 * (1.0 + tail)
    weight = (1.0 - tail) / (2.0 * spec.kappa * u0)
    field = surface_field_phasor(spec, (-math.log(u0) / (2.0 * spec.kappa), 0.0, 0.0))
    con = spec.constants
    densities = (energy_density(field, con), momentum_density(field, con)[..., 2],
                 spin_densities(field, spec.omega, con).total()[..., 1])
    return tuple(spec.area * float(weight * d) for d in densities)


_DEPTHS = st.one_of(st.sampled_from([12.0, 35.5, 400.0, 1e4, math.inf]),
                    st.floats(math.log10(12.0), 4.0).map(lambda e: 10.0**e))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(family=st.sampled_from(["TM", "TE"]), eta=st.floats(1.05, 4.0),
       phi_fraction=st.floats(0.01, 0.99), log_omega=st.floats(10.0, 16.0),
       log_amplitude=st.floats(-6.0, 6.0), log_area=st.floats(-8.0, 0.0),
       direction=st.sampled_from([1, -1]), depth=_DEPTHS)
def test_surface_rule_is_exact_for_the_truncated_integral(
        make_surface, family, eta, phi_fraction, log_omega, log_amplitude, log_area,
        direction, depth):
    # every density is a constant times u = exp(-2 kappa x), the premise of the
    # one-node rule: a node anywhere in u integrates any slab exactly
    critical = math.degrees(math.asin(1.0 / eta))
    spec = make_surface(family, eta=eta, phi_deg=critical + phi_fraction * (90.0 - critical),
                        omega=10.0**log_omega, amplitude=10.0**log_amplitude,
                        area=10.0**log_area, direction=direction)
    slab = _slab_totals(spec, depth)
    obs = integrate_surface(spec)
    kept = 1.0 - math.exp(-2.0 * depth)
    for total, half, closed in zip(slab, (obs.W, obs.P_z, obs.S_y), spec.closed_forms()):
        assert abs(total / closed - kept) <= 1e-14
        assert abs(total / half - kept) <= 1e-14
    if depth == math.inf:
        assert slab == (obs.W, obs.P_z, obs.S_y)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(family=st.sampled_from(["TM", "TE"]), eta=st.floats(1.05, 4.0),
       phi_fraction=st.floats(0.01, 0.99), log_omega=st.floats(10.0, 16.0),
       log_amplitude=st.floats(-6.0, 6.0), log_area=st.floats(-8.0, 0.0),
       direction=st.sampled_from([1, -1]))
def test_surface_rule_is_exact_on_the_half_space(
        make_surface, family, eta, phi_fraction, log_omega, log_amplitude, log_area,
        direction):
    # phi between the critical angle asin(1/eta) and grazing incidence
    critical = math.degrees(math.asin(1.0 / eta))
    spec = make_surface(family, eta=eta, phi_deg=critical + phi_fraction * (90.0 - critical),
                        omega=10.0**log_omega, amplitude=10.0**log_amplitude,
                        area=10.0**log_area, direction=direction)
    obs = integrate_surface(spec)
    W, P_z, S_y = spec.closed_forms()
    for total, closed in ((obs.W, W), (obs.P_z, P_z), (obs.S_y, S_y)):
        assert abs(total / closed - 1.0) <= 1e-14


@pytest.mark.parametrize("family, m, n", [("TE", 201, 0), ("TM", 1, 300),
                                          ("TE", 10**20, 3)])
def test_guided_grid_is_bounded(make_guided, family, m, n):
    spec = make_guided(family, m, n, ratio=1.5)
    nodes = max(2 * (m + n) + 2, 2 * max(m, n) + 1)
    for integrate in (integrate_guided, balance_integral):
        with pytest.raises(ResolutionError, match=rf"m = {m}, n = {n} need {nodes} "):
            integrate(spec)


# ---------------------------------------------------------------------------
# one z = 0 plane per guided quadrature


@pytest.mark.parametrize("quadrature", [integrate_guided, balance_integral])
def test_each_guided_quadrature_evaluates_one_plane(make_guided, monkeypatch, quadrature):
    kernel, grids, dtypes, crosses = observables._guided_factors, [], [], []

    def spy(spec, x, y):
        grids.append(np.broadcast_arrays(x, y))
        factors = kernel(spec, x, y)
        dtypes.extend(f.dtype for F in factors for f in F if f is not None)
        return factors

    monkeypatch.setattr(observables, "_guided_factors", spy)
    monkeypatch.setattr(observables, "momentum_density", crosses.append)
    quadrature(make_guided("TE", 3, 2))
    # max(2(m+n)+2, 2*max(m, n)+1) nodes per axis, within one block
    assert [x.shape for x, _ in grids] == [(12, 12)]
    for m, n in [(48, 48), (200, 3)]:  # 194 and 408 nodes a side
        spec, grids[:] = make_guided("TE", m, n), []
        quadrature(spec)
        (xs, _), (ys, _) = observables._transverse_rules(spec)
        # the row blocks tile the rows of the one plane once
        assert len(grids) > 1
        assert all(x.size <= modes._BLOCK_NODES and (y[0] == ys).all()
                   for x, y in grids)
        assert np.concatenate([x[:, 0] for x, _ in grids]).tobytes() == xs.tobytes()
    assert crosses == []  # Re(E x B*)_z is formed from its two products
    # the plane is formed on real arrays only
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_guided_plane_keeps_the_bits_of_the_complex_bilinears(bench_geometry):
    rng = np.random.default_rng(33)
    multi_block = 0
    for trial in range(60):
        family = (ModeFamily.TM, ModeFamily.TE)[trial % 2]
        top = int(rng.integers(1, 201))
        # the other index stays small, so that a whole-plane phasor stays small
        low = int(rng.integers(family is ModeFamily.TM, min(top, 12) + 1))
        # a TE index of 0 is n
        m, n = (top, low) if low == 0 or rng.random() < 0.5 else (low, top)
        index = ModeIndex(family, m, n)
        omega = rng.uniform(1.01, 4.0) * cutoff_frequency(index, bench_geometry, SI)
        spec = GuidedModeSpec(bench_geometry, index, omega, 10.0 ** rng.uniform(-3.0, 3.0),
                              (1, -1)[trial // 2 % 2], SI)
        (xs, hx), (ys, hy) = observables._transverse_rules(spec)
        multi_block += xs.size * ys.size > modes._BLOCK_NODES
        field = guided_field_phasor(spec, (xs[:, None], ys[None, :], 0.0))
        E, B = field.E, field.B
        cell, e2, b2, s_z = observables._guided_plane(spec)
        assert cell == hx * hy
        for got, X in ((e2, E), (b2, B)):
            want = np.stack([np.abs(X[..., 0]) ** 2 + np.abs(X[..., 1]) ** 2,
                             np.abs(X[..., 2]) ** 2])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), spec
        # the z component of numpy.cross(E, B.conj())
        want = (E[..., 0] * B[..., 1].conj() - E[..., 1] * B[..., 0].conj()).real
        assert s_z.dtype == want.dtype and s_z.tobytes() == want.tobytes(), spec
    assert multi_block >= 2


def _reference_plane(spec, b_amplitude_scale=1.0):
    """``integrate_guided`` and ``balance_integral`` from the density functions.

    The same plane and rules, with the full densities of :mod:`transpin.spin`
    and each field's component squares formed one at a time.
    """
    con, geometry = spec.constants, spec.geometry
    (xs, hx), (ys, hy) = observables._transverse_rules(spec)
    field = guided_field_phasor(spec, (xs[:, None], ys[None, :], 0.0))

    def plane(density):
        return float(hx * hy * density.sum())

    W = geometry.length * plane(energy_density(field, con))
    P_z = geometry.length * plane(momentum_density(field, con)[..., 2])
    vec = field.B if spec.index.family is ModeFamily.TE else field.E
    area = geometry.a * geometry.b
    h_perp2 = plane(np.abs(vec[..., 0]) ** 2 + np.abs(vec[..., 1]) ** 2) / area
    h_long2 = plane(np.abs(vec[..., 2]) ** 2) / area
    sin_2theta = 2.0 * math.sqrt(h_perp2 * h_long2) / (h_perp2 + h_long2)
    e2 = np.sum(np.abs(field.E) ** 2, axis=-1)
    b2 = np.sum(np.abs(field.B) ** 2, axis=-1) * b_amplitude_scale**2
    return {
        "W": W,
        "P_z": P_z,
        "S_perp": math.copysign(1.0, float(np.real(spec.k_z))) * (W / spec.omega) * sin_2theta,
        "theta": math.atan2(math.sqrt(h_long2), math.sqrt(h_perp2)),
        "ellipticity": math.sqrt(h_long2 / h_perp2),
        "balance": geometry.length * plane(0.25 * con.eps0 * (e2 - con.c**2 * b2)),
    }


@pytest.mark.parametrize("family, m, n, direction", [
    ("TM", 1, 1, 1), ("TM", 3, 7, 1), ("TE", 1, 0, 1), ("TE", 2, 1, 1),
    ("TE", 48, 5, 1), ("TM", 3, 7, -1),
    # several row blocks; TE(200, 3) ends on a partial one
    ("TE", 48, 48, 1), ("TM", 60, 7, -1), ("TE", 200, 3, 1)])
def test_one_plane_pass_keeps_the_bits_of_the_density_functions(make_guided, family, m, n,
                                                                 direction):
    spec = make_guided(family, m, n, ratio=1.3, amplitude=0.37, direction=direction)
    obs = integrate_guided(spec)
    for scale in (1.0, 1.01):
        expected = _reference_plane(spec, scale)
        assert balance_integral(spec, b_amplitude_scale=scale) == expected.pop("balance")
        assert {key: getattr(obs, key) for key in expected} == expected


def test_guided_totals_are_linear_in_length_bit_for_bit(make_guided):
    for family, m, n in [("TM", 1, 1), ("TE", 1, 0), ("TE", 2, 1), ("TM", 3, 7)]:
        spec = make_guided(family, m, n, ratio=1.3, amplitude=0.37)
        geometry = replace(spec.geometry, length=2.0 * spec.geometry.length)
        one = integrate_guided(spec)
        two = integrate_guided(replace(spec, geometry=geometry))
        assert (two.W, two.P_z, two.S_perp) == (2.0 * one.W, 2.0 * one.P_z, 2.0 * one.S_perp)


def test_guided_quadrature_memory_follows_one_plane(make_guided):
    # TE(48,5) has 108^2 nodes in 3 row blocks, TE(48,48) 194^2 nodes in 10
    for m, n in ((48, 5), (48, 48)):
        spec = make_guided("TE", m, n, ratio=1.5)
        nodes = 2 * (m + n) + 2
        tracemalloc.start()
        try:
            integrate_guided(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the plane's transverse and longitudinal |E|^2 and |B|^2 and
        # Re(E x B*)_z take 40 B a node; one row block's five non-zero
        # components and their temporaries stay under 160 B a block node
        assert peak <= nodes**2 * 40 + modes._BLOCK_NODES * 160, (m, n)


def test_surface_totals_subluminal(make_surface):
    obs = integrate_surface(make_surface("TM", eta=2.0, phi_deg=70.0))
    assert obs.W > abs(obs.P_z) * SI.c
    assert abs(obs.v) < SI.c


# ---------------------------------------------------------------------------
# the report document


@pytest.mark.parametrize("combine", [False, True])
@pytest.mark.parametrize("args, kind, quanta, mode", [
    ("--family TM --m 1 --n 1", "guided", None, {"family": "TM", "m": 1, "n": 1}),
    ("--family TE --m 2 --n 1 --direction -1", "guided", None,
     {"family": "TE", "m": 2, "n": 1, "direction": -1}),
    ("--family TE --m 3 --n 0", "guided", None, {"family": "TE", "m": 3, "n": 0}),
    ("--units natural --family TM --m 1 --n 1 --n-quanta 1", "guided", 1,
     {"family": "TM", "m": 1, "n": 1, "constants": NATURAL}),
    ("--family TM --m 2 --n 1 --n-quanta 3", "guided", 3, {"family": "TM", "m": 2, "n": 1}),
    ("--kind surface", "surface", None, {"family": "TE", "area": 1.0}),
    ("--kind surface --family TM --n-quanta 2", "surface", 2, {"family": "TM", "area": 1.0}),
], ids=["TM11", "TE21", "TE30", "natural", "n-quanta", "surface", "surface-n-quanta"])
def test_report_is_the_document_the_cli_prints(args, kind, quanta, mode, combine, make_guided,
                                               make_surface, unit_geometry, capsys):
    spec = (make_guided(geometry=unit_geometry, **mode) if kind == "guided"
            else make_surface(**mode))
    if quanta is not None:
        spec = replace(spec, amplitude=amplitude_for_quanta(quanta, spec))
    doc = report(spec, combine=combine)
    assert main(["report", *args.split(), *(["--combine-spins"] if combine else [])]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True,
                                                 allow_nan=False) + "\n"


def test_report_names_a_spin_that_halves_below_the_float_range(make_guided, tmp_path, capsys):
    # the plain S_perp is about 3.0e-308, a normal float; its half is not
    spec = make_guided("TE", 1, 0, amplitude=3e-69,
                       geometry=WaveguideGeometry(1.0, 1e-50, 1e-100))
    assert report(spec)["observables"]["S_perp"] >= sys.float_info.min
    with pytest.raises(ValueError, match=r"^S_perp = .* leaves the float range"):
        report(spec, combine=True)
    path = tmp_path / "report.json"
    assert main(["report", "--length", "1e-100", "--b", "1e-50", "--amplitude", "3e-69",
                 "--combine-spins", "--output", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: S_perp = ")
    assert not path.exists()


# ---------------------------------------------------------------------------
# relative gaps


def test_relative_gap_has_no_floor():
    assert math.isclose(observables._rel(1.01e-305, 1e-305), 1e-2, rel_tol=1e-12)
    assert observables._rel(2.0e-320, 1.0e-320) == 1.0
    assert observables._rel(0.0, 0.0) == 0.0
    assert observables._rel(1.0, 0.0) == math.inf
    assert observables._rel(-1e-300, 0.0) == math.inf
    assert math.isnan(observables._rel(math.nan, 1.0))
    assert math.isnan(observables._rel(1.0, math.nan))
    assert math.isnan(observables._rel(math.nan, 0.0))


# ---------------------------------------------------------------------------
# API surface

# The parameter names of every public quadrature-layer callable.  A new knob
# (a node count, a tolerance) has to be a deliberate edit of this table.
_SIGNATURES = {
    "GuidedObservables": ("W", "P_z", "S_perp", "v", "theta", "ellipticity",
                          "n_quanta", "n_quanta_integer"),
    "SurfaceObservables": ("W", "P_z", "S_y", "v", "theta_prime", "ellipticity",
                           "n_quanta", "n_quanta_integer"),
    "integrate_guided": ("spec",),
    "integrate_surface": ("spec",),
    "amplitude_for_quanta": ("n", "spec"),
    "quantized_transverse_spin_guided": ("n", "spec"),
    "quantized_transverse_spin_surface": ("n", "spec"),
    "ellipticity_surface": ("spec",),
    "balance_integral": ("spec", "b_amplitude_scale"),
    "evaluate": ("spec",),
    "report": ("spec", "combine"),
}


def test_quadrature_signatures_are_pinned():
    signatures = {name: tuple(inspect.signature(getattr(observables, name)).parameters)
                  for name in observables.__all__}
    assert signatures == _SIGNATURES
