"""Acceptance suite: one test per shipped criterion, pinned tolerances.

Each test registers its outcome in ``RESULTS``; the conftest terminal-summary
hook prints one PASS/FAIL line per criterion after the run.  Tolerances are
part of the contract and appear literally in the assertions.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose

from transpin import (amplitude_for_quanta, analytic_spin_guided,
                      analytic_spin_surface, balance_integral,
                      build_spin_matrices, energy_density,
                      guided_field_phasor,
                      guided_mass_report, helicity_eigensystem,
                      integrate_guided, integrate_surface, momentum_density,
                      quantized_transverse_spin_guided,
                      quantized_transverse_spin_surface, spin_densities,
                      surface_field_phasor,
                      surface_mass_report, surface_rest_mass_density,
                      time_average_oracle)
from transpin.cli import main
from transpin.constants import SI
from transpin.spin import (instantaneous_energy_sampler,
                           instantaneous_spin_sampler)
from transpin.verify import run_checks

RESULTS = {}

SQRT2 = math.sqrt(2.0)
MODES = [("TM", 1, 1), ("TM", 2, 1), ("TM", 2, 2),
         ("TE", 1, 0), ("TE", 1, 1), ("TE", 2, 1)]
RATIOS = (1.1, SQRT2, 2.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        RESULTS[number] = (description, False)
        raise
    else:
        RESULTS[number] = (description, True)


def test_criterion_01_volume_totals_match_closed_forms(make_guided):
    with criterion(1, "guided quadrature totals match closed forms to 1e-9"):
        for family, m, n in MODES:
            for ratio in RATIOS:
                spec = make_guided(family, m, n, ratio=ratio)
                obs = integrate_guided(spec)
                W, P_z, S = spec.closed_forms()
                assert_allclose(obs.W, W, rtol=1e-9)
                assert_allclose(obs.P_z, P_z, rtol=1e-9)
                assert_allclose(obs.S_perp, S, rtol=1e-9)


def test_criterion_02_guided_spin_quantization(make_guided):
    with criterion(2, "S_perp = n*hbar*sin(2 theta), = n*hbar at sqrt(2) cutoff"):
        for n_quanta in (1, 2, 5):
            for ratio in RATIOS:
                spec = make_guided("TE", 2, 1, ratio=ratio)
                spec = replace(spec,
                               amplitude=amplitude_for_quanta(n_quanta, spec))
                obs = integrate_guided(spec)
                expected = n_quanta * SI.hbar * math.sin(2.0 * obs.theta)
                assert_allclose(obs.S_perp, expected, rtol=1e-9)
                assert_allclose(
                    obs.S_perp, quantized_transverse_spin_guided(n_quanta, spec),
                    rtol=1e-9)
            spec = make_guided("TM", 1, 1, ratio=SQRT2)
            spec = replace(spec, amplitude=amplitude_for_quanta(n_quanta, spec))
            assert_allclose(integrate_guided(spec).S_perp,
                            n_quanta * SI.hbar, rtol=1e-9)


def test_criterion_03_surface_totals_and_quantization(make_surface):
    with criterion(3, "surface totals match closed forms; S_y = 2n*hbar*tan(theta')"):
        for family in ("TM", "TE"):
            for eta in (1.45, 2.0):
                for phi_deg in (50.0, 70.0):
                    spec = make_surface(family, eta=eta, phi_deg=phi_deg)
                    obs = integrate_surface(spec)
                    W, P_z, S_y = spec.closed_forms()
                    assert_allclose(obs.W, W, rtol=1e-9)
                    assert_allclose(obs.P_z, P_z, rtol=1e-9)
                    assert_allclose(obs.S_y, S_y, rtol=1e-9)
                    for n_quanta in (1, 2):
                        pinned = replace(spec, amplitude=amplitude_for_quanta(
                            n_quanta, spec))
                        tan_theta_prime = pinned.kappa / pinned.k_z
                        assert_allclose(
                            integrate_surface(pinned).S_y,
                            2.0 * n_quanta * SI.hbar * tan_theta_prime,
                            rtol=1e-9)
                        assert_allclose(
                            quantized_transverse_spin_surface(n_quanta, pinned),
                            2.0 * n_quanta * SI.hbar * tan_theta_prime,
                            rtol=1e-12)


def test_criterion_04_brute_force_time_averages(make_guided, make_surface):
    with criterion(4, "64-sample time averages match phasor formulas to 1e-10"):
        rng = np.random.default_rng(404)
        specs = [make_guided("TM", 1, 1), make_guided("TE", 1, 0, ratio=1.8),
                 make_guided("TE", 2, 1, ratio=1.2)]
        points = []
        for spec in specs:
            geom = spec.geometry
            points.append([(rng.uniform(0, geom.a), rng.uniform(0, geom.b),
                            rng.uniform(0, geom.length)) for _ in range(8)])
        for family in ("TM", "TE"):
            spec = make_surface(family)
            specs.append(spec)
            points.append([(rng.uniform(0, 4.0 / spec.kappa), 0.0, 0.0)
                           for _ in range(8)])
        for spec, spec_points in zip(specs, points):
            for point in spec_points:
                field = spec.phasor(point)
                scale = float(energy_density(field, SI))
                averaged_s = time_average_oracle(
                    instantaneous_spin_sampler(spec, point), spec.omega, 64)
                formula_s = spin_densities(field, spec.omega, SI).total()
                assert np.max(np.abs(averaged_s - formula_s)) <= 1e-10 * (
                    scale / spec.omega)
                averaged_w = time_average_oracle(
                    instantaneous_energy_sampler(spec, point), spec.omega, 64)
                assert abs(float(averaged_w) - scale) <= 1e-10 * scale


def test_criterion_05_structural_zeros(make_guided, make_surface):
    with criterion(5, "s_z, idle-branch and evanescent spins vanish to 1e-15"):
        rng = np.random.default_rng(505)
        for family, m, n in MODES:
            spec = make_guided(family, m, n, ratio=1.9)
            xs = rng.uniform(0.0, spec.geometry.a, 20)
            ys = rng.uniform(0.0, spec.geometry.b, 20)
            field = guided_field_phasor(spec, (xs, ys, 0.0))
            pair = spin_densities(field, spec.omega, SI)
            scale = float(np.max(energy_density(field, SI))) / spec.omega
            assert np.max(np.abs(pair.total()[..., 2])) <= 1e-15 * scale
            idle = pair.s_m if family == "TM" else pair.s_e
            assert np.max(np.abs(idle)) <= 1e-15 * scale
        for family in ("TM", "TE"):
            spec = make_surface(family)
            xs = rng.uniform(0.0, 3.0 / spec.kappa, 20)
            field = surface_field_phasor(spec, (xs, 0.0, 0.0))
            pair = spin_densities(field, spec.omega, SI)
            scale = float(np.max(energy_density(field, SI))) / spec.omega
            assert np.max(np.abs(pair.total()[..., 2])) <= 1e-15 * scale
            idle = pair.s_m if family == "TM" else pair.s_e
            assert np.max(np.abs(idle)) <= 1e-15 * scale
        spec = make_guided("TM", 1, 1, ratio=0.8)
        xs = rng.uniform(0.0, spec.geometry.a, 20)
        ys = rng.uniform(0.0, spec.geometry.b, 20)
        field = guided_field_phasor(spec, (xs, ys, 0.0))
        pair = spin_densities(field, spec.omega, SI)
        scale = float(np.max(energy_density(field, SI))) / spec.omega
        assert np.max(np.abs(pair.s_e)) <= 1e-15 * scale
        assert np.max(np.abs(pair.s_m)) <= 1e-15 * scale


def test_criterion_06_spin_momentum_locking(make_guided, make_surface):
    with criterion(6, "reversing k_z negates every transverse spin sample"):
        rng = np.random.default_rng(606)
        for family, m, n in MODES:
            fwd = make_guided(family, m, n, ratio=1.6, direction=+1)
            bwd = make_guided(family, m, n, ratio=1.6, direction=-1)
            xs = rng.uniform(0.0, fwd.geometry.a, 20)
            ys = rng.uniform(0.0, fwd.geometry.b, 20)
            s_f = analytic_spin_guided(fwd, (xs, ys)).total()
            s_b = analytic_spin_guided(bwd, (xs, ys)).total()
            assert np.max(np.abs(s_f + s_b)) <= 1e-15 * np.max(np.abs(s_f))
        for family in ("TM", "TE"):
            xs = rng.uniform(0.0, 2.0 / make_surface(family).kappa, 12)
            s_f = analytic_spin_surface(make_surface(family, direction=+1), xs).total()
            s_b = analytic_spin_surface(make_surface(family, direction=-1), xs).total()
            assert np.max(np.abs(s_f + s_b)) <= 1e-15 * np.max(np.abs(s_f))


def test_criterion_07_energy_balance(make_guided):
    with criterion(7, "electric/magnetic energy balance residual <= 1e-12 W"):
        for family, m, n in MODES:
            for ratio in RATIOS:
                spec = make_guided(family, m, n, ratio=ratio)
                W = spec.closed_forms()[0]
                assert abs(balance_integral(spec)) <= 1e-12 * W


def test_criterion_08_mass_identities(make_guided, make_surface):
    with criterion(8, "effective-mass identities hold to 1e-12 (both pictures)"):
        c = SI.c
        for ratio in (1.1, SQRT2, 2.0):
            for n_quanta in (1, 2):
                spec = make_guided("TE", 1, 1, ratio=ratio)
                spec = replace(spec,
                               amplitude=amplitude_for_quanta(n_quanta, spec))
                rep = guided_mass_report(spec)
                assert_allclose(rep.epsilon**2,
                                (rep.p * c) ** 2 + (rep.m0 * c**2) ** 2,
                                rtol=1e-12)
                assert_allclose(rep.v_g * rep.v_p, c**2, rtol=1e-12)
                assert_allclose(rep.M0, n_quanta * rep.m0, rtol=1e-12)
                W = integrate_guided(spec).W
                gamma = 1.0 / math.sqrt(1.0 - (rep.v_g / c) ** 2)
                assert_allclose(W, rep.M0 * c**2 * gamma, rtol=1e-9)
        for family in ("TM", "TE"):
            spec = make_surface(family, eta=1.6, phi_deg=58.0)
            spec = replace(spec, amplitude=amplitude_for_quanta(2, spec))
            rep = surface_mass_report(spec)
            assert_allclose(rep.epsilon**2,
                            (rep.p * c) ** 2 + (rep.m_s * c**2) ** 2,
                            rtol=1e-12)
            assert_allclose(rep.M_s, 2.0 * rep.m_s, rtol=1e-12)
            gamma = 1.0 / math.sqrt(1.0 - (rep.v / c) ** 2)
            assert_allclose(gamma, spec.k_z / spec.kappa, rtol=1e-12)
            obs = integrate_surface(spec)
            assert_allclose(obs.W, rep.M_s * c**2 * gamma, rtol=1e-9)
            assert_allclose(obs.P_z, rep.M_s * rep.v * gamma, rtol=1e-9)
            xs = np.linspace(0.0, 5.0 / spec.kappa, 40)
            field = surface_field_phasor(spec, (xs, 0.0, 0.0))
            w = energy_density(field, SI)
            p_z = momentum_density(field, SI)[..., 2]
            assert_allclose(w**2 - (p_z * c) ** 2,
                            (surface_rest_mass_density(spec, xs) * c**2) ** 2,
                            rtol=1e-12)


def test_criterion_09_spin_matrix_algebra():
    with criterion(9, "spin-1 algebra and helicity eigenbases to 1e-13"):
        sms = build_spin_matrices()
        tau_x = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
        tau_y = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]])
        tau_z = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
        assert_allclose(sms.tau, [tau_x, tau_y, tau_z], atol=0)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k], eps[j, i, k] = 1.0, -1.0
        for i in range(3):
            for j in range(3):
                bracket = sms.tau[i] @ sms.tau[j] - sms.tau[j] @ sms.tau[i]
                expected = 1j * np.einsum("k,kab->ab", eps[i, j], sms.tau)
                assert np.max(np.abs(bracket - expected)) <= 1e-13
        assert np.max(np.abs(sum(s @ s for s in sms.Sigma) - 2 * np.eye(6))) <= 1e-13
        assert np.max(np.abs(sms.U @ sms.U - np.eye(6))) <= 1e-13
        assert np.max(np.abs(sms.U @ sms.U.conj().T - np.eye(6))) <= 1e-13

        rng = np.random.default_rng(909)
        dirs = rng.normal(size=(1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = np.vstack([dirs, [[0, 0, 1.0], [0, 0, -1.0]],
                          [[1e-10, -1e-10, math.sqrt(1 - 2e-20)]],
                          [[-1e-10, 1e-10, -math.sqrt(1 - 2e-20)]]])
        basis = helicity_eigensystem(dirs)
        matrices = np.einsum("ik,kab->iab", dirs, sms.tau)
        for lam in (1, 0, -1):
            e = basis.vector(lam)
            applied = np.einsum("iab,ib->ia", matrices, e)
            assert np.max(np.abs(applied - lam * e)) <= 1e-13

        s2 = math.sqrt(2.0)
        for n, expected in [
            ([0, 0, 1], np.array([1, 1j, 0]) / s2),
            ([1, 0, 0], np.array([0, 1j, -1]) / s2),
            ([0, 1, 0], np.array([1, 0, -1j]) / s2),
        ]:
            e = helicity_eigensystem(np.array(n, dtype=float)).e_plus
            assert abs(abs(np.vdot(expected, e)) - 1.0) <= 1e-13


def _load_map(args, path):
    assert main(["spinmap", *args, "--output", str(path)]) == 0
    lines = path.read_text().strip().split("\n")[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def test_criterion_10_normalized_spin_maps(tmp_path):
    with criterion(10, "exported spin maps show the pinned sign structure"):
        common = ["--normalize", "paper-figures", "--a", "1", "--b", "1"]
        # TE10: s_y odd about the midline, zero on it and on the side walls
        rows = _load_map(["--family", "TE", "--m", "1", "--n", "0",
                          "--nx", "25", "--ny", "3", *common],
                         tmp_path / "te10.csv")
        block = rows[:25]
        sy = block[:, 3]
        assert np.max(np.abs(sy[[0, 12, 24]])) <= 1e-13
        assert_allclose(sy, -sy[::-1], atol=1e-13)
        assert sy[6] < 0.0 < sy[18]  # extrema at x = a/4 and 3a/4
        # TM11: spin vanishes at the four corners and the center
        rows = _load_map(["--family", "TM", "--m", "1", "--n", "1",
                          "--nx", "13", "--ny", "9", *common],
                         tmp_path / "tm11.csv")
        tm11 = rows.reshape(9, 13, 6)
        scale = np.max(tm11[:, :, 5])
        for j, i in [(0, 0), (0, 12), (8, 0), (8, 12), (4, 6)]:
            assert tm11[j, i, 5] <= 1e-13 * scale
        # doubled indices tile the cell pattern 2x2 and double its strength
        for family, base in (("TM", tm11), ("TE", None)):
            if base is None:
                rows = _load_map(["--family", "TE", "--m", "1", "--n", "1",
                                  "--nx", "13", "--ny", "9", *common],
                                 tmp_path / "te11.csv")
                base = rows.reshape(9, 13, 6)
            rows = _load_map(["--family", family, "--m", "2", "--n", "2",
                              "--nx", "25", "--ny", "17", *common],
                             tmp_path / f"{family.lower()}22.csv")
            doubled = rows.reshape(17, 25, 6)
            scale = np.max(np.abs(doubled[:, :, 2:5]))
            quadrants = [doubled[:9, :13, 2:5], doubled[:9, 12:, 2:5],
                         doubled[8:, :13, 2:5], doubled[8:, 12:, 2:5]]
            for quadrant in quadrants[1:]:
                assert np.max(np.abs(quadrant - quadrants[0])) <= 1e-13 * scale
            assert np.max(np.abs(quadrants[0] - 2.0 * base[:, :, 2:5])) <= (
                1e-12 * scale)


def test_criterion_11_documented_resolutions():
    with criterion(11, "momentum-form and pole-convention resolutions on record"):
        doc = Path(__file__).resolve().parent.parent / "docs" / "derivations.md"
        assert doc.is_file(), "docs/derivations.md is missing"
        text = doc.read_text()
        assert "surface-momentum-form" in text
        assert "algebra-helicity-eigensystem" in text
        for name in ("surface-momentum-form", "algebra-helicity-eigensystem"):
            results = run_checks(name)
            assert results and all(r.passed for r in results)
