"""The verify catalogue's batched checks against per-point re-derivations."""

import math

import numpy as np

from transpin import (analytic_spin_surface, energy_density, spin_densities,
                      time_average_oracle)
from transpin.spin import (instantaneous_energy_sampler,
                           instantaneous_spin_sampler)
from transpin.verify import run_checks


def _measured(name):
    (result,) = run_checks(name)
    assert result.name == name and result.passed
    return result.measured


def _point_oracle_gap(spec, point):
    """One point's spin oracle gap, computed as the catalogue did one point at a time."""
    con = spec.constants
    field = spec.phasor(point)
    w = float(energy_density(field, con))
    averaged = time_average_oracle(instantaneous_spin_sampler(spec, point), spec.omega, 64)
    formula = spin_densities(field, spec.omega, con).total()
    return float(np.max(np.abs(averaged - formula))) / (w / spec.omega)


def _point_energy_gap(spec, point):
    """One point's relative gap between the averaged and the phasor energy density."""
    w = float(energy_density(spec.phasor(point), spec.constants))
    w_avg = float(time_average_oracle(
        instantaneous_energy_sampler(spec, point), spec.omega, 64))
    return abs(w_avg - w) / max(abs(w), 1e-300)


#: one point's 64 energy samples are summed pairwise and a batch's in order,
#: so the two energy gaps agree to rounding, not to the bit (at most 8.3e-16
#: apart on 900 random points of the three oracle modes)
_ENERGY_SUM_ROUNDING = 2e-15


def test_guided_oracle_equals_a_per_point_loop(make_guided):
    spin = energy = 0.0
    rng = np.random.default_rng(11)
    for family, m, n in [("TM", 1, 1), ("TE", 1, 0), ("TE", 2, 1)]:
        spec = make_guided(family, m, n, ratio=math.sqrt(2.0))
        geom = spec.geometry
        for _ in range(8):
            point = (rng.uniform(0, geom.a), rng.uniform(0, geom.b),
                     rng.uniform(0, geom.length))
            spin = max(spin, _point_oracle_gap(spec, point))
            energy = max(energy, _point_energy_gap(spec, point))
    # the batched spin gap equals the per-point one bit for bit (see below),
    # so only the energy gap can lift the check's value above it
    measured = _measured("guided-time-average-oracle")
    assert spin <= measured <= max(spin, energy) + _ENERGY_SUM_ROUNDING


def test_surface_oracle_equals_a_per_point_loop(make_surface):
    worst = 0.0
    rng = np.random.default_rng(29)
    for family in ("TM", "TE"):
        spec = make_surface(family, eta=1.7, phi_deg=58.0)
        xs = rng.uniform(0.0, 4.0 / spec.kappa, 8)
        pipeline = spin_densities(spec.phasor((xs, 0.0, 0.0)), spec.omega,
                                  spec.constants)
        closed = analytic_spin_surface(spec, xs)
        scale = float(np.max(np.abs(closed.total())))
        worst = max(worst,
                    float(np.max(np.abs(pipeline.s_e - closed.s_e))) / scale,
                    float(np.max(np.abs(pipeline.s_m - closed.s_m))) / scale)
        for x in xs[:4]:
            worst = max(worst, _point_oracle_gap(spec, (float(x), 0.0, 0.0)))
    assert worst == _measured("surface-pipeline-and-oracle")


def test_batched_oracle_gap_is_the_worst_point_gap(make_guided, make_surface):
    # The spin gap only: one point's 64 energy samples are summed pairwise
    # and a batch's in order, so the energy gap agrees to rounding, not bits.
    from transpin.verify import _oracle_residual
    rng = np.random.default_rng(5)
    guided = make_guided("TE", 2, 1, ratio=1.6)
    geom = guided.geometry
    surface = make_surface("TM")
    for spec, points in [
        (guided, rng.uniform(0.0, (geom.a, geom.b, geom.length), (6, 3))),
        (surface, np.stack([rng.uniform(0.0, 3.0 / surface.kappa, 6),
                            np.zeros(6), np.zeros(6)], axis=1)),
    ]:
        gaps = [_point_oracle_gap(spec, tuple(p)) for p in points.tolist()]
        assert _oracle_residual(spec, tuple(points.T)) == max(gaps)
        for p, gap in zip(points, gaps):
            assert _oracle_residual(spec, tuple(p[:, None])) == gap
