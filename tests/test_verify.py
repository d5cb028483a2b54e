"""The verify catalogue's batched checks against per-point re-derivations."""

import ast
import math
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import transpin
from transpin import (GuidedMassReport, GuidedModeSpec, GuidedObservables,
                      SurfaceMassReport, SurfaceObservables,
                      amplitude_for_quanta, analytic_spin_surface, cli,
                      energy_density, evaluate, spin_densities,
                      time_average_oracle)
from transpin import verify
from transpin.spin import (instantaneous_energy_sampler,
                           instantaneous_spin_sampler)
from transpin.verify import check_names, run_checks


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


# ---------------------------------------------------------------------------
# a check whose control fails, fails, and keeps its measured value


def _positional_only(function):
    """``function`` called without its keyword arguments."""
    return lambda *args, **kwargs: function(*args)


@pytest.mark.parametrize("name, attribute, disable, detail", [
    # the 1 % fault on B is never injected, so the control sees a balance
    ("guided-balance", "balance_integral", _positional_only, "FAULT CONTROL FAILED"),
    # the off-branch residual is the on-branch one, so nothing is separated
    ("guided-klein-gordon", "dispersion_residual", _positional_only, None),
    ("algebra-closure", "generator_closure_rank", lambda rank: lambda: 5, None),
])
def test_a_failed_control_fails_its_check_and_keeps_measured(name, attribute, disable,
                                                             detail, monkeypatch):
    (held,) = run_checks(name)
    monkeypatch.setattr(verify, attribute, disable(getattr(verify, attribute)))
    (failed,) = run_checks(name)
    assert held.passed and not failed.passed
    assert repr(failed.measured) == repr(held.measured)
    assert failed.detail == (held.detail if detail is None else detail)


# ---------------------------------------------------------------------------
# every printed number is seen by some check

#: the record each wrapped call returns, by its name in the package
_RECORDS = {"integrate_guided": GuidedObservables,
            "integrate_surface": SurfaceObservables,
            "guided_mass_report": GuidedMassReport,
            "surface_mass_report": SurfaceMassReport}
_FLOAT_FIELDS = [(name, f.name) for name, record in _RECORDS.items()
                 for f in fields(record) if f.type.startswith("float")]


def _replace_everywhere(original, wrapper, monkeypatch):
    """Bind ``wrapper`` wherever a ``transpin`` module binds ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "transpin" or name.startswith("transpin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def _failed_checks(function, field, perturb, monkeypatch):
    """The checks that fail with ``function().field`` replaced by ``perturb(field)``.

    The function is wrapped at every binding of it in a ``transpin`` module,
    as ``perfbench/tracer.py`` wraps it, so every caller sees the wrapper.
    """
    original = getattr(transpin, function)

    def perturbed(*args, **kwargs):
        record = original(*args, **kwargs)
        value = getattr(record, field)
        if value is None:
            return record
        return replace(record, **{field: perturb(value)})

    _replace_everywhere(original, perturbed, monkeypatch)
    return [r.name for r in run_checks() if not r.passed]


@pytest.mark.parametrize("function, field", _FLOAT_FIELDS)
def test_a_perturbed_output_field_fails_some_check(function, field, monkeypatch):
    # ten times the 1e-9 contract: a field this wrong must not pass the catalogue
    failed = _failed_checks(function, field, lambda value: value * (1.0 + 1e-8), monkeypatch)
    assert failed, f"no check sees {function}().{field} scaled by 1 + 1e-8"


@pytest.mark.parametrize("function, field", _FLOAT_FIELDS)
def test_a_nan_output_field_fails_some_check(function, field, monkeypatch):
    # max(worst, nan) keeps worst, so a check that reduced with it passed a NaN
    failed = _failed_checks(function, field, lambda value: math.nan, monkeypatch)
    assert failed, f"no check sees {function}().{field} set to NaN"


# ---------------------------------------------------------------------------
# every identity that evaluate computes is read

_SHARED_GAPS = {"W", "P_z", "dispersion", "v", "ellipticity", "theta", "mass_triangle"}
_GAPS = {"guided": _SHARED_GAPS | {"S_perp", "v_g_v_p"},
         "surface": _SHARED_GAPS | {"S_y", "gamma", "P_gamma"}}
#: the per-quantum laws, present when obs.n_quanta_integer is an integer
_QUANTA_GAPS = {"S_quantized", "W_quanta", "n_quanta", "M_n_m", "W_gamma"}


def test_evaluate_key_sets_are_pinned(make_guided, make_surface):
    for kind, spec in [("guided", make_guided("TE", 1, 0, ratio=1.3)),
                       ("guided", make_guided("TM", 2, 1, ratio=3.0)),
                       ("surface", make_surface("TM")), ("surface", make_surface("TE"))]:
        obs, _, gaps = evaluate(spec)
        assert obs.n_quanta_integer is None and set(gaps) == _GAPS[kind]
        quantized = replace(spec, amplitude=amplitude_for_quanta(2, spec))
        obs, _, gaps = evaluate(quantized)
        assert obs.n_quanta_integer == 2 and set(gaps) == _GAPS[kind] | _QUANTA_GAPS
        assert max(gaps.values()) <= 1e-9


class _ReadGaps(dict):
    """A gap dict that adds the name of each gap read to ``read``."""

    def __init__(self, gaps, read):
        super().__init__(gaps)
        self.read = read

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def test_every_evaluate_gap_is_read_by_a_check_or_report(monkeypatch, capsys):
    computed = {"guided": set(), "surface": set()}
    read = {"guided": set(), "surface": set()}
    original = transpin.observables.evaluate

    def recording(spec):
        obs, mass, gaps = original(spec)
        kind = "guided" if isinstance(spec, GuidedModeSpec) else "surface"
        computed[kind].update(gaps)
        return obs, mass, _ReadGaps(gaps, read[kind])

    _replace_everywhere(original, recording, monkeypatch)
    assert all(r.passed for r in run_checks())
    for kind in ("guided", "surface"):
        assert cli.main(["report", "--kind", kind, "--n-quanta", "2"]) == 0
    capsys.readouterr()
    assert read == computed == {kind: gaps | _QUANTA_GAPS for kind, gaps in _GAPS.items()}


def test_benchmark_pins_the_check_names_in_order():
    # perfbench keeps a per-check metric under each name and requires every
    # one to pass, so a renamed or reordered check must show here first
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    names = next(node.value for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "VERIFY_CHECK_NAMES")
    assert check_names() == list(ast.literal_eval(names))


def test_verify_passes_where_a_default_text_encoding_is_an_error():
    # every file the catalogue reads names its encoding
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-m", "transpin", "verify"],
                          capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS  ") == len(check_names())


def test_a_second_verify_in_one_process_prints_the_same_bytes(capsys):
    # no check leaves state behind in the shared spin matrices or elsewhere
    outputs = []
    for _ in range(2):
        assert cli.main(["verify"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
