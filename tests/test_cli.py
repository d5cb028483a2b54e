"""Command-line behavior: CSV/JSON shape, determinism, exit codes."""

import argparse
import contextlib
import gc
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from transpin import (GuidedModeSpec, ModeFamily, ModeIndex, SpinDensityPair,
                      WaveguideGeometry, analytic_spin_guided, analytic_spin_surface, cli,
                      modes, spin)
from transpin.cli import _KEYS, CSV_HEADER, RunConfig, main


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "transpin", *args],
                          capture_output=True, text=True)


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


# ---------------------------------------------------------------------------
# spinmap


def test_spinmap_grid_shape_and_order(capsys):
    assert main(["spinmap", "--family", "TM", "--m", "1", "--n", "1",
                 "--a", "0.0229", "--b", "0.0102", "--nx", "5", "--ny", "4"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert rows.shape == (20, 6)
    # y-major: x sweeps fastest, y is constant within each block of nx rows
    assert_allclose(rows[:5, 1], 0.0, atol=0)
    assert len(set(rows[:5, 0])) == 5
    assert rows[5, 1] > 0.0
    # magnitude column is the Euclidean norm of the three components
    assert_allclose(rows[:, 5], np.linalg.norm(rows[:, 2:5], axis=1),
                    rtol=1e-15)


def test_normalized_map_has_unit_extrema(capsys):
    assert main(["spinmap", "--family", "TE", "--m", "1", "--n", "0",
                 "--normalize", "paper-figures", "--nx", "9", "--ny", "3"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    sy = rows[:9, 3]
    xs = rows[:9, 0]
    assert_allclose(sy[xs == 0.25], -1.0, rtol=1e-12)
    assert_allclose(sy[xs == 0.75], +1.0, rtol=1e-12)
    assert np.max(np.abs(rows[:, 2])) == 0.0  # no x component for n = 0
    assert np.max(np.abs(rows[:, 4])) == 0.0  # spin is purely transverse


def test_combine_flag_halves_the_map(tmp_path):
    base = tmp_path / "total.csv"
    half = tmp_path / "half.csv"
    args = ["spinmap", "--family", "TM", "--m", "2", "--n", "1",
            "--nx", "7", "--ny", "5"]
    assert main(args + ["--output", str(base)]) == 0
    assert main(args + ["--combine-spins", "--output", str(half)]) == 0
    total = parse_csv(base.read_text())
    combined = parse_csv(half.read_text())
    assert_allclose(combined[:, 2:5], 0.5 * total[:, 2:5], rtol=0, atol=1e-300)


def test_surface_map_second_column_is_propagation_axis(capsys):
    assert main(["spinmap", "--kind", "surface", "--family", "TM",
                 "--eta", "1.5", "--phi-deg", "60", "--omega", "1.2e15",
                 "--nx", "4", "--ny", "3", "--z-periods", "2"]) == 0
    rows = parse_csv(capsys.readouterr().out)
    # 3 z stations spanning two guided wavelengths
    z_values = sorted(set(rows[:, 1]))
    assert len(z_values) == 3
    assert z_values[0] == 0.0
    # spin is y-only and decays along x within each station
    sy = rows[:4, 3]
    assert np.all(sy > 0.0) and np.all(np.diff(sy) < 0.0)
    assert np.max(np.abs(rows[:, 2])) == 0.0
    assert np.max(np.abs(rows[:, 4])) == 0.0
    # the decay profile repeats identically at every station
    assert_allclose(rows[4:8, 2:], rows[:4, 2:], rtol=0, atol=0)


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "kind": "guided", "family": "TE", "m": 1, "n": 0,
        "a": 1.0, "b": 1.0, "nx": 5, "ny": 2, "normalize": "paper-figures",
    }))
    assert main(["spinmap", "--config", str(config)]) == 0
    five_wide = parse_csv(capsys.readouterr().out)
    assert main(["spinmap", "--config", str(config), "--nx", "3"]) == 0
    three_wide = parse_csv(capsys.readouterr().out)
    assert five_wide.shape == (10, 6)
    assert three_wide.shape == (6, 6)  # the flag overrode the file


def test_byte_identical_output_across_runs(capsys):
    args = ["spinmap", "--family", "TM", "--m", "2", "--n", "2",
            "--omega-ratio", "1.9", "--nx", "23", "--ny", "17"]
    outputs = []
    for _ in range(2):
        result = run_cli(*args)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert main(args) == 0
    outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1


def _expected_map(flags):
    """The CSV rendered from one vectorized call over the whole grid."""
    config = RunConfig.from_sources({}, flags)
    spec = config.build_spec()
    nx, ny = flags["nx"], flags["ny"]
    surface = flags.get("kind") == "surface"
    if surface:
        xs = np.linspace(0.0, flags["x-max-kappa"] / spec.kappa, nx)
        ys = np.linspace(0.0, flags["z-periods"] * 2.0 * math.pi
                         / abs(spec.k_z), ny)
    else:
        xs = np.linspace(0.0, spec.geometry.a, nx)
        ys = np.linspace(0.0, spec.geometry.b, ny)
    X, Y = np.meshgrid(xs, ys)  # y-major: x varies fastest
    pair = (analytic_spin_surface(spec, X.ravel()) if surface
            else analytic_spin_guided(spec, (X.ravel(), Y.ravel())))
    s = pair.combined() if flags["combine-spins"] else pair.total()
    lines = [CSV_HEADER]
    for x, y, (sx, sy, sz) in zip(X.ravel().tolist(), Y.ravel().tolist(),
                                  s.tolist()):
        values = (x, y, sx, sy, sz, math.hypot(sx, sy, sz))
        lines.append(",".join(repr(v) for v in values))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("combine", [False, True])
@pytest.mark.parametrize("mode", [
    {"family": "TM", "m": 2, "n": 1, "a": 0.0229, "b": 0.0102},
    {"family": "TE", "m": 2, "n": 0, "omega-ratio": 1.3},
    {"family": "TE", "m": 1, "n": 1, "direction": -1},
    {"kind": "surface", "family": "TM", "x-max-kappa": 3.0, "z-periods": 2.5},
    {"kind": "surface", "family": "TE", "eta": 2.0, "phi-deg": 70.0,
     "x-max-kappa": 5.0, "z-periods": 1.0},
    # the row template's edges: one head before the first y, a last piece
    # with no next x, and stations that repr in exponent form
    {"family": "TM", "m": 1, "n": 1, "nx": 2, "ny": 3},
    {"kind": "surface", "x-max-kappa": 5.0, "z-periods": 1.0, "nx": 2, "ny": 4},
    {"family": "TM", "m": 1, "n": 1, "a": 1e-7, "b": 5e-8, "nx": 2, "ny": 3},
], ids=["TM21", "TE20", "TE11", "surface-TM", "surface-TE", "TM11-nx2", "surface-nx2",
        "TM11-exponent-stations"])
def test_spinmap_matches_vectorized_render(mode, combine, capsys):
    flags = {"nx": 9, "ny": 6, **mode, "combine-spins": combine}
    argv = ["spinmap", "--combine-spins" if combine else "--no-combine-spins"]
    for key, value in flags.items():
        if key != "combine-spins":
            argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    assert capsys.readouterr().out == _expected_map(flags)


@pytest.mark.parametrize("args, repeats", [
    (["--family", "TE", "--m", "1", "--n", "0"], True),
    (["--family", "TE", "--m", "2", "--n", "0", "--combine-spins"], True),
    (["--family", "TE", "--m", "1", "--n", "0", "--omega-ratio", "0.8"], True),
    (["--family", "TM", "--m", "1", "--n", "1", "--omega-ratio", "0.8"], True),
    (["--kind", "surface", "--family", "TM"], True),
    (["--kind", "surface", "--family", "TE"], True),
    (["--family", "TM", "--m", "2", "--n", "1"], False),
    (["--family", "TE", "--m", "1", "--n", "1"], False),
], ids=["TE10", "TE20-combined", "TE10-below-cutoff", "TM11-below-cutoff",
        "surface-TM", "surface-TE", "TM21", "TE11"])
def test_rows_whose_spin_bits_repeat_are_formatted_once(args, repeats, monkeypatch,
                                                         capsys):
    formatted = []
    row_pieces = cli._row_pieces

    def counting(s, heads):
        formatted.append(s.shape)
        return row_pieces(s, heads)

    monkeypatch.setattr(cli, "_row_pieces", counting)
    assert main(["spinmap", *args, "--nx", "9", "--ny", "7"]) == 0
    assert formatted == [(9, 3)] * (1 if repeats else 7)
    assert capsys.readouterr().out.count("\n") == 1 + 9 * 7


def test_a_zero_of_the_other_sign_is_formatted_again(monkeypatch, capsys):
    # -0.0 == 0.0, but repr tells them apart, so the bits decide a repeat
    def signed_zeros(spec, point):
        s = np.zeros(np.broadcast(*point).shape + (3,))
        s[1::2] = -0.0  # the rows alternate 0.0 and -0.0
        return SpinDensityPair(s_e=s, s_m=s)

    monkeypatch.setattr(spin, "analytic_spin_guided", signed_zeros)
    assert main(["spinmap", "--nx", "3", "--ny", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(",", 2)[2] for line in lines] == [
        *["0.0,0.0,0.0,0.0"] * 3, *["-0.0,-0.0,-0.0,0.0"] * 3,
        *["0.0,0.0,0.0,0.0"] * 3, *["-0.0,-0.0,-0.0,0.0"] * 3]


def _spy(monkeypatch, module, name):
    """Wrap ``module.<name>`` and return the list of the arguments of its calls."""
    calls, wrapped = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("nx, ny", [(9, 6), (201, 101), (3, 3000), (4097, 3)])
def test_guided_map_evaluates_its_spin_once_per_row_block(nx, ny, monkeypatch, tmp_path):
    calls = _spy(monkeypatch, spin, "analytic_spin_guided")
    assert main(["spinmap", "--family", "TM", "--m", "2", "--n", "1", "--nx", str(nx),
                 "--ny", str(ny), "--output", str(tmp_path / "map.csv")]) == 0
    block_rows = max(1, modes._BLOCK_NODES // nx)
    assert len(calls) == math.ceil(ny / block_rows)
    assert all(np.broadcast(*point).size <= max(modes._BLOCK_NODES, nx)
               for _, point in calls)
    ys = np.concatenate([point[1].ravel() for _, point in calls])
    assert ys.tolist() == np.linspace(0.0, 1.0, ny).tolist()


def test_surface_map_evaluates_its_profile_once(monkeypatch, tmp_path):
    calls = _spy(monkeypatch, spin, "analytic_spin_surface")
    assert main(["spinmap", "--kind", "surface", "--nx", "3", "--ny", "3000",
                 "--output", str(tmp_path / "map.csv")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("args, formats", [
    (["--family", "TE", "--m", "1", "--n", "0", "--nx", "3", "--ny", "3000"], 1),
    (["--family", "TM", "--m", "1", "--n", "1", "--omega-ratio", "0.8",
      "--nx", "201", "--ny", "101"], 1),
    (["--family", "TM", "--m", "2", "--n", "1", "--nx", "201", "--ny", "101"], 101),
], ids=["TE10-3-blocks", "TM11-below-cutoff-6-blocks", "TM21-6-blocks"])
def test_repeated_rows_are_formatted_once_across_blocks(args, formats, monkeypatch,
                                                        tmp_path):
    calls = _spy(monkeypatch, cli, "_row_pieces")
    assert main(["spinmap", *args, "--output", str(tmp_path / "map.csv")]) == 0
    assert len(calls) == formats


def test_streamed_map_holds_no_more_than_a_row(tmp_path):
    # the 201 x 401 map is 7 MB of text, and 25 MB as a list of its lines
    path = tmp_path / "map.csv"
    tracemalloc.start()
    try:
        assert main(["spinmap", "--family", "TM", "--m", "2", "--n", "1",
                     "--nx", "201", "--ny", "401", "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5_000_000
    assert peak < 2_000_000


@pytest.mark.parametrize("stop", [1.0, 0.0102, 0.1, 3.3e-7, 2.0 / 3.0, 1e100, 5e-300])
def test_stations_equal_linspace_bit_for_bit(stop, tmp_path):
    # a guided map spans --b; a waveguide of 5e-300 leaves the float range, so
    # that stop is the z extent of a surface map, z-periods * 2 pi/|k_z|
    if stop > 1e-100:
        args, y_max = ["--a", repr(stop), "--b", repr(stop), "--normalize", "paper-figures"], stop
    else:
        k_z = abs(RunConfig.from_sources({"kind": "surface"}, {}).build_spec().k_z)
        z_periods = stop * k_z / (2.0 * math.pi)
        args, y_max = ["--kind", "surface", "--z-periods", repr(z_periods)], \
            z_periods * 2.0 * math.pi / k_z
    path = tmp_path / "map.csv"
    # (ny - 1) * y_max/(ny - 1) misses y_max at (1.0, 50) and (5e-300, 7), so
    # there the last row holds y_max only if it is pinned, as linspace pins it
    for ny in (2, 3, 7, 21, 50, 1000, 12345):
        assert main(["spinmap", *args, "--nx", "2", "--ny", str(ny),
                     "--output", str(path)]) == 0
        ys = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert ys == [repr(y) for y in np.linspace(0.0, y_max, ny).tolist() for _ in range(2)]


def test_map_memory_follows_one_row_not_the_row_count(tmp_path):
    # 200 000 rows: their stations alone are 8.2 MB as a list of floats
    path = tmp_path / "map.csv"
    tracemalloc.start()
    try:
        assert main(["spinmap", "--kind", "surface", "--nx", "2", "--ny", "200000",
                     "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == 1 + 2 * 200_000
    assert peak < 1_000_000


@pytest.mark.parametrize("mode", [
    ["--family", "TE", "--m", "2", "--n", "1", "--combine-spins"],
    ["--kind", "surface", "--family", "TE", "--z-periods", "2"],
])
def test_stdout_and_file_output_are_identical(mode, tmp_path, capsys):
    path = tmp_path / "map.csv"
    args = ["spinmap", *mode, "--nx", "13", "--ny", "7"]
    assert main([*args, "--output", "-"]) == 0
    assert main([*args, "--output", str(path)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()


@pytest.fixture
def written_texts(monkeypatch):
    """Every text passed to ``cli._write_text``, in order.

    perfbench/tracer.py wraps cli._write_text and counts len(text) as bytes
    written, so command output that bypasses it goes unmeasured.
    """
    texts = []
    write = cli._write_text

    def counting(handle, text):
        texts.append(text)
        write(handle, text)

    monkeypatch.setattr(cli, "_write_text", counting)
    return texts


def test_every_map_write_goes_through_write_text(tmp_path, written_texts):
    path = tmp_path / "map.csv"
    assert main(["spinmap", "--family", "TM", "--m", "1", "--n", "1",
                 "--nx", "9", "--ny", "6", "--output", str(path)]) == 0
    assert len(written_texts) >= 6
    assert all(type(text) is str for text in written_texts)
    assert sum(map(len, written_texts)) == path.stat().st_size


@pytest.mark.parametrize("args", [
    ["report", "--family", "TE", "--m", "2", "--n", "1"],
    ["report", "--kind", "surface"],
    ["verify"],
])
def test_every_stdout_write_goes_through_write_text(args, written_texts, capsys):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out and "".join(written_texts) == out


def test_floats_round_trip_through_the_csv(capsys):
    assert main(["spinmap", "--family", "TM", "--m", "1", "--n", "1",
                 "--a", "0.0229", "--b", "0.0102", "--nx", "4", "--ny", "3"]) == 0
    out = capsys.readouterr().out
    for token in out.strip().split("\n")[1].split(","):
        assert repr(float(token)) == token


# ---------------------------------------------------------------------------
# report


def test_guided_report_fields(capsys):
    assert main(["report", "--family", "TM", "--m", "1", "--n", "1",
                 "--a", "0.0229", "--b", "0.0102", "--length", "0.37",
                 "--n-quanta", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert math.isclose(report["S_perp_over_hbar"], 1.0, rel_tol=1e-9)
    assert report["observables"]["n_quanta_integer"] == 1
    assert report["mass"]["relativistic_applicable"] is True
    assert report["residuals"]["W"] <= 1e-9
    assert report["residuals"]["klein_gordon"] <= 1e-6
    assert math.isclose(report["mass"]["v_g"] * report["mass"]["v_p"],
                        299792458.0**2, rel_tol=1e-12)


@pytest.mark.parametrize("family, m, n", [("TE", 1, 0), ("TM", 1, 1)])
def test_total_rest_mass_is_n_m0_far_above_cutoff(family, m, n, capsys):
    # W sqrt(1 - (v_g/c)^2)/c^2 cancels as omega/omega_c grows; omega_c/omega does not
    for ratio in np.logspace(math.log10(1.01), 15.0, 16).tolist():
        assert main(["report", "--family", family, "--m", str(m), "--n", str(n),
                     "--n-quanta", "3", "--omega-ratio", repr(ratio)]) == 0
        mass = json.loads(capsys.readouterr().out)["mass"]
        assert abs(mass["M0"] - 3 * mass["m0"]) <= 1e-12 * 3 * mass["m0"], ratio


def test_residuals_of_totals_below_1e_300_are_relative(capsys):
    # S_perp is 3.8e-307 here: its residual relates it to the closed form at its own scale
    assert main(["report", "--family", "TE", "--m", "18", "--n", "12",
                 "--a", "4.811346680869114e-59", "--b", "4.804755600670435e-59",
                 "--length", "1.192642327073594e-65", "--omega-ratio", "86.63289805591015",
                 "--amplitude", "5.148060492676069e-23"]) == 0
    report = json.loads(capsys.readouterr().out)
    spec = GuidedModeSpec(WaveguideGeometry(**report["geometry"]),
                          ModeIndex(ModeFamily.TE, 18, 12), report["omega"],
                          report["amplitude"])
    S_perp = report["observables"]["S_perp"]
    assert S_perp < 1e-300
    closed = spec.closed_forms()[2]
    assert report["residuals"]["S_perp"] == abs(S_perp - closed) / closed
    assert 1e-18 < report["residuals"]["S_perp"] < 1e-15


def test_surface_report_fields(capsys):
    assert main(["report", "--kind", "surface", "--family", "TE",
                 "--eta", "2.0", "--phi-deg", "70", "--omega", "1.3e15",
                 "--n-quanta", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    kappa_over_kz = report["kappa"] / report["k_z"]
    assert math.isclose(report["tan_theta_prime"], kappa_over_kz, rel_tol=1e-12)
    assert math.isclose(report["S_y_over_hbar"], 4.0 * kappa_over_kz,
                        rel_tol=1e-9)
    assert report["residuals"]["S_y"] <= 1e-9
    assert abs(report["observables"]["v"]) < 299792458.0


def test_surface_report_gamma_and_angle_do_not_follow_the_direction(capsys):
    reports = {}
    for direction in ("1", "-1"):
        assert main(["report", "--kind", "surface", "--direction", direction]) == 0
        reports[direction] = json.loads(capsys.readouterr().out)
    forward, backward = reports["1"], reports["-1"]
    assert forward["mass"]["gamma"] == backward["mass"]["gamma"]
    for report in (forward, backward):
        mass, obs = report["mass"], report["observables"]
        assert mass["gamma"] >= 1.0
        assert mass["gamma"] == pytest.approx(
            1.0 / math.sqrt(1.0 - (mass["v"] / 299792458.0) ** 2), rel=1e-12, abs=0.0)
        tan_theta = report["tan_theta_prime"]
        assert tan_theta == pytest.approx(obs["ellipticity"], rel=1e-12, abs=0.0)
        assert tan_theta == pytest.approx(math.tan(obs["theta_prime"]), rel=1e-12, abs=0.0)
    # the signed quantities keep following the direction
    for key in ("p", "v"):
        assert backward["mass"][key] == -forward["mass"][key] < 0.0
    assert backward["S_y_over_hbar"] < 0.0 < forward["S_y_over_hbar"]


@pytest.mark.parametrize("args, spin", [
    (["--family", "TM", "--m", "1", "--n", "1"], "S_perp"),
    (["--family", "TE", "--m", "1", "--n", "0"], "S_perp"),
    (["--kind", "surface"], "S_y"),
], ids=["TM11", "TE10", "surface"])
def test_combine_spins_halves_only_the_spin(args, spin, capsys):
    reports = []
    for flag in ("--no-combine-spins", "--combine-spins"):
        assert main(["report", *args, flag]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    plain, half = reports
    assert half["observables"][spin] == 0.5 * plain["observables"][spin]
    assert half[f"{spin}_over_hbar"] == 0.5 * plain[f"{spin}_over_hbar"]
    plain["combine_spins"] = True
    plain["observables"][spin] = half["observables"][spin]
    plain[f"{spin}_over_hbar"] = half[f"{spin}_over_hbar"]
    assert half == plain


def test_a_spin_that_halves_to_a_subnormal_is_named(capsys):
    # the plain S_perp is about 3.0e-308, a normal float; its half is not
    args = ["report", "--length", "1e-100", "--b", "1e-50", "--amplitude", "3e-69"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["observables"]["S_perp"] >= sys.float_info.min
    assert _config_error([*args, "--combine-spins"], capsys).startswith("config error: S_perp ")


def _key_tree(value):
    if isinstance(value, dict):
        return {key: _key_tree(item) for key, item in value.items()}
    return None


def _keys(*names, **subtrees):
    return {**dict.fromkeys(names), **subtrees}


_REPORT_KEYS = {
    "guided": _keys(
        "kind", "family", "m", "n", "omega", "omega_c", "k_z", "amplitude",
        "combine_spins", "S_perp_over_hbar", "sin_two_theta",
        geometry=_keys("a", "b", "length"),
        observables=_keys("W", "P_z", "S_perp", "v", "theta", "ellipticity",
                          "n_quanta", "n_quanta_integer"),
        mass=_keys("m0", "epsilon", "p", "v_g", "v_p", "M0",
                   "relativistic_applicable"),
        residuals=_keys("W", "P_z", "S_perp", "dispersion", "klein_gordon")),
    "surface": _keys(
        "kind", "family", "eta", "phi_deg", "omega", "kappa", "k_z", "area",
        "amplitude", "combine_spins", "S_y_over_hbar", "tan_theta_prime",
        observables=_keys("W", "P_z", "S_y", "v", "theta_prime", "ellipticity",
                          "n_quanta", "n_quanta_integer"),
        mass=_keys("m_s", "M_s", "epsilon", "p", "v", "gamma"),
        residuals=_keys("W", "P_z", "S_y", "dispersion")),
}


@pytest.mark.parametrize("combine", ["--combine-spins", "--no-combine-spins"])
@pytest.mark.parametrize("kind", ["guided", "surface"])
def test_report_key_tree_is_pinned(kind, combine, capsys):
    assert main(["report", "--kind", kind, combine]) == 0
    assert _key_tree(json.loads(capsys.readouterr().out)) == _REPORT_KEYS[kind]


def test_cached_spec_scalars_add_no_report_key(capsys):
    # the spec keeps omega_c, k_z, kappa and closed_forms() in its instance dict
    for kind in ("guided", "surface"):
        assert main(["report", "--kind", kind, "--n-quanta", "2"]) == 0
        assert _key_tree(json.loads(capsys.readouterr().out)) == _REPORT_KEYS[kind]


def test_report_json_is_deterministic():
    args = ["report", "--family", "TE", "--m", "2", "--n", "1",
            "--a", "0.0229", "--b", "0.0102"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_config_names_the_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "TM",\n  "m": }\n')
    assert main(["report", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_config_key_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bandwidth": 3}')
    assert main(["spinmap", "--config", str(bad)]) == 1
    assert "bandwidth" in capsys.readouterr().err


def test_repeated_config_key_is_named(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"m": 1, "m": 2}')
    assert _config_error(["report", "--config", str(path)], capsys) == (
        f"config error: config key 'm' appears twice in {path}\n")


def test_invalid_value_is_a_config_error(capsys):
    assert main(["report", "--family", "TM", "--m", "1", "--n", "1",
                 "--omega-ratio", "0.5"]) == 1
    assert "propagating" in capsys.readouterr().err


def test_conflicting_amplitude_sources_are_rejected(capsys):
    assert main(["report", "--family", "TM", "--m", "1", "--n", "1",
                 "--amplitude", "2.0", "--n-quanta", "1"]) == 1
    err = capsys.readouterr().err
    assert "n-quanta" in err and "amplitude" in err


def test_figure_normalization_is_guided_only(capsys):
    assert main(["spinmap", "--kind", "surface", "--normalize",
                 "paper-figures"]) == 1
    assert "guided" in capsys.readouterr().err


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "map.csv"
    assert main(["spinmap", "--family", "TE", "--m", "1", "--n", "0",
                 "--output", str(missing_dir)]) == 2


def test_reader_that_closes_early_ends_normally():
    # the map is megabytes, far more than a pipe holds, so the writes made
    # after the reader has gone fail inside main
    proc = subprocess.Popen(
        [sys.executable, "-m", "transpin", "spinmap", "--nx", "101", "--ny", "2001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == f"{CSV_HEADER}\n".encode()
    finally:
        proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
@pytest.mark.parametrize("key", ["x-max-kappa", "z-periods"])
def test_surface_map_extent_must_be_finite_and_positive(key, value, capsys):
    assert main(["spinmap", "--kind", "surface", f"--{key}", value]) == 1
    assert key in capsys.readouterr().err


def _config_error(args, capsys):
    """Run ``main`` with warnings as errors; return its one stderr line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--output", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("args", [["report", "--kind", "foo"], ["report", "--m", "x"],
                                  ["report", "--bogus", "1"]])
def test_rejected_flag_is_a_config_error(args, capsys):
    # argparse words the rest of the line differently between Python versions
    assert args[1] in _config_error(args, capsys)


@pytest.mark.parametrize("value", ["0.5", "0", "nan"])
@pytest.mark.parametrize("command", ["report", "spinmap"])
def test_invalid_n_quanta_names_its_key(command, value, capsys):
    assert _config_error([command, "--n-quanta", value], capsys).startswith(
        "config error: config key 'n-quanta': ")


@pytest.mark.parametrize("args, field", [
    (["spinmap", "--kind", "surface", "--omega", "1e300"], "omega"),
    (["report", "--kind", "surface", "--omega", "1e300"], "omega"),
    (["report", "--kind", "surface", "--omega", "1e-300"], "omega"),
    (["report", "--kind", "surface", "--eta", "inf"], "eta"),
    (["report", "--kind", "surface", "--area", "nan"], "area"),
    (["report", "--kind", "surface", "--eta", "1e300"], "kappa"),
    (["report", "--omega-ratio", "inf"], "omega"),
    (["report", "--omega-ratio", "1e200"], "omega"),
    (["spinmap", "--amplitude", "1e200"], "amplitude"),
    (["report", "--length", "inf"], "length"),
    (["report", "--a", "1e-300", "--b", "1e-300"], "a"),
    # each field is in range, but together they push a total out of it
    (["report", "--omega", "1e10", "--a", "1e100"], "n_quanta"),
    (["report", "--amplitude", "1e100", "--omega", "1e100"], "W"),
    (["report", "--b", "1e-100", "--amplitude", "3e-103"], "W"),
    (["report", "--family", "TM", "--m", "2", "--n", "5", "--b", "1e-81",
      "--amplitude", "1e-99", "--omega-ratio", "1.001634067883663"], "S_perp"),
    (["report", "--kind", "surface", "--omega", "3e102", "--amplitude", "1e-90"], "S_y"),
])
def test_out_of_range_spec_fields_are_named(args, field, capsys):
    assert _config_error(args, capsys).startswith(f"config error: {field} ")


@pytest.mark.parametrize("ratio", ["nan", "-2", "0", "inf"])
def test_omega_ratio_out_of_its_domain_names_its_key(ratio, capsys):
    # a positive, finite ratio whose omega overflows is the spec's to name
    err = _config_error(["report", "--omega-ratio", ratio], capsys)
    assert err == ("config error: omega is omega-ratio times the cutoff: config key "
                   f"'omega-ratio' must be finite and > 0, got {float(ratio)!r}\n")


@pytest.mark.parametrize("depth", ["20", "400", "1000", "1e4", "1e6"])
def test_surface_report_is_exact_at_every_depth(depth, capsys):
    assert main(["report", "--kind", "surface", "--x-max-kappa", depth]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert max(residuals.values()) <= 1e-9, residuals


@pytest.mark.parametrize("key, value", [("x-max-kappa", "12"), ("x-max-kappa", "8"),
                                        ("x-max-kappa", "nan"), ("x-max-kappa", "inf"),
                                        ("x-max-kappa", "0"), ("z-periods", "0")])
def test_surface_report_ignores_the_map_extents(key, value, capsys):
    # a report integrates the whole half space; the extents size a spin map
    assert main(["report", "--kind", "surface"]) == 0
    expected = capsys.readouterr()
    assert main(["report", "--kind", "surface", f"--{key}", value]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("command", ["report", "spinmap"])
@pytest.mark.parametrize("key, value, kind", [
    ("omega-ratio", "nan", "guided"), ("m", "5", "guided"), ("n", "3", "guided"),
    ("a", "2", "guided"), ("b", "0.5", "guided"), ("length", "7", "guided"),
    ("eta", "9", "surface"), ("phi-deg", "10", "surface"), ("area", "3", "surface"),
    ("x-max-kappa", "8", "surface"), ("z-periods", "2", "surface"),
])
def test_a_key_of_the_other_kind_is_named(command, key, value, kind, tmp_path, capsys):
    other = "surface" if kind == "guided" else "guided"
    err = _config_error([command, "--kind", other, f"--{key}", value], capsys)
    assert err == f"config error: config key {key!r} applies to kind {kind!r} only\n"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": other, key: _KEYS[key][0](value)}))
    assert _config_error([command, "--config", str(path)], capsys) == err


@pytest.mark.parametrize("amplitude, n", [("1e-76", "0"), ("1e-102", "5")])
def test_guided_ellipse_of_tiny_intensities_is_exact(amplitude, n, capsys):
    # the product of the two mean-square intensities underflows
    assert main(["report", "--amplitude", amplitude, "--n", n]) == 0
    assert json.loads(capsys.readouterr().out)["residuals"]["S_perp"] <= 1e-9


@pytest.mark.parametrize("args", [
    ["--family", "TM", "--m", "1", "--n", "1", "--amplitude", "1e100"],
    ["--a", "1e-30", "--b", "1e-30", "--length", "1e-30", "--amplitude", "1e90"],
])
def test_guided_ellipse_of_huge_intensities_is_exact(args, capsys):
    # the product of the two mean-square intensities overflows
    assert main(["report", *args]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert max(residuals.values()) <= 1e-9, residuals


@pytest.mark.parametrize("to_file", [False, True])
def test_oversized_mode_index_is_a_config_error(to_file, tmp_path):
    path = tmp_path / "report.json"
    target = str(path) if to_file else "-"
    result = run_cli("report", "--m", "100000000000000000000", "--output", target)
    assert result.returncode == 1
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr == (
        "config error: mode indices m = 100000000000000000000, n = 0 need "
        "200000000000000000002 midpoint nodes per transverse axis; the "
        "quadrature supports max(m, n) <= 200\n")
    assert not path.exists()


def test_guided_report_leaves_numpy_polynomial_unimported():
    # the midpoint rules need no node tables, and a fresh process that never
    # imports numpy.polynomial is about 1 MB smaller
    script = (
        "import contextlib, io, sys\n"
        "from transpin import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['report', '--family', 'TE', '--m', '3', '--n', '2']) == 0\n"
        "assert 'numpy.polynomial' not in sys.modules\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("args, residual", [
    (["--kind", "surface", "--eta", "1e20"], "dispersion"),
    (["--family", "TM", "--m", "1", "--n", "1", "--length", "1e20"], "klein_gordon"),
    (["--family", "TM", "--m", "1", "--n", "1", "--omega", "1e20"], "klein_gordon"),
    # the closed-form W once underflowed to 0.0 in h2 * k_z**2
    (["--kind", "surface", "--omega", "1e-50", "--amplitude", "3e-100"], "W"),
    (["--kind", "surface", "--omega", "1e-50", "--amplitude", "1e-100"], "W"),
])
def test_residuals_hold_at_extreme_scales(args, residual, capsys):
    assert main(["report", *args]) == 0
    residuals = json.loads(capsys.readouterr().out)["residuals"]
    assert residuals[residual] <= 1e-9
    assert max(residuals.values()) <= 1e-9


_EXTREME = st.builds("{}e{}{}".format, st.sampled_from([1, 3]),
                     st.sampled_from("+-"), st.integers(50, 102))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["guided", "surface"]),
       flags=st.lists(st.sampled_from(["a", "b", "length", "omega", "amplitude",
                                       "omega-ratio", "n-quanta"]),
                      min_size=2, max_size=2, unique=True),
       values=st.lists(_EXTREME, min_size=2, max_size=2))
def test_extreme_report_flag_pairs_exit_cleanly(kind, flags, values):
    argv = ["report", "--kind", kind]
    for flag, value in zip(flags, values):
        argv += [f"--{flag}", value]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1), argv
    assert "Traceback" not in err.getvalue()


# each spec field is in range, but together they push a map column or an
# extent out of the float range: nan, inf or a subnormal peak
_MAP_OUT_OF_RANGE = [
    (["--a", "3e100", "--amplitude", "1e100"], "sy_peak"),
    (["--family", "TM", "--m", "1", "--n", "1", "--a", "3e100", "--b", "3e100",
      "--amplitude", "1e100"], "sx_peak"),
    (["--kind", "surface", "--amplitude", "1e-100", "--omega", "1e100"], "sy_peak"),
    (["--kind", "surface", "--omega", "1e-50", "--x-max-kappa", "1e300"], "x_max"),
    (["--kind", "surface", "--omega", "1e-50", "--z-periods", "1e300"], "z_max"),
]


@pytest.mark.parametrize("args", [
    ["report", "--n-quanta", "1e300"],
    ["report", "--kind", "surface", "--n-quanta", "1e300"],
    ["spinmap", "--n-quanta", "1e300"],
])
def test_extreme_n_quanta_is_named(args, capsys):
    # the spec rejects the amplitude it sets, a key the user did not give
    err = _config_error(args, capsys)
    assert err.startswith("config error: config key 'n-quanta' = 1e+300 sets an "
                          "amplitude out of range: amplitude must be finite")


@pytest.mark.parametrize("args, quantity", _MAP_OUT_OF_RANGE)
def test_spinmap_out_of_float_range_is_named(args, quantity, capsys):
    err = _config_error(["spinmap", *args, "--nx", "3", "--ny", "2"], capsys)
    assert err.startswith(f"config error: {quantity} = ")
    assert "leaves the float range" in err


def test_a_combined_map_checks_the_peak_it_writes(tmp_path, capsys):
    # s_e + s_m peaks at a normal float; the (s_e + s_m)/2 written is subnormal
    path = tmp_path / "map.csv"
    args = ["spinmap", "--kind", "surface", "--amplitude", "1e-100", "--omega", "3e96",
            "--nx", "2", "--ny", "2", "--output", str(path)]
    assert main(args) == 0
    assert parse_csv(path.read_text())[0, 3] == 3.1789647880819057e-308
    path.unlink()
    err = _config_error([*args, "--combine-spins"], capsys)
    assert err.startswith("config error: sy_peak = ")
    assert not path.exists()


@pytest.mark.parametrize("args", [
    ["--kind", "surface", "--z-periods", "0"],
    ["--kind", "surface", "--x-max-kappa", "nan"],
    *(args for args, _ in _MAP_OUT_OF_RANGE),
])
def test_rejected_map_creates_no_output(args, tmp_path, capsys):
    path = tmp_path / "map.csv"
    assert main(["spinmap", *args, "--nx", "3", "--ny", "2", "--output", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not path.exists()


def test_surface_map_at_a_depth_too_large_for_the_exponent_is_zero(tmp_path):
    # 2 kappa x overflows to inf at the far end; its value is 0 and numpy stays quiet
    path = tmp_path / "map.csv"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert main(["spinmap", "--kind", "surface", "--x-max-kappa", "1e308",
                     "--nx", "3", "--ny", "2", "--output", str(path)]) == 0
    assert err.getvalue() == ""
    rows = parse_csv(path.read_text())
    assert rows[0, 3] > 0.0 and np.all(rows[[1, 2, 4, 5], 3] == 0.0)


@pytest.mark.parametrize("args, message", [
    (["--nx", "100000000000000000000"], "config key 'nx' is too large for one row"),
    (["--nx", str(2**63)], "config key 'nx' is too large for one row"),
    (["--ny", "1" + "0" * 400], "config key 'ny' is too large for a float"),
])
def test_oversized_map_side_is_named(args, message, tmp_path, capsys):
    path = tmp_path / "map.csv"
    assert main(["spinmap", *args, "--output", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not path.exists()


def test_row_allocation_failure_names_nx(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.4 GiB")

    monkeypatch.setattr(spin.np, "linspace", refuse)
    path = tmp_path / "map.csv"
    assert main(["spinmap", "--nx", "3000000000", "--ny", "2", "--output", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: config key 'nx' is too large for one row of the map "
        "(Unable to allocate 22.4 GiB)\n")
    assert not path.exists()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(kind=st.sampled_from(["guided", "surface"]),
       flags=st.lists(st.sampled_from(["a", "b", "length", "omega", "amplitude",
                                       "omega-ratio", "eta", "x-max-kappa",
                                       "z-periods", "n-quanta"]),
                      min_size=2, max_size=2, unique=True),
       values=st.lists(_EXTREME, min_size=2, max_size=2))
def test_extreme_spinmap_flag_pairs_exit_cleanly(kind, flags, values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.csv"
        argv = ["spinmap", "--kind", kind, "--nx", "3", "--ny", "2", "--output", str(path)]
        for flag, value in zip(flags, values):
            argv += [f"--{flag}", value]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1), argv
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert not path.exists(), argv
        else:
            rows = parse_csv(path.read_text())
            assert rows.shape == (6, 6) and np.all(np.isfinite(rows)), argv


@pytest.mark.parametrize("key, value, message", [
    ("kind", "bogus", "config key 'kind' must be 'guided' or 'surface', got 'bogus'"),
    ("family", "XX", "config key 'family' must be 'TM' or 'TE', got 'XX'"),
    ("direction", 0, "config key 'direction' must be 1 or -1, got 0"),
    ("units", "cgs", "config key 'units' must be 'si' or 'natural', got 'cgs'"),
    ("normalize", "x",
     "config key 'normalize' must be 'amplitude' or 'paper-figures', got 'x'"),
])
def test_config_value_outside_its_choices_is_named(key, value, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({key: value}))
    assert main(["report", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def _sample_value(key):
    """A valid value for ``key`` other than its default."""
    value_type, default, allowed, _ = _KEYS[key]
    if allowed is not None:
        return next(v for v in allowed if v != default)
    return {bool: True, int: 3, float: 2.5, str: "out.csv"}[value_type]


@pytest.mark.parametrize("key", list(_KEYS))
def test_flag_and_config_entry_give_the_same_config(key):
    value = _sample_value(key)
    # a surface-only key is accepted on a surface run only
    base = {"kind": "surface"} if cli._KIND_ONLY.get(key) == "surface" else {}
    argv = [f"--{key}"] if value is True else [f"--{key}", str(value)]
    args = cli._build_parser().parse_args(["report", *argv])
    from_flag = RunConfig.from_sources(base, cli._flags_from_args(args))
    from_file = RunConfig.from_sources({**base, key: value}, {})
    assert from_flag.values == from_file.values
    assert from_flag.values[key] == value
    assert from_flag.provided == from_file.provided == {key, *base}


@pytest.mark.parametrize("key", sorted(k for k, entry in _KEYS.items() if entry[0] is float))
def test_config_number_too_large_for_a_float_is_named(key, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"kind": "surface", "%s": 1%s}' % (key, "0" * 400))
    err = _config_error(["spinmap", "--config", str(path)], capsys)
    assert repr(key) in err and "too large for a float" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_reports_each_check(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert "FAIL" not in out
    assert "surface-momentum-form" in out
    assert "algebra-helicity-eigensystem" in out


def test_verify_filter_selects_matching_checks(capsys):
    assert main(["verify", "--filter", "surface"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    named = [line for line in out if line.startswith("PASS")]
    assert named and all("surface" in line.split()[1] for line in named)


def test_verify_injected_fault_fails_with_exit_three(capsys):
    assert main(["verify", "--filter", "algebra-structure",
                 "--inject-fault"]) == 3
    captured = capsys.readouterr()
    assert "injected-fault" in captured.out
    assert "injected-fault" in captured.err


def test_verify_check_that_raises_fails_with_exit_three(monkeypatch, capsys):
    from transpin import verify

    def raising():
        return math.sqrt(-1.0)

    monkeypatch.setitem(verify._CHECKS, "guided-mass-identities", raising)
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: check guided-mass-identities failed: measured=nan "
                            "tolerance=nan (raised ValueError: math domain error)\n")
    lines = captured.out.splitlines()
    assert lines[-1] == f"{len(verify._CHECKS) - 1} passed, 1 failed"
    assert [line.split()[1] for line in lines[:-1]] == verify.check_names()
    assert lines[verify.check_names().index("guided-mass-identities")].startswith("FAIL")


def test_verify_empty_filter_is_a_config_error(capsys):
    assert main(["verify", "--filter", "zzz-none"]) == 1


def test_verify_check_passes_within_tolerance_when_its_control_holds():
    # every check is one body under _check: it passes when measured <= tolerance
    # and its control, if it returns one, holds; a NaN measured fails
    from transpin import verify

    cases = [(2e-9, False, "declared"), (math.nan, False, "declared"),
             ((0.0, False), False, "declared"), ((1e-9, True, "text"), True, "text"),
             (1e-9, True, "declared")]
    try:
        for returned, passed, detail in cases:
            verify._check("throwaway-check", 1e-9, "declared")(lambda out=returned: out)
            (result,) = verify.run_checks("throwaway-check")
            measured = returned[0] if isinstance(returned, tuple) else returned
            assert (result.name, result.passed, repr(result.measured), result.tolerance,
                    result.detail) == ("throwaway-check", passed, repr(measured), 1e-9, detail)
    finally:
        verify._CHECKS.pop("throwaway-check", None)


# ---------------------------------------------------------------------------
# argument parsing


@pytest.mark.parametrize("args", [
    ["report", "--family", "TM", "--m", "1", "--n", "1"],
    ["spinmap", "--nx", "3", "--ny", "2"],
    ["verify", "--filter", "zzz-none"],
    ["report", "--kind", "foo"],
])
def test_main_leaves_no_parser_to_the_cyclic_collector(args, capsys):
    # main builds a parser on every call; a caller that calls it in a loop
    # would pay for any of it left as cyclic garbage in full collections
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(args)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (argparse.ArgumentParser, argparse.Action,
                                    argparse.HelpFormatter))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert cyclic == []


@pytest.mark.parametrize("command", ["spinmap", "report", "verify"])
def test_subcommand_help_names_its_program(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: transpin {command} [-h]")
    assert "show this help message and exit" in out


# ---------------------------------------------------------------------------
# runtime dependencies


def test_import_does_not_load_scipy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import transpin, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
