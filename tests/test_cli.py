"""Command-line behavior: CSV/JSON shape, determinism, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from transpin import analytic_spin_guided, analytic_spin_surface
from transpin.cli import CSV_HEADER, RunConfig, main


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
], ids=["TM21", "TE20", "TE11", "surface-TM", "surface-TE"])
def test_spinmap_matches_vectorized_render(mode, combine, capsys):
    flags = {**mode, "nx": 9, "ny": 6, "combine-spins": combine}
    argv = ["spinmap", "--combine-spins" if combine else "--no-combine-spins"]
    for key, value in flags.items():
        if key != "combine-spins":
            argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    assert capsys.readouterr().out == _expected_map(flags)


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


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
@pytest.mark.parametrize("key", ["x-max-kappa", "z-periods"])
def test_surface_map_extent_must_be_finite_and_positive(key, value, capsys):
    assert main(["spinmap", "--kind", "surface", f"--{key}", value]) == 1
    assert key in capsys.readouterr().err


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


def test_verify_empty_filter_is_a_config_error(capsys):
    assert main(["verify", "--filter", "zzz-none"]) == 1


def test_verify_registry_keys_match_stamped_names():
    # Filtering happens on registry keys before a check runs, so a key that
    # drifts from the name its check stamps on the result would silently
    # break --filter.
    from transpin.verify import check_names, run_checks

    assert [r.name for r in run_checks()] == check_names()


# ---------------------------------------------------------------------------
# runtime dependencies


def test_import_does_not_load_scipy():
    result = subprocess.run(
        [sys.executable, "-c",
         "import transpin, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
