"""Tests of the benchmark itself: seeded inputs, the gate, the tracer, the CLI.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import gate
import run
import tracer as tracing
import worker
import workloads
from transpin import cli, modes, observables

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def first_rounds(workload, seed, count):
    return list(itertools.islice(workloads.rounds(workload, seed), count))


def test_streams_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = [op.argv for ops in first_rounds(workload, 7, 3) for op in ops]
        b = [op.argv for ops in first_rounds(workload, 7, 3) for op in ops]
        assert a == b
    guided = [op.argv for ops in first_rounds("report-sweep", 7, 1) for op in ops]
    other = [op.argv for ops in first_rounds("report-sweep", 8, 1) for op in ops]
    assert guided != other


def test_report_rounds_hold_fixed_shares_and_repeat_the_probes():
    rounds = first_rounds("report-sweep", 3, 3)
    for ops in rounds:
        assert len(ops) == workloads.REPORT_ROUND
        assert sum(op.params["kind"] == "surface" for op in ops) == workloads.REPORT_ROUND // 4
        probes = sorted(op.argv for op in ops if op.probe)
        assert len(probes) == workloads.PROBES_PER_ROUND
        assert probes == sorted(op.argv for op in rounds[0] if op.probe)
        for op in ops:
            lo, hi = workloads.PROBE_X_MAX_KAPPA
            assert op.probe == ("x-max-kappa" in op.params)
            assert not op.probe or lo <= op.params["x-max-kappa"] <= hi


def test_highorder_modes_stay_in_range():
    for ops in first_rounds("highorder-quadrature", 5, 40):
        (op,) = ops
        assert 24 <= max(op.params["m"], op.params["n"]) <= 48


def test_spinmap_rounds_pair_mirrored_sizes():
    rounds = first_rounds("spinmap-export", 4, 20)
    assert rounds[0][0].params["nx"] == workloads.SPINMAP_SIDES[1]
    assert rounds[0][0].params["family"] == "TM"
    for guided, surface in rounds:
        assert (guided.params["kind"], surface.params["kind"]) == ("guided", "surface")
        rows = [op.params["nx"] * op.params["ny"] for op in (guided, surface)]
        lo, hi = workloads.SPINMAP_SIDES
        assert all(lo**2 <= r <= hi**2 for r in rows)
        assert sum(rows) == pytest.approx(lo**2 + hi**2, rel=0.01)


def run_cli(argv):
    rc, out, err = worker.call_cli(cli.main, list(argv))
    assert rc == 0, err
    return out


def tiny_map(tmp_path, kind):
    op = next(op for ops in first_rounds("spinmap-export", 1, 1) for op in ops
              if op.params["kind"] == kind)
    params = dict(op.params, nx=6, ny=4)
    path = tmp_path / f"{kind}.csv"
    run_cli(["spinmap", *workloads._flag_args(params), "--output", str(path)])
    return params, path


@pytest.mark.parametrize("kind", ["guided", "surface"])
def test_gate_rejects_a_corrupted_csv_row(tmp_path, kind):
    params, path = tiny_map(tmp_path, kind)
    assert gate.check_spinmap(params, str(path), random.Random(0)).ok
    lines = path.read_text().splitlines(keepends=True)
    lines[7] = lines[7].rstrip("\n") + "1\n"  # one more digit in |s|
    path.write_text("".join(lines))
    verdict = gate.check_spinmap(params, str(path), random.Random(0))
    assert not verdict.ok and "row 6" in verdict.reason


def test_gate_rejects_a_missing_csv_row(tmp_path):
    params, path = tiny_map(tmp_path, "guided")
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    verdict = gate.check_spinmap(params, str(path), random.Random(0))
    assert not verdict.ok and "data rows" in verdict.reason


def test_gate_rejects_a_residual_above_the_contract(tmp_path):
    op = first_rounds("highorder-quadrature", 1, 1)[0][0]
    params = dict(op.params, m=2, n=1)
    path = tmp_path / "report.json"
    run_cli(["report", *workloads._flag_args(params), "--output", str(path)])
    doc = json.loads(path.read_text())
    assert gate.check_report(params, json.dumps(doc)).ok
    doc["residuals"]["S_perp"] = 2e-9
    verdict = gate.check_report(params, json.dumps(doc))
    assert not verdict.ok and "residual" in verdict.reason


def test_silent_wrong_surface_answer_counts_as_failed(tmp_path):
    probe = next(op for op in first_rounds("report-sweep", 1, 1)[0] if op.probe)
    for x_max, ok in ((20.0, True), (1e4, False)):
        params = dict(probe.params, **{"x-max-kappa": x_max})
        op = workloads.Op("report", ("report", *workloads._flag_args(params)),
                          params, output="probe.json", probe=True)
        record = worker.run_op(op, str(tmp_path), random.Random(0))
        assert record.ok is ok, record.reason


def test_verify_gate_needs_every_check_to_pass():
    good = run_cli(["verify"])
    assert gate.check_verify(good).ok
    name = workloads.VERIFY_CHECK_NAMES[3]
    assert not gate.check_verify(good.replace(f"PASS  {name}", f"FAIL  {name}")).ok
    dropped = "".join(line for line in good.splitlines(keepends=True)
                      if name not in line)
    assert not gate.check_verify(dropped).ok


def test_tracer_wraps_every_import_site_and_restores_it(tmp_path):
    original = modes.guided_field_phasor
    op = first_rounds("report-sweep", 2, 1)[0]
    guided = next(o for o in op if o.params["kind"] == "guided" and not o.probe)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert observables.guided_field_phasor is not original
        record = worker.run_op(guided, str(tmp_path), random.Random(0),
                               lambda body: tracer.run_op(0, body))
    finally:
        tracer.uninstall()
    assert record.ok, record.reason
    assert observables.guided_field_phasor is original
    assert modes.guided_field_phasor is original
    (root,) = [s for s in tracer.spans if s.name == tracing.ROOT]
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    summary = tracing.summarize(tracer.spans, 1)
    assert summary["phasor_in_observables"] == 2  # the quadrature grid and the ellipse grid
    assert summary["cli.write.work"] > 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [tracing.Span(1, None, 0, "cli.main", 0.0, 10.0),
             tracing.Span(2, 1, 0, "spin.analytic", 1.0, 4.0),
             tracing.Span(3, 1, 0, "spin.analytic", 3.0, 5.0),
             tracing.Span(4, 2, 0, "modes.phasor", 2.0, 3.0)]
    own = tracing.self_times(spans)
    assert own == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                   3: pytest.approx(2.0), 4: pytest.approx(1.0)}


def test_speed_clock_scales_by_the_kernel_samples_around_an_interval():
    clock = calibrate.SpeedClock()
    clock.ends, clock.costs = [1.0, 2.0, 3.0], [0.5, 1.0, 2.0]
    ref = calibrate.REFERENCE_S
    assert clock.scale(1.0, 1.5) == pytest.approx(ref / 0.75)
    assert clock.scale(1.2, 2.5) == pytest.approx(ref / 1.25)
    assert clock.scale(2.0, 2.0) == pytest.approx(ref / 1.0)
    with pytest.raises(ValueError):
        clock.scale(0.5, 0.8)
    with pytest.raises(ValueError):
        clock.scale(2.5, 3.5)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([0.5, 0.9]) == (0.9, 100.0, 0)
    assert run.tail([float(i) for i in range(20)]) == (14.0, 75.0, 5)
    assert run.tail([float(i) for i in range(50)]) == (39.0, 80.0, 10)


def test_importtime_split_charges_dependencies_to_their_importer():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         charset_normalizer",
        "import time:        40 |        140 |       numpy.f2py",
        "import time:        50 |         50 |       numpy",
        "import time:       200 |        350 |     scipy.constants",
        "import time:        10 |        360 |   transpin.constants",
        "import time:         5 |        365 | transpin",
        "import time:         7 |          7 | json",
    ])
    split = run.parse_importtime(text)
    assert split == {"scipy": pytest.approx(340e-6), "numpy": pytest.approx(50e-6),
                     "transpin": pytest.approx(15e-6), "other": pytest.approx(7e-6)}


def bench(args, cwd, timeout=170):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("workload,trace", [("highorder-quadrature", 0),
                                            ("report-sweep", 1)])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = bench(["--workload", workload, "--seed", "1", "--seconds", "0.01",
                  "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"metric {metric['name']} = " in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(["--workload", "report-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
