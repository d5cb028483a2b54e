"""transpin benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-sweep --seed 1 --seconds 20 --trace 0

It times ``import transpin`` in several cold child interpreters, runs the
workload in a fresh worker process (``worker.py``), gates every op on a
correctness check, prints each metric by name and unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Every time it
reports is scaled to the reference machine speed (``calibrate.py``); the
unscaled end-to-end values are printed as notes.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Spans
and the run record are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

# cold-import children per run, half before and half after the workload so
# that one slow phase of a shared machine cannot set the median
SETUP_CHILDREN = 6
RUN_CAP_S = 175.0
# bytes held per phasor sample point: E and B, 3 complex128 components each
PHASOR_POINT_BYTES = 96


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _setup_owner(module: str) -> str | None:
    """The ``setup.*`` package a module's own import belongs to, if any.

    Only the ``numpy`` package node itself counts as numpy: the numpy
    submodules scipy pulls in (f2py, testing, random) are not part of a bare
    ``import numpy`` and count for whoever imported them.
    """
    top = module.split(".")[0]
    if module == "numpy" or top in ("scipy", "transpin"):
        return top
    return None


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of ``-X importtime`` self time owned by numpy, scipy and transpin.

    A module belongs to its nearest importer-or-self that has an owner, else
    to ``other``.  So the owners' times add up to the whole import, and
    ``setup.scipy_s`` is what dropping scipy would save.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(self_us)))
    totals: dict[str, float] = {}
    stack: list[tuple[int, str]] = []  # (depth, owner) of the importers
    # -X importtime prints children before their parent: walk it backwards
    for depth, module, self_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = _setup_owner(module) or (stack[-1][1] if stack else "other")
        stack.append((depth, owner))
        totals[owner] = totals.get(owner, 0.0) + self_us / 1e6
    return totals


def cold_imports(root: Path, cwd: Path, deadline: float, count: int,
                 clock: calibrate.SpeedClock
                 ) -> list[tuple[float, float, dict[str, float]]]:
    """Raw wall time, scale to the reference speed and import split of
    ``count`` cold ``import transpin`` children."""
    src = str(root / "src")
    code = "import transpin, sys; sys.stdout.write(transpin.__file__)"
    samples = []
    for _ in range(count):
        clock.sample()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=cwd, env=child_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - perf_counter()))
        wall = perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.startswith(src):
            raise BenchError(f"cold import failed or resolved outside {src}: "
                             f"{proc.stdout!r} {proc.stderr[-500:]}")
        samples.append((start, wall, parse_importtime(proc.stderr)))
    clock.sample()
    return [(wall, clock.scale(start, start + wall), split)
            for start, wall, split in samples]


def summarize_setup(samples: list[tuple[float, float, dict[str, float]]]
                    ) -> dict[str, float]:
    median = lambda key: statistics.median(  # noqa: E731
        scale * split.get(key, 0.0) for _, scale, split in samples)
    return {"setup_s": statistics.median(wall * scale for wall, scale, _ in samples),
            "raw_setup_s": statistics.median(wall for wall, _, _ in samples),
            "setup.scipy_s": median("scipy"),
            "setup.numpy_s": median("numpy"),
            "setup.transpin_s": median("transpin")}


TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, beyond)``.  Below 40 ops that percentile
    would be under p75, no tail at all; there it is p75, with a quarter of
    the samples beyond.  A single noisy op then cannot set the value.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def timings(setup_s: float, latencies: list[float], busy: float, rows: int
            ) -> dict[str, float]:
    return {"setup_s": setup_s,
            "ops_per_s": len(latencies) / busy,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail(latencies)[0],
            "rows_per_s": rows / busy}


def end_to_end(setup: dict, worker: dict) -> tuple[dict, list[str]]:
    latencies = worker["latencies"]
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "rows_per_s": "1/s"}
    metrics = {name: (value, units[name]) for name, value in
               timings(setup["setup_s"], latencies, worker["busy_s"],
                       worker["rows"]).items()}
    metrics["peak_rss_mb"] = (worker["peak_rss_mb"], "MB")
    raw = timings(setup["raw_setup_s"], worker["raw_latencies"],
                  worker["raw_busy_s"], worker["rows"])
    _, pct, beyond = tail(latencies)
    notes = [f"op_tail_ms is p{pct:.2f} of {len(latencies)} ops, {beyond} beyond",
             f"failed_frac = {worker['failed']}/{worker['attempted']} = "
             f"{worker['failed'] / worker['attempted']:.6f}",
             f"calibration kernel median {1e3 * worker['kernel_median_s']:.3f} ms, "
             f"reference {1e3 * calibrate.REFERENCE_S:.3f} ms",
             "unscaled: " + ", ".join(f"{name} = {value!r} {units[name]}"
                                      for name, value in raw.items())]
    return metrics, notes


def per_layer(setup: dict, worker: dict) -> tuple[dict, list[str]]:
    layers = worker["layers"]
    get = lambda key: layers.get(key, 0.0)  # noqa: E731
    reports = worker["reports_per_op"]
    metrics = {
        "setup.scipy_s": (setup["setup.scipy_s"], "s"),
        "setup.numpy_s": (setup["setup.numpy_s"], "s"),
        "setup.transpin_s": (setup["setup.transpin_s"], "s"),
        "cli.self_s": (get("cli.main.self_s"), "s"),
        "cli.write_s": (get("cli.write.self_s"), "s"),
        "cli.bytes_written": (get("cli.write.work"), "B"),
        "cli.threads1_rows_per_s": (worker["threads1_rows_per_s"], "1/s"),
        "spin.analytic_s": (get("spin.analytic.self_s"), "s"),
        "spin.analytic_calls": (get("spin.analytic.calls"), "count"),
        "spin.analytic_points": (get("spin.analytic.work"), "count"),
        "modes.phasor_s": (get("modes.phasor.self_s"), "s"),
        "modes.phasor_calls": (get("modes.phasor.calls"), "count"),
        "modes.phasor_points": (get("modes.phasor.work"), "count"),
        "modes.bytes_computed": (PHASOR_POINT_BYTES * get("modes.phasor.work"), "B"),
        "spin.density_s": (get("spin.density.self_s"), "s"),
        "observables.integrate_s": (get("observables.integrate.self_s"), "s"),
        "observables.integrate_calls": (get("observables.integrate.calls"), "count"),
        "observables.phasor_calls_per_report": (
            get("phasor_in_observables") / reports if reports else 0.0, "count"),
        "effective_mass.s": (get("effective_mass.self_s"), "s"),
        "spin.oracle_s": (get("spin.oracle.self_s"), "s"),
        "spin.oracle_samples": (get("spin.oracle.work"), "count"),
        "spin_algebra.s": (get("spin_algebra.self_s"), "s"),
        "verify.self_s": (get("verify.check.self_s"), "s"),
    }
    for name in workloads.VERIFY_CHECK_NAMES:
        metrics[f"verify.check.{name}_s"] = (get(f"verify.check.{name}.incl_s"), "s")
    metrics["trace.overhead_frac"] = (worker["overhead_frac"], "fraction")
    notes = ["per-layer values are per-op means over the traced ops",
             f"layer self times sum to {worker['self_coverage']:.4f} of traced op time"]
    if worker["missing_targets"]:
        notes.append("not wrapped (absent): " + ", ".join(worker["missing_targets"]))
    return metrics, notes


def run(args: argparse.Namespace, root: Path) -> dict:
    deadline = perf_counter() + RUN_CAP_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = root / ".perfbench_out"
    tmp = root / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    tmp.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        clock = calibrate.SpeedClock()
        cold_imports(root, tmp, deadline, 1, clock)  # warms the file and bytecode caches
        before = cold_imports(root, tmp, deadline, SETUP_CHILDREN // 2, clock)
        result_path = tmp / "worker.json"
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--tmp", str(tmp), "--out", str(result_path),
                   "--spans", str(out_dir / f"spans-{tag}.json")]
        proc = subprocess.run(command, cwd=root, env=child_env(root),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        worker = json.loads(result_path.read_text(encoding="utf-8"))
        setup = summarize_setup(before + cold_imports(
            root, tmp, deadline, SETUP_CHILDREN - len(before), clock))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            tmp.parent.rmdir()

    build = per_layer if args.trace else end_to_end
    metrics, notes = build(setup, worker)
    record = dict(worker["record"], git_commit=git_commit(root),
                  workload=args.workload, seconds=args.seconds, trace=args.trace,
                  attempted=worker["attempted"], failed=worker["failed"],
                  outputs_sha256=worker["outputs_sha256"],
                  op_sha256=worker["op_sha256"],
                  failure_reasons=worker["failure_reasons"],
                  kernel_median_s=worker["kernel_median_s"],
                  reference_s=calibrate.REFERENCE_S,
                  metrics={k: v for k, (v, _) in metrics.items()})
    (out_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1),
                                                encoding="utf-8")
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit",
                "seed", "TRANSPIN_THREADS", "effective_threads", "outputs_sha256"):
        print(f"record {key} = {record[key]}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    for note in notes + [f"failure: {r}" for r in worker["failure_reasons"]]:
        print(f"note {note}")
    # A probe op's silent wrong answer is a known defect counted in "failed";
    # every other op, warm-up and traced replay included, must pass.
    return {"correct": worker["core_failed"] == 0, "attempted": worker["attempted"],
            "failed": worker["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "transpin" / "__init__.py").is_file():
        sys.stderr.write(f"error: {root} holds no transpin source tree "
                         "(src/transpin); run from the root of a checkout\n")
        return 2
    try:
        result = run(args, root)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
