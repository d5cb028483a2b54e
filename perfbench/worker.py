"""Runs one workload in a fresh process and writes its measurements as JSON.

``run.py`` starts it so that ``peak_rss_mb`` is this process's own
``ru_maxrss``.  The load is a closed loop: one client, each
``transpin.cli.main`` call made after the previous one returns.  Only the
calls are timed; the correctness gate and the calibration kernel
(``calibrate.py``) run between them, and every op's time is scaled to the
reference machine speed.  The run stops at the first round boundary after
``--seconds`` of timed calls.

With ``--trace 1`` the worker first runs the untraced loop for half the
time, then replays exactly those ops with every layer wrapped, so the ratio
of the two timings is the tracing overhead.  A last pass runs the first
spin-map round of the seed at ``TRANSPIN_THREADS=1``.

    PYTHONPATH=src python3 perfbench/worker.py --workload report-sweep \\
        --seed 1 --seconds 10 --trace 0 --tmp DIR --out result.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import resource
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

import calibrate
import gate
import tracer as tracing
import workloads

WALL_CAP_S = 140.0


@dataclass
class OpRecord:
    kind: str
    start: float
    latency: float
    ok: bool
    probe: bool
    rows: int
    sha256: str
    reason: str


def call_cli(main: Callable, argv: list[str]) -> tuple[int | None, str, str]:
    """``main(argv)`` with stdout/stderr captured; ``rc`` is None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def run_op(op: workloads.Op, tmp: str, gate_rng: random.Random,
           wrap: Callable[[Callable], tuple] | None = None,
           clock: calibrate.SpeedClock | None = None) -> OpRecord:
    """Time one op, then gate it.  ``wrap`` runs the call, e.g. under a span."""
    from transpin import cli
    argv = op.resolved_argv(tmp)
    call = lambda: call_cli(cli.main, argv)  # noqa: E731
    if clock is not None:
        clock.tick()
    start = perf_counter()
    rc, stdout, stderr = call() if wrap is None else wrap(call)
    latency = perf_counter() - start
    path = os.path.join(tmp, op.output) if op.output else None
    verdict = gate.judge(op, rc, stdout, stderr, path, gate_rng)
    if path is not None and os.path.exists(path):
        os.remove(path)
    return OpRecord(op.kind, start, latency, verdict.ok, op.probe, verdict.rows,
                    verdict.sha256, verdict.reason)


def closed_loop(rounds: Iterable[list[workloads.Op]], seconds: float, tmp: str,
                gate_rng: random.Random, deadline: float,
                clock: calibrate.SpeedClock, tracer: tracing.Tracer | None = None
                ) -> tuple[list[OpRecord], list[list[workloads.Op]]]:
    """Run whole rounds until ``seconds`` of op time or the deadline pass.

    ``clock`` samples the calibration kernel before an op when its period
    has passed, and once after the last op.
    """
    records: list[OpRecord] = []
    done: list[list[workloads.Op]] = []
    busy = 0.0
    for ops in rounds:
        for op in ops:
            wrap = functools.partial(tracer.run_op, len(records)) if tracer else None
            records.append(run_op(op, tmp, gate_rng, wrap, clock))
            busy += records[-1].latency
        done.append(ops)
        if busy >= seconds or perf_counter() > deadline:
            break
    clock.sample()
    return records, done


def scaled(records: list[OpRecord], clock: calibrate.SpeedClock) -> list[float]:
    """Each op's latency at the reference machine speed."""
    return [r.latency * clock.scale(r.start, r.start + r.latency) for r in records]


def summarize_records(records: list[OpRecord], clock: calibrate.SpeedClock) -> dict:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.sha256.encode())
    failures = [r for r in records if not r.ok]
    latencies = scaled(records, clock)
    return {
        "attempted": len(records),
        "failed": len(failures),
        "core_failed": sum(1 for r in failures if not r.probe),
        "latencies": latencies,
        "busy_s": sum(latencies),
        "raw_latencies": [r.latency for r in records],
        "raw_busy_s": sum(r.latency for r in records),
        "kernel_median_s": clock.median_cost(),
        "rows": sum(r.rows for r in records),
        "outputs_sha256": digest.hexdigest(),
        "op_sha256": [r.sha256 for r in records],
        "failure_reasons": sorted({r.reason for r in failures})[:5],
    }


def threads1_pass(seed: int, tmp: str, clock: calibrate.SpeedClock
                  ) -> list[OpRecord]:
    """The seed's first spin-map round at ``TRANSPIN_THREADS=1``."""
    previous = os.environ.get("TRANSPIN_THREADS")
    os.environ["TRANSPIN_THREADS"] = "1"
    try:
        first = next(workloads.rounds("spinmap-export", seed))
        records, _ = closed_loop([first], float("inf"), tmp, random.Random(seed),
                                 float("inf"), clock)
        return records
    finally:
        if previous is None:
            del os.environ["TRANSPIN_THREADS"]
        else:
            os.environ["TRANSPIN_THREADS"] = previous


def run_record(seed: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version
    import platform

    from transpin import cli

    def pkg(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    thread_count = getattr(cli, "_thread_count", None)
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "TRANSPIN_THREADS": os.environ.get("TRANSPIN_THREADS", "unset"),
        "effective_threads": thread_count() if thread_count else "n/a",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where --trace 1 writes its spans")
    args = parser.parse_args()
    deadline = perf_counter() + WALL_CAP_S

    import transpin  # noqa: F401  (imports every layer before any timing)

    stream = workloads.rounds(args.workload, args.seed)
    first = next(stream)
    gate_rng = random.Random(f"gate:{args.seed}")
    warm = run_op(first[0], args.tmp, gate_rng)  # untimed: first-touch page faults
    seconds = args.seconds / 2 if args.trace else args.seconds
    clock = calibrate.SpeedClock()
    records, done = closed_loop(itertools.chain([first], stream), seconds,
                                args.tmp, gate_rng, deadline, clock)
    result = {"workload": args.workload, "trace": args.trace,
              "record": run_record(args.seed)}
    result.update(summarize_records(records, clock))
    uncounted = [("warm-up", warm)]

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = closed_loop(done, float("inf"), args.tmp, gate_rng,
                                    deadline, clock, tracer)
        finally:
            tracer.uninstall()
        # the replay may stop early at the deadline: compare equal prefixes
        untraced_s = sum(result["latencies"][:len(traced)])
        traced_s = sum(scaled(traced, clock))
        reports = sum(1 for r in traced if r.kind == "report")
        # layer times take the traced ops' overall scale to the reference speed
        speed = traced_s / sum(r.latency for r in traced)
        result["layers"] = {key: value * speed if key.endswith("_s") else value
                            for key, value in
                            tracing.summarize(tracer.spans, len(traced)).items()}
        result["reports_per_op"] = reports / len(traced)
        result["overhead_frac"] = 1.0 - untraced_s / traced_s
        roots = [s for s in tracer.spans if s.name == tracing.ROOT]
        self_sum = sum(tracing.self_times(tracer.spans).values())
        result["self_coverage"] = self_sum / sum(s.end - s.start for s in roots)
        result["missing_targets"] = tracer.missing
        single = threads1_pass(args.seed, args.tmp, clock)
        result["threads1_rows_per_s"] = (sum(r.rows for r in single)
                                         / sum(scaled(single, clock)))
        uncounted += [("traced", r) for r in traced] + [("threads=1", r) for r in single]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump([[s.id, s.parent, s.op, s.name, s.start, s.end, s.work]
                           for s in tracer.spans], handle)

    # ops outside the timed loop still decide "correct"
    for label, record in uncounted:
        if not (record.ok or record.probe):
            result["core_failed"] += 1
            result["failure_reasons"].append(f"{label}: {record.reason}")

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
