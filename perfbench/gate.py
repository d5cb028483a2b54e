"""Correctness gate: decides, outside the timed region, whether an op failed.

``spinmap``
    The header, ``nx*ny`` data rows, and a seeded sample of rows that must be
    string-equal to an independent re-render: one vectorized
    ``analytic_spin_*`` call on the sampled points, formatted with ``repr``
    and ``math.hypot``.
``report``
    The JSON parses and the ``W``, ``P_z`` and ``S_perp``/``S_y`` residuals
    are at most 1e-9.  A probe op may instead exit 1 with a message.
``verify``
    Exit 0 and all 29 checks pass.

Every output's sha256 is recorded so that byte changes show up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from workloads import VERIFY_CHECK_NAMES

CSV_HEADER = b"x,y,sx,sy,sz,mag\n"
RESIDUAL_LIMIT = 1e-9
VERIFY_CHECKS = len(VERIFY_CHECK_NAMES)
SAMPLED_ROWS = 64


@dataclass(frozen=True)
class Verdict:
    """Gate outcome of one op; ``rows`` counts the output rows it wrote."""

    ok: bool
    reason: str = ""
    sha256: str = ""
    rows: int = 0


def build_spec(params: dict[str, Any]):
    """The mode spec an op describes, built through the public API."""
    from transpin import (SI, GuidedModeSpec, ModeFamily, ModeIndex,
                          SurfaceWaveSpec, WaveguideGeometry,
                          amplitude_for_quanta, cutoff_frequency)
    amplitude = params.get("amplitude", 1.0)
    family = ModeFamily(params["family"])
    if params["kind"] == "guided":
        geometry = WaveguideGeometry(params["a"], params["b"], params["length"])
        index = ModeIndex(family, params["m"], params["n"])
        omega = params["omega-ratio"] * cutoff_frequency(index, geometry, SI)
        spec = GuidedModeSpec(geometry, index, omega, amplitude,
                              params["direction"], SI)
    else:
        spec = SurfaceWaveSpec(family, params["eta"],
                               math.radians(params["phi-deg"]), params["omega"],
                               amplitude, params["area"], params["direction"], SI)
    if "n-quanta" in params:
        spec = replace(spec, amplitude=amplitude_for_quanta(params["n-quanta"], spec))
    return spec


def render_rows(params: dict[str, Any], indices: np.ndarray) -> list[str]:
    """CSV lines (without newline) of the given row indices of a spin map."""
    from transpin import analytic_spin_guided, analytic_spin_surface
    spec = build_spec(params)
    nx, ny = params["nx"], params["ny"]
    col, row = indices % nx, indices // nx
    if params["kind"] == "guided":
        xs = np.linspace(0.0, spec.geometry.a, nx)[col]
        ys = np.linspace(0.0, spec.geometry.b, ny)[row]
        pair = analytic_spin_guided(spec, (xs, ys))
    else:
        xs = np.linspace(0.0, params["x-max-kappa"] / spec.kappa, nx)[col]
        z_span = params["z-periods"] * 2.0 * math.pi / abs(spec.k_z)
        ys = np.linspace(0.0, z_span, ny)[row]
        pair = analytic_spin_surface(spec, xs)
    s = pair.combined() if params["combine-spins"] else pair.total()
    lines = []
    for x, y, (sx, sy, sz) in zip(xs.tolist(), ys.tolist(), s.tolist()):
        lines.append(",".join(repr(v) for v in
                              (x, y, sx, sy, sz, math.hypot(sx, sy, sz))))
    return lines


def check_spinmap(params: dict[str, Any], path: str, rng: random.Random) -> Verdict:
    total = params["nx"] * params["ny"]
    picks = sorted({0, total - 1, *rng.sample(range(total), min(SAMPLED_ROWS, total))})
    expected = dict(zip(picks, render_rows(params, np.array(picks))))
    digest = hashlib.sha256()
    rows = 0
    mismatch = None
    with open(path, "rb") as handle:
        header = handle.readline()
        digest.update(header)
        for line in handle:
            digest.update(line)
            want = expected.get(rows)
            if want is not None and mismatch is None and line != (want + "\n").encode():
                mismatch = f"row {rows}: {line!r} != {want!r}"
            rows += 1
    sha = digest.hexdigest()
    if header != CSV_HEADER:
        return Verdict(False, f"bad header {header!r}", sha, rows)
    if rows != total:
        return Verdict(False, f"{rows} data rows, expected {total}", sha, rows)
    if mismatch is not None:
        return Verdict(False, mismatch, sha, rows)
    return Verdict(True, "", sha, rows)


def check_report(params: dict[str, Any], text: str) -> Verdict:
    sha = hashlib.sha256(text.encode()).hexdigest()
    try:
        doc = json.loads(text)
        residuals = doc["residuals"]
        spin_key = "S_perp" if params["kind"] == "guided" else "S_y"
        worst = max(residuals[key] for key in ("W", "P_z", spin_key))
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"unreadable report: {exc!r}", sha, 0)
    if not worst <= RESIDUAL_LIMIT:
        return Verdict(False, f"residual {worst!r} > {RESIDUAL_LIMIT}", sha, 1)
    return Verdict(True, "", sha, 1)


def check_verify(text: str) -> Verdict:
    sha = hashlib.sha256(text.encode()).hexdigest()
    lines = text.splitlines()
    passed = [line.split()[1] for line in lines if line.startswith("PASS ")]
    failed = [line.split()[1] for line in lines if line.startswith("FAIL ")]
    summary = f"{VERIFY_CHECKS} passed, 0 failed"
    if passed != list(VERIFY_CHECK_NAMES) or failed or lines[-1:] != [summary]:
        return Verdict(False, f"{len(passed)} PASS / {len(failed)} FAIL lines; "
                       f"failed: {failed}", sha, len(passed) + len(failed))
    return Verdict(True, "", sha, len(passed))


def judge(op, rc: int | None, stdout: str, stderr: str, output_path: str | None,
          rng: random.Random) -> Verdict:
    """Gate one finished op.  ``rc`` is ``None`` when the call raised."""
    if rc is None:
        return Verdict(False, f"raised: {stderr.strip()[-200:]}")
    if op.probe and rc == 1 and stderr.strip():
        return Verdict(True, "refused: " + stderr.strip()[:200])
    if rc != 0:
        return Verdict(False, f"exit {rc}: {stderr.strip()[:200]}")
    if op.kind == "verify":
        return check_verify(stdout)
    try:
        if op.kind == "spinmap":
            return check_spinmap(op.params, output_path, rng)
        with open(output_path, "r", encoding="utf-8") as handle:
            return check_report(op.params, handle.read())
    except OSError as exc:
        return Verdict(False, f"output unreadable: {exc}")
