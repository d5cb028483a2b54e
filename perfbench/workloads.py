"""Seeded op streams for the four benchmark workloads.

An op is one ``transpin.cli.main(argv)`` call.  Each workload yields rounds of
ops; the benchmark only stops between rounds, so the share of every op class
in a run is fixed by the workload and does not depend on how far the run
got.  The sizes that drive an op's cost are spread evenly over their range
in any prefix of the stream: high-order modes follow a golden-ratio sequence
with a seeded start, and spin maps pair mirrored quantiles of the same
sequence.  So two seeds give the same cost mix and differ only in the inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Iterator

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

WORKLOADS = ("spinmap-export", "report-sweep", "highorder-quadrature",
             "verify-catalogue")

# report-sweep: every round holds this many ops, a quarter of them surface
# waves, and PROBES_PER_ROUND of those carry an explicit --x-max-kappa.
REPORT_ROUND = 64
PROBES_PER_ROUND = 2
PROBE_X_MAX_KAPPA = (12.0, 1e4)

# verify-catalogue: the registered checks, in order; each gets a per-layer
# metric, and the gate requires all of them to pass
VERIFY_CHECK_NAMES = (
    "fields-maxwell-residuals", "fields-boundary-conditions",
    "guided-totals-vs-closed-forms", "guided-quantization", "guided-balance",
    "guided-pipeline-vs-analytic-spin", "guided-time-average-oracle",
    "guided-structural-zeros", "spin-momentum-locking",
    "guided-velocity-duality", "guided-spin-extinction",
    "guided-mass-identities", "guided-klein-gordon",
    "guided-four-momentum-split", "guided-te-m0-doubling", "guided-ellipticity",
    "surface-totals-vs-closed-forms", "surface-quantization",
    "surface-momentum-form", "surface-mass-identities",
    "surface-pipeline-and-oracle", "surface-subluminal", "surface-ellipticity",
    "algebra-structure", "algebra-closure", "algebra-helicity-eigensystem",
    "algebra-spin-bridge", "algebra-six-spinor-round-trip", "natural-units",
)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` for ``cli.main`` and the parameters the gate needs.

    ``output`` is the name of the file the op writes inside the run's temp
    directory (``None`` for ``verify``, which prints).  A ``probe`` op may
    exit 1 with a message instead of answering.
    """

    kind: str
    argv: tuple[str, ...]
    params: dict[str, Any] = field(default_factory=dict)
    output: str | None = None
    probe: bool = False

    def resolved_argv(self, tmp: str) -> list[str]:
        if self.output is None:
            return list(self.argv)
        return list(self.argv) + ["--output", f"{tmp}/{self.output}"]


def _flag_args(params: dict[str, Any]) -> list[str]:
    argv = []
    for key, value in params.items():
        if isinstance(value, bool):
            argv.append(f"--{key}" if value else f"--no-{key}")
        elif isinstance(value, float):
            argv += [f"--{key}", repr(value)]
        else:
            argv += [f"--{key}", str(value)]
    return argv


def _guided_index(rng: random.Random, family: str, top: int,
                  pinned: int | None = None) -> tuple[int, int]:
    """Mode indices with ``max(m, n) <= top`` (``== pinned`` when given).

    TM needs ``m, n >= 1``; TE needs ``m >= 1`` and allows ``n = 0``.
    """
    big = pinned if pinned is not None else rng.randint(1, top)
    if rng.random() < 0.5:
        return big, rng.randint(1 if family == "TM" else 0, big)
    return rng.randint(1, big), big


def _guided_params(rng: random.Random, family: str, m: int, n: int
                   ) -> dict[str, Any]:
    a = rng.uniform(0.01, 0.1)
    params: dict[str, Any] = {
        "kind": "guided", "family": family, "m": m, "n": n,
        "a": a, "b": a * rng.uniform(0.3, 1.0), "length": rng.uniform(0.1, 1.0),
        "omega-ratio": rng.uniform(1.05, 3.0),
        "direction": rng.choice((1, -1)),
        "combine-spins": rng.random() < 0.5,
    }
    params.update(_normalization(rng))
    return params


def _surface_params(rng: random.Random) -> dict[str, Any]:
    eta = rng.uniform(1.45, 2.4)
    critical = math.degrees(math.asin(1.0 / eta))
    params: dict[str, Any] = {
        "kind": "surface", "family": rng.choice(("TE", "TM")), "eta": eta,
        "phi-deg": rng.uniform(critical + 2.0, 88.0),
        "omega": rng.uniform(0.5e15, 3.0e15),
        "area": 10.0 ** rng.uniform(-8.0, -4.0),
        "direction": rng.choice((1, -1)),
        "combine-spins": rng.random() < 0.5,
    }
    params.update(_normalization(rng))
    return params


def _normalization(rng: random.Random) -> dict[str, Any]:
    if rng.random() < 0.5:
        return {"amplitude": 10.0 ** rng.uniform(-2.0, 3.0)}
    return {"n-quanta": float(rng.randint(1, 1000))}


def _quantile_stream(rng: random.Random) -> Iterator[float]:
    """Low-discrepancy values in [0, 1) from a seeded start."""
    u = rng.random()
    while True:
        yield u
        u = (u + GOLDEN) % 1.0


# Formatting cost and memory per row depend on how many of its values are
# zero (TE_m0 maps have s_x = 0 everywhere), so guided maps cycle through
# fixed classes.
SPINMAP_GUIDED_CLASSES = (("TM", False), ("TE", True), ("TE", False), ("TM", False))
SPINMAP_SIDES = (201, 401)


def _spinmap_side(u: float) -> int:
    """Side whose row count sits at quantile ``u`` of the row-count range."""
    lo, hi = SPINMAP_SIDES
    return round(math.sqrt(lo**2 + (hi**2 - lo**2) * u))


def _spinmap_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # A run holds only ~20 maps and stops between rounds, so each round pairs
    # a guided map at row-count quantile u with a surface map at 1 - u: every
    # round costs about the same, and u follows a golden-ratio sequence, so
    # the latency quantiles of any prefix barely depend on where it stops.
    # The first round holds a full-size TM map; it is also the warm-up op, so
    # every run's peak RSS is set by the largest map.
    quantiles = itertools.chain([1.0], _quantile_stream(rng))
    count = 0
    for round_index in itertools.count():
        family, zero_n = SPINMAP_GUIDED_CLASSES[round_index % len(SPINMAP_GUIDED_CLASSES)]
        m = rng.randint(1, 4)
        n = 0 if zero_n else rng.randint(1, 4)
        u = next(quantiles)
        ops = []
        for params, share in ((_guided_params(rng, family, m, n), u),
                              (_surface_params(rng), 1.0 - u)):
            params["nx"] = _spinmap_side(share)
            params["ny"] = _spinmap_side(share)
            if params["kind"] == "surface":
                params["x-max-kappa"] = rng.uniform(3.0, 8.0)
                params["z-periods"] = rng.uniform(0.5, 3.0)
            count += 1
            ops.append(Op("spinmap", ("spinmap", *_flag_args(params)), params,
                          output=f"map-{count}.csv"))
        yield ops


def _report_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # the probes repeat unchanged in every round of a run, so failed/attempted
    # is fixed by the seed however many rounds a run completes
    lo, hi = (math.log(v) for v in PROBE_X_MAX_KAPPA)
    start = rng.random()
    probes = []
    for k in range(PROBES_PER_ROUND):
        params = _surface_params(rng)
        params["x-max-kappa"] = math.exp(
            lo + (hi - lo) * ((start + k) / PROBES_PER_ROUND))
        probes.append(Op("report", ("report", *_flag_args(params)), params,
                         output=f"probe-{k}.json", probe=True))
    count = 0
    while True:
        ops = list(probes)
        for i in range(REPORT_ROUND - PROBES_PER_ROUND):
            surface = i < REPORT_ROUND // 4 - PROBES_PER_ROUND
            if surface:
                params = _surface_params(rng)
            else:
                family = rng.choice(("TE", "TM"))
                params = _guided_params(rng, family, *_guided_index(rng, family, 8))
            count += 1
            ops.append(Op("report", ("report", *_flag_args(params)), params,
                          output=f"report-{count}.json"))
        rng.shuffle(ops)
        yield ops


def _highorder_rounds(rng: random.Random) -> Iterator[list[Op]]:
    # the auto grid is 8*max(m, n) nodes per axis, so cost follows max(m, n)^2:
    # spread max(m, n)^2 evenly over [24^2, 48^2]
    quantiles = _quantile_stream(rng)
    count = 0
    while True:
        top = round(math.sqrt(24**2 + (48**2 - 24**2) * next(quantiles)))
        family = rng.choice(("TE", "TM"))
        params = _guided_params(rng, family,
                                *_guided_index(rng, family, top, pinned=top))
        count += 1
        yield [Op("report", ("report", *_flag_args(params)), params,
                  output=f"highorder-{count}.json")]


def _verify_rounds(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        yield [Op("verify", ("verify",))]


_ROUNDS = {
    "spinmap-export": _spinmap_rounds,
    "report-sweep": _report_rounds,
    "highorder-quadrature": _highorder_rounds,
    "verify-catalogue": _verify_rounds,
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of op rounds for ``workload``; equal seeds give equal streams."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))
