"""Spans around the calls into each transpin layer, recorded from outside.

Modules bind names with ``from .x import y``, so a function is replaced at
every import site: each ``transpin*`` module attribute that is the original
function object.  Verify checks are wrapped in ``verify._CHECKS``.
:meth:`Tracer.uninstall` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the union of its children's intervals; children started in
the spin-map thread pool have the op's root span as parent.  The
per-sample ``SpinMapRow`` methods are deliberately not wrapped: their cost
belongs to ``cli.self``.
"""

from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# layer -> (module, function names); a name missing from the module is skipped
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "modes.phasor": ("transpin.modes",
                     ("guided_field_phasor", "surface_field_phasor")),
    "spin.analytic": ("transpin.spin",
                      ("analytic_spin_guided", "analytic_spin_surface")),
    "spin.density": ("transpin.spin",
                     ("energy_density", "momentum_density", "spin_densities")),
    "spin.oracle": ("transpin.spin", ("time_average_oracle",)),
    "observables.integrate": ("transpin.observables",
                              ("integrate_guided", "integrate_surface",
                               "balance_integral", "ellipticity_guided")),
    "effective_mass": ("transpin.effective_mass",
                       ("guided_mass_report", "surface_mass_report",
                        "dispersion_residual", "klein_gordon_stencil_residual")),
    "spin_algebra": ("transpin.spin_algebra",
                     ("build_spin_matrices", "helicity_eigensystem",
                      "decompose_polarization", "commutator_table")),
    "cli.write": ("transpin.cli", ("_write_text",)),
}
ROOT = "cli.main"


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    work: int = 0


def _points(result: Any) -> int:
    # FieldPhasor.E and SpinDensityPair.s_e are (..., 3) arrays
    array = getattr(result, "E", None)
    if array is None:
        array = getattr(result, "s_e", None)
    return 0 if array is None else array.size // 3


def _oracle_samples(args: tuple, kwargs: dict) -> int:
    return int(kwargs.get("samples", args[2] if len(args) > 2 else 64))


def _write_bytes(args: tuple, kwargs: dict) -> int:
    # the CLI writes ASCII only (repr floats, json.dumps with ensure_ascii)
    return len(args[1])


class Tracer:
    """Records spans for one op at a time; inert while no op is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._root: int | None = None
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._replace_everywhere(original, self._wrap(layer, original))
        checks = getattr(sys.modules["transpin.verify"], "_CHECKS", None)
        if checks is None:
            self.missing.append("transpin.verify._CHECKS")
            return
        for name, fn in list(checks.items()):
            checks[name] = self._wrap(f"verify.check.{name}", fn)
            self._restore.append((checks, name, fn))

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "transpin"
                                      or module_name.startswith("transpin.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name == "modes.phasor" or name == "spin.analytic":
            work = lambda args, kwargs, result: _points(result)  # noqa: E731
        elif name == "spin.oracle":
            work = lambda args, kwargs, result: _oracle_samples(args, kwargs)  # noqa: E731
        elif name == "cli.write":
            work = lambda args, kwargs, result: _write_bytes(args, kwargs)  # noqa: E731
        else:
            work = None

        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            returned, result = False, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                amount = work(args, kwargs, result) if work and returned else 0
                self.spans.append(Span(span_id, parent, op, name, start, end, amount))

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, call: Callable[[], Any]) -> Any:
        """Run ``call`` as op ``op_id`` under a root ``cli.main`` span."""
        span_id = next(self._ids)
        self._op, self._root = op_id, span_id
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self._op = self._root = None
            self.spans.append(Span(span_id, None, op_id, ROOT, start, end))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= max(start, reach):
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = [(max(s, span.start), min(e, span.end))
                   for s, e in children.get(span.id, ())]
        result[span.id] = (span.end - span.start) - _union_length(covered)
    return result


def summarize(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-op means of each layer's self time, call count and work count.

    Keys are ``<layer>.self_s``, ``<layer>.calls`` and ``<layer>.work`` per
    layer (all verify checks form the layer ``verify.check``),
    ``<check>.incl_s`` per verify check, and ``phasor_in_observables``
    (phasor calls whose parent span is a quadrature call).
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for span in spans:
        check = span.name.startswith("verify.check.")
        layer = "verify.check" if check else span.name
        add(f"{layer}.self_s", own[span.id])
        add(f"{layer}.calls", 1)
        add(f"{layer}.work", span.work)
        if check:
            add(f"{span.name}.incl_s", span.end - span.start)
        if span.name == "modes.phasor":
            parent = by_id.get(span.parent)
            if parent is not None and parent.name == "observables.integrate":
                add("phasor_in_observables", 1)
    return {key: value / ops for key, value in totals.items()}
