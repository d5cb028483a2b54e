"""Command-line front end: spin-map export, observable reports, verification.

Subcommands
-----------
``spinmap``
    Sample the closed-form time-averaged spin density on a uniform grid and
    write CSV with header ``x,y,sx,sy,sz,mag``.  Guided modes are sampled
    over the waveguide cross-section; surface waves over the decay/propagation
    plane (the second CSV column then holds ``z``, at constant ``y = 0``).
``report``
    Emit the JSON document of one mode that :func:`transpin.observables.report`
    builds: the volume observables, effective-mass quantities, and
    quadrature-vs-closed-form residuals.
``verify``
    Run the named invariant catalogue from :mod:`transpin.verify` and print a
    pass/fail table.

Configuration is a single JSON object with kebab-case keys; every key has a
matching command-line flag, and flags override the file.  Exit codes: 0
success (also when the reader of standard output closes it early), 1
configuration error, 2 I/O error, 3 verification failure.

This module parses the configuration, builds the mode spec, and formats and
writes what the library returns.  Spin-map rows are written in y-major order
(x fastest), each as soon as it is formatted, and floats in Python's shortest
round-trip representation, so output bytes are identical across runs;
:func:`transpin.spin.spin_map` says how rows are sampled, and
:func:`_map_rows` how they are formatted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import shutil
import sys
import weakref
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .constants import NATURAL, SI, PhysicalConstants
from .errors import ConfigurationError
from .modes import (GuidedModeSpec, ModeFamily, ModeIndex, SurfaceWaveSpec,
                    WaveguideGeometry, cutoff_frequency)
from .observables import _check_quanta, amplitude_for_quanta, report
from .spin import spin_map
from .verify import run_checks

__all__ = ["RunConfig", "main"]

CSV_HEADER = "x,y,sx,sy,sz,mag"

_CONSTANTS = {"si": SI, "natural": NATURAL}

#: Every config key, in flag order: ``key -> (type, default, allowed values,
#: flag help)``.  A default of ``None`` leaves the key unset.
_KEYS: dict[str, tuple[type, Any, tuple | None, str | None]] = {
    "kind": (str, "guided", ("guided", "surface"), None),
    "family": (str, "TE", ("TM", "TE"), None),
    "m": (int, 1, None, None),
    "n": (int, 0, None, None),
    "a": (float, 1.0, None, "broad wall size (m)"),
    "b": (float, 1.0, None, "narrow wall size (m)"),
    "length": (float, 1.0, None, None),
    "omega": (float, None, None, "angular frequency (rad/s)"),
    "omega-ratio": (float, None, None, "omega as a multiple of the cutoff (guided)"),
    "amplitude": (float, 1.0, None, None),
    "n-quanta": (float, None, None, "choose the amplitude holding this many quanta"),
    "direction": (int, 1, (1, -1), None),
    "units": (str, "si", tuple(_CONSTANTS), None),
    "combine-spins": (bool, False, None, "export s = (s_e + s_m)/2 instead of s_e + s_m"),
    "normalize": (str, "amplitude", ("amplitude", "paper-figures"),
                  "'paper-figures' fixes pi*k_z*h^2/(2*mu0*omega_c^2*omega) = 1"),
    "nx": (int, 41, None, None),
    "ny": (int, 21, None, None),
    "output": (str, "-", None, "output path, '-' for stdout"),
    "eta": (float, 1.5, None, "refractive index (surface)"),
    "phi-deg": (float, 60.0, None, "incidence angle in degrees (surface)"),
    "area": (float, 1.0, None, "quantization area (m^2)"),
    "x-max-kappa": (float, 5.0, None, "spin-map decay extent in units of 1/kappa"),
    "z-periods": (float, 1.0, None, "propagation-axis extent in guided wavelengths"),
}

#: the keys that only one kind of mode reads, and that kind
_KIND_ONLY = {**dict.fromkeys(("m", "n", "a", "b", "length", "omega-ratio"), "guided"),
              **dict.fromkeys(("eta", "phi-deg", "area", "x-max-kappa", "z-periods"),
                              "surface")}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; precedence is flag > config file > default."""

    values: Mapping[str, Any]
    provided: frozenset[str]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def was_provided(self, key: str) -> bool:
        return key in self.provided

    @property
    def constants(self) -> PhysicalConstants:
        return _CONSTANTS[self.values["units"]]

    @classmethod
    def from_sources(cls, file_config: Mapping[str, Any],
                     flags: Mapping[str, Any]) -> "RunConfig":
        for key, value in file_config.items():
            if key not in _KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            _check_type(key, value)
        flags = {key: value for key, value in flags.items() if value is not None}
        for key, value in flags.items():
            _check_type(key, value)
        defaults = {key: entry[1] for key, entry in _KEYS.items() if entry[1] is not None}
        config = cls({**defaults, **file_config, **flags}, frozenset([*file_config, *flags]))
        config._validate()
        return config

    def _validate(self) -> None:
        v = self.values
        for key, (_, _, allowed, _) in _KEYS.items():
            if allowed is not None and v[key] not in allowed:
                raise ConfigurationError(
                    f"config key {key!r} must be {' or '.join(map(repr, allowed))}, "
                    f"got {v[key]!r}")
        for key, kind in _KIND_ONLY.items():
            if kind != v["kind"] and self.was_provided(key):
                raise ConfigurationError(f"config key {key!r} applies to kind {kind!r} only")
        if v["nx"] < 2 or v["ny"] < 2:
            raise ConfigurationError("config keys 'nx' and 'ny' must be >= 2")
        if self.was_provided("omega") and self.was_provided("omega-ratio"):
            raise ConfigurationError(
                "config keys 'omega' and 'omega-ratio' are mutually exclusive")
        if self.was_provided("n-quanta") and self.was_provided("amplitude"):
            raise ConfigurationError(
                "config keys 'n-quanta' and 'amplitude' are mutually exclusive")
        if v["normalize"] == "paper-figures":
            if v["kind"] != "guided":
                raise ConfigurationError(
                    "normalize preset 'paper-figures' applies to guided modes only")
            if self.was_provided("n-quanta") or self.was_provided("amplitude"):
                raise ConfigurationError(
                    "normalize preset 'paper-figures' fixes the amplitude; "
                    "do not also set 'amplitude' or 'n-quanta'")

    # -- spec construction --------------------------------------------------

    def build_spec(self) -> GuidedModeSpec | SurfaceWaveSpec:
        spec = (self._build_guided() if self.values["kind"] == "guided"
                else self._build_surface())
        amplitude = self._resolve_amplitude(spec)
        try:
            return replace(spec, amplitude=amplitude)
        except ValueError as exc:
            # the spec's own message names 'amplitude', a key the user did not set
            if not self.was_provided("n-quanta"):
                raise
            raise ConfigurationError(
                f"config key 'n-quanta' = {self.values['n-quanta']!r} sets an "
                f"amplitude out of range: {exc}") from None

    def _build_guided(self) -> GuidedModeSpec:
        v = self.values
        constants = self.constants
        geometry = WaveguideGeometry(v["a"], v["b"], v["length"])
        index = ModeIndex(ModeFamily(v["family"]), v["m"], v["n"])
        omega_c = cutoff_frequency(index, geometry, constants)
        if self.was_provided("omega"):
            omega = v["omega"]
        else:
            ratio = v["omega-ratio"] if self.was_provided("omega-ratio") else math.sqrt(2.0)
            # the spec would blame 'omega', a key the user did not set
            if not 0.0 < ratio < math.inf:
                raise ConfigurationError(
                    "omega is omega-ratio times the cutoff: config key 'omega-ratio' "
                    f"must be finite and > 0, got {ratio!r}")
            omega = ratio * omega_c
        return GuidedModeSpec(geometry, index, omega, v["amplitude"],
                              v["direction"], constants)

    def _build_surface(self) -> SurfaceWaveSpec:
        v = self.values
        omega = v["omega"] if self.was_provided("omega") else 1.2e15
        return SurfaceWaveSpec(ModeFamily(v["family"]), v["eta"],
                               math.radians(v["phi-deg"]), omega,
                               v["amplitude"], v["area"], v["direction"],
                               self.constants)

    def _resolve_amplitude(self, spec) -> float:
        if self.values["normalize"] == "paper-figures":
            con = spec.constants
            k_z = abs(float(spec.k_z.real))
            if k_z == 0.0:
                raise ConfigurationError(
                    "normalize preset 'paper-figures' needs a propagating mode")
            return math.sqrt(2.0 * con.mu0 * spec.omega_c**2 * spec.omega
                             / (math.pi * k_z))
        if self.was_provided("n-quanta"):
            try:
                n_quanta = _check_quanta(self.values["n-quanta"])
            except ValueError as exc:
                raise ConfigurationError(f"config key 'n-quanta': {exc}") from None
            return amplitude_for_quanta(n_quanta, spec)
        return self.values["amplitude"]


def _check_type(key: str, value: Any) -> None:
    expected = _KEYS[key][0]
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"config key {key!r} must be a number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ConfigurationError(
                f"config key {key!r} is too large for a float") from None
    elif expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"config key {key!r} must be an integer, got {value!r}")
    elif not isinstance(value, expected):
        raise ConfigurationError(
            f"config key {key!r} must be {expected.__name__}, got {value!r}")


def _load_config_file(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc

    def unique_keys(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise ConfigurationError(f"config key {key!r} appears twice in {path}")
            data[key] = value
        return data

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error in {path} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return data


# --------------------------------------------------------------------------
# spinmap


def _row_pieces(s: np.ndarray, heads: list[str]) -> list[str]:
    """A row's CSV text split at its ``y``: the row is ``repr(y).join(pieces)``.

    ``heads`` holds ``f"{x!r},"`` per point of the row, then ``""``.  The
    first piece is the first head; each point then adds
    ``,sx,sy,sz,mag\\n`` and the next head, so the last piece ends at its
    line end.  ``mag`` is the Euclidean norm of the spin array ``s``.
    """
    return [heads[0], *[f",{sx!r},{sy!r},{sz!r},{math.hypot(sx, sy, sz)!r}\n{head}"
                        for (sx, sy, sz), head in zip(s.tolist(), heads[1:])]]


def _surface_extent(config: RunConfig, key: str) -> float:
    """A surface-wave extent, which must be finite and > 0."""
    value = config[key]
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigurationError(
            f"config key {key!r} must be finite and > 0, got {value!r}")
    return value


def _map_rows(config: RunConfig, spec) -> Iterator[str]:
    """Check the whole map, then return an iterator over its CSV text.

    Every check runs before this returns: the surface extents' config keys,
    those of :func:`~transpin.spin.spin_map`, and the arrays of one row,
    which must fit in memory.  The iterator yields the header line and then
    one chunk per row, taking the rows as ``spin_map`` yields them, so at
    most a block is held.  Each row is ``repr(y).join(pieces)`` over the
    template of :func:`_row_pieces`, which is rebuilt only when the row's
    spin bits differ from the last row's: ``repr`` follows the bits, and
    ``==`` would equate ``-0.0`` with ``0.0``.
    """
    try:
        # a guided run cannot set the extents, so their defaults pass
        xs, blocks = spin_map(spec, config["nx"], config["ny"],
                              combine=config["combine-spins"],
                              x_max_kappa=_surface_extent(config, "x-max-kappa"),
                              z_periods=_surface_extent(config, "z-periods"))
        heads = [f"{x!r}," for x in xs.tolist()] + [""]
    except MemoryError as exc:
        raise ConfigurationError(
            "config key 'nx' is too large for one row of the map "
            f"({str(exc) or type(exc).__name__})") from None
    except OverflowError:
        raise ConfigurationError("config key 'ny' is too large for a float") from None

    def rows() -> Iterator[str]:
        yield CSV_HEADER + "\n"
        bits = None
        for ys, spins in blocks:
            for y, s in zip(ys.tolist(), spins):
                if s.tobytes() != bits:
                    bits, pieces = s.tobytes(), _row_pieces(s, heads)
                yield repr(y).join(pieces)

    return rows()


@contextlib.contextmanager
def _open_output(path: str) -> Iterator[TextIO]:
    """Standard output for ``-``, else the file at ``path``: UTF-8, LF line ends."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        yield handle


def _write_text(handle: TextIO, text: str) -> None:
    """Write ``text`` to ``handle``; every byte of command output passes here.

    Diagnostics written to standard error do not.
    """
    handle.write(text)


def cmd_spinmap(config: RunConfig) -> int:
    rows = _map_rows(config, config.build_spec())
    with _open_output(config["output"]) as handle:
        for text in rows:
            _write_text(handle, text)
    return 0


# --------------------------------------------------------------------------
# report


def cmd_report(config: RunConfig) -> int:
    doc = report(config.build_spec(), combine=config["combine-spins"])
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _open_output(config["output"]) as handle:
        _write_text(handle, text)
    return 0


# --------------------------------------------------------------------------
# verify


def cmd_verify(name_filter: str | None, inject_fault: bool) -> int:
    results = run_checks(name_filter, inject_fault)
    if not results:
        sys.stderr.write(f"error: filter {name_filter!r} matched no checks\n")
        return 1
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
             f"measured={r.measured:.3e}  tolerance={r.tolerance:.3e}  {r.detail}"
             for r in results]
    lines.append(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    _write_text(sys.stdout, "\n".join(lines) + "\n")
    for r in failed:
        sys.stderr.write(
            f"error: check {r.name} failed: measured={r.measured!r} "
            f"tolerance={r.tolerance!r} ({r.detail})\n")
    return 3 if failed else 0


# --------------------------------------------------------------------------
# argument parsing


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file; flags override its keys")
    for key, (value_type, _, allowed, help_text) in _KEYS.items():
        if value_type is bool:
            parser.add_argument(f"--{key}", action=argparse.BooleanOptionalAction,
                                help=help_text)
        else:
            parser.add_argument(f"--{key}", type=value_type, choices=allowed,
                                help=help_text)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, freed as soon as it is dropped.

    Building the parser makes one formatter per flag (``add_argument``
    checks the metavar with it).  argparse's root section refers back to
    its formatter, so every one would wait for the cyclic collector; the
    root section holds the formatter weakly here.  Each one would also
    query the terminal for its width, so :func:`_build_parser` passes the
    width it measured once.
    """

    def __init__(self, prog: str, **kwargs: Any) -> None:
        super().__init__(prog, **kwargs)
        self._root_section.formatter = weakref.proxy(self)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, raising a rejected flag as a config error, not exit 2."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    # argparse builds a formatter per flag, and each would query the terminal;
    # columns - 2 is the width HelpFormatter computes when given none
    formatter = functools.partial(_HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(
        prog="transpin", formatter_class=formatter,
        description="Transverse spin, momentum and effective-mass observables "
                    "of guided and evanescent electromagnetic modes.")
    # a given prog spares add_subparsers the usage formatter it would keep
    sub = parser.add_subparsers(dest="command", required=True, prog="transpin")
    spinmap = sub.add_parser(
        "spinmap", formatter_class=formatter,
        help="export a CSV grid of the time-averaged spin density")
    _add_config_flags(spinmap)
    report = sub.add_parser(
        "report", formatter_class=formatter,
        help="emit a JSON report of integrated observables")
    _add_config_flags(report)
    verify = sub.add_parser(
        "verify", formatter_class=formatter,
        help="run the named invariant catalogue")
    verify.add_argument("--filter", default=None,
                        help="run only checks whose name contains this substring")
    verify.add_argument("--inject-fault", action="store_true",
                        help="append a deliberately failing check (negative control)")
    return parser


def _flags_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """Every config flag; ``None`` where it was not given."""
    return {key: getattr(args, key.replace("-", "_")) for key in _KEYS}


def _unlink(parser: argparse.ArgumentParser) -> None:
    """Break the action-to-group links of a parser and its subparsers.

    argparse links each action back to the group that holds it, so a parser
    is a web of reference cycles.  Unlinked, a parser that has done its
    parsing is freed by reference counting when ``main`` drops it.
    """
    for action in parser._actions:
        action.container = None
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                _unlink(subparser)


def main(argv: Sequence[str] | None = None) -> int:
    # each call builds its own parser and leaves none of it to the cyclic
    # collector, whose full passes a caller calling main in a loop would pay
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            code = cmd_verify(args.filter, args.inject_fault)
        else:
            file_config = _load_config_file(args.config)
            config = RunConfig.from_sources(file_config, _flags_from_args(args))
            code = cmd_spinmap(config) if args.command == "spinmap" else cmd_report(config)
        # a reader that closes early then shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output stopped reading: what it read is
        # intact, so this is a normal end.  Pointing the descriptor at
        # os.devnull keeps the flush at interpreter exit quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    except ValueError as exc:
        # covers ConfigurationError, InvalidModeError, DomainError,
        # ResolutionError, UnsupportedModeError
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    finally:
        _unlink(parser)


if __name__ == "__main__":
    sys.exit(main())
