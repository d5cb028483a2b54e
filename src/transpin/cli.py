"""Command-line front end: spin-map export, observable reports, verification.

Subcommands
-----------
``spinmap``
    Sample the closed-form time-averaged spin density on a uniform grid and
    write CSV with header ``x,y,sx,sy,sz,mag``.  Guided modes are sampled
    over the waveguide cross-section; surface waves over the decay/propagation
    plane (the second CSV column then holds ``z``, at constant ``y = 0``).
``report``
    Integrate one mode and emit a JSON document with the volume observables,
    effective-mass quantities, and quadrature-vs-closed-form residuals.
``verify``
    Run the named invariant catalogue from :mod:`transpin.verify` and print a
    pass/fail table.

Configuration is a single JSON object with kebab-case keys; every key has a
matching command-line flag, and flags override the file.  Exit codes: 0
success, 1 configuration error, 2 I/O error, 3 verification failure.

Spin-map rows are written in y-major order (x fastest), each as soon as it
is formatted, and floats in Python's shortest round-trip representation, so
output bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Any, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .constants import NATURAL, SI, PhysicalConstants
from .effective_mass import (dispersion_residual, guided_mass_report,
                             klein_gordon_stencil_residual,
                             surface_mass_report)
from .errors import ConfigurationError
from .modes import (GuidedModeSpec, ModeFamily, ModeIndex, SurfaceWaveSpec,
                    WaveguideGeometry, cutoff_frequency)
from .observables import (_check_float_range, amplitude_for_quanta,
                          closed_forms, integrate_guided, integrate_surface)
from .spin import (_guided_scales, _surface_peak, analytic_spin_guided,
                   analytic_spin_surface)
from .verify import _rel, run_checks

__all__ = ["RunConfig", "main"]

CSV_HEADER = "x,y,sx,sy,sz,mag"

_KEY_TYPES: dict[str, type] = {
    "kind": str, "family": str, "units": str, "normalize": str,
    "output": str,
    "direction": int, "m": int, "n": int, "nx": int, "ny": int,
    "combine-spins": bool,
    "amplitude": float, "n-quanta": float,
    "a": float, "b": float, "length": float,
    "omega": float, "omega-ratio": float,
    "eta": float, "phi-deg": float, "area": float,
    "x-max-kappa": float, "z-periods": float,
}

_DEFAULTS: dict[str, Any] = {
    "kind": "guided", "family": "TE", "units": "si", "normalize": "amplitude",
    "output": "-", "direction": 1, "m": 1, "n": 0, "nx": 41, "ny": 21,
    "combine-spins": False, "amplitude": 1.0,
    "a": 1.0, "b": 1.0, "length": 1.0,
    "eta": 1.5, "phi-deg": 60.0, "area": 1.0, "z-periods": 1.0,
}


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
        units = self.values["units"]
        if units == "si":
            return SI
        if units == "natural":
            return NATURAL
        raise ConfigurationError(
            f"config key 'units' must be 'si' or 'natural', got {units!r}")

    @classmethod
    def from_sources(cls, file_config: Mapping[str, Any],
                     flags: Mapping[str, Any]) -> "RunConfig":
        for key, value in file_config.items():
            if key not in _KEY_TYPES:
                raise ConfigurationError(f"unknown config key {key!r}")
            _check_type(key, value)
        merged = dict(_DEFAULTS)
        provided = set()
        for key, value in file_config.items():
            merged[key] = value
            provided.add(key)
        for key, value in flags.items():
            if value is None:
                continue
            _check_type(key, value)
            merged[key] = value
            provided.add(key)
        config = cls(merged, frozenset(provided))
        config._validate()
        return config

    def _validate(self) -> None:
        v = self.values
        if v["kind"] not in ("guided", "surface"):
            raise ConfigurationError(
                f"config key 'kind' must be 'guided' or 'surface', got {v['kind']!r}")
        if v["family"] not in ("TM", "TE"):
            raise ConfigurationError(
                f"config key 'family' must be 'TM' or 'TE', got {v['family']!r}")
        if v["direction"] not in (1, -1):
            raise ConfigurationError(
                f"config key 'direction' must be 1 or -1, got {v['direction']!r}")
        if v["normalize"] not in ("amplitude", "paper-figures"):
            raise ConfigurationError(
                "config key 'normalize' must be 'amplitude' or 'paper-figures', "
                f"got {v['normalize']!r}")
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
        self.constants  # validates 'units'

    # -- spec construction --------------------------------------------------

    def build_spec(self) -> GuidedModeSpec | SurfaceWaveSpec:
        spec = (self._build_guided() if self.values["kind"] == "guided"
                else self._build_surface())
        return replace(spec, amplitude=self._resolve_amplitude(spec))

    def _build_guided(self) -> GuidedModeSpec:
        v = self.values
        constants = self.constants
        geometry = WaveguideGeometry(v["a"], v["b"], v["length"])
        index = ModeIndex(ModeFamily(v["family"]), v["m"], v["n"])
        omega_c = cutoff_frequency(index, geometry, constants)
        if self.was_provided("omega"):
            omega = v["omega"]
        else:
            omega = (v["omega-ratio"] if self.was_provided("omega-ratio")
                     else math.sqrt(2.0)) * omega_c
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
            k_z = abs(float(np.real(spec.k_z)))
            if k_z == 0.0:
                raise ConfigurationError(
                    "normalize preset 'paper-figures' needs a propagating mode")
            return math.sqrt(2.0 * con.mu0 * spec.omega_c**2 * spec.omega
                             / (math.pi * k_z))
        if self.was_provided("n-quanta"):
            return amplitude_for_quanta(self.values["n-quanta"], spec)
        return self.values["amplitude"]


def _check_type(key: str, value: Any) -> None:
    expected = _KEY_TYPES[key]
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error in {path} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    return data


# --------------------------------------------------------------------------
# spinmap


def _value_fields(pair, combine: bool) -> list[str]:
    """``sx,sy,sz,mag`` per sample; ``mag`` is the Euclidean norm."""
    s = pair.combined() if combine else pair.total()
    return [f"{sx!r},{sy!r},{sz!r},{math.hypot(sx, sy, sz)!r}"
            for sx, sy, sz in s.tolist()]


def _surface_extent(config: RunConfig, key: str, default: float | None = None) -> float:
    """A surface-wave extent: the configured value, else ``default``; finite and > 0."""
    value = config.values.get(key, default)
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigurationError(
            f"config key {key!r} must be finite and > 0, got {value!r}")
    return value


def _map_rows(config: RunConfig, spec) -> Iterator[str]:
    """Check the whole map, then return an iterator over its CSV text.

    Every check runs before this returns: the extents, and the peak of each
    spin column, which must be a finite normal float.  The iterator yields
    the header line and then one chunk per row, so at most a row is held.
    """
    nx, ny = config["nx"], config["ny"]
    combine = config["combine-spins"]
    guided = isinstance(spec, GuidedModeSpec)
    if guided:
        x_max, y_max = spec.geometry.a, spec.geometry.b
        peaks = {}
        if spec.is_propagating:
            kx, ky, K = _guided_scales(spec)
            if ky:  # n = 0 zeroes the s_x column by structure
                peaks["sx_peak"] = ky * K
            peaks["sy_peak"] = kx * K
            peaks["mag_peak"] = math.hypot(ky * K, kx * K)
    else:
        x_max = _surface_extent(config, "x-max-kappa", 5.0) / spec.kappa
        y_max = _surface_extent(config, "z-periods") * 2.0 * math.pi / abs(spec.k_z)
        peaks = {"x_max": x_max, "z_max": y_max, "sy_peak": _surface_peak(spec)}
    _check_float_range(**peaks)
    xs = np.linspace(0.0, x_max, nx)
    seconds = np.linspace(0.0, y_max, ny)
    if not guided:
        # time-averaged densities carry no z dependence; each row
        # repeats the decay profile at its z station
        profile = _value_fields(analytic_spin_surface(spec, xs), combine)
    x_fields = [repr(x) for x in xs.tolist()]

    def rows() -> Iterator[str]:
        yield CSV_HEADER + "\n"
        for second in seconds.tolist():
            values = (_value_fields(analytic_spin_guided(spec, (xs, np.full(nx, second))),
                                    combine)
                      if guided else profile)
            y = repr(second)
            yield "".join([f"{x},{y},{v}\n" for x, v in zip(x_fields, values)])

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


def _report(config: RunConfig, spec: GuidedModeSpec | SurfaceWaveSpec) -> dict[str, Any]:
    """The report document: mode data and the mass block per kind, the rest shared."""
    combine = config["combine-spins"]
    if isinstance(spec, GuidedModeSpec):
        obs = integrate_guided(spec, combine_spins=combine)
        spin = "S_perp"
        report = {
            "m": spec.index.m,
            "n": spec.index.n,
            "geometry": asdict(spec.geometry),
            "omega_c": spec.omega_c,
            "sin_two_theta": math.sin(2.0 * obs.theta),
            "mass": asdict(guided_mass_report(spec)),
        }
        residuals = {"klein_gordon": klein_gordon_stencil_residual(spec)}
    else:
        obs = integrate_surface(spec, x_max_kappa=_surface_extent(config, "x-max-kappa", 20.0),
                                combine_spins=combine)
        spin = "S_y"
        mass = surface_mass_report(spec)
        report = {
            "eta": spec.eta,
            "phi_deg": math.degrees(spec.phi),
            "kappa": spec.kappa,
            "area": spec.area,
            "tan_theta_prime": spec.kappa / spec.k_z,
            "mass": {
                "m_s": mass.m_s, "M_s": mass.M_s, "epsilon": mass.epsilon,
                "p": mass.p, "v": mass.v, "gamma": spec.k_z / spec.kappa,
            },
        }
        residuals = {}
    observables = asdict(obs)
    W, P_z, S_closed = closed_forms(spec)
    if combine:
        S_closed *= 0.5
    residuals.update({
        "W": _rel(obs.W, W),
        "P_z": _rel(obs.P_z, P_z),
        spin: _rel(observables[spin], S_closed),
        "dispersion": dispersion_residual(spec),
    })
    report.update({
        "kind": config["kind"],
        "family": config["family"],
        "omega": spec.omega,
        "k_z": float(np.real(spec.k_z)),
        "amplitude": spec.amplitude,
        "combine_spins": combine,
        "observables": observables,
        f"{spin}_over_hbar": observables[spin] / spec.constants.hbar,
        "residuals": residuals,
    })
    return report


def cmd_report(config: RunConfig) -> int:
    report = _report(config, config.build_spec())
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
    parser.add_argument("--kind", choices=["guided", "surface"])
    parser.add_argument("--family", choices=["TM", "TE"])
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--a", type=float, help="broad wall size (m)")
    parser.add_argument("--b", type=float, help="narrow wall size (m)")
    parser.add_argument("--length", type=float)
    parser.add_argument("--omega", type=float, help="angular frequency (rad/s)")
    parser.add_argument("--omega-ratio", type=float,
                        help="omega as a multiple of the cutoff (guided)")
    parser.add_argument("--amplitude", type=float)
    parser.add_argument("--n-quanta", type=float,
                        help="choose the amplitude holding this many quanta")
    parser.add_argument("--direction", type=int, choices=[1, -1])
    parser.add_argument("--units", choices=["si", "natural"])
    parser.add_argument("--combine-spins", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="export s = (s_e + s_m)/2 instead of s_e + s_m")
    parser.add_argument("--normalize", choices=["amplitude", "paper-figures"],
                        help="'paper-figures' fixes pi*k_z*h^2/(2*mu0*omega_c^2*omega) = 1")
    parser.add_argument("--nx", type=int)
    parser.add_argument("--ny", type=int)
    parser.add_argument("--output", help="output path, '-' for stdout")
    parser.add_argument("--eta", type=float, help="refractive index (surface)")
    parser.add_argument("--phi-deg", type=float,
                        help="incidence angle in degrees (surface)")
    parser.add_argument("--area", type=float, help="quantization area (m^2)")
    parser.add_argument("--x-max-kappa", type=float,
                        help="decay-axis extent in units of 1/kappa")
    parser.add_argument("--z-periods", type=float,
                        help="propagation-axis extent in guided wavelengths")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transpin",
        description="Transverse spin, momentum and effective-mass observables "
                    "of guided and evanescent electromagnetic modes.")
    sub = parser.add_subparsers(dest="command", required=True)
    spinmap = sub.add_parser(
        "spinmap", help="export a CSV grid of the time-averaged spin density")
    _add_config_flags(spinmap)
    report = sub.add_parser(
        "report", help="emit a JSON report of integrated observables")
    _add_config_flags(report)
    verify = sub.add_parser(
        "verify", help="run the named invariant catalogue")
    verify.add_argument("--filter", default=None,
                        help="run only checks whose name contains this substring")
    verify.add_argument("--inject-fault", action="store_true",
                        help="append a deliberately failing check (negative control)")
    return parser


def _flags_from_args(args: argparse.Namespace) -> dict[str, Any]:
    flags = {}
    for key in _KEY_TYPES:
        attr = key.replace("-", "_")
        value = getattr(args, attr, None)
        if value is not None:
            flags[key] = value
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.filter, args.inject_fault)
        file_config = _load_config_file(args.config)
        config = RunConfig.from_sources(file_config, _flags_from_args(args))
        if args.command == "spinmap":
            return cmd_spinmap(config)
        return cmd_report(config)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    except ValueError as exc:
        # covers ConfigurationError, InvalidModeError, DomainError,
        # ResolutionError, UnsupportedModeError
        sys.stderr.write(f"config error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
