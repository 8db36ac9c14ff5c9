"""Command-line interface wiring all modules together.

Subcommands: check-type, trace, transport, gauge, synth, estimate,
compare, roundtrip.  Exit codes: 0 success (or comparison pass), 1
invalid input or configuration, 2 numerical failure, 3 comparison
failure.  Identical arguments and inputs produce byte-identical
outputs: fixed field order, shortest round-trip float formatting, no
timestamps.  ``--config PATH`` reads a JSON object whose keys name the
subcommand's long options with dashes replaced by underscores; a value
is a string or number for an option that takes one, true or false for
an on/off flag.  Each key acts as ``--opt=value`` given right after the
subcommand, so explicit flags override the file.  Environment variables
are never consulted.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import serialization as ser
from .errors import InvalidInput, NumericalFailure, ParseError, PolarayError
from .gauge import (
    FourierMode,
    classify_mode,
    field_strength_mode,
    lorenz_residual,
    physical_kernel,
    radiation_fix,
)
from .minkowski import ZERO_TOL, PhaseSpacePoint
from .principal_type import (
    PrincipalTypeDecomposition,
    char_membership,
    decompose_principal_type,
    is_real_principal_type,
    kernel_basis,
)
from .rays import null_project, trace_ray
from .symbols import MatrixSymbol, builtin_symbol, parse_symbol_file, pretty
from .transport import transport
from .wavepacket import (
    CompareTolerances,
    GridSpec,
    WavePacketSpec,
    compare,
    estimate_polarization_set,
    synthesize,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2
EXIT_COMPARE_FAIL = 3


class _Parser(argparse.ArgumentParser):
    """Parser recording, per config key (long option, dashes as underscores),
    whether the option takes a value, and each subcommand's parser."""

    def __init__(self, **kwargs):
        self.options: dict[str, bool] = {}
        self.commands: dict[str, _Parser] = {}
        super().__init__(**kwargs)

    def add_argument(self, *names, **kwargs):
        action = super().add_argument(*names, **kwargs)
        if kwargs.get("action") != "help":
            for name in action.option_strings:
                if name.startswith("--"):
                    self.options[name[2:].replace("-", "_")] = action.nargs != 0
        return action

    # argparse exits with code 2 on usage errors; the contract here is 1
    def error(self, message):
        raise InvalidInput(message)


def _emit(text: str, output: str | None) -> None:
    if output:
        ser._write(output, [text.encode()])
    else:
        sys.stdout.write(text)


def _parse_reals(text: str, count: int, what: str, number=float) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidInput(f"{what} needs {count} comma-separated values, got {len(parts)}")
    try:
        return np.array([number(p) for p in parts])
    except ValueError as exc:
        raise InvalidInput(f"bad {what}: {exc}") from exc


def _parse_span(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InvalidInput("tau span must look like '0:1'")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise InvalidInput(f"bad tau span: {exc}") from exc


def _parse_complex_vec(real_text: str, imag_text: str | None, count: int, what: str):
    re = _parse_reals(real_text, count, what)
    if imag_text is None:
        return re.astype(complex)
    return ser._complex(re, _parse_reals(imag_text, count, f"{what} imaginary part"))


def _read_symbol(path: str) -> MatrixSymbol:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return parse_symbol_file(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"symbol file {path} is not UTF-8 text: {exc}") from exc


def _decompose(args) -> PrincipalTypeDecomposition:
    if (args.symbol is None) == (args.symbol_file is None):
        raise InvalidInput("give exactly one of --symbol NAME or --symbol-file PATH")
    if args.symbol is not None:
        sym = builtin_symbol(args.symbol, scale=args.scale, dimension=args.dimension)
    elif args.scale is not None or args.dimension is not None:
        raise InvalidInput("--scale and --dimension apply only to --symbol scaled-wave")
    else:
        sym = _read_symbol(args.symbol_file)
    hint = _read_symbol(args.hint_file) if args.hint_file else None
    return decompose_principal_type(sym, hint=hint)


def _mode_from_args(args) -> FourierMode:
    k = _parse_reals(args.k, 4, "--k")
    eps = _parse_complex_vec(args.eps, args.eps_imag, 4, "--eps")
    amp = complex(args.amp, args.amp_imag)
    return FourierMode(k=k, eps=eps, amplitude=amp)


# -- subcommand handlers ---------------------------------------------------


def _cmd_check_type(args) -> int:
    decomp = _decompose(args)
    pt = PhaseSpacePoint(_parse_reals(args.point, 4, "--point"), _parse_reals(args.k, 4, "--k"))
    vectors, singular_values = kernel_basis(decomp.p, pt, tol=args.tol)
    result = {
        "symbol": decomp.p.name or "file",
        "point": [float(v) for v in pt.x],
        "k": [float(v) for v in pt.k],
        "q": pretty(decomp.q),
        "q_value": float(decomp.q.eval(pt)[0, 0].real),
        "real_principal_type": is_real_principal_type(decomp.q, pt, tol=args.tol),
        "on_char": char_membership(decomp, pt, tol=args.tol),
        "kernel_dimension": len(vectors),
        "singular_values": [float(s) for s in singular_values],
    }
    _emit(ser._json_text(result), args.output)
    return EXIT_OK


def _trace_from_args(args):
    decomp = _decompose(args)
    k0 = _parse_reals(args.k, 4, "--k")
    if args.project_null:
        k0 = null_project(k0, args.branch)
    x0 = _parse_reals(args.x0, 4, "--x0")
    ray = trace_ray(decomp.q, x0, k0, _parse_span(args.tau), args.step, method=args.method)
    return decomp, ray


def _cmd_trace(args) -> int:
    _, ray = _trace_from_args(args)
    _emit(ser.ray_csv_text(ray), args.output)
    return EXIT_OK


def _cmd_transport(args) -> int:
    decomp, ray = _trace_from_args(args)
    omega0 = _parse_complex_vec(args.omega0, args.omega0_imag, decomp.p.dimension, "--omega0")
    orbit = transport(decomp, ray, omega0)
    _emit(ser.orbit_csv_text(orbit), args.output)
    return EXIT_OK


def _cmd_gauge(args) -> int:
    mode = _mode_from_args(args)
    residual = lorenz_residual(mode)
    cls = classify_mode(mode)
    fixed, chi = radiation_fix(mode)
    strength = field_strength_mode(mode)
    kernel = physical_kernel(mode.k)
    fields = ser._complex_fields
    result = {
        "k": [float(v) for v in mode.k],
        **fields("eps", mode.eps),
        **fields("amplitude", mode.amplitude),
        **fields("lorenz_residual", residual),
        "classification": {
            **fields("transverse", cls.transverse),
            **fields("pure_gauge", cls.pure_gauge),
            **fields("constraint_violation", cls.constraint_violation),
        },
        "radiation_fix": {**fields("chi_hat", chi.chi_hat), **fields("eps", fixed.eps)},
        "field_strength_nonzero": bool(np.any(strength.F != 0)),
        **fields("physical_kernel", kernel),
    }
    _emit(ser._json_text(result), args.output)
    return EXIT_OK


def _grid_from_args(args) -> GridSpec:
    extents = _parse_reals(args.extent, 3, "--extent")
    samples = _parse_reals(args.samples, 3, "--samples", int)
    return GridSpec(
        extents=tuple(extents),
        samples=tuple(samples),
        time_slices=args.tslices,
        time_step=args.tstep,
    )


def _cmd_synth(args) -> int:
    grid = _grid_from_args(args)
    mode = _mode_from_args(args)
    spec = WavePacketSpec(mode, _parse_reals(args.center, 4, "--center"), args.sigma)
    field = synthesize(spec, grid)
    ser.write_gridfield(args.output, field)
    info = {
        "output": args.output,
        "envelope_transport_error": field.metadata["envelope_transport_error"],
        "samples": list(grid.samples),
        "time_slices": grid.time_slices,
    }
    sys.stdout.write(ser._json_text(info))
    return EXIT_OK


def _parse_centers(text: str) -> list[np.ndarray]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(_parse_reals(chunk, 4, "window center"))
    if not out:
        raise InvalidInput("no window centers given")
    return out


def _cmd_estimate(args) -> int:
    centers = _parse_centers(args.centers)
    estimates = estimate_polarization_set(
        ser.read_gridfield(args.field),
        centers,
        window_width=args.window,
        threshold=args.threshold,
    )
    text = ser.estimates_json_text if args.format == "json" else ser.estimates_csv_text
    _emit(text(estimates), args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    tol = CompareTolerances(
        max_distance=args.max_distance,
        max_angle_deg=args.max_angle,
        min_overlap=args.min_overlap,
        max_sideband_db=args.max_sideband_db,
    )
    estimates = ser.read_estimates(args.estimates)
    orbit = ser.read_orbit_csv(args.orbit)
    report = compare(estimates, orbit, tol)
    _emit(ser._json_text(report.to_dict()), args.output)
    return EXIT_OK if report.passed else EXIT_COMPARE_FAIL


def _cmd_roundtrip(args) -> int:
    ok = ser.roundtrip(args.path)
    sys.stdout.write(ser._json_text({"path": args.path, "roundtrip": bool(ok)}))
    return EXIT_OK if ok else EXIT_INVALID


# -- parser wiring -----------------------------------------------------------


def _add_symbol_options(sub):
    sub.add_argument("--symbol", help="built-in symbol name")
    sub.add_argument("--symbol-file", help="symbol definition file")
    sub.add_argument("--hint-file", help="symbol file with the p~ hint")
    sub.add_argument("--scale", help="x-polynomial for scaled-wave, e.g. '1+x3^2'")
    sub.add_argument("--dimension", type=int, help="fiber dimension for scaled-wave")


def _add_trace_options(sub):
    _add_symbol_options(sub)
    sub.add_argument("--x0", required=True, help="start point t,x1,x2,x3")
    sub.add_argument("--k", required=True, help="start covector k0,k1,k2,k3")
    sub.add_argument("--tau", required=True, help="parameter span lo:hi")
    sub.add_argument("--step", type=float, required=True, help="integrator step")
    sub.add_argument("--method", choices=("rk4", "adaptive"), default="rk4")
    sub.add_argument("--project-null", action="store_true", help="project k to the cone first")
    sub.add_argument("--branch", choices=("+", "-"), default="+", help="cone branch for projection")


def _add_mode_options(sub):
    sub.add_argument("--k", required=True, help="null covector k0,k1,k2,k3")
    sub.add_argument("--eps", required=True, help="polarization real parts")
    sub.add_argument("--eps-imag", help="polarization imaginary parts")
    sub.add_argument("--amp", type=float, default=1.0)
    sub.add_argument("--amp-imag", type=float, default=0.0)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and never changed."""
    parser = _Parser(prog="polaray", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        sub = parser.commands[name] = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        return sub

    sub = command("check-type", _cmd_check_type, "decomposition and principal-type verdict")
    _add_symbol_options(sub)
    sub.add_argument("--point", required=True, help="base point t,x1,x2,x3")
    sub.add_argument("--k", required=True, help="covector k0,k1,k2,k3")
    sub.add_argument("--tol", type=float, default=ZERO_TOL)
    sub.add_argument("-o", "--output")

    sub = command("trace", _cmd_trace, "integrate a null ray, emit CSV")
    _add_trace_options(sub)
    sub.add_argument("-o", "--output")

    sub = command("transport", _cmd_transport, "transport a fiber vector along a ray")
    _add_trace_options(sub)
    sub.add_argument("--omega0", required=True, help="fiber vector real parts")
    sub.add_argument("--omega0-imag", help="fiber vector imaginary parts")
    sub.add_argument("-o", "--output")

    sub = command("gauge", _cmd_gauge, "classify a mode, fix the gauge, emit JSON")
    _add_mode_options(sub)
    sub.add_argument("-o", "--output")

    sub = command("synth", _cmd_synth, "synthesize a wave packet grid field")
    _add_mode_options(sub)
    sub.add_argument("--center", required=True, help="envelope center t,x1,x2,x3")
    sub.add_argument("--sigma", type=float, required=True, help="envelope width")
    sub.add_argument("--extent", required=True, help="domain lengths L1,L2,L3")
    sub.add_argument("--samples", required=True, help="sample counts n1,n2,n3")
    sub.add_argument("--tslices", type=int, default=1)
    sub.add_argument("--tstep", type=float, default=0.1)
    sub.add_argument("-o", "--output", required=True, help="grid field output path")

    sub = command("estimate", _cmd_estimate, "estimate oscillation directions from a field")
    sub.add_argument("--field", required=True, help="grid field file")
    sub.add_argument("--centers", required=True, help="semicolon-separated t,x1,x2,x3 windows")
    sub.add_argument("--window", type=float, required=True, help="window width")
    sub.add_argument("--threshold", type=float, default=0.2)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("-o", "--output")

    sub = command("compare", _cmd_compare, "check estimates against a transported orbit")
    sub.add_argument("--estimates", required=True, help="estimates CSV or JSON")
    sub.add_argument("--orbit", required=True, help="orbit CSV")
    sub.add_argument("--max-distance", type=float, default=1.0)
    sub.add_argument("--max-angle", type=float, default=3.0)
    sub.add_argument("--min-overlap", type=float, default=0.99)
    sub.add_argument("--max-sideband-db", type=float, default=-20.0)
    sub.add_argument("-o", "--output")

    sub = command("roundtrip", _cmd_roundtrip, "verify an emitted file re-reads bit-exactly")
    sub.add_argument("path")

    return parser


def _config_arguments(sub: _Parser, path: str) -> list[str]:
    """The arguments a JSON config file stands for, one ``--opt=value`` per key."""
    try:
        with open(path, "rb") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"bad config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidInput("config file must hold a JSON object")
    out = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        takes_value = sub.options.get(key)
        if takes_value is None:
            raise InvalidInput(f"config file has unknown key {key!r}")
        if not isinstance(value, (str, int, float)) or isinstance(value, bool) == takes_value:
            kind = "a string or a number" if takes_value else "true or false"
            raise InvalidInput(f"config key {key!r} needs {kind}, got {json.dumps(value)}")
        if takes_value:
            out.append(f"{flag}={value}")  # a number formats as its exact repr
        elif value:
            out.append(flag)
    return out


def _attach_negative_values(sub: _Parser, argv: list[str]) -> list[str]:
    """``--opt -1,2`` as ``--opt=-1,2`` where ``--opt`` takes a value: argparse reads
    a token such as ``-1,2`` or ``-.5`` as an option and leaves ``--opt`` without one."""
    takes_value = {"--" + key.replace("_", "-") for key, value in sub.options.items() if value}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in takes_value and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = build_parser()
    path = None
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            raise InvalidInput("--config needs a file path")
        path = argv[idx + 1]
        argv = argv[:idx] + argv[idx + 2 :]
        if not argv:
            raise InvalidInput("config file cannot choose the subcommand")
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        config = [] if path is None else _config_arguments(sub, path)
        argv = [argv[0], *config, *_attach_negative_values(sub, argv[1:])]
    return parser.parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse(list(argv))
        return args.func(args)
    except NumericalFailure as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PolarayError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
