"""File formats: ray/orbit CSV, estimate CSV/JSON, grid-field binary.

All numbers are serialized with shortest round-trip decimal formatting
(Python repr), so re-reading any emitted file reproduces the in-memory
doubles bit-exactly and repeated runs produce byte-identical output.
Leading ``#`` comment lines carry format metadata and are skipped by
standard CSV tooling.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ParseError
from .rays import Ray
from .transport import HamiltonOrbit
from .wavepacket import GridField, GridSpec, PolarizationEstimate

GRIDFIELD_MAGIC = b"polaray-gridfield v1\n"


def fmt(value: float) -> str:
    return repr(float(value))


def _fmt_row(values) -> str:
    return ",".join(fmt(v) for v in values)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _data_lines(path: str, expected_header, kind: str):
    """Yield (lineno, fields, metadata) rows after validating the header line.

    ``expected_header`` is the header text, or a function of the metadata
    read from the comment lines before it.
    """
    meta: dict[str, str] = {}
    header_seen = False
    with open(path, "r") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, _, val = token.partition("=")
                        meta[key] = val
                continue
            if not header_seen:
                if callable(expected_header):
                    expected_header = expected_header(meta)
                if line != expected_header:
                    raise ParseError(
                        f"{kind} line {lineno}: expected header {expected_header!r}"
                    )
                header_seen = True
                continue
            yield lineno, line.split(","), meta
    if not header_seen:
        raise ParseError(f"{kind}: missing header line")


def _parse_floats(fields, count, lineno, kind):
    if len(fields) != count:
        raise ParseError(f"{kind} line {lineno}: expected {count} fields, got {len(fields)}")
    try:
        return [float(tok) for tok in fields]
    except ValueError as exc:
        raise ParseError(f"{kind} line {lineno}: {exc}") from exc


# -- ray CSV -------------------------------------------------------------

RAY_HEADER = "tau,x0,x1,x2,x3,k0,k1,k2,k3,q"


def ray_csv_text(ray: Ray) -> str:
    lines = [f"# polaray ray v1 method={ray.method} step={fmt(ray.step)}", RAY_HEADER]
    for i in range(len(ray)):
        lines.append(_fmt_row([ray.tau[i], *ray.x[i], *ray.k[i], ray.q[i]]))
    return "\n".join(lines) + "\n"


def write_ray_csv(path: str, ray: Ray) -> None:
    _write_text(path, ray_csv_text(ray))


def read_ray_csv(path: str) -> Ray:
    rows = []
    meta: dict[str, str] = {}
    for lineno, fields, meta in _data_lines(path, RAY_HEADER, "ray csv"):
        rows.append(_parse_floats(fields, 10, lineno, "ray csv"))
    if not rows:
        raise ParseError("ray csv: no sample rows")
    data = np.array(rows)
    return Ray(
        tau=data[:, 0],
        x=data[:, 1:5],
        k=data[:, 5:9],
        q=data[:, 9],
        method=meta.get("method", "rk4"),
        step=float(meta.get("step", "nan")),
    )


# -- orbit CSV -----------------------------------------------------------


def _orbit_header(dim: int) -> str:
    omega_cols = ",".join(f"omega{i}_re,omega{i}_im" for i in range(dim))
    return f"{RAY_HEADER},{omega_cols},residual"


def orbit_csv_text(orbit: HamiltonOrbit) -> str:
    dim = orbit.omega.shape[1]
    ray = orbit.ray
    lines = [
        "# polaray orbit v1 "
        f"method={ray.method} step={fmt(ray.step)} dimension={dim} "
        f"reprojected={int(orbit.reprojected)}",
        _orbit_header(dim),
    ]
    for i in range(len(orbit)):
        row = [ray.tau[i], *ray.x[i], *ray.k[i], ray.q[i]]
        for z in orbit.omega[i]:
            row.extend([z.real, z.imag])
        row.append(orbit.residuals[i])
        lines.append(_fmt_row(row))
    return "\n".join(lines) + "\n"


def write_orbit_csv(path: str, orbit: HamiltonOrbit) -> None:
    _write_text(path, orbit_csv_text(orbit))


def _orbit_header_from(meta: dict) -> str:
    try:
        return _orbit_header(int(meta["dimension"]))
    except (KeyError, ValueError) as exc:
        raise ParseError("orbit csv: missing or bad dimension metadata") from exc


def read_orbit_csv(path: str) -> HamiltonOrbit:
    rows = []
    meta: dict[str, str] = {}
    for lineno, fields, meta in _data_lines(path, _orbit_header_from, "orbit csv"):
        rows.append(_parse_floats(fields, 11 + 2 * int(meta["dimension"]), lineno, "orbit csv"))
    if not rows:
        raise ParseError("orbit csv: no sample rows")
    dim = int(meta["dimension"])
    data = np.array(rows)
    ray = Ray(
        tau=data[:, 0],
        x=data[:, 1:5],
        k=data[:, 5:9],
        q=data[:, 9],
        method=meta.get("method", "rk4"),
        step=float(meta.get("step", "nan")),
    )
    omega = data[:, 10 : 10 + 2 * dim : 2] + 1j * data[:, 11 : 10 + 2 * dim : 2]
    return HamiltonOrbit(
        ray=ray,
        omega=omega,
        residuals=data[:, 10 + 2 * dim],
        reprojected=bool(int(meta.get("reprojected", "0"))),
    )


# -- estimates -----------------------------------------------------------

ESTIMATES_HEADER = (
    "x0,x1,x2,x3,khat1,khat2,khat3,freq,"
    + ",".join(f"omega{i}_re,omega{i}_im" for i in range(4))
    + ",strength"
)


def estimates_csv_text(estimates) -> str:
    lines = ["# polaray estimates v1", ESTIMATES_HEADER]
    for est in estimates:
        row = [*est.x, *est.k_hat, est.freq]
        for z in est.omega_hat:
            row.extend([z.real, z.imag])
        row.append(est.strength)
        lines.append(_fmt_row(row))
    return "\n".join(lines) + "\n"


def write_estimates_csv(path: str, estimates) -> None:
    _write_text(path, estimates_csv_text(estimates))


def read_estimates_csv(path: str) -> list[PolarizationEstimate]:
    out = []
    for lineno, fields, _ in _data_lines(path, ESTIMATES_HEADER, "estimates csv"):
        vals = _parse_floats(fields, 17, lineno, "estimates csv")
        omega = np.array(vals[8:16:2]) + 1j * np.array(vals[9:16:2])
        out.append(
            PolarizationEstimate(
                x=np.array(vals[0:4]),
                k_hat=np.array(vals[4:7]),
                freq=vals[7],
                omega_hat=omega,
                strength=vals[16],
            )
        )
    return out


def estimates_json_text(estimates) -> str:
    payload = {
        "format": "polaray-estimates",
        "version": 1,
        "estimates": [
            {
                "x": [float(v) for v in est.x],
                "k_hat": [float(v) for v in est.k_hat],
                "freq": float(est.freq),
                "omega_hat_re": [float(z.real) for z in est.omega_hat],
                "omega_hat_im": [float(z.imag) for z in est.omega_hat],
                "strength": float(est.strength),
            }
            for est in estimates
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def write_estimates_json(path: str, estimates) -> None:
    _write_text(path, estimates_json_text(estimates))


def read_estimates_json(path: str) -> list[PolarizationEstimate]:
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"estimates json: {exc}") from exc
    if payload.get("format") != "polaray-estimates":
        raise ParseError("estimates json: not a polaray estimates file")
    out = []
    for i, entry in enumerate(payload.get("estimates", [])):
        try:
            omega = np.array(entry["omega_hat_re"]) + 1j * np.array(entry["omega_hat_im"])
            out.append(
                PolarizationEstimate(
                    x=np.array(entry["x"], dtype=float),
                    k_hat=np.array(entry["k_hat"], dtype=float),
                    freq=float(entry["freq"]),
                    omega_hat=omega,
                    strength=float(entry["strength"]),
                )
            )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"estimates json: entry {i}: {exc}") from exc
    return out


def read_estimates(path: str) -> list[PolarizationEstimate]:
    """Dispatch on extension: .json or .csv."""
    if path.endswith(".json"):
        return read_estimates_json(path)
    return read_estimates_csv(path)


# -- grid-field binary -----------------------------------------------------


def _gridfield_bytes(field: GridField) -> tuple[bytes, bytes]:
    """The grid-field file as two parts: magic plus JSON header line, then the body."""
    grid = field.grid
    header = {
        "extents": [float(v) for v in grid.extents],
        "samples": [int(v) for v in grid.samples],
        "time_slices": int(grid.time_slices),
        "time_step": float(grid.time_step),
        "times": [float(t) for t in grid.times],
        "components": 4,
        "dtype": "complex128-le",
        "metadata": field.metadata,
    }
    head = GRIDFIELD_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
    return head, np.ascontiguousarray(field.data, dtype="<c16").tobytes()


def write_gridfield(path: str, field: GridField) -> None:
    """Self-describing binary: magic, JSON header line, raw complex128."""
    with open(path, "wb") as handle:
        handle.writelines(_gridfield_bytes(field))


def read_gridfield(path: str) -> GridField:
    with open(path, "rb") as handle:
        magic = handle.readline()
        if magic != GRIDFIELD_MAGIC:
            raise ParseError("gridfield: bad magic line")
        try:
            header = json.loads(handle.readline().decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"gridfield: bad header: {exc}") from exc
        body = handle.read()
    try:
        grid = GridSpec(
            extents=tuple(header["extents"]),
            samples=tuple(header["samples"]),
            time_slices=header["time_slices"],
            time_step=header["time_step"],
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"gridfield: incomplete header: {exc}") from exc
    shape = (grid.time_slices, 4, *grid.samples)
    expected = int(np.prod(shape)) * 16
    if len(body) != expected:
        raise ParseError(
            f"gridfield: body has {len(body)} bytes, header implies {expected}"
        )
    data = np.frombuffer(body, dtype="<c16").reshape(shape).astype(complex)
    return GridField(grid, data, header.get("metadata", {}))


# -- round-trip check ------------------------------------------------------


def roundtrip(path: str) -> bool:
    """Re-read an emitted file and check it re-serializes byte-identically."""
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    with open(path, "rb") as handle:
        original = handle.read()
    if original.startswith(GRIDFIELD_MAGIC):
        head, body = _gridfield_bytes(read_gridfield(path))
        return head + body == original
    text = original.decode()
    first = text.splitlines()[0] if text else ""
    if first.startswith("# polaray ray"):
        return ray_csv_text(read_ray_csv(path)).encode() == original
    if first.startswith("# polaray orbit"):
        return orbit_csv_text(read_orbit_csv(path)).encode() == original
    if first.startswith("# polaray estimates"):
        return estimates_csv_text(read_estimates_csv(path)).encode() == original
    if first.startswith("{"):
        return estimates_json_text(read_estimates_json(path)).encode() == original
    raise ParseError(f"unrecognized file format: {path}")
