"""File formats: ray/orbit CSV, estimates JSON, grid-field binary.

All numbers are serialized with shortest round-trip decimal formatting
(Python repr), so re-reading any emitted file reproduces the in-memory
doubles bit-exactly and repeated runs produce byte-identical output.
Leading ``#`` comment lines carry format metadata and are skipped by
standard CSV tooling.
"""

from __future__ import annotations

import json
import math
import operator
import os
import stat

import numpy as np

from .errors import InvalidInput, ParseError
from .rays import Ray
from .transport import HamiltonOrbit
from .wavepacket import GridField, GridSpec, PolarizationEstimate

GRIDFIELD_MAGIC = b"polaray-gridfield v1\n"
RAY_MAGIC = "# polaray ray v1"
ORBIT_MAGIC = "# polaray orbit v1"


def fmt(value: float) -> str:
    return repr(float(value))


def _table_text(comment: str, header: str, columns) -> str:
    """A CSV file: the comment line, the header, then one line per row of the
    column-stacked arrays, every value in shortest round-trip form."""
    rows = np.column_stack(columns).tolist()
    return "\n".join([comment, header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _re_im(z) -> np.ndarray:
    """Complex (n, d) as float (n, 2d): the real and imaginary part of each component side by side."""
    return np.ascontiguousarray(z, dtype=complex).view(float)


def _complex(re, im) -> np.ndarray:
    """Complex array from real and imaginary parts; unlike re + 1j * im it keeps a -0.0 part."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _complex_fields(name: str, z) -> dict:
    """A complex scalar or array as the JSON fields ``name_re`` and ``name_im``."""
    z = np.asarray(z, dtype=complex)
    return {f"{name}_re": z.real.tolist(), f"{name}_im": z.imag.tolist()}


def _json_text(payload) -> str:
    """JSON with sorted keys, one-space indents and a trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _write(path: str, chunks) -> None:
    """Write the byte chunks over ``path`` in place (``O_TRUNC``'s cut to zero is slow), then
    cut a regular file at their end, even if a chunk fails; its first bytes stay NUL till then."""
    with open(path, "wb", opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666)) as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # /dev/null or a pipe
            return handle.writelines(chunks)
        first = next(chunks := iter(chunks))
        try:
            handle.writelines([bytes(min(len(first), 8)), memoryview(first)[8:]])
            handle.writelines(chunks)
        finally:
            handle.truncate()
        handle.seek(0)  # the head goes last, so readers refuse a write cut short even by a kill
        handle.write(first[:8])


def _read_table(path: str, kind: str, expected_header) -> tuple[dict[str, str], np.ndarray]:
    """The metadata and the (rows, fields) float table of a CSV file.

    Metadata are the ``key=value`` tokens of the comment lines before the
    header line; ``expected_header`` is the header text, or a function of
    that metadata.  Every data row has as many fields as the header, all
    finite.
    """
    meta: dict[str, str] = {}
    header = None
    tokens, linenos = [], []  # every data field, and the line number of each data row
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{kind} line {lineno}: not UTF-8 text") from exc
            if not line:
                continue
            if line.startswith("#"):
                if header is None:
                    for token in line[1:].split():
                        key, eq, val = token.partition("=")
                        if eq:
                            meta[key] = val
                continue
            if header is None:
                header = expected_header(meta) if callable(expected_header) else expected_header
                if line != header:
                    raise ParseError(f"{kind} line {lineno}: expected header {header!r}")
                width = header.count(",") + 1
                continue
            row = line.split(",")
            if len(row) != width:
                raise ParseError(f"{kind} line {lineno}: expected {width} fields, got {len(row)}")
            tokens += row
            linenos.append(lineno)
    if header is None:
        raise ParseError(f"{kind}: missing header line")
    try:  # numpy converts str with float()'s grammar, bit for bit
        table = np.array(tokens, dtype=float).reshape(len(linenos), width)
    except ValueError:  # find the bad line to name it
        for i, lineno in enumerate(linenos):
            try:
                [float(tok) for tok in tokens[i * width : (i + 1) * width]]
            except ValueError as exc:
                raise ParseError(f"{kind} line {lineno}: {exc}") from exc
        raise
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise ParseError(f"{kind} line {linenos[np.argmin(finite)]}: non-finite value")
    return meta, table


def _ray_from_columns(data: np.ndarray, meta: dict[str, str], kind: str) -> Ray:
    """The ray held in the first ten columns of a ray or orbit table."""
    try:
        step = float(meta.get("step", "nan"))
    except ValueError as exc:
        raise ParseError(f"{kind}: bad step metadata {meta['step']!r}") from exc
    try:
        return Ray(
            tau=data[:, 0],
            x=data[:, 1:5],
            k=data[:, 5:9],
            q=data[:, 9],
            method=meta.get("method", "rk4"),
            step=step,
        )
    except InvalidInput as exc:
        raise ParseError(f"{kind}: {exc}") from exc


# -- ray CSV -------------------------------------------------------------

RAY_HEADER = "tau,x0,x1,x2,x3,k0,k1,k2,k3,q"


def ray_csv_text(ray: Ray) -> str:
    return _table_text(
        f"{RAY_MAGIC} method={ray.method} step={fmt(ray.step)}",
        RAY_HEADER,
        [ray.tau, ray.x, ray.k, ray.q],
    )


def read_ray_csv(path: str) -> Ray:
    meta, data = _read_table(path, "ray csv", RAY_HEADER)
    return _ray_from_columns(data, meta, "ray csv")


# -- orbit CSV -----------------------------------------------------------


def _orbit_header(dim: int) -> str:
    omega_cols = ",".join(f"omega{i}_re,omega{i}_im" for i in range(dim))
    return f"{RAY_HEADER},{omega_cols},residual"


def orbit_csv_text(orbit: HamiltonOrbit) -> str:
    dim = orbit.omega.shape[1]
    ray = orbit.ray
    return _table_text(
        f"{ORBIT_MAGIC} method={ray.method} step={fmt(ray.step)} dimension={dim} "
        f"reprojected={int(orbit.reprojected)}",
        _orbit_header(dim),
        [ray.tau, ray.x, ray.k, ray.q, _re_im(orbit.omega), orbit.residuals],
    )


def write_orbit_csv(path: str, orbit: HamiltonOrbit) -> None:
    _write(path, [orbit_csv_text(orbit).encode()])


def _orbit_header_from(meta: dict) -> str:
    try:
        dim = int(meta["dimension"])
    except (KeyError, ValueError) as exc:
        raise ParseError("orbit csv: missing or bad dimension metadata") from exc
    if dim < 1:
        raise ParseError(f"orbit csv: dimension metadata {dim} is not positive")
    return _orbit_header(dim)


def read_orbit_csv(path: str) -> HamiltonOrbit:
    meta, data = _read_table(path, "orbit csv", _orbit_header_from)
    dim = (data.shape[1] - 11) // 2
    reprojected = meta.get("reprojected", "0")
    if reprojected not in ("0", "1"):
        raise ParseError(f"orbit csv: reprojected metadata must be 0 or 1, got {reprojected!r}")
    return HamiltonOrbit(
        ray=_ray_from_columns(data, meta, "orbit csv"),
        omega=data[:, 10 : 10 + 2 * dim : 2] + 1j * data[:, 11 : 10 + 2 * dim : 2],
        residuals=data[:, 10 + 2 * dim],
        reprojected=reprojected == "1",
    )


# -- estimates -----------------------------------------------------------

def estimates_json_text(estimates) -> str:
    payload = {
        "format": "polaray-estimates",
        "version": 1,
        "estimates": [
            {
                "x": [float(v) for v in est.x],
                "k_hat": [float(v) for v in est.k_hat],
                "freq": float(est.freq),
                **_complex_fields("omega_hat", est.omega_hat),
                "strength": float(est.strength),
            }
            for est in estimates
        ],
    }
    return _json_text(payload)


def write_estimates_json(path: str, estimates) -> None:
    _write(path, [estimates_json_text(estimates).encode()])


def read_estimates_json(path: str) -> list[PolarizationEstimate]:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"estimates json: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "polaray-estimates":
        raise ParseError("estimates json: not a polaray estimates file")
    entries = payload.get("estimates", [])
    if not isinstance(entries, list):
        raise ParseError("estimates json: estimates is not a list")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"estimates json: entry {i} is not an object")
        try:
            est = PolarizationEstimate(
                x=np.array(entry["x"], dtype=float),
                k_hat=np.array(entry["k_hat"], dtype=float),
                freq=float(entry["freq"]),
                omega_hat=_complex(entry["omega_hat_re"], entry["omega_hat_im"]),
                strength=float(entry["strength"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"estimates json: entry {i}: {exc}") from exc
        if est.k_hat.shape != (3,) or est.omega_hat.shape != (4,):
            raise ParseError(f"estimates json: entry {i}: k_hat needs 3 and omega_hat 4 components")
        # json reads NaN, Infinity and 1e999; x was checked finite when the estimate was built
        if not all(np.isfinite(v).all() for v in (est.k_hat, est.freq, est.omega_hat, est.strength)):
            raise ParseError(f"estimates json: entry {i}: non-finite value")
        out.append(est)
    return out


# -- grid-field binary -----------------------------------------------------


def _gridfield_header(grid: GridSpec, metadata: dict) -> dict:
    """The JSON header of a grid field on ``grid``: what the body's layout follows from."""
    return {
        "extents": [float(v) for v in grid.extents],
        "samples": [int(v) for v in grid.samples],
        "time_slices": int(grid.time_slices),
        "time_step": float(grid.time_step),
        "times": [float(t) for t in grid.times],
        "components": 4,
        "dtype": "complex128-le",
        "metadata": metadata,
    }


def _gridfield_bytes(field: GridField) -> tuple[bytes, np.ndarray]:
    """The grid-field file as two parts: magic plus JSON header line, then the body
    as a contiguous little-endian complex128 array (no copy when the data is one)."""
    try:
        header = json.dumps(_gridfield_header(field.grid, field.metadata), sort_keys=True,
                            allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"gridfield: metadata must hold finite JSON values: {exc}") from exc
    head = GRIDFIELD_MAGIC + header.encode() + b"\n"
    return head, np.ascontiguousarray(field.data, dtype="<c16")


def write_gridfield(path: str, field: GridField) -> None:
    """Self-describing binary: magic, JSON header line, raw complex128.  Metadata JSON
    cannot hold, or that is not finite, raises :class:`InvalidInput` before the file opens."""
    _write(path, _gridfield_bytes(field))


def _finite_float(text: str) -> float:
    """A JSON number or constant as a float; NaN, Infinity and 1e999 raise ValueError."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_gridfield(path: str) -> GridField:
    """Decode a grid-field file straight into one owned, writable array."""
    with open(path, "rb") as handle:
        if handle.read(len(GRIDFIELD_MAGIC)) != GRIDFIELD_MAGIC:
            raise ParseError("gridfield: bad magic line")
        try:
            line = handle.readline().decode()
            header = json.loads(line, parse_float=_finite_float, parse_constant=_finite_float)
        except ValueError as exc:  # bad JSON, bad UTF-8 or a non-finite number
            raise ParseError(f"gridfield: bad header: {exc}") from exc
        try:
            grid = GridSpec(extents=tuple(header["extents"]), samples=tuple(header["samples"]),
                            time_slices=operator.index(header["time_slices"]),
                            time_step=header["time_step"])
        except (KeyError, TypeError, ValueError, OverflowError, InvalidInput) as exc:
            raise ParseError(
                f"gridfield: bad header extents, samples, time_slices or time_step: {exc}"
            ) from exc
        metadata = header.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ParseError("gridfield: header metadata is not an object")
        described = _gridfield_header(grid, metadata)
        for key in ("components", "dtype", "times"):
            if header.get(key) != described[key]:
                raise ParseError(f"gridfield: header {key} does not match the grid and its body")
        shape = (grid.time_slices, 4, *grid.samples)
        expected = math.prod(shape) * 16
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != expected:
            raise ParseError(f"gridfield: body has {size} bytes, header implies {expected}")
        data = np.empty(shape, dtype="<c16")
        size = handle.readinto(data)
        if size != expected:
            raise ParseError(f"gridfield: body has {size} bytes, header implies {expected}")
    try:
        return GridField(grid, data, metadata)
    except InvalidInput as exc:
        raise ParseError(f"gridfield: {exc}") from exc


# -- file kinds and the round-trip check -------------------------------------

# every text file written here: its leading bytes, its reader and its text writer
FILE_KINDS = (
    (RAY_MAGIC.encode(), read_ray_csv, ray_csv_text),
    (ORBIT_MAGIC.encode(), read_orbit_csv, orbit_csv_text),
    (b"{", read_estimates_json, estimates_json_text),
)


def roundtrip(path: str) -> bool:
    """Re-read an emitted file and check it re-serializes byte-identically."""
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    with open(path, "rb") as handle:
        original = handle.read(len(GRIDFIELD_MAGIC))
        if original != GRIDFIELD_MAGIC:
            original += handle.read()
    if original == GRIDFIELD_MAGIC:
        # the decoder checked that the body holds exactly the bytes the header implies,
        # all finite, and they re-encode unchanged, so only the header can differ
        head, _ = _gridfield_bytes(read_gridfield(path))
        with open(path, "rb") as handle:
            return handle.read(len(head)) == head
    for magic, read, text in FILE_KINDS:
        if original.startswith(magic):
            return text(read(path)).encode() == original
    raise ParseError(f"unrecognized file format: {path}")
