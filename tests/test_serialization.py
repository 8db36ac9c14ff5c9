import json
import math
import os
import pickle
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polaray import serialization
from polaray.cli import run
from polaray.errors import InvalidInput, ParseError
from polaray.gauge import FourierMode
from polaray.rays import Ray, trace_ray
from polaray.serialization import (
    orbit_csv_text,
    ray_csv_text,
    read_estimates_json,
    read_gridfield,
    read_orbit_csv,
    read_ray_csv,
    roundtrip,
    write_estimates_json,
    write_gridfield,
    write_orbit_csv,
)
from polaray.transport import HamiltonOrbit, transport
from polaray.wavepacket import (
    GridField,
    GridSpec,
    PolarizationEstimate,
    WavePacketSpec,
    estimate_polarization_set,
    synthesize,
)

from conftest import SEED, random_null_covector, subprocess_env


@pytest.fixture
def ray(maxwell_decomposition, rng):
    return trace_ray(
        maxwell_decomposition.q, rng.uniform(-1, 1, 4), random_null_covector(rng), (0, 1), 0.01
    )


@pytest.fixture
def orbit(maxwell_decomposition, ray, rng):
    omega0 = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    return transport(maxwell_decomposition, ray, omega0)


@pytest.fixture
def field():
    w = 2 * np.pi * 8 / 16.0
    grid = GridSpec(extents=(16.0, 16.0, 16.0), samples=(32, 32, 32), time_slices=2, time_step=0.4)
    mode = FourierMode([w, 0, 0, -w], [0, 1, 0, 0])
    return synthesize(WavePacketSpec(mode, np.zeros(4), 2.0), grid)


@pytest.fixture
def estimates(field):
    return estimate_polarization_set(field, [np.zeros(4)], 3.0, 0.2)


def small_field(rng, samples=8, time_slices=1) -> GridField:
    grid = GridSpec(extents=(8.0, 8.0, 8.0), samples=(samples,) * 3, time_slices=time_slices)
    shape = (time_slices, 4, *grid.samples)
    return GridField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def write_text(path, text: str) -> None:
    """Write a text file as the CLI does: UTF-8, newlines kept as written."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def complex_from_parts(re, im) -> np.ndarray:
    """re + i im with the sign of every zero kept (``re + 1j * im`` drops it)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


class TestRayCsv:
    def test_exact_roundtrip(self, tmp_path, ray):
        path = str(tmp_path / "ray.csv")
        write_text(path, ray_csv_text(ray))
        back = read_ray_csv(path)
        assert np.array_equal(back.tau, ray.tau)
        assert np.array_equal(back.x, ray.x)
        assert np.array_equal(back.k, ray.k)
        assert np.array_equal(back.q, ray.q)
        assert back.method == ray.method and back.step == ray.step
        assert roundtrip(path)
        # blank lines are skipped wherever they stand
        write_text(path, "\n" + ray_csv_text(ray).replace("\n", "\n\n", 3) + "\n")
        again = read_ray_csv(path)
        assert all(np.array_equal(getattr(again, f), getattr(ray, f)) for f in ("tau", "x", "k", "q"))

    def test_truncated_row_reported(self, tmp_path, ray):
        path = tmp_path / "ray.csv"
        write_text(path, ray_csv_text(ray))
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]  # drop one field from row 4
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 6"):
            read_ray_csv(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ParseError):
            read_ray_csv(str(path))

    def test_tokens_read_as_float_reads_them(self, tmp_path):
        rows = [
            ["0", "1_0", " 2.5", "+.5", "0", "1", "0", "0", "-1", "0"],
            ["+.5", "1e1", "2.5 ", "0.5", "1_0.0", "1_0", "0", "0", "-1_0", "1e-3_0"],
        ]
        path = tmp_path / "ray.csv"
        lines = [serialization.RAY_MAGIC, serialization.RAY_HEADER, *map(",".join, rows)]
        path.write_text("\n".join(lines) + "\n")
        back = read_ray_csv(str(path))
        table = np.column_stack([back.tau, back.x, back.k, back.q])
        assert table.tolist() == [[float(tok) for tok in row] for row in rows]


class TestOrbitCsv:
    def test_exact_roundtrip(self, tmp_path, orbit):
        path = str(tmp_path / "orbit.csv")
        write_orbit_csv(path, orbit)
        back = read_orbit_csv(path)
        assert np.array_equal(back.omega, orbit.omega)
        assert np.array_equal(back.residuals, orbit.residuals)
        assert np.array_equal(back.ray.x, orbit.ray.x)
        assert back.reprojected == orbit.reprojected
        assert roundtrip(path)


class TestEstimates:
    def test_json_roundtrip(self, tmp_path, estimates):
        path = str(tmp_path / "est.json")
        write_estimates_json(path, estimates)
        back = read_estimates_json(path)
        for a, b in zip(back, estimates):
            assert np.array_equal(a.omega_hat, b.omega_hat)
            assert a.freq == b.freq
        assert roundtrip(path)

    def test_negative_zero_imaginary_part_roundtrips(self, tmp_path):
        # re + 1j * im turns a -0.0 imaginary part into +0.0
        omega = complex_from_parts([0.6, 0.0, -0.0, 0.8], [-0.0, 0.0, -0.0, 0.5])
        est = PolarizationEstimate(
            x=np.zeros(4), k_hat=[0.6, 0.0, 0.8], freq=2.0, omega_hat=omega, strength=1.0
        )
        path = str(tmp_path / "est.json")
        write_estimates_json(path, [est])
        back = read_estimates_json(path)[0].omega_hat
        assert np.array_equal(np.signbit(back.view(float)), np.signbit(omega.view(float)))
        assert roundtrip(path)

    def test_json_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ParseError):
            read_estimates_json(str(path))


class TestGridField:
    def test_exact_roundtrip(self, tmp_path, field):
        path = str(tmp_path / "field.gf")
        write_gridfield(path, field)
        back = read_gridfield(path)
        assert np.array_equal(back.data, field.data)
        assert back.grid == field.grid
        assert back.metadata == field.metadata
        assert roundtrip(path)

    def test_body_length_mismatch(self, tmp_path, field):
        path = tmp_path / "field.gf"
        write_gridfield(str(path), field)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ParseError, match="bytes"):
            read_gridfield(str(path))

    def test_body_shrinking_after_the_size_check_is_a_length_mismatch(
        self, tmp_path, field, monkeypatch
    ):
        path = tmp_path / "field.gf"
        write_gridfield(str(path), field)
        expected = field.data.size * 16

        class ShortBody:
            """A file whose body loses its last element between fstat and readinto."""

            def __init__(self, *args):
                self.handle = open(*args)

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def readinto(self, buffer):
                return self.handle.readinto(buffer.reshape(-1)[:-1])

        monkeypatch.setattr(serialization, "open", ShortBody, raising=False)
        message = f"gridfield: body has {expected - 16} bytes, header implies {expected}"
        with pytest.raises(ParseError, match=message):
            read_gridfield(str(path))

    def test_appended_byte_is_a_length_mismatch(self, tmp_path, field):
        path = tmp_path / "field.gf"
        write_gridfield(str(path), field)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ParseError, match="bytes"):
            roundtrip(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "field.gf"
        path.write_bytes(b"not a field\n")
        with pytest.raises(ParseError, match="magic"):
            read_gridfield(str(path))

    def test_data_is_writable_and_contiguous(self, tmp_path, field):
        path = str(tmp_path / "field.gf")
        write_gridfield(path, field)
        data = read_gridfield(path).data
        assert data.flags.writeable and data.flags.c_contiguous and data.flags.owndata
        data[0, 0, 0, 0, 0] = 1.0

    def test_changed_header_value_does_not_roundtrip(self, tmp_path, field):
        path = tmp_path / "field.gf"
        write_gridfield(str(path), field)
        raw = path.read_bytes()
        assert b'"extents": [16.0, ' in raw
        path.write_bytes(raw.replace(b'"extents": [16.0, ', b'"extents": [16, ', 1))
        assert read_gridfield(str(path)).grid == field.grid
        assert not roundtrip(str(path))

    @pytest.mark.parametrize("time_slices", [1, 3, 7])
    @pytest.mark.parametrize("time_step", [0.1, 1 / 3, 0.7])
    def test_every_written_header_reads_back(self, tmp_path, rng, time_slices, time_step):
        # the times a header lists are the grid's own, bit for bit
        grid = GridSpec((8.0, 8.0, 8.0), (8, 8, 8), time_slices=time_slices, time_step=time_step)
        data = rng.standard_normal((time_slices, 4, 8, 8, 8)) + 0j
        path = str(tmp_path / "field.gf")
        write_gridfield(path, GridField(grid, data, {"seed": 1}))
        back = read_gridfield(path)
        assert back.grid == grid and np.array_equal(back.data, data) and roundtrip(path)

    @pytest.mark.parametrize("check", [roundtrip, read_gridfield])
    def test_peak_memory_holds_one_decoded_copy(self, tmp_path, check):
        path = tmp_path / "field.gf"
        write_gridfield(str(path), small_field(np.random.default_rng(SEED), samples=40, time_slices=3))
        size = path.stat().st_size
        check(str(path))  # warm up
        tracemalloc.start()
        try:
            check(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * size


# an estimates file in the CSV encoding that earlier versions wrote; estimates are JSON only
ESTIMATES_CSV = (
    "# polaray estimates v1\n"
    "x0,x1,x2,x3,khat1,khat2,khat3,freq,omega0_re,omega0_im,omega1_re,omega1_im,"
    "omega2_re,omega2_im,omega3_re,omega3_im,strength\n"
    "0.0,0.0,0.0,0.0,0.0,0.0,1.0,3.0,0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,1.0\n"
)


class TestRoundtripDispatch:
    @pytest.mark.parametrize("text", ["hello\n", ESTIMATES_CSV], ids=["text", "estimates csv"])
    def test_unknown_format(self, tmp_path, text):
        path = tmp_path / "mystery.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match="unrecognized file format"):
            roundtrip(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            roundtrip(str(tmp_path / "absent.csv"))


class TestOverwrite:
    """Every writer overwrites an existing file in place and cuts off whatever
    the file held past the new bytes."""

    @pytest.fixture
    def writers(self, ray, orbit):
        estimates = special_estimates()
        field = small_field(np.random.default_rng(SEED))

        def cli_output(path):
            argv = ["trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1"]
            assert run([*argv, "--tau", "0:1", "--step", "0.5", "-o", path]) == 0

        return {
            "ray csv": lambda path: serialization._write(path, [ray_csv_text(ray).encode()]),
            "orbit csv": lambda path: write_orbit_csv(path, orbit),
            "estimates json": lambda path: write_estimates_json(path, estimates),
            "grid field": lambda path: write_gridfield(path, field),
            "cli output": cli_output,
        }

    @pytest.mark.parametrize(
        "kind",
        ["ray csv", "orbit csv", "estimates json", "grid field", "cli output"],
    )
    def test_short_output_over_a_longer_file_leaves_only_the_new_bytes(
        self, tmp_path, writers, kind
    ):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        writers[kind](str(fresh))
        new = fresh.read_bytes()
        reused.write_bytes(b"\xff" * (2 * len(new) + 4096))
        writers[kind](str(reused))
        assert reused.read_bytes() == new

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_0o666_less_the_umask(self, tmp_path, writers, umask):
        old = os.umask(umask)
        try:
            for kind, write in writers.items():
                write(str(tmp_path / kind))
        finally:
            os.umask(old)
        for kind in writers:
            assert stat.S_IMODE((tmp_path / kind).stat().st_mode) == 0o666 & ~umask

    def test_failed_grid_field_write_leaves_a_file_the_reader_refuses(self, tmp_path, monkeypatch):
        field = small_field(np.random.default_rng(SEED))
        path = tmp_path / "field.gf"
        write_gridfield(str(path), field)  # a valid field of the same shape
        head, _ = serialization._gridfield_bytes(field)

        def head_then_fail(field):
            yield head
            raise RuntimeError("failed after the header")

        monkeypatch.setattr(serialization, "_gridfield_bytes", head_then_fail)
        with pytest.raises(RuntimeError, match="after the header"):
            write_gridfield(str(path), field)
        assert path.read_bytes() == bytes(8) + head[8:]
        with pytest.raises(ParseError, match="bad magic line"):
            read_gridfield(str(path))

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, np.ones(1)], ids=["nan", "inf", "-inf", "array"]
    )
    def test_bad_metadata_is_refused_before_the_file_opens(self, tmp_path, value):
        field = small_field(np.random.default_rng(SEED))
        path = tmp_path / "field.gf"
        write_gridfield(str(path), field)
        before = path.read_bytes()
        bad = GridField(field.grid, field.data, {"envelope_transport_error": value})
        for target in (path, tmp_path / "new.gf"):
            with pytest.raises(InvalidInput, match="metadata must hold finite JSON values"):
                write_gridfield(str(target), bad)
        assert path.read_bytes() == before and not (tmp_path / "new.gf").exists()

    @pytest.mark.parametrize(
        "writer, reader",
        [("write_gridfield", read_gridfield), ("write_orbit_csv", read_orbit_csv)],
    )
    def test_write_killed_halfway_leaves_a_file_the_reader_refuses(
        self, tmp_path, orbit, writer, reader
    ):
        """A process killed between the chunks of an overwrite runs no ``finally``; the
        new head, half the new body and the old rest would be a file of the right size."""
        rng = np.random.default_rng(SEED)
        old, new = {
            "write_gridfield": (small_field(rng), small_field(rng)),
            "write_orbit_csv": (orbit, HamiltonOrbit(orbit.ray, -orbit.omega, orbit.residuals)),
        }[writer]
        path, fresh = tmp_path / "reused", tmp_path / "fresh"
        getattr(serialization, writer)(str(fresh), new)
        getattr(serialization, writer)(str(path), old)
        before = path.read_bytes()
        (tmp_path / "new.pickle").write_bytes(pickle.dumps(new))
        proc = subprocess.run(
            [sys.executable, "-c", KILLED_HALFWAY, writer, str(path), str(tmp_path / "new.pickle")],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert path.read_bytes() not in (before, fresh.read_bytes())
        with pytest.raises(ParseError):
            reader(str(path))


# a writer run in a process that dies (no finally, no flush) halfway through its last chunk
KILLED_HALFWAY = """
import os, pickle, sys
from polaray import serialization

class KilledHalfway:
    def __init__(self, handle):
        self.handle = handle
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def fileno(self):
        return self.handle.fileno()
    def writelines(self, chunks):
        *whole, last = chunks
        last = memoryview(last).cast("B")
        self.handle.writelines([*whole, last[: len(last) // 2]])
        self.handle.flush()
        os._exit(3)

writer, path, new = sys.argv[1:]
serialization.open = lambda *args, **kwargs: KilledHalfway(open(*args, **kwargs))
with open(new, "rb") as handle:
    getattr(serialization, writer)(path, pickle.load(handle))
"""


# -- writers against the per-value reference formatting ------------------------

# zero of either sign, the smallest subnormal, integer-valued floats, and values
# whose shortest form switches between fixed and exponent notation
SPECIAL = np.array([-0.0, 5e-324, 1e16, 1e-5, 2.0, -3.0, 0.1, 1.0 / 3.0, -1e-320, 123456789.0])


def reference_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def special_orbit() -> HamiltonOrbit:
    n = 5
    ray = Ray(
        tau=[0.0, 5e-324, 1e-5, 1.0, 1e16],
        x=np.resize(SPECIAL, (n, 4)),
        k=np.resize(SPECIAL[::-1], (n, 4)),
        q=SPECIAL[:n],
        method="rk4",
        step=0.01,
    )
    omega = complex_from_parts(np.resize(SPECIAL, (n, 4)), np.resize(np.roll(SPECIAL, 3), (n, 4)))
    return HamiltonOrbit(ray, omega, SPECIAL[n:], reprojected=True)


def special_estimates() -> list[PolarizationEstimate]:
    return [
        PolarizationEstimate(
            x=np.roll(SPECIAL, i)[:4],
            k_hat=np.roll(SPECIAL, i)[4:7],
            freq=float(SPECIAL[i + 2]),
            omega_hat=complex_from_parts(np.roll(SPECIAL, i)[:4], np.roll(SPECIAL, i)[6:]),
            strength=float(SPECIAL[-i]),
        )
        for i in range(3)
    ]


class TestWritersMatchPerValueFormatting:
    def test_ray(self):
        ray = special_orbit().ray
        lines = ["# polaray ray v1 method=rk4 step=0.01", serialization.RAY_HEADER]
        for i in range(len(ray)):
            lines.append(reference_row([ray.tau[i], *ray.x[i], *ray.k[i], ray.q[i]]))
        assert ray_csv_text(ray) == "\n".join(lines) + "\n"
        assert "-0.0" in lines[2] and "5e-324" in lines[2] and "1e+16" in lines[2]

    def test_orbit_with_four_components(self):
        orbit = special_orbit()
        ray = orbit.ray
        lines = [
            "# polaray orbit v1 method=rk4 step=0.01 dimension=4 reprojected=1",
            serialization._orbit_header(4),
        ]
        for i in range(len(orbit)):
            row = [ray.tau[i], *ray.x[i], *ray.k[i], ray.q[i]]
            for z in orbit.omega[i]:
                row.extend([z.real, z.imag])
            row.append(orbit.residuals[i])
            lines.append(reference_row(row))
        assert orbit_csv_text(orbit) == "\n".join(lines) + "\n"
        assert any(",-0.0," in line for line in lines[2:])


# -- corrupt files raise ParseError ---------------------------------------------


def _replace(old: bytes, new: bytes):
    def corrupt(raw: bytes) -> bytes:
        assert old in raw
        return raw.replace(old, new, 1)

    return corrupt


def _data_row(index: int, edit):
    def corrupt(raw: bytes) -> bytes:
        lines = raw.split(b"\n")
        lines[2 + index] = edit(lines[2 + index])
        return b"\n".join(lines)

    return corrupt


def _field(index: int, value: bytes):
    def edit(line: bytes) -> bytes:
        fields = line.split(b",")
        fields[index] = value
        return b",".join(fields)

    return edit


def _estimate_entry(key: str, index, value: float):
    """Set ``key`` of the second estimate (its element ``index`` unless None) to ``value``."""

    def corrupt(raw: bytes) -> bytes:
        payload = json.loads(raw)
        entry = payload["estimates"][1]
        if index is None:
            entry[key] = value
        else:
            entry[key][index] = value
        return json.dumps(payload).encode()

    return corrupt


def _swap_rows(raw: bytes) -> bytes:
    lines = raw.split(b"\n")
    lines[3], lines[4] = lines[4], lines[3]
    return b"\n".join(lines)


def _header_only(raw: bytes) -> bytes:
    return b"".join(raw.splitlines(keepends=True)[:2])


def _nan_last_sample(raw: bytes) -> bytes:
    return raw[:-8] + np.array(math.nan).tobytes()


CORRUPTIONS = {
    "orbit reprojected": ("orbit", _replace(b"reprojected=0", b"reprojected=abc"), "reprojected"),
    "orbit reprojected 2": ("orbit", _replace(b"reprojected=0", b"reprojected=2"), "0 or 1"),
    "orbit dimension 0": ("orbit", _replace(b"dimension=4", b"dimension=0"), "not positive"),
    "orbit step": ("orbit", _replace(b"step=0.01", b"step=fast"), "step"),
    "ray not utf-8": ("ray", _data_row(1, lambda line: b"\xff" + line), "line 4"),
    "ray not a number": (
        "ray",
        _data_row(1, lambda line: b"abc" + line[line.index(b","):]),
        "line 4: could not convert string to float: 'abc'",
    ),
    "ray nan q": ("ray", _data_row(2, _field(-1, b"nan")), "line 5: non-finite"),
    "ray decreasing tau": ("ray", _swap_rows, "increasing"),
    "ray header only": ("ray", _header_only, "ray csv: a ray needs at least one sample"),
    "orbit header only": ("orbit", _header_only, "a ray needs at least one sample"),
    "orbit nan residual": ("orbit", _data_row(0, _field(-1, b"nan")), "line 3: non-finite"),
    "orbit nan omega imaginary part": (
        "orbit", _data_row(1, _field(11, b"nan")), "line 4: non-finite"
    ),
    "orbit infinite omega real part": (
        "orbit", _data_row(2, _field(12, b"-inf")), "line 5: non-finite"
    ),
    "estimates json list": ("estimates.json", lambda raw: b"[1]\n", "not a polaray"),
    "estimates json estimates not a list": (
        "estimates.json",
        lambda raw: b'{"format": "polaray-estimates", "estimates": 5}\n',
        "not a list",
    ),
    "estimates json entry": (
        "estimates.json",
        lambda raw: b'{"format": "polaray-estimates", "version": 1, "estimates": [1]}\n',
        "entry 0",
    ),
    "estimates json short k_hat": (
        "estimates.json",
        lambda raw: b'{"format": "polaray-estimates", "estimates": [{"x": [0, 0, 0, 0], '
        b'"k_hat": [1], "freq": 1, "omega_hat_re": [1, 0, 0, 0], '
        b'"omega_hat_im": [0, 0, 0, 0], "strength": 1}]}\n',
        "k_hat",
    ),
    "estimates json infinite x": (
        "estimates.json", _estimate_entry("x", 0, math.inf), "entry 1: x has non-finite"
    ),
    "estimates json infinite k_hat": (
        "estimates.json", _estimate_entry("k_hat", 1, -math.inf), "entry 1: non-finite"
    ),
    "estimates json nan freq": (
        "estimates.json", _estimate_entry("freq", None, math.nan), "entry 1: non-finite"
    ),
    "estimates json overflowing freq": (
        "estimates.json", _replace(b'"freq": 3.0', b'"freq": 1e999'), "entry 0: non-finite"
    ),
    "estimates json nan omega_hat_re": (
        "estimates.json", _estimate_entry("omega_hat_re", 2, math.nan), "entry 1: non-finite"
    ),
    "estimates json infinite omega_hat_im": (
        "estimates.json", _estimate_entry("omega_hat_im", 0, math.inf), "entry 1: non-finite"
    ),
    "estimates json nan strength": (
        "estimates.json", _estimate_entry("strength", None, math.nan), "entry 1: non-finite"
    ),
    "gridfield samples type": ("field", _replace(b'"samples": [8', b'"samples": ["a"'), "samples.*'a'"),
    "gridfield samples < 8": ("field", _replace(b'"samples": [8', b'"samples": [4'), "8 samples"),
    "gridfield time_slices type": ("field", _replace(b'"time_slices": 1', b'"time_slices": 1.5'), "float"),
    "gridfield metadata": ("field", _replace(b'"metadata": {}', b'"metadata": [1]'), "metadata"),
    **{
        f"gridfield metadata {value}": (
            "field", _replace(b'"metadata": {}', b'"metadata": {"e": %s}' % value.encode()),
            f"bad header: {value} is not a finite number",
        )
        for value in ("NaN", "Infinity", "-Infinity", "1e999")
    },
    "gridfield non-finite body": ("field", _nan_last_sample, "non-finite"),
    "gridfield header not utf-8": ("field", _replace(b'"dtype"', b'"\xffdtype"'), "header"),
    "gridfield dtype": (
        "field", _replace(b'"complex128-le"', b'"float32-xx-be"'), "header dtype does not match"
    ),
    "gridfield components": (
        "field", _replace(b'"components": 4', b'"components": 7'), "header components"
    ),
    "gridfield times": ("field", _replace(b'"times": [0.0]', b'"times": [5.0]'), "header times"),
}

READERS = {
    "ray": read_ray_csv,
    "orbit": read_orbit_csv,
    "estimates.json": read_estimates_json,
    "field": read_gridfield,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, maxwell_decomposition) -> dict[str, bytes]:
    """Small files of every kind, written by the library."""
    rng = np.random.default_rng(SEED)
    ray = trace_ray(maxwell_decomposition.q, np.zeros(4), random_null_covector(rng), (0, 0.05), 0.01)
    orbit = transport(maxwell_decomposition, ray, np.array([0, 1, 0.5j, 0]))
    estimates = [
        PolarizationEstimate(
            x=rng.uniform(-1, 1, 4),
            k_hat=[0.6, 0.0, 0.8],
            freq=3.0 + i,
            omega_hat=rng.uniform(-1, 1, 4) + 1j * rng.uniform(0.1, 1, 4),
            strength=0.5 / (i + 1),
        )
        for i in range(2)
    ]
    out = tmp_path_factory.mktemp("valid")
    writers = {
        "ray": lambda p: write_text(p, ray_csv_text(ray)),
        "orbit": lambda p: write_orbit_csv(p, orbit),
        "estimates.json": lambda p: write_estimates_json(p, estimates),
        "field": lambda p: write_gridfield(p, small_field(rng)),
    }
    files = {}
    for kind, write in writers.items():
        path = out / kind
        write(str(path))
        assert roundtrip(str(path))
        files[kind] = path.read_bytes()
    return files


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_file_raises_parse_error(tmp_path, valid_files, case):
    kind, corrupt, match = CORRUPTIONS[case]
    path = str(tmp_path / kind)
    with open(path, "wb") as handle:
        handle.write(corrupt(valid_files[kind]))
    with pytest.raises(ParseError, match=match):
        READERS[kind](path)
    with pytest.raises(ParseError):
        roundtrip(path)


@pytest.mark.parametrize("case", ["not estimates", "csv", "nan omega_hat_re"])
def test_compare_rejects_a_corrupt_estimates_file(tmp_path, valid_files, capsys, case):
    estimates = tmp_path / "est.json"
    estimates.write_bytes({
        "not estimates": b"[1]\n",
        "csv": ESTIMATES_CSV.encode(),
        "nan omega_hat_re": _estimate_entry("omega_hat_re", 2, math.nan)(valid_files["estimates.json"]),
    }[case])
    orbit = tmp_path / "orbit.csv"
    orbit.write_bytes(valid_files["orbit"])
    assert run(["compare", "--estimates", str(estimates), "--orbit", str(orbit)]) == 1
    assert "ParseError" in capsys.readouterr().err


@st.composite
def corruptions(draw, files):
    kind = draw(st.sampled_from(sorted(files)))
    raw = files[kind]
    # bias half the positions to the metadata and header lines at the start
    pos = draw(st.integers(0, len(raw) - 1) | st.integers(0, min(len(raw), 400) - 1))
    if draw(st.booleans()):
        return raw[:pos]
    # bytes that build numbers, split fields or lines, or break UTF-8, or any byte
    byte = draw(st.sampled_from(b"09-.,e\n#=\"[{:\x7f\xff") | st.integers(0, 255))
    return raw[:pos] + bytes([byte]) + raw[pos + 1 :]


def test_truncated_or_overwritten_files_raise_only_parse_error(tmp_path_factory, valid_files):
    path = str(tmp_path_factory.mktemp("fuzz") / "file")

    @settings(max_examples=400)
    @given(corruptions(valid_files))
    def check(raw):
        with open(path, "wb") as handle:
            handle.write(raw)
        for read in [*READERS.values(), roundtrip]:
            try:
                read(path)
            except ParseError:
                pass

    check()
