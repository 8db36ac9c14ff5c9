import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import polaray
from polaray.cli import run
from polaray.serialization import read_estimates_json, read_orbit_csv, read_ray_csv, roundtrip
from polaray.symbols import MatrixSymbol, flat_maxwell, format_symbol_file, scalar_wave

from conftest import (
    graded_index_symbol,
    graded_null_start,
    subprocess_env,
    weyl_start,
    weyl_symbol,
)

PI = "3.141592653589793"
K_PI = f"{PI},0,0,-{PI}"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckType:
    def test_flat_maxwell_on_cone(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0", "--k", "1,0,0,-1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == "k^2"
        assert payload["real_principal_type"] is True
        assert payload["on_char"] is True
        assert payload["kernel_dimension"] == 4

    def test_verdicts_do_not_depend_on_the_scale_of_q(self, capsys):
        verdicts = []
        for scale in ("1e-20", "1", "1e20"):
            code, out, _ = run_cli(
                capsys, "check-type", "--symbol", "scaled-wave", "--scale", scale, *CHECK_AT
            )
            payload = json.loads(out)
            assert code == 0
            verdicts.append([payload[key] for key in ("on_char", "real_principal_type")])
        assert verdicts == [[True, True]] * 3

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "check-type", "--symbol", "flat-maxwell", *CHECK_AT, f"--tol={tol}"
        )
        assert code == 1 and not out
        assert err.startswith("InvalidInput: tol must be finite and positive")

    def test_off_cone(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0", "--k", "1,0,0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["on_char"] is False
        assert payload["kernel_dimension"] == 0

    def test_factored_q(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol", "scaled-wave", "--scale", "1+x3^2", *CHECK_AT
        )
        assert code == 0
        assert json.loads(out)["q"] == "(x3^2 + 1)*k^2"

    def test_general_q(self, capsys, tmp_path):
        # k0^2 - k1^2 - 0.1 x3^2 k1^2 is no multiple of the wave quadratic
        path = tmp_path / "sym.txt"
        path.write_text(
            "dimension 1\norder 2\nterm principal 0,0,0,0 2,0,0,0 1\n"
            "term principal 0,0,0,0 0,2,0,0 -1\nterm principal 0,0,0,2 0,2,0,0 -0.1\n"
        )
        code, out, _ = run_cli(capsys, "check-type", "--symbol-file", str(path), *CHECK_AT)
        assert code == 0
        assert json.loads(out)["q"] == "-0.1*x3^2*k1^2 + k0^2 + -1*k1^2"

    def test_symbol_file(self, capsys, tmp_path, maxwell):
        from polaray.symbols import format_symbol_file

        path = tmp_path / "sym.txt"
        path.write_text(format_symbol_file(maxwell))
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol-file", str(path), "--point", "0,0,0,0", "--k", "5,3,4,0"
        )
        assert code == 0
        assert json.loads(out)["on_char"] is True

    def test_tiny_k_on_cone(self, capsys):
        at = ("--point", "0,0,0,0", "--k", "1e-200,0,0,-1e-200")
        code, out, err = run_cli(capsys, "check-type", "--symbol", "flat-maxwell", *at)
        payload = json.loads(out)
        assert code == 0 and not err
        assert payload["on_char"] is True and payload["real_principal_type"] is True

    def test_undecodable_symbol_file(self, capsys, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_bytes(b"dimension 1\norder 2\n\xff\xfe\n")
        code, _, err = run_cli(
            capsys, "check-type", "--symbol-file", str(path), "--point", "0,0,0,0", "--k", "1,0,0,-1"
        )
        assert code == 1
        assert "ParseError" in err


class TestTrace:
    def test_closed_form_last_row(self, capsys, tmp_path):
        out_path = tmp_path / "ray.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
            "--tau", "0:1", "--step", "0.01", "-o", str(out_path),
        )
        assert code == 0
        ray = read_ray_csv(str(out_path))
        assert np.array_equal(ray.x[-1], [2, 0, 0, 2])

    def test_non_null_start_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,0",
            "--tau", "0:1", "--step", "0.01",
        )
        assert code == 2
        assert "NonNullStart" in err

    def test_project_null_flag(self, capsys, tmp_path):
        out_path = tmp_path / "ray.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "0.2,3,4,0",
            "--tau", "0:1", "--step", "0.1", "--project-null", "-o", str(out_path),
        )
        assert code == 0
        assert read_ray_csv(str(out_path)).k[0, 0] == 5.0

    def test_validation_failures_exit_one(self, capsys, tmp_path):
        field_path = tmp_path / "f.gf"
        code, _, _ = run_cli(
            capsys,
            "synth", "--k", K_PI, "--eps", "0,1,0,0", "--center", "0,0,0,0", "--sigma", "2.0",
            "--extent", "16,16,16", "--samples", "32,32,32", "-o", str(field_path),
        )
        assert code == 0
        bad_argvs = [
            ("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
             "--tau", "1:0", "--step", "0.01"),
            ("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
             "--tau", "0:1", "--step", "-0.01"),
            ("trace", "--symbol", "no-such-symbol", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
             "--tau", "0:1", "--step", "0.01"),
            ("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0", "--k", "1,0,0,-1",
             "--tau", "0:1", "--step", "0.01"),
            ("check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0",
             "--k", "1,0,0,-1", "--tol", "-1"),
            ("estimate", "--field", str(field_path), "--centers", "0,0,0,0",
             "--window", "2.0", "--threshold", "1.5"),
        ]
        for argv in bad_argvs:
            code, _, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err

    def test_complex_symbol_exits_one(self, capsys, tmp_path):
        from polaray.symbols import MatrixSymbol, format_symbol_file

        # q = k0 + 0.5i k1 is not real-valued, so its Hamilton flow means nothing
        z = (0, 0, 0, 0)
        sym = MatrixSymbol(1, 1, [(z, (1, 0, 0, 0), 1.0), (z, (0, 1, 0, 0), 0.5j)])
        path = tmp_path / "complex.txt"
        path.write_text(format_symbol_file(sym))
        code, out, err = run_cli(
            capsys,
            "trace", "--symbol-file", str(path), "--x0", "0,0,0,0", "--k", "0,0,0,1",
            "--tau", "0:1", "--step", "0.1",
        )
        assert code == 1
        assert "real-valued" in err and not out


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv, what",
        [
            (("check-type", "--symbol", "scaled-wave", "--scale", "1+x3^2", "--dimension", "0",
              "--point", "0,0,0,0", "--k", "1,0,0,-1"), "dimension"),
            (("check-type", "--symbol", "scaled-wave", "--scale", "1+x3^2", "--dimension=-3",
              "--point", "0,0,0,0", "--k", "1,0,0,-1"), "dimension"),
            (("gauge", "--k", "1,0,0,-1", "--eps", "1,1,0,-1", "--amp", "nan"), "amplitude"),
            (("gauge", "--k", "1,0,0,-1", "--eps", "1,1,0,-1", "--amp", "inf"), "amplitude"),
            (("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
              "--tau", "0:1", "--step", "1e-320"), "rk4 steps"),
            (("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
              "--tau", "0:1", "--step", "1e-300"), "rk4 steps"),
        ],
    )
    def test_exit_one_as_invalid_input(self, capsys, argv, what):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("InvalidInput: ") and what in err

    @pytest.mark.parametrize("samples", ["32.9,32,32", "nan,32,32"])
    def test_sample_counts_must_be_integers(self, capsys, tmp_path, samples):
        path = tmp_path / "f.gf"
        code, out, err = run_cli(
            capsys,
            "synth", "--k", K_PI, "--eps", "0,1,0,0", "--center", "0,0,0,0", "--sigma", "2.0",
            "--extent", "16,16,16", "--samples", samples, "-o", str(path),
        )
        assert code == 1 and not out and not path.exists()
        assert err.startswith("InvalidInput: bad --samples")


def _error_names(cls=polaray.PolarayError) -> set:
    """The names of the package's error classes."""
    return {cls.__name__}.union(*(_error_names(sub) for sub in cls.__subclasses__()))


TRACE_FLAT = ("--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1", "--tau", "0:1")
CHECK_AT = ("--point", "0,0,0,0", "--k", "1,0,0,-1")


X8_TRACE = ("trace", "--symbol", "scaled-wave", "--scale", "1+x3^8", "--tau")
X8_DRIFT = (
    *X8_TRACE, "0:40", "--x0", "0,0,0,0.5", "--k", "1,0,0.3,-1", "--project-null", "--step", "1"
)
X8_OVERFLOW = (*X8_TRACE, "0:1", "--x0", "0,0,0,1e40", "--k", "1,0,0,-1", "--step", "0.1")
MAXWELL_FILE = format_symbol_file(flat_maxwell())
# q = (k.k)^2: dq/dk vanishes on the whole cone
QUARTIC_FILE = format_symbol_file(scalar_wave().matmul(scalar_wave()))
QUARTIC_START = ("--symbol-file", "p.txt", *TRACE_FLAT[2:], "--step", "0.1")
STATIONARY = (
    "StationaryStart: dq/dk vanishes at the start, so the ray would not move "
    "at step 0, tau = 0, x = (0, 0, 0, 0), k = (1, 0, 0, -1)"
)
ID4 = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"
SYNTH = ("synth", "--k", K_PI, "--eps", "0,1,0,0", "--center", "0,0,0,0", "--sigma", "2.0",
         "--samples", "32,32,32", "-o", "f.gf")


class TestErrorContract:
    """A failure through the CLI is one line naming a package error: exit 2
    for a numerical failure, exit 1 for anything else."""

    @pytest.mark.parametrize(
        "argv, symbol_file, what",
        [
            (("transport", *TRACE_FLAT, "--step", "0.5", "--omega0", "nan,0,0,0"), None,
             "InvalidInput: omega0 has non-finite components"),
            (("transport", *TRACE_FLAT, "--step", "0.5", "--omega0", "0,1,0,0",
              "--omega0-imag", "0,inf,0,0"), None,
             "InvalidInput: omega0 has non-finite components"),
            (("gauge", "--k", "2e200,1e200,0,0", "--eps", "0,0,1,0"), None,
             "InvalidInput: mode covector is off the cone: k.k / |k|^2 = 6.000e-01"),
            (("check-type", "--symbol", "scaled-wave", "--scale", "1+x3^2.5", *CHECK_AT), None,
             "InvalidInput: bad exponent '2.5'"),
            (("check-type", "--symbol", "scaled-wave", "--scale", "1+x3^99999999999999999999",
              *CHECK_AT), None, "InvalidInput: exponent tuple must be 4 nonnegative int64"),
            (("check-type", "--symbol-file", "p.txt", *CHECK_AT),
             "dimension 1\norder 2\nterm principal 0,0,0,99999999999999999999 2,0,0,0 1\n",
             "ParseError: symbol file line 3: exponent tuple must be 4 nonnegative int64"),
            (("check-type", "--symbol-file", "p.txt", *CHECK_AT),
             "dimension 1\norder 2.5\nterm principal 0,0,0,0 2,0,0,0 1\n",
             "ParseError: symbol file line 2"),
            (("check-type", "--symbol-file", "p.txt", *CHECK_AT),
             "dimension 2.5\norder 2\nterm principal 0,0,0,0 2,0,0,0 1\n",
             "ParseError: symbol file line 1"),
            ((*SYNTH, "--extent", "16,16,16", "--tslices", "2.5"), None,
             "InvalidInput: argument --tslices"),
            (X8_DRIFT, None, "ConstraintDrift: |q| = nan exceeded drift bound 1.0e-06 at step 1,"),
            ((*X8_DRIFT, "--method", "adaptive"), None, "ConstraintDrift: |q| = "),
            (X8_OVERFLOW, None,
             "NonNullStart: |q| = nan exceeds start tolerance 1.0e-10 times the term size nan "
             "at step 0,"),
            ((*SYNTH, "--extent", "16,16,16", "--tslices", "2", "--tstep", "nan"), None,
             "InvalidInput: time step must be finite and positive, got nan"),
            ((*SYNTH, "--extent", "nan,16,16"), None,
             "InvalidInput: grid extents must be finite and positive, got (nan, 16.0, 16.0)"),
            (("compare", "--estimates", "e.json", "--orbit", "o.csv", "--max-sideband-db", "nan"),
             None, "InvalidInput: max_sideband_db must not be NaN"),
            (("check-type", "--symbol", "scaled-wave", "--scale", "1+x3^1000000", *CHECK_AT), None,
             "InvalidInput: term degree 1000002 exceeds the maximum of 64"),
            (("check-type", "--symbol-file", "p.txt", *CHECK_AT),
             "dimension 1\norder 2\nterm principal 0,0,0,63 2,0,0,0 1\n",
             "ParseError: symbol file: term degree 65 exceeds the maximum of 64"),
            (("check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0",
              "--k", "1e200,0,0,-1e200"), None,
             "InvalidInput: p(x, k) is not finite at x = (0, 0, 0, 0), k = (1e+200, 0, 0, -1e+200)"),
            (("check-type", "--symbol", "flat-maxwell", "--hint-file", "p.txt", *CHECK_AT),
             "dimension 1\norder 0\nterm principal 0,0,0,0 0,0,0,0 2\n",
             "DimensionMismatch: matmul needs equal dimensions, got 1x1 and 4x4 symbols"),
            (("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1e154,0,0,-1e154",
              "--tau", "0:1e300", "--step", "1e299"), None,
             "StepFailure: ray position overflowed at step 1, tau = 1e+299, x = (inf, 0, 0, inf), "
             "k = (1e+154, 0, 0, -1e+154)"),
            (("check-type", "--symbol", "flat-maxwell", "--scale", "1+x3^2", *CHECK_AT), None,
             "InvalidInput: scale and dimension apply only to scaled-wave, not flat-maxwell"),
            (("check-type", "--symbol", "scalar-wave", "--dimension", "3", *CHECK_AT), None,
             "InvalidInput: scale and dimension apply only to scaled-wave, not scalar-wave"),
            (("check-type", "--symbol", "scalar-wave", "--symbol-file", "p.txt", *CHECK_AT),
             MAXWELL_FILE, "InvalidInput: give exactly one of --symbol NAME or --symbol-file PATH"),
            (("check-type", "--symbol-file", "p.txt", "--dimension", "2", "--scale", "x3",
              *CHECK_AT), MAXWELL_FILE,
             "InvalidInput: --scale and --dimension apply only to --symbol scaled-wave"),
            (("check-type", *CHECK_AT), None, "InvalidInput: give exactly one of --symbol NAME"),
            (("check-type", "--config", "p.txt", "--symbol-file", "p.txt", *CHECK_AT),
             '{"symbol": "flat-maxwell"}', "InvalidInput: give exactly one of --symbol NAME"),
            (("trace", *TRACE_FLAT, "--step", "0.5", "--tau", "01"), None,
             "InvalidInput: tau span must look like '0:1'"),
            (("trace", *TRACE_FLAT, "--step", "0.5", "--tau", "a:1"), None,
             "InvalidInput: bad tau span: could not convert string to float: 'a'"),
            (("estimate", "--field", "f.gf", "--centers", " ; ", "--window", "1"), None,
             "InvalidInput: no window centers given"),
            (("trace", "--config", "p.txt", *TRACE_FLAT, "--step", "0.5"), "{",
             "InvalidInput: bad config file p.txt: "),
            (("trace", "--config", "p.txt", *TRACE_FLAT, "--step", "0.5"), "[1]",
             "InvalidInput: config file must hold a JSON object"),
            (("trace", *TRACE_FLAT, "--step", "0.5", "--config"), None,
             "InvalidInput: --config needs a file path"),
            (("--config", "p.txt"), "{}", "InvalidInput: config file cannot choose the subcommand"),
            (("gauge", "--k", "1,0,0,-1", "--eps", "nan,0,0,0"), None,
             "InvalidInput: eps has non-finite components"),
            (("synth", "--k=-1e-16,1e-16,0,0", *SYNTH[3:], "--extent", "16,16,16"), None,
             "ZeroFrequency: synthesis needs a carrier with k0 > 0"),
            (("check-type", "--symbol", "flat-maxwell", "--hint-file", "p.txt", *CHECK_AT),
             f"dimension 4\norder 1\nterm principal 0,0,0,0 1,0,0,0 {ID4}\n"
             f"term principal 0,0,0,0 0,0,0,0 {ID4}\n",
             "NoDecomposition: hint p~ mixes k-degrees"),
            (("check-type", "--symbol", "scaled-wave", "--scale", "1+", *CHECK_AT), None,
             "InvalidInput: malformed polynomial term in '1+'"),
            (("check-type", "--symbol", "scaled-wave", "--scale", "x1**2", *CHECK_AT), None,
             "InvalidInput: malformed factor in polynomial term 'x1**2'"),
            ((*SYNTH, "--extent", "16,16,16", "--tslices", "0"), None,
             "InvalidInput: grid needs at least one time slice"),
            ((*SYNTH, "--extent", "16,16,16", "--sigma", "0"), None,
             "InvalidInput: envelope width must be positive"),
            (("trace", *QUARTIC_START), QUARTIC_FILE, STATIONARY),
            (("transport", *QUARTIC_START, "--omega0", "1"), QUARTIC_FILE, STATIONARY),
        ],
        ids=[
            "nan-omega0", "inf-omega0-imag", "overflowing-null-test", "fractional-power",
            "int64-power", "int64-file-exponent", "fractional-order", "fractional-dimension",
            "fractional-tslices", "nan-drift", "nan-drift-adaptive", "nan-start", "nan-tstep",
            "nan-extent", "nan-sideband", "degree-cap-scale", "degree-cap-file", "overflowing-p",
            "scalar-hint", "x-free-position-overflow", "maxwell-scale", "scalar-wave-dimension",
            "symbol-and-file", "file-scale-dimension", "no-source", "config-symbol-and-file",
            "tau-no-colon", "tau-not-a-number", "no-centers", "config-not-json",
            "config-not-object", "config-no-path", "config-only", "nan-eps", "tiny-k0",
            "mixed-degree-hint", "dangling-sign", "empty-factor", "zero-tslices", "zero-sigma",
            "stationary-trace", "stationary-transport",
        ],
    )
    def test_bad_invocation_names_a_package_error(
        self, capsys, tmp_path, monkeypatch, argv, symbol_file, what
    ):
        monkeypatch.chdir(tmp_path)
        if symbol_file:
            (tmp_path / "p.txt").write_text(symbol_file)
        code, out, err = run_cli(capsys, *argv)
        assert err.startswith(what) and err.count("\n") == 1 and err.endswith("\n"), err
        name = err.split(":", 1)[0]
        assert name in _error_names()
        assert code == (2 if name in _error_names(polaray.NumericalFailure) else 1) and not out


class TestTransport:
    def test_projection_recorded_in_orbit_header(self, capsys, tmp_path):
        # the Weyl-type system p = k0 I - n(x) sigma.k has a one-dimensional kernel on the cone
        # and a non-constant p~; the scaled wave has p~ = I and the whole fiber as kernel
        x0, k0, omega0 = weyl_start()
        for name, symbol in (("p.txt", weyl_symbol(-1)), ("hint.txt", weyl_symbol(+1))):
            (tmp_path / name).write_text(format_symbol_file(symbol))
        runs = {
            1: ("--symbol-file", str(tmp_path / "p.txt"), "--hint-file", str(tmp_path / "hint.txt"),
                "--x0", ",".join(map(repr, x0.tolist())), "--k", ",".join(map(repr, k0.tolist())),
                "--tau", "0:2", "--step", "0.04",
                "--omega0=" + ",".join(map(repr, omega0.real.tolist())),
                "--omega0-imag=" + ",".join(map(repr, omega0.imag.tolist()))),
            0: ("--symbol", "scaled-wave", "--scale", "1+x3^2", "--dimension", "2",
                "--x0", "0,0,0,0", "--k", "1,0.6,0,0.8", "--tau", "0:0.1", "--step", "0.01",
                "--omega0", "0.6,0.8"),
        }
        for flag, argv in runs.items():
            path = tmp_path / f"orbit{flag}.csv"
            code, _, err = run_cli(capsys, "transport", *argv, "-o", str(path))
            assert code == 0, err
            header = path.read_text().splitlines()[0]
            assert f"reprojected={flag}" in header.split()
            assert read_orbit_csv(str(path)).reprojected == bool(flag)

    @pytest.mark.parametrize("config", [None, '{"reproject": true}'], ids=["flag", "config"])
    def test_reproject_option_is_gone(self, capsys, tmp_path, config):
        argv = ["transport", *TRACE_FLAT, "--step", "0.5", "--omega0", "1,0,0,0"]
        if config is None:
            argv.append("--reproject")
        else:
            (tmp_path / "c.json").write_text(config)
            argv[1:1] = ["--config", str(tmp_path / "c.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out and "reproject" in err

    def test_output_to_dev_null(self, capsys):
        argv = ("transport", *TRACE_FLAT, "--step", "0.5", "--omega0", "0,1,0,0")
        code, out, err = run_cli(capsys, *argv, "-o", os.devnull)
        assert code == 0 and not out and not err

    def test_output_to_a_pipe(self, capsys):
        argv = ("transport", *TRACE_FLAT, "--step", "0.5", "--omega0", "0,1,0,0")
        _, expected, _ = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "polaray.cli", *argv, "-o", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=subprocess_env(),
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == expected


class TestNegativeValues:
    """A value whose first entry is negative may follow its option as the next
    argument: each row runs as written with ``--opt=value`` and with ``--opt value``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("transport", *TRACE_FLAT, "--step", "0.5", "--omega0=-0.85,-0.53,0,0",
             "--omega0-imag=-.5,0,0,0"),
            ("trace", "--symbol", "flat-maxwell", "--x0=-1,0,0,0", "--k=-1,0,0,1", "--tau=-1:1",
             "--step", "0.5"),
            ("gauge", "--k=-1,0,0,1", "--eps=-1,1,0,-1", "--eps-imag=-0.5,0,0,0"),
            ("check-type", "--symbol", "flat-maxwell", "--point=-2,0,0,0", "--k=-1,0,0,1"),
        ],
        ids=["omega0", "x0-k-tau", "k-eps", "point"],
    )
    def test_same_output_as_the_equals_form(self, capsys, argv):
        code, expected, err = run_cli(capsys, *argv)
        assert code == 0, err
        spaced = [part for arg in argv for part in arg.split("=", 1)]
        assert len(spaced) > len(argv)
        assert run_cli(capsys, *spaced) == (0, expected, "")

    @pytest.mark.parametrize("follower", ["--k", "-o", "--symbol"])
    def test_option_followed_by_an_option_has_no_value(self, capsys, follower):
        argv = ["transport", *TRACE_FLAT, "--step", "0.5", "--omega0"]
        code, out, err = run_cli(capsys, *argv, follower, "x")
        assert code == 1 and not out
        assert err == "InvalidInput: argument --omega0: expected one argument\n"


class TestHintFile:
    @pytest.mark.parametrize("command", ["trace", "transport"])
    def test_non_scalar_symbol_needs_the_hint(self, capsys, tmp_path, command):
        # p = diag(1, 2) (k0^2 - n^2 |k|^2) + lower part; p~ = diag(2, 1) makes p~ p scalar
        symbol = tmp_path / "p.txt"
        symbol.write_text(format_symbol_file(graded_index_symbol(2, scale=np.diag([1.0, 2.0]))))
        hint = tmp_path / "hint.txt"
        zero = (0, 0, 0, 0)
        hint.write_text(format_symbol_file(MatrixSymbol(2, 0, [(zero, zero, np.diag([2.0, 1.0]))])))
        x0, k0 = graded_null_start()
        out = tmp_path / "out.csv"
        argv = [
            command, "--symbol-file", str(symbol), "--x0", ",".join(str(float(v)) for v in x0),
            "--k", ",".join(str(float(v)) for v in k0), "--tau", "0:0.5", "--step", "0.05",
            "-o", str(out),
        ]
        if command == "transport":
            argv += ["--omega0", "0.6,0.8", "--omega0-imag", "0,0.1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "NoDecomposition" in err
        code, _, err = run_cli(capsys, *argv, "--hint-file", str(hint))
        assert code == 0, err
        assert roundtrip(str(out))
        if command == "transport":
            orbit = read_orbit_csv(str(out))
            assert len(orbit) == 11
            assert orbit.omega[0].tolist() == [0.6, 0.8 + 0.1j]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "trace", "--symbol", "flat-maxwell", "--x0", "0.1,0.2,0.3,0.4",
                "--k", "0,1.1,-2.2,0.7", "--project-null", "--tau", "0:2", "--step", "0.01",
                "-o", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_gauge_json_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "gauge", "--k", "1,0,0,-1", "--eps", "1,1,0,-1", "--eps-imag", "0,0.5,0,0"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "0:1", "step": 0.5, "x0": "0,0,0,0"}))
        out_a = tmp_path / "a.csv"
        code, _, _ = run_cli(
            capsys,
            "trace", "--config", str(cfg), "--symbol", "flat-maxwell", "--k", "1,0,0,-1",
            "--step", "0.01", "-o", str(out_a),
        )
        assert code == 0
        assert len(read_ray_csv(str(out_a))) == 101  # flag step 0.01 wins

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(
            capsys,
            "trace", "--config", str(cfg), "--symbol", "flat-maxwell", "--x0", "0,0,0,0",
            "--k", "1,0,0,-1", "--tau", "0:1", "--step", "0.01",
        )
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize(
        "config",
        [
            {"x0": "0,0,0,0", "step": [1]},
            {"step": 0.1, "x0": 5},
            {"x0": "0,0,0,0", "step": 0.1, "project_null": "false"},
            {"x0": "0,0,0,0", "step": 0.1, "tau": True},
            {"x0": "0,0,0,0", "ste": 0.1},
            {"x0": "0,0,0,0", "step": 0.1, "help": True},
            {"x0": "0,0,0,0", "step": 0.1, "config": "other.json"},
        ],
        ids=["list", "number-for-text", "text-for-flag", "flag-for-value", "prefix", "help", "config"],
    )
    def test_bad_config_entries_exit_one(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(
            capsys,
            "trace", "--config", str(cfg), "--symbol", "flat-maxwell", "--k", "1,0,0,-1",
            "--tau", "0:1",
        )
        assert code == 1 and not out
        assert list(config)[-1] in err

    def test_bad_config_entry_in_a_subprocess(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": 5, "step": 0.1}))
        proc = subprocess.run(
            [
                sys.executable, "-m", "polaray.cli", "trace", "--config", str(cfg),
                "--symbol", "flat-maxwell", "--k", "1,0,0,-1", "--tau", "0:1",
            ],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert proc.returncode == 1
        assert "x0" in proc.stderr and "Traceback" not in proc.stderr

    def test_config_flags_act_as_the_flag(self, capsys, tmp_path):
        argv = ("trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "2,0,0,-1")
        runs = {}
        for name, setting in (("true", True), ("false", False)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"tau": "0:1", "step": 0.01, "project_null": setting}))
            runs[name] = run_cli(capsys, argv[0], "--config", str(cfg), *argv[1:])
        flagged = run_cli(capsys, *argv, "--tau", "0:1", "--step", "0.01", "--project-null")
        plain = run_cli(capsys, *argv, "--tau", "0:1", "--step", "0.01")
        assert runs["true"] == flagged and flagged[0] == 0
        # without projection the off-cone start is refused
        assert runs["false"] == plain and plain[0] == 2 and plain[2].startswith("NonNullStart")

    def test_config_does_not_leak_into_the_next_run(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x0": "-1,0,0,0", "tau": "0:1", "step": 0.5}))
        argv = ("trace", "--symbol", "flat-maxwell", "--k", "1,0,0,-1")
        out_path = tmp_path / "ray.csv"
        code, _, _ = run_cli(capsys, argv[0], "--config", str(cfg), *argv[1:], "-o", str(out_path))
        assert code == 0
        assert read_ray_csv(str(out_path)).x[0].tolist() == [-1, 0, 0, 0]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "--x0" in err and "--step" in err


class TestGauge:
    def test_classification_payload(self, capsys):
        code, out, _ = run_cli(capsys, "gauge", "--k", "1,0,0,-1", "--eps", "1,1,0,-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lorenz_residual_re"] == 0.0
        assert payload["radiation_fix"]["eps_re"] == [0.0, 1.0, 0.0, 0.0]
        assert payload["radiation_fix"]["chi_hat_im"] == 1.0
        assert payload["classification"]["pure_gauge_re"] == 1.0

    def test_off_cone_mode_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gauge", "--k", "1,0,0,0", "--eps", "0,1,0,0")
        assert code == 1
        assert "cone" in err

    def test_tiny_mode_is_the_same_mode(self, capsys):
        payloads = []
        for k in ("1e-16,1e-16,0,0", "1,1,0,0"):
            code, out, err = run_cli(capsys, "gauge", "--k", k, "--eps", "0,0,1,0")
            assert code == 0 and not err
            payloads.append(json.loads(out))
        tiny, unit = payloads
        for part in ("re", "im"):
            np.testing.assert_allclose(
                tiny["radiation_fix"][f"eps_{part}"], unit["radiation_fix"][f"eps_{part}"],
                rtol=0, atol=1e-15,
            )
            np.testing.assert_allclose(
                tiny[f"physical_kernel_{part}"], unit[f"physical_kernel_{part}"], rtol=0, atol=1e-15
            )


class TestPipeline:
    def test_synth_estimate_compare(self, capsys, tmp_path):
        field_path = tmp_path / "f.gf"
        code, out, _ = run_cli(
            capsys,
            "synth", "--k", K_PI, "--eps", "0,1,0,0", "--center", "0,0,0,0", "--sigma", "2.0",
            "--extent", "16,16,16", "--samples", "32,32,32", "--tslices", "3", "--tstep", "0.4",
            "-o", str(field_path),
        )
        assert code == 0
        assert "envelope_transport_error" in json.loads(out)

        est_path = tmp_path / "est.json"
        code, _, _ = run_cli(
            capsys,
            "estimate", "--field", str(field_path), "--centers", "0,0,0,0;0.4,0,0,0.4",
            "--window", "2.0", "--threshold", "0.2", "--format", "json", "-o", str(est_path),
        )
        assert code == 0
        assert len(read_estimates_json(str(est_path))) == 2

        orbit_path = tmp_path / "orbit.csv"
        code, _, _ = run_cli(
            capsys,
            "transport", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", K_PI,
            "--tau", "0:0.14", "--step", "0.001", "--omega0", "0,1,0,0", "-o", str(orbit_path),
        )
        assert code == 0

        code, out, _ = run_cli(
            capsys,
            "compare", "--estimates", str(est_path), "--orbit", str(orbit_path),
            "--max-distance", "0.5",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_compare_failure_exit_three(self, capsys, tmp_path):
        field_path = tmp_path / "f.gf"
        run_cli(
            capsys,
            "synth", "--k", K_PI, "--eps", "0,0,1,0", "--center", "0,0,0,0", "--sigma", "2.0",
            "--extent", "16,16,16", "--samples", "32,32,32", "-o", str(field_path),
        )
        est_path = tmp_path / "est.csv"
        run_cli(
            capsys,
            "estimate", "--field", str(field_path), "--centers", "0,0,0,0",
            "--window", "2.0", "-o", str(est_path),
        )
        orbit_path = tmp_path / "orbit.csv"
        run_cli(
            capsys,
            "transport", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", K_PI,
            "--tau", "0:0.1", "--step", "0.001", "--omega0", "0,1,0,0", "-o", str(orbit_path),
        )
        code, out, _ = run_cli(
            capsys, "compare", "--estimates", str(est_path), "--orbit", str(orbit_path)
        )
        assert code == 3
        assert json.loads(out)["passed"] is False


class TestRoundtripCommand:
    def test_ray_file(self, capsys, tmp_path):
        path = tmp_path / "ray.csv"
        run_cli(
            capsys,
            "trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0", "--k", "1,0,0,-1",
            "--tau", "0:1", "--step", "0.1", "-o", str(path),
        )
        code, out, _ = run_cli(capsys, "roundtrip", str(path))
        assert code == 0
        assert json.loads(out)["roundtrip"] is True

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "roundtrip", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "no such file" in err


class TestOnTheConeUpToRounding:
    """A covector on the cone only up to rounding counts as on it."""

    def test_check_type(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0",
            "--k", "1.4142135623730951,1,1,0",
        )
        payload = json.loads(out)
        assert code == 0 and payload["q_value"] == 4.440892098500626e-16
        assert payload["on_char"] is True and payload["kernel_dimension"] == 4

    def test_trace_of_a_projected_covector(self, capsys):
        code, out, err = run_cli(
            capsys, "trace", "--symbol", "flat-maxwell", "--x0", "0,0,0,0",
            "--k", "1,1000,1000,0", "--project-null", "--tau", "0:1", "--step", "0.5",
        )
        assert code == 0 and not err
        assert out.count("\n") == 5

    def test_gauge(self, capsys):
        code, out, err = run_cli(
            capsys, "gauge", "--k", "141421.35623730951,100000,100000,0", "--eps", "0,0,0,1"
        )
        assert code == 0 and not err
        assert json.loads(out)["lorenz_residual_re"] == 0.0


def readme_commands() -> list[list[str]]:
    """The ``polaray ...`` command lines of the README's sh blocks, as argv lists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("polaray ")]


class TestReadme:
    def test_every_readme_command_runs_and_its_files_round_trip(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert [argv[0] for argv in commands] == [
            "check-type", "trace", "transport", "gauge", "synth", "estimate", "compare",
            "roundtrip",
        ]
        emitted = []
        for argv in commands:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0 and not err, (argv, err)
            if "-o" in argv:
                emitted.append(argv[argv.index("-o") + 1])
        assert emitted == ["ray.csv", "orbit.csv", "packet.gf", "estimates.json"]
        assert all(roundtrip(str(tmp_path / name)) for name in emitted)
