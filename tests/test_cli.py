import json
import os
import subprocess
import sys

import numpy as np
import pytest

import polaray
from polaray.cli import run
from polaray.serialization import read_estimates_json, read_orbit_csv, read_ray_csv, roundtrip
from polaray.symbols import MatrixSymbol, format_symbol_file

from conftest import graded_index_symbol, graded_null_start

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

    def test_off_cone(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol", "flat-maxwell", "--point", "0,0,0,0", "--k", "1,0,0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["on_char"] is False
        assert payload["kernel_dimension"] == 0

    def test_symbol_file(self, capsys, tmp_path, maxwell):
        from polaray.symbols import format_symbol_file

        path = tmp_path / "sym.txt"
        path.write_text(format_symbol_file(maxwell))
        code, out, _ = run_cli(
            capsys, "check-type", "--symbol-file", str(path), "--point", "0,0,0,0", "--k", "5,3,4,0"
        )
        assert code == 0
        assert json.loads(out)["on_char"] is True

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


class TestTransport:
    def test_reproject_recorded_in_orbit_header(self, capsys, tmp_path):
        paths = {flag: tmp_path / f"orbit{flag}.csv" for flag in (0, 1)}
        for flag, path in paths.items():
            code, _, _ = run_cli(
                capsys,
                "transport", "--symbol", "scaled-wave", "--scale", "1+x3^2", "--dimension", "2",
                "--x0", "0,0,0,0", "--k", "1,0.6,0,0.8", "--tau", "0:0.1", "--step", "0.01",
                "--omega0", "0.6,0.8", *(["--reproject"] if flag else []), "-o", str(path),
            )
            assert code == 0
        for flag, path in paths.items():
            header = path.read_text().splitlines()[0]
            assert f"reprojected={flag}" in header.split()
        assert read_orbit_csv(str(paths[1])).reprojected


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
        src = os.path.dirname(os.path.dirname(polaray.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [
                sys.executable, "-m", "polaray.cli", "trace", "--config", str(cfg),
                "--symbol", "flat-maxwell", "--k", "1,0,0,-1", "--tau", "0:1",
            ],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "x0" in proc.stderr and "Traceback" not in proc.stderr

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
