"""Exit codes, output formats, determinism, and file round-trips of the front end."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_gegenbauer as scipy_gegenbauer

import spherekern
from spherekern.cli import main, named_kernel, parse_angle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_lp_bound_passes(self, capsys):
        code, out, _ = run(capsys, "lp-bound", "--n", "8", "--theta", "60deg",
                           "--dmax", "12", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert abs(doc["bound"] - 240.0) < 0.5

    def test_check_pd_failure_carries_witness(self, capsys):
        code, out, _ = run(capsys, "check-pd", "--kernel", "neg-dot", "--n", "3",
                           "--trials", "3", "--m", "8", "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        witnesses = [r for r in doc["reports"] if "witness_points" in r]
        assert witnesses
        pts = np.asarray(witnesses[0]["witness_points"], dtype=float)
        assert pts.shape[1] == 3

    def test_non_invariant_kernel_fails_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "--kernel", "coord", "--n", "3",
                           "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert "error" in doc

    def test_bad_theta_is_usage_error(self, capsys):
        code, _, err = run(capsys, "lp-bound", "--n", "3", "--theta", "0", "--dmax", "6")
        assert code == 2
        assert "error" in err

    def test_unknown_kernel_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check-pd", "--kernel", "mystery", "--n", "3")
        assert code == 2
        assert "error" in err

    def test_malformed_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lp-bound", "--n", "3", "--theta", "sixty"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-pd", "--kernel", "dot", "--n", "3", "--threads", "4"])
        assert exc.value.code == 2

    def test_gegenbauer_tol_rejected(self, capsys):
        # gegenbauer has no tolerance to honour, so it must not accept --tol
        with pytest.raises(SystemExit) as exc:
            main(["gegenbauer", "--alpha", "1", "--dmax", "2", "--t", "0.5", "--tol", "1"])
        assert exc.value.code == 2

    def test_lp_bound_tol_rejected(self, capsys):
        # the shifted certificate is feasible by construction, so lp-bound has no tolerance
        with pytest.raises(SystemExit) as exc:
            main(["lp-bound", "--n", "3", "--theta", "60deg", "--tol", "1e-6"])
        assert exc.value.code == 2

    @staticmethod
    def bundle_expansion(capsys, tmp_path):
        path = tmp_path / "e.json"
        run(capsys, "synth-bundle", "--n", "5", "--r", "2", "--trials", "2", "--m", "8",
            "--output", str(path), "--no-timestamp")
        return str(path)

    @pytest.mark.parametrize("command", ["check-pd", "check-invariance"])
    def test_kernel_and_expansion_exclude_each_other(self, capsys, tmp_path, command):
        # one kernel source, exactly: neither may be dropped silently in favour of the other
        path = self.bundle_expansion(capsys, tmp_path)
        for source in (["--kernel", "neg-dot", "--expansion", path], []):
            with pytest.raises(SystemExit) as exc:
                main([command, *source, "--n", "5"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["check-pd", "check-invariance"])
    def test_n_must_match_expansion(self, capsys, tmp_path, command):
        path = self.bundle_expansion(capsys, tmp_path)
        code, out, err = run(capsys, command, "--expansion", path, "--n", "9", "--trials", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: --n 9 does not match the expansion's n = 5")
        code, out, _ = run(capsys, command, "--expansion", path, "--n", "5", "--trials", "2")
        assert code == 0 and json.loads(out)["n"] == 5

    def test_certify_refine_rejected(self, capsys, tmp_path):
        # the peak comes from the roots of f', so there is no grid to refine
        path = tmp_path / "cert.json"
        run(capsys, "lp-bound", "--n", "3", "--theta", "60deg", "--output", str(path), "--no-timestamp")
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--input", str(path), "--refine", "3"])
        assert exc.value.code == 2

    def test_unshiftable_lp_is_a_failure_report(self, capsys):
        # every grid solution of this instance peaks above the shift cap
        code, out, _ = run(capsys, "lp-bound", "--n", "20", "--theta", "32.95deg",
                           "--dmax", "43", "--no-timestamp")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False and "shift cap" in doc["error"]


class TestImport:
    @staticmethod
    def loaded(package):
        """Modules of `package` in sys.modules after a fresh `import spherekern, spherekern.cli`."""
        src = str(Path(spherekern.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, spherekern, spherekern.cli; "
                f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return out.strip()

    def test_import_loads_no_scipy(self):
        assert self.loaded("scipy") == "[]"

    def test_import_loads_no_numpy_polynomial(self):
        # lp_bound._peak reaches numpy.polynomial on first use; loading it at import
        # would cost every short-lived CLI process its import time and memory
        assert "numpy" in self.loaded("numpy")
        assert self.loaded("numpy.polynomial") == "[]"


class TestAngles:
    def test_degrees_suffix(self):
        assert parse_angle("60deg") == pytest.approx(np.pi / 3, abs=1e-15)
        assert parse_angle("90DEG") == pytest.approx(np.pi / 2, abs=1e-15)

    def test_radians(self):
        assert parse_angle("1.0471975511965976") == pytest.approx(np.pi / 3, abs=1e-15)

    def test_deg_equals_radians_downstream(self, capsys):
        _, out_deg, _ = run(capsys, "lp-bound", "--n", "3", "--theta", "60deg",
                            "--dmax", "8", "--no-timestamp")
        _, out_rad, _ = run(capsys, "lp-bound", "--n", "3", "--theta",
                            repr(np.pi / 3), "--dmax", "8", "--no-timestamp")
        assert json.loads(out_deg)["bound"] == json.loads(out_rad)["bound"]


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = ["check-pd", "--kernel", "dot", "--n", "4", "--trials", "5",
                "--m", "10", "--seed", "42", "--no-timestamp"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_recorded(self, capsys):
        _, out, _ = run(capsys, "gegenbauer", "--alpha", "1.0", "--dmax", "3",
                        "--t", "0.5", "--seed", "7", "--no-timestamp")
        assert json.loads(out)["seed"] == 7

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHEREKERN_SEED", "123")
        _, out, _ = run(capsys, "gegenbauer", "--alpha", "1.0", "--dmax", "2",
                        "--t", "0.0", "--no-timestamp")
        assert json.loads(out)["seed"] == 123

    def test_timestamp_present_by_default(self, capsys):
        _, out, _ = run(capsys, "gegenbauer", "--alpha", "1.0", "--dmax", "2",
                        "--t", "0.0")
        assert "timestamp" in json.loads(out)


class TestFormats:
    def test_csv_header_and_row(self, capsys):
        _, out, _ = run(capsys, "verify-t1t2", "--n", "4", "--r", "1",
                        "--samples", "20", "--format", "csv", "--no-timestamp")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        header, row = rows
        assert header == sorted(header)
        doc = dict(zip(header, row))
        assert doc["passed"] == "True"
        assert float(doc["max_residual"]) < 1e-10

    def test_text_format(self, capsys):
        _, out, _ = run(capsys, "gegenbauer", "--alpha", "0.5", "--dmax", "2",
                        "--t", "0.5", "--format", "text", "--no-timestamp")
        assert "alpha: 0.5" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "gegenbauer", "--alpha", "1.0", "--dmax", "2",
                           "--t", "0.25", "--output", str(target), "--no-timestamp")
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["schema"] == 1


class TestCommands:
    def test_gegenbauer_matches_reference(self, capsys):
        _, out, _ = run(capsys, "gegenbauer", "--alpha", "1.5", "--dmax", "5",
                        "--t", "-0.3", "0.2", "0.9", "--no-timestamp")
        doc = json.loads(out)
        values = np.asarray(doc["values"])
        for d in range(6):
            for j, t in enumerate([-0.3, 0.2, 0.9]):
                assert values[d][j] == pytest.approx(scipy_gegenbauer(d, 1.5, t), abs=1e-12)

    def test_gegenbauer_from_n(self, capsys):
        _, out, _ = run(capsys, "gegenbauer", "--n", "4", "--dmax", "2",
                        "--t", "0.5", "--no-timestamp")
        assert json.loads(out)["alpha"] == 1.0

    def test_expand_dot(self, capsys):
        code, out, _ = run(capsys, "expand", "--kernel", "dot", "--n", "3",
                           "--dmax", "4", "--no-timestamp")
        assert code == 0
        c = json.loads(out)["expansion"]["coefficients"]
        assert c[1] == pytest.approx(1.0, abs=1e-10)
        assert max(abs(v) for i, v in enumerate(c) if i != 1) < 1e-10

    def test_expansion_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "expansion.json"
        run(capsys, "expand", "--kernel", "gegenbauer:3", "--n", "5",
            "--dmax", "6", "--output", str(path), "--no-timestamp")
        code, out, _ = run(capsys, "check-pd", "--expansion", str(path), "--n", "5",
                           "--trials", "5", "--m", "15", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_gegenbauer_kernel_block_matches_scalar_loop(self):
        K = named_kernel("gegenbauer:3", 5)
        assert K.name == "gegenbauer:3" and K.fn is None
        pts = spherekern.sample_sphere(5, 30, np.random.default_rng(0))
        Gs = np.array([[K(p, q) for q in pts] for p in pts])
        assert np.max(np.abs(spherekern.gram(K, pts) - Gs)) <= 1e-14
        t = np.clip(pts @ pts.T, -1.0, 1.0)
        assert np.max(np.abs(Gs - scipy_gegenbauer(3, 1.5, t))) <= 1e-14

    def test_gegenbauer_kernel_builds_no_quadrature_rule(self):
        spherekern.basis_for.cache_clear()
        K = named_kernel("gegenbauer:1000", 5)
        K(np.eye(5)[0], np.eye(5)[1])
        assert spherekern.basis_for.cache_info().misses == 0

    def test_check_invariance_pass_and_fail(self, capsys):
        code, _, _ = run(capsys, "check-invariance", "--kernel", "dot", "--n", "4",
                         "--trials", "50", "--no-timestamp")
        assert code == 0
        code, out, _ = run(capsys, "check-invariance", "--kernel", "coord", "--n", "4",
                           "--trials", "50", "--no-timestamp")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_synth_bundle(self, capsys):
        code, out, _ = run(capsys, "synth-bundle", "--n", "5", "--r", "2",
                           "--dmax", "2", "--trials", "3", "--m", "12",
                           "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert "feature_map_spec" in doc["expansion"]

    def test_synth_bundle_reports_both_tolerances(self, capsys):
        code, out, _ = run(capsys, "synth-bundle", "--n", "5", "--r", "2",
                           "--dmax", "2", "--trials", "3", "--m", "12",
                           "--tol", "1e-3", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["pd_tol"] == 1e-3
        assert doc["invariance"]["tol"] == 1e-9

    @pytest.mark.parametrize("n, r, needle", [("4", "0", "ScalarExpansion"), ("4", "2", "S^1")])
    def test_synth_bundle_rejects_bad_fiber(self, capsys, n, r, needle):
        code, out, err = run(capsys, "synth-bundle", "--n", n, "--r", r, "--no-timestamp")
        assert code == 2 and out == ""
        assert needle in err

    def test_musin(self, capsys):
        code, out, _ = run(capsys, "musin", "--kernel", "dot", "--n", "4", "--r", "1",
                           "--dmax", "4", "--samples", "50", "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_residual"] < 1e-8

    def test_verify_addition(self, capsys):
        code, out, _ = run(capsys, "verify-addition", "--n", "6", "--r", "1",
                           "--k", "6", "--samples", "200", "--seed", "7",
                           "--no-timestamp")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_verify_t1t2(self, capsys):
        code, out, _ = run(capsys, "verify-t1t2", "--n", "5", "--r", "2",
                           "--samples", "100", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["max_residual"] < 1e-12

    def test_certify_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "lp-bound", "--n", "4", "--theta", "60deg", "--dmax", "10",
            "--output", str(path), "--no-timestamp")
        code, out, _ = run(capsys, "certify", "--input", str(path), "--no-timestamp")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["failed"] == []
        assert doc["max_violation"] <= 1e-9

    def write_cert(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "lp-bound", "--n", "4", "--theta", "60deg", "--output", str(path),
            "--no-timestamp")
        return path, json.loads(path.read_text())

    def test_certify_rejects_false_bound(self, capsys, tmp_path):
        path, doc = self.write_cert(capsys, tmp_path)
        assert doc["certificate"]["bound"] == pytest.approx(25.558, abs=1e-3)
        doc["certificate"]["bound"] = 20.0
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", "--input", str(path), "--no-timestamp")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["failed"] == ["claim"]
        assert report["claimed_bound"] == 20.0

    def test_certify_rejects_raised_c0(self, capsys, tmp_path):
        # c_0 + 2e-5 on the n=24 certificate: f peaks at 2e-5 at an interior critical point
        path = tmp_path / "cert.json"
        run(capsys, "lp-bound", "--n", "24", "--theta", "60deg", "--output", str(path),
            "--no-timestamp")
        cert = spherekern.LPCertificate.from_dict(json.loads(path.read_text())["certificate"])
        cert.coefficients[0] += 2e-5
        f1 = cert.coefficients @ spherekern.gegenbauer_table(cert.n / 2 - 1, cert.d_max, 1.0)
        cert.bound = f1 / cert.coefficients[0]
        path.write_text(json.dumps(cert.to_dict()))
        code, out, _ = run(capsys, "certify", "--input", str(path), "--no-timestamp")
        assert code == 1
        report = json.loads(out)
        assert report["failed"] == ["violation"]
        assert report["max_violation"] == pytest.approx(2e-5, abs=1e-7)

    def test_certify_honours_tol(self, capsys, tmp_path):
        path, doc = self.write_cert(capsys, tmp_path)
        doc["certificate"]["bound"] *= 1 - 1e-6
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", "--input", str(path), "--no-timestamp")
        assert code == 1 and json.loads(out)["tol"] == 1e-9
        code, out, _ = run(capsys, "certify", "--input", str(path), "--tol", "1e-5",
                           "--no-timestamp")
        assert code == 0
        assert json.loads(out)["tol"] == 1e-5

    @pytest.mark.parametrize("edit", [lambda c: c.pop("bound"),
                                      lambda c: c["coefficients"].pop(),
                                      lambda c: c["coefficients"].__setitem__(0, "x"),
                                      lambda c: c.update(theta=None)],
                             ids=["missing-bound", "short-coefficients", "string-coefficient", "null-theta"])
    def test_certify_malformed_document_is_usage_error(self, capsys, tmp_path, edit):
        path, doc = self.write_cert(capsys, tmp_path)
        edit(doc["certificate"])
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", "--input", str(path), "--no-timestamp")
        assert code == 2 and out == ""
        assert err.startswith("error: certificate")

    @pytest.mark.parametrize("command,text", [
        (["certify", "--input", "-"], "[1, 2]"),
        (["check-pd", "--n", "3", "--expansion", "-"], '"x"'),
    ], ids=["certify-list", "check-pd-string"])
    def test_non_object_json_is_usage_error(self, capsys, monkeypatch, command, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, *command, "--no-timestamp")
        assert code == 2 and out == ""
        assert err.startswith("error: -: expected a JSON object")

    @pytest.mark.parametrize("argv", [
        ["verify-addition", "--n", "6", "--r", "1", "--k", "2", "--samples", "0"],
        ["verify-addition", "--n", "6", "--r", "1", "--k", "2", "--samples", "-5"],
        ["check-invariance", "--kernel", "dot", "--n", "3", "--trials", "0"],
        ["verify-t1t2", "--n", "5", "--r", "2", "--samples", "-1"],
        ["musin", "--kernel", "dot", "--n", "4", "--r", "1", "--samples", "0"],
        ["check-pd", "--kernel", "dot", "--n", "3", "--trials", "0"],
        ["synth-bundle", "--n", "4", "--r", "1", "--trials", "0"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_empty_sample_is_usage_error(self, capsys, argv):
        # an empty sample proves nothing: no vacuous pass and no traceback
        code, out, err = run(capsys, *argv, "--no-timestamp")
        assert code == 2 and out == ""
        assert err.startswith("error: need at least one")

    def test_certify_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "--input", "/nonexistent/cert.json")
        assert code == 2
        assert "error" in err
