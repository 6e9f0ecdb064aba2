"""Command-line interface: exit-code contract, tier resolution, output
formats, file output, and determinism. Everything runs in-process
through ``main(argv)`` except the smoke tests, which run the console-script
entry point declared in ``pyproject.toml`` as a separate process: once
from a launcher built from ``[project.scripts]``, and once from ``PATH``
when a script is installed."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ahmedquad import __version__
from ahmedquad.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
EVAL_CSV_HEADER = "integrand,tier,value,error_estimate,evaluations,converged"
VERIFY_CSV_HEADER = "key,lhs,rhs,residual,tolerance,passed,evaluations"
BENCH_CSV_HEADER = "method,parameter,tier,value,correct_digits,evaluations,wall_time_s"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("AHMEDQUAD_TIER", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_eval_ok(self, capsys):
        code, out, err = run(capsys, "eval", "ahmed_eq1")
        assert code == 0 and err == ""
        assert "value" in out

    def test_eval_unknown_integrand(self, capsys):
        code, out, err = run(capsys, "eval", "nosuch")
        assert code == 2
        assert err.startswith("error:")

    def test_eval_unreachable_tolerance(self, capsys):
        code, _, err = run(capsys, "eval", "ahmed_eq1", "--tol", "1e-30")
        assert code == 2 and "error:" in err

    def test_eval_flag_method_mismatch(self, capsys):
        code, _, err = run(
            capsys, "eval", "ahmed_eq1", "--method", "gauss-legendre", "--level", "6"
        )
        assert code == 2 and "does not apply" in err

    def test_eval_parameter_misuse(self, capsys):
        assert run(capsys, "eval", "eq3_kernel")[0] == 2  # missing --a
        assert run(capsys, "eval", "ahmed_eq1", "--a", "2.0")[0] == 2
        assert run(capsys, "eval", "i2_kernel_eq4", "--a", "2.0")[0] == 2
        assert run(capsys, "eval", "eq3_kernel", "--a", "0")[0] == 1  # domain

    @pytest.mark.parametrize("a", ["nan", "inf", "-inf", "1e400", "abc"])
    def test_eval_a_not_a_finite_number(self, capsys, a):
        code, out, err = run(capsys, "eval", "eq3_kernel", f"--a={a}")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_mode_on_a_1d_integrand_rejected(self, capsys):
        code, out, err = run(capsys, "eval", "i1_x", "--mode", "tensor")
        assert code == 2 and out == "" and "--mode" in err

    def test_simpson_tensor_rejected(self, capsys):
        code, _, err = run(
            capsys, "eval", "i2_kernel_eq4", "--method", "simpson", "--mode", "tensor"
        )
        assert code == 2 and "error:" in err

    def test_nodes_order_out_of_range(self, capsys):
        assert run(capsys, "nodes", "5000")[0] == 2
        assert run(capsys, "nodes", "1")[0] == 2

    def test_verify_ok_both_tiers(self, capsys):
        assert run(capsys, "verify")[0] == 0
        assert run(capsys, "verify", "--tier", "doubleword")[0] == 0

    def test_verify_injected_fault_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--inject-fault", "s8")
        assert code == 1
        assert "FAIL" in out and "FAILURES PRESENT" in out

    def test_verify_unreachable_tolerance(self, capsys):
        code, _, err = run(capsys, "verify", "--tol", "1e-30")
        assert code == 2 and "error:" in err

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["frobnicate"]) == 2
        capsys.readouterr()
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "eval" in out and "verify" in out and "bench" in out


class TestTierResolution:
    def test_env_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("AHMEDQUAD_TIER", "doubleword")
        _, out, _ = run(capsys, "eval", "i1_phi", "--format", "json")
        assert json.loads(out)["tier"] == "doubleword"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("AHMEDQUAD_TIER", "doubleword")
        _, out, _ = run(
            capsys, "eval", "i1_phi", "--tier", "native64", "--format", "json"
        )
        assert json.loads(out)["tier"] == "native64"

    def test_invalid_env(self, capsys, monkeypatch):
        monkeypatch.setenv("AHMEDQUAD_TIER", "quadword")
        code, _, err = run(capsys, "eval", "ahmed_eq1")
        assert code == 2 and "unknown tier" in err

    def test_default_is_native(self, capsys):
        _, out, _ = run(capsys, "eval", "ahmed_eq1", "--format", "json")
        assert json.loads(out)["tier"] == "native64"


class TestEvalFormats:
    def test_text(self, capsys):
        _, out, _ = run(capsys, "eval", "ahmed_eq1")
        lines = out.splitlines()
        keys = [line.split()[0] for line in lines]
        assert keys == [
            "integrand",
            "tier",
            "value",
            "error_estimate",
            "evaluations",
            "converged",
        ]
        assert lines[0].endswith("ahmed_eq1")

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "eval", "ahmed_eq1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == EVAL_CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "ahmed_eq1" and fields[5] == "True"
        assert abs(float(fields[1 + 1]) - 0.5140418958900708) < 1e-12

    def test_json(self, capsys):
        _, out, _ = run(capsys, "eval", "ahmed_eq1", "--format", "json")
        doc = json.loads(out)
        assert set(doc) == {
            "integrand",
            "tier",
            "value",
            "error_estimate",
            "evaluations",
            "converged",
        }
        assert doc["converged"] is True
        assert abs(float(doc["value"]) - 0.5140418958900708) < 1e-12

    def test_parametric_eval(self, capsys):
        code, out, _ = run(
            capsys, "eval", "eq3_kernel", "--a", "1.5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True and 0.0 < float(doc["value"]) < 2.0

    def test_two_dimensional_modes_agree(self, capsys):
        _, out_t, _ = run(
            capsys, "eval", "i2_kernel_eq4", "--mode", "tensor", "--format", "json"
        )
        _, out_i, _ = run(
            capsys, "eval", "i2_kernel_eq4", "--mode", "iterated", "--format", "json"
        )
        vt, vi = float(json.loads(out_t)["value"]), float(json.loads(out_i)["value"])
        assert abs(vt - vi) < 1e-10

    def test_engine_flags_respected(self, capsys):
        _, out, _ = run(
            capsys,
            "eval",
            "i1_phi",
            "--method",
            "gauss-legendre",
            "--order",
            "16",
            "--format",
            "json",
        )
        assert json.loads(out)["evaluations"] == 24  # order + embedded half rule

    @pytest.mark.parametrize(
        "flags, method", [(["--order", "32"], "gauss-legendre"), (["--max-depth", "20"], "simpson")]
    )
    def test_an_engine_flag_without_method_picks_its_method(self, capsys, flags, method):
        # with no --method, flags that one method alone takes select it
        code, out, err = run(capsys, "eval", "ahmed_eq1", *flags, "--format", "json")
        assert code == 0 and err == ""
        named = run(capsys, "eval", "ahmed_eq1", "--method", method, *flags, "--format", "json")
        assert out == named[1]
        default = run(capsys, "eval", "ahmed_eq1", "--format", "json")
        assert out != default[1]
        if method == "gauss-legendre":
            assert json.loads(out)["evaluations"] == 48  # GL(16) and GL(32)

    def test_flags_of_two_methods_without_method_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "ahmed_eq1", "--order", "32", "--level", "6")
        assert code == 2 and "does not apply" in err

    def test_gauss_legendre_tol_names_the_doubleword_default(self, capsys):
        # --tol makes the Gauss-Legendre order adaptive, so the flags can
        # name the engine that verify uses at DOUBLEWORD
        from ahmedquad import Tier, integrate_2d
        from ahmedquad.verify import default_config

        code, out, _ = run(
            capsys, "eval", "i2_kernel_eq4", "--tier", "doubleword",
            "--method", "gauss-legendre", "--order", "96", "--tol", "1e-26",
            "--format", "json",
        )
        assert code == 0
        want = integrate_2d("i2_kernel_eq4", config=default_config(Tier.DOUBLEWORD))
        assert json.loads(out) == {
            "integrand": "i2_kernel_eq4",
            "tier": "doubleword",
            "value": want.value.to_decimal_string(),
            "error_estimate": want.error_estimate.to_decimal_string(),
            "evaluations": want.evaluations,
            "converged": want.converged,
        }


class TestVerifyFormats:
    def test_text_lines(self, capsys):
        _, out, _ = run(capsys, "verify")
        lines = out.splitlines()
        assert len(lines) == 29  # 8 steps + 20 samples + summary
        for line in lines[:-1]:
            assert " PASS " in line
            assert "residual=" in line and "tolerance=" in line
            assert "evaluations=" in line
        assert lines[-1] == "8 chain steps, 20 samples: all checks passed"
        assert lines[0].startswith("S1")
        assert lines[8].startswith("eq3[a=")

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "verify", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == VERIFY_CSV_HEADER
        assert len(lines) == 29
        assert all(line.split(",")[5] == "True" for line in lines[1:])

    def test_json(self, capsys):
        _, out, _ = run(capsys, "verify", "--format", "json")
        doc = json.loads(out)
        assert doc["tier"] == "native64" and doc["all_passed"] is True
        assert [s["key"] for s in doc["steps"]] == [f"S{i}" for i in range(1, 9)]
        assert len(doc["eq3_samples"]) == 20
        assert all(s["passed"] for s in doc["steps"] + doc["eq3_samples"])

    def test_json_fault_reflected(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--inject-fault", "S3", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 1 and doc["all_passed"] is False
        flags = {s["key"]: s["passed"] for s in doc["steps"]}
        assert flags["S3"] is False
        assert all(v for k, v in flags.items() if k != "S3")

    def test_unknown_fault_key(self, capsys):
        code, _, err = run(capsys, "verify", "--inject-fault", "S11")
        assert code == 2 and "error:" in err

    def test_deterministic_json(self, capsys):
        _, first, _ = run(capsys, "verify", "--format", "json")
        _, second, _ = run(capsys, "verify", "--format", "json")
        assert first == second

    # ROADMAP aim 2: a change of design keeps the default native64 verify
    # output byte-stable, so its digests stay pinned
    NATIVE_VERIFY_SHA256 = {
        "csv": "b8f8ad94eeff35175ec0d4a490b7d5308a3a0913f766b0f5d56de06b7422e454",
        "json": "b8f0bc40e925b71c90a090def8c8e8366c22c820ed27d1085b6a0fbac5238d24",
    }

    @pytest.mark.parametrize("fmt", sorted(NATIVE_VERIFY_SHA256))
    def test_native_output_is_byte_stable(self, capsys, fmt):
        code, out, err = run(capsys, "verify", "--tier", "native64", "--format", fmt)
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.NATIVE_VERIFY_SHA256[fmt]

    # the doubleword output is pinned the same way: a refactor of the
    # double-word kernels must leave every printed digit where it was.
    # Re-pinned when pi and the atan and step tables became the nearest
    # pairs; every step's evaluation count and pass flag is unchanged.
    # Re-pinned when each registry integral came to run its proven
    # Gauss-Legendre rung alone: the chain takes 1,854 evaluations, not
    # 9,648, and every step and sample still passes. Re-pinned when each
    # fixed registry integral came to run its cheapest proven orders, one
    # per axis: the chain takes 1,387 evaluations, the S1-S3 and S5-S8
    # values move in their low digits (worst residual 3.4e-29, step
    # tolerance 1e-25), and S4 and the eq3 samples are unchanged.
    # Re-pinned when the eq3 lane came to take 1/D by one Newton step
    # (_dd_recip): nine of the 20 eq3 samples move in their low words and
    # stay within 0.1 units of 2^-104 relative of the same rule summed in
    # 50-digit arithmetic; every chain step, S4, evaluation count and pass
    # flag is unchanged. Re-pinned when the Gauss-Legendre nodes and
    # weights became the nearest pairs: S1, S2, S5-S8 and 18 of the eq3
    # samples move in their last printed digits or residuals (S1's
    # residual from 1.5e-33 to 0, S8's from 6.078e-30 to 6.095e-30), and
    # every evaluation count and pass flag is unchanged. Re-pinned when
    # atan, sqrt and the ahmed_eq1, i1_x, i2_x and i1_theta lanes came to
    # round each value once from integers at 2^-192: S1, S2, S4, S5, S7,
    # S8 and four eq3 samples move in their last printed digit or
    # residual (the worst residual, S2's, from 3.3921e-29 to 3.3927e-29),
    # and every evaluation count and pass flag is unchanged. Re-pinned
    # when the registry's 1-D integrals came to sum in integers at 2^-192
    # and round each result once: the i1_x and i1_theta values move by one
    # low-word ulp, so S1's right side moves in its last printed digit and
    # the S1-S3 residuals move (S1's from 2.3e-33 to 7.7e-34), and every
    # evaluation count and pass flag is unchanged. Re-pinned when the 2-D
    # registry integrals came to sum their integer bodies in integers at
    # 2^-192 and the eq3 lane to round its exact quotient once: the
    # shifted_kernel_eq6b value moves by one low-word ulp, so the S6 and
    # S7 residuals move in their fifth digit (S6's from 1.39499e-29 to
    # 1.39530e-29), and ten eq3 samples move in their low words (the
    # worst distance to the same rule summed at 420 bits from 0.135 to
    # 0.065 units of 2^-104), with every printed value, evaluation count
    # and pass flag unchanged. Re-pinned when eq3_kernel over its own
    # domain came to run its integer body on the integer lane: three eq3
    # samples move by one or two low-word ulps toward the same rule summed
    # at 420 bits (a = 6.367 from 0.0029 to 0.0000, a = 3.396 from 0.0490
    # to 0.0437 and a = 7.971 from 0.0182 to 0.0026 units of 2^-104), so
    # their residuals move (a = 3.396's from 3.85e-34 to 0), with every
    # printed value, evaluation count and pass flag unchanged. Re-pinned
    # when Real's +, - and * came to return the nearest pair to the exact
    # result: every left-hand value keeps its bits, S8's closed form moves
    # in its last printed digit (its residual from 6.0960e-30 to
    # 6.0990e-30), one eq3 sample's right side in its last printed digit,
    # and the residuals of S4 and ten eq3 samples in their low words (S4's
    # from 3.1e-33 to 0), with every evaluation count and pass flag
    # unchanged
    DOUBLEWORD_VERIFY_SHA256 = {
        "csv": "62b297fd86d2e64e5460b953cb566a16e5f427472be6b33324f41e70a6aeb61a",
        "json": "7d3185f17372f13dc9de868a44ac07e1de910ecc71dbe299dcbea1c89fe793c0",
    }

    @pytest.mark.parametrize("fmt", sorted(DOUBLEWORD_VERIFY_SHA256))
    def test_doubleword_output_is_byte_stable(self, capsys, fmt):
        code, out, err = run(capsys, "verify", "--tier", "doubleword", "--format", fmt)
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.DOUBLEWORD_VERIFY_SHA256[fmt]


class TestNodes:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "nodes", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Gauss-Legendre order 4 at native64"
        assert lines[1] == "index,node,weight"
        assert len(lines) == 6

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "nodes", "4", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "index,node,weight"
        assert len(lines) == 5
        nodes = [float(line.split(",")[1]) for line in lines[1:]]
        assert nodes == sorted(nodes)
        assert abs(nodes[0] + nodes[-1]) < 1e-15

    def test_json_doubleword(self, capsys):
        _, out, _ = run(
            capsys, "nodes", "8", "--tier", "doubleword", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["order"] == 8 and doc["tier"] == "doubleword"
        assert len(doc["nodes"]) == 8 and len(doc["weights"]) == 8
        assert sum(float(w) for w in doc["weights"]) == pytest.approx(2.0, abs=1e-15)


class TestBenchCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "bench")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 29

    def test_plot_dir(self, capsys, tmp_path):
        plot = tmp_path / "plots"
        code, _, _ = run(capsys, "bench", "--plot-dir", str(plot))
        assert code == 0
        names = sorted(p.name for p in plot.iterdir())
        assert names == [
            "gauss-legendre.native64.dat",
            "simpson.native64.dat",
            "tanh-sinh.native64.dat",
        ]

    def test_deterministic_modulo_wall_time(self, capsys):
        _, first, _ = run(capsys, "bench")
        _, second, _ = run(capsys, "bench")

        def strip(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert strip(first) == strip(second)


class TestOutputFile:
    def test_eval_output(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "eval", "ahmed_eq1", "--format", "json", "--output", str(target)
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["integrand"] == "ahmed_eq1"

    def test_verify_output(self, capsys, tmp_path):
        target = tmp_path / "chain.csv"
        code, out, _ = run(capsys, "verify", "--format", "csv", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == VERIFY_CSV_HEADER

    def test_unwritable_output(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run(
            capsys, "eval", "ahmed_eq1", "--output", str(blocker / "sub.txt")
        )
        assert code == 1 and "cannot write" in err


class TestVersion:
    def test_subcommand(self, capsys):
        code, out, _ = run(capsys, "version")
        assert code == 0
        assert out.startswith(f"ahmedquad {__version__}\n")
        assert "native64 (eps=2^-52)" in out
        assert "doubleword (eps=2^-104)" in out
        assert "products=exact-ratio" in out
        assert "two_prod=exact-ratio" in out
        assert "pi-self-check=ok" in out

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert f"ahmedquad {__version__}" in out
        assert "eps=2^-104" in out

    @staticmethod
    def _assert_version_run(proc):
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"ahmedquad {__version__}"), proc.stderr

    def test_installed_script(self, tmp_path):
        # Build the launcher that pip writes for the declared entry point,
        # so the check needs no install.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["version"] == __version__
        module, _, func = project["scripts"]["ahmedquad"].partition(":")
        launcher = tmp_path / "ahmedquad"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [str(launcher), "version"],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env=env,
        )
        self._assert_version_run(proc)

    @pytest.mark.skipif(
        shutil.which("ahmedquad") is None,
        reason="no ahmedquad console script on PATH",
    )
    def test_script_on_path(self):
        proc = subprocess.run(
            [shutil.which("ahmedquad"), "version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        self._assert_version_run(proc)
