import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcorr
from nlcorr import DiscreteLaw, nested_sums_joint
from nlcorr import cli, spectra
from nlcorr.groups import GroupSystem, _verify_shadow
from nlcorr.report import canonical_json

REPORT_KEYS = {"version", "subcommand", "inputs_digest", "seed", "results", "tolerances"}


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestReports:
    def test_schema_and_determinism(self, capsys):
        argv = ["nested", "--m", "1,2,3"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert set(report) == REPORT_KEYS
        assert report["subcommand"] == "nested"
        assert report["seed"] is None  # nested draws no random numbers

        code2 = cli.run(argv)
        out2 = capsys.readouterr().out
        assert code2 == 0
        assert out2 == canonical_json(report) + "\n"  # byte-identical rerun

    def test_canonical_float_formatting(self):
        text = canonical_json({"x": 1.0 / 3.0, "n": 3, "b": True, "s": "a\"b"})
        assert "0.33333333333333331" in text
        assert '"s":"a\\"b"' in text

    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, report = run_json(capsys, ["nested", "--m", "1,2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == report


class TestSubcommands:
    def test_nested(self, capsys):
        code, report = run_json(capsys, ["nested", "--m", "1,2,3"])
        assert code == 0
        res = report["results"]
        assert res["lambda_max"] == pytest.approx(2.4051495785028638, abs=1e-9)
        assert res["R"][0][1] == pytest.approx(2 ** -0.5, abs=1e-12)

    def test_eig_csv(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.8\n0.8,1.0\n")
        code, report = run_json(capsys, ["eig", "--input", str(path)])
        assert code == 0
        assert report["results"]["lambda_min"] == pytest.approx(0.2, abs=1e-12)
        assert report["results"]["lambda_max"] == pytest.approx(1.8, abs=1e-12)

    def test_schur_check(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,0.8\n0.8,1.0\n")
        code, report = run_json(
            capsys, ["schur-check", "--input", str(path), "--power", "3"]
        )
        assert code == 0
        assert report["results"]["holds"] is True
        assert report["tolerances"]["containment"] == spectra.CONTRACTION_TOL

    def test_hermite(self, capsys):
        code, report = run_json(
            capsys, ["hermite", "--fn", "cube", "--order", "6", "--nodes", "32"]
        )
        assert code == 0
        coeffs = report["results"]["coeffs"]
        assert coeffs[0] == pytest.approx(3.0, abs=1e-10)
        assert coeffs[2] == pytest.approx(6 ** 0.5, abs=1e-10)

    def test_oracle_on_nested_joint(self, capsys, tmp_path):
        joint = nested_sums_joint([1, 2], DiscreteLaw.rademacher())
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(joint.to_json_dict()))
        code, report = run_json(capsys, ["oracle", "--joint", str(path)])
        assert code == 0
        assert report["results"]["rho_max"] == pytest.approx(1.7071067811865475, abs=1e-9)

    def test_oracle_offdiagonal_weights(self, capsys, tmp_path):
        joint = nested_sums_joint([1, 2], DiscreteLaw.rademacher())
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(joint.to_json_dict()))
        code, report = run_json(
            capsys, ["oracle", "--joint", str(path), "--weights", "offdiag"]
        )
        assert code == 0
        assert report["results"]["rho_max"] == pytest.approx(2 ** -0.5, abs=1e-9)
        assert report["results"]["rho_min"] == pytest.approx(-(2 ** -0.5), abs=1e-9)

    def test_ace(self, capsys, tmp_path, rng):
        data = rng.standard_normal((400, 2))
        path = tmp_path / "samples.csv"
        header = "x1,x2\n"
        path.write_text(header + "\n".join(f"{a},{b}" for a, b in data))
        code, report = run_json(
            capsys, ["ace", "--input", str(path), "--bins", "6"]
        )
        assert code == 0
        assert report["results"]["converged"] is True
        assert report["tolerances"] == {"ratio": 1e-9}

    def test_groups(self, capsys, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"groups": [[1, 2], [2, 3], [3, 4]]}))
        code, report = run_json(capsys, ["groups", "--input", str(path)])
        assert code == 0
        res = report["results"]
        assert res["extremes"]["rho_max"] == pytest.approx(1 + 2 ** -0.5, abs=1e-9)
        assert res["shadow_system"]["status"] in ("feasible", "infeasible", "unknown")

    def test_hoeffding(self, capsys, tmp_path):
        f0 = np.outer([-1.0, 1.0], [-1.0, 1.0]).ravel().tolist()
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"law": "rademacher", "m": 2, "f0": f0}))
        code, report = run_json(capsys, ["hoeffding", "--input", str(path)])
        assert code == 0
        res = report["results"]
        assert res["variance_components"] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert res["reconstruction_error"] <= 1e-12

    def test_sinlimit_cauchy(self, capsys):
        code, report = run_json(
            capsys, ["sinlimit", "--law", "cauchy", "--m", "1,2,3", "--t", "0.001"]
        )
        assert code == 0
        assert "method" not in report["results"]
        assert report["results"]["max_abs_gap"] <= 1e-3

    def test_sinlimit_exact_past_enumeration(self, capsys):
        m, t = [2, 7, 12, 25], 0.3
        code, report = run_json(
            capsys, ["sinlimit", "--law", "rademacher", "--m", "2,7,12,25", "--t", "0.3"]
        )
        assert code == 0
        res = report["results"]
        assert "std_error" not in res
        # Rademacher: alpha = cos t and E sin^2 S'_k = (1 - cos^k 2t)/2
        c, c2 = np.cos(t), np.cos(2 * t)
        want = [[c ** abs(b - a) * np.sqrt((1 - c2 ** min(a, b)) / (1 - c2 ** max(a, b)))
                 for b in m] for a in m]
        np.testing.assert_allclose(res["corr"], want, rtol=0, atol=1e-13)

    def test_sinlimit_tabulated_law_file(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"values": [0.0, 1.0], "probs": [0.7, 0.3]}))
        code, report = run_json(
            capsys, ["sinlimit", "--law", str(path), "--m", "1,3", "--t", "0.001"]
        )
        assert code == 0
        assert report["results"]["max_abs_gap"] <= 1e-3

    def test_sinlimit_curve(self, capsys, tmp_path):
        curve = tmp_path / "c.csv"
        code, _ = run_json(
            capsys,
            ["sinlimit", "--law", "rademacher", "--m", "1,2", "--t", "0.01",
             "--curve", str(curve)],
        )
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "t,max_abs_gap" and len(lines) == 21

    def test_stationary_ar1(self, capsys, tmp_path):
        curve = tmp_path / "density.csv"
        code, report = run_json(
            capsys,
            ["stationary", "--name", "ar1", "--beta", "0.5", "--curve", str(curve),
             "--crosscheck", "200"],
        )
        assert code == 0
        ext = report["results"]["extremes"]
        assert ext["sup"] == pytest.approx(3.0, abs=1e-12)
        assert ext["inf"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report["results"]["crosscheck"]["gap"] <= 0.05
        assert curve.read_text().startswith("omega,density")

    def test_stationary_named_kernels_via_json(self, capsys, tmp_path):
        ar1 = tmp_path / "ar1.json"
        ar1.write_text(json.dumps({"name": "ar1", "domain": "lattice",
                                   "params": {"beta": 0.25}}))
        code, report = run_json(capsys, ["stationary", "--input", str(ar1)])
        assert code == 0
        assert report["results"]["extremes"]["sup"] == pytest.approx(5.0 / 3.0, abs=1e-12)
        ou = tmp_path / "ou.json"
        ou.write_text(json.dumps({"name": "ou", "domain": "line"}))
        code, report = run_json(capsys, ["stationary", "--input", str(ou)])
        assert code == 0
        assert report["results"]["extremes"]["sup"] == pytest.approx(2.0, abs=1e-12)

    def test_hermite_piecewise_table_function(self, capsys, tmp_path):
        table = tmp_path / "ramp.csv"
        table.write_text("-12.0,-12.0\n12.0,12.0\n")  # identity over the node range
        code, report = run_json(
            capsys,
            ["hermite", "--fn", f"table:{table}", "--order", "4", "--nodes", "24"],
        )
        assert code == 0
        coeffs = report["results"]["coeffs"]
        assert coeffs[0] == pytest.approx(1.0, abs=1e-10)

    def test_stationary_table_json(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        vals = (0.5 ** np.arange(60)).tolist()
        path.write_text(json.dumps(
            {"domain": "lattice", "name": "table", "table": {"values": vals},
             "decay": {"C": 1.0, "r": 0.5}}
        ))
        code, report = run_json(capsys, ["stationary", "--input", str(path)])
        assert code == 0
        assert report["results"]["extremes"]["sup"] == pytest.approx(3.0, abs=1e-4)

    def test_kernel(self, capsys, tmp_path):
        curve = tmp_path / "nystrom.csv"
        code, report = run_json(
            capsys, ["kernel", "--n", "50,100,200", "--curve", str(curve)]
        )
        assert code == 0
        res = report["results"]
        assert res["within_cap"] is True
        assert res["lambda_max"][0] > res["lambda_max"][1] > res["lambda_max"][2]
        assert "richardson" not in res
        # 4 / j_{0,1}^2, with j_{0,1} the first zero of J_0
        assert res["continuum"] == 0.6916602761225796
        assert res["gap"] == [e - res["continuum"] for e in res["lambda_max"]]
        assert 1.6e-4 < res["gap"][0] < 1.7e-4 and 1.0e-5 < res["gap"][2] < 1.1e-5
        assert curve.exists()

    def test_copula_check(self, capsys, tmp_path):
        sigma = (np.full((3, 3), 0.5) + 0.5 * np.eye(3)).tolist()
        path = tmp_path / "design.json"
        path.write_text(json.dumps(
            {"sigma_z": sigma, "transforms": ["identity"] * 3, "n": 20_000, "seed": 4}
        ))
        code, report = run_json(
            capsys,
            ["copula-check", "--input", str(path), "--basis-size", "8",
             "--active", "0", "--ndirs", "60"],
        )
        assert code == 0
        assert report["seed"] == cli.DEFAULT_SEED
        res = report["results"]
        assert res["kappa0"] == pytest.approx(0.5, abs=1e-12)
        assert res["clears_kappa0_at_3se"] is True

    def test_sandwich(self, capsys, tmp_path):
        sigma = (np.full((3, 3), 0.5) + 0.5 * np.eye(3)).tolist()
        path = tmp_path / "sw.json"
        path.write_text(json.dumps(
            {"sigma_z": sigma, "transforms": ["identity"] * 3,
             "f": ["zero"] * 3, "f_hat": ["hermite2"] * 3, "n_mc": 50_000, "seed": 6}
        ))
        code, report = run_json(capsys, ["sandwich", "--input", str(path)])
        assert code == 0
        assert report["results"]["verdict"] == "holds"


# every option of every subcommand; a flag added or put back must be added here
SUBCOMMAND_OPTIONS = {
    "eig": {"--input", "--out"},
    "schur-check": {"--input", "--power", "--weights", "--out"},
    "hermite": {"--fn", "--order", "--nodes", "--out"},
    "oracle": {"--joint", "--weights", "--out"},
    "ace": {"--input", "--bins", "--weights", "--out"},
    "nested": {"--m", "--weights", "--out"},
    "groups": {"--input", "--weights", "--out"},
    "hoeffding": {"--input", "--out"},
    "sinlimit": {"--law", "--m", "--t", "--curve", "--out"},
    "stationary": {"--name", "--beta", "--input", "--crosscheck", "--curve", "--out"},
    "kernel": {"--n", "--curve", "--out"},
    "copula-check": {"--input", "--basis", "--basis-size", "--q", "--xi0", "--active",
                     "--ndirs", "--seed", "--out"},
    "sandwich": {"--input", "--nmc", "--seed", "--out"},
}


def test_subcommand_options_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == SUBCOMMAND_OPTIONS


class TestErrorPaths:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--tol", "1e-3"], ["--seed", "3"]])
    def test_removed_flags_usage_error(self, capsys, flag):
        assert cli.run(["nested", "--m", "1,2", *flag]) == 2
        assert cli.run(["schur-check", "--input", "s.csv", "--power", "2", *flag]) == 2

    def test_sinlimit_method_flag_removed(self, capsys):
        assert cli.run(["sinlimit", "--m", "1,2", "--t", "0.1", "--method", "mc"]) == 2

    @pytest.mark.parametrize(
        "groups, rho_min",
        [
            # math.comb(1200, l) products pass the float range; 601 shared labels
            pytest.param([list(range(1, 1201)), list(range(600, 1801))],
                         1 - 601 / (1200 * 1201) ** 0.5, id="1200-labels"),
            # ten groups with no common label, so the search runs past the shortcut
            pytest.param([[4, 6], [2, 6, 7, 8, 11, 12], [5, 7, 8], [1, 2, 4, 6, 7, 8], [9, 10],
                          [1, 3, 5, 9, 11, 12], [2, 3, 4, 5, 6, 8, 9], [1, 3], [1, 2, 6, 11, 12],
                          [5, 8, 10, 11, 12]], None, id="ten-groups"),
        ],
    )
    def test_valid_groups_past_former_limits_give_reports(self, tmp_path, groups, rho_min):
        path = tmp_path / "groups.json"
        path.write_text(json.dumps({"groups": groups}))
        src = str(Path(nlcorr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "nlcorr.cli", "groups", "--input", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        res = json.loads(proc.stdout)["results"]
        assert res["extremes"]["argmin_ell"] == 1
        if rho_min is not None:
            assert res["extremes"]["rho_min"] == pytest.approx(rho_min, abs=1e-12)
        shadow = res["shadow_system"]
        assert shadow["status"] == "feasible"
        witness = tuple(frozenset(s) for s in shadow["witness"])
        assert _verify_shadow(GroupSystem.from_lists(groups), witness)

    @pytest.mark.parametrize("subcommand", ["stationary", "groups"])
    def test_non_object_json_input(self, capsys, tmp_path, subcommand):
        path = tmp_path / "input.json"
        path.write_text("[1, 2, 3]")
        code, payload = run_json(capsys, [subcommand, "--input", str(path)])
        assert code == 1
        assert payload["error"]["type"] == "ValidationError"
        assert str(path) in payload["error"]["message"]

    def test_missing_input_domain_error(self, capsys, tmp_path):
        code, payload = run_json(capsys, ["eig", "--input", str(tmp_path / "no.csv")])
        assert code == 1
        assert payload["error"]["type"] == "ValidationError"

    def test_malformed_joint_domain_error(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text('{"supports": [[0, 1]], "atoms": []}')
        code, payload = run_json(capsys, ["oracle", "--joint", str(path)])
        assert code == 1
        assert "error" in payload

    def test_bad_m_list(self, capsys):
        code, payload = run_json(capsys, ["nested", "--m", "1,two"])
        assert code == 1
        assert payload["error"]["type"] == "ValidationError"

    def test_missing_json_key_reported_as_domain_error(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        path.write_text('{"transforms": ["identity"], "n": 10}')
        code, payload = run_json(capsys, ["copula-check", "--input", str(path)])
        assert code == 1
        assert "sigma_z" in payload["error"]["message"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_ace_non_finite_sample_named(self, capsys, tmp_path, bad):
        path = tmp_path / "samples.csv"
        path.write_text("x1,x2,x3\n" + "\n".join(
            f"{i},{bad if i == 3 else (i * 7) % 5},{i % 3}" for i in range(10)))
        code, out = run_json(capsys, ["ace", "--input", str(path)])
        assert code == 1
        assert out["error"]["type"] == "ValidationError"
        assert "column 1" in out["error"]["message"]

    def test_ace_bins_below_two(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x1,x2\n" + "\n".join(f"{i},{(i * 7) % 5}" for i in range(10)))
        code, out = run_json(capsys, ["ace", "--input", str(path), "--bins", "1"])
        assert code == 1
        assert out["error"]["type"] == "ValidationError"
        assert "bins" in out["error"]["message"]

    def test_ace_header_only_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x1,x2\n")
        src = str(Path(nlcorr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "nlcorr.cli", "ace", "--input", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ValidationError"
        assert str(path) in error["message"]

    @pytest.mark.parametrize(
        "subcommand, payload, field",
        [
            ("groups", {"groups": 5}, "groups"),
            ("hoeffding", {"law": "rademacher", "m": 3, "f0": [1.0, 2.0, 3.0]}, "f0 needs 8"),
            ("hoeffding", {"law": "rademacher", "m": -1, "f0": [1.0]}, "m must be"),
            ("stationary", {"name": "table", "domain": "lattice"}, "table.values"),
        ],
    )
    def test_malformed_field_named(self, capsys, tmp_path, subcommand, payload, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out = run_json(capsys, [subcommand, "--input", str(path)])
        assert code == 1
        assert out["error"]["type"] == "ValidationError"
        assert field in out["error"]["message"]


# Runs in a fresh interpreter: prints the loaded scipy modules after importing
# the package and after each subcommand, including the probit transform's
# normal cdf in `copula-check` and `sandwich`, which is numpy alone.
_IMPORT_BUDGET_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import nlcorr
from nlcorr import cli
matrix, sandwich, lattice, line, samples, copula, probit = sys.argv[1:8]
stages = {"import nlcorr": scipy_modules()}
for label, argv in (
        ("nested", ["nested", "--m", "1,2"]),
        ("eig", ["eig", "--input", matrix]),
        ("hermite", ["hermite", "--fn", "sin:1.0", "--nodes", "64"]),
        ("stationary ar1", ["stationary", "--name", "ar1", "--beta", "0.5",
                            "--crosscheck", "200"]),
        ("kernel", ["kernel", "--n", "50,100,200"]),
        ("stationary lattice", ["stationary", "--input", lattice, "--crosscheck", "50"]),
        ("stationary line", ["stationary", "--input", line]),
        ("ace", ["ace", "--input", samples, "--bins", "4"]),
        ("sinlimit", ["sinlimit", "--law", "rademacher", "--m", "2,7,12,25", "--t", "0.3"]),
        ("copula-check", ["copula-check", "--input", copula, "--ndirs", "20"]),
        ("copula-check probit", ["copula-check", "--input", probit, "--ndirs", "20"])):
    with redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    stages[label] = scipy_modules() if code == 0 else ["exit %d" % code]
rademacher = nlcorr.DiscreteLaw.rademacher()
nlcorr.nested_sums_joint([2, 7, 12, 18], rademacher)
stages["nested_sums_joint"] = scipy_modules()
nlcorr.group_sums_joint(
    nlcorr.GroupSystem.from_lists([[1, 2, 3], [3, 4, 5], [1, 5, 6]]), rademacher)
stages["group_sums_joint"] = scipy_modules()
line = nlcorr.spectral_density(nlcorr.table_kernel("line", [1.0, 0.5, 0.0]), [0.0])
out = io.StringIO()
with redirect_stdout(out):
    code = cli.run(["sandwich", "--input", sandwich])
print(json.dumps({"stages": stages, "line_density": float(line[0]),
                  "sandwich": [code, json.loads(out.getvalue())["results"]["verdict"]],
                  "loaded": scipy_modules()}))
"""


def test_trivial_subcommands_load_no_scipy(tmp_path):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1.0,0.5\n0.5,1.0\n")
    sandwich = tmp_path / "sw.json"
    sandwich.write_text(json.dumps(
        {"sigma_z": [[1.0, 0.5], [0.5, 1.0]], "transforms": ["probit_uniform"] * 2,
         "f": ["zero"] * 2, "f_hat": ["hermite2"] * 2, "n_mc": 20_000, "seed": 6}
    ))
    lattice = tmp_path / "lattice.json"
    lattice.write_text(json.dumps(
        {"domain": "lattice", "name": "table", "table": {"values": [1.0, 0.5, 0.25]}}))
    line = tmp_path / "line.json"
    line.write_text(json.dumps(
        {"domain": "line", "name": "table", "table": {"values": [1.0, 0.5, 0.0]}}))
    samples = tmp_path / "samples.csv"
    samples.write_text("x1,x2\n" + "\n".join(f"{i / 7},{(i * 3) % 11}" for i in range(40)))
    copula = tmp_path / "copula.json"
    copula.write_text(json.dumps(
        {"sigma_z": [[1.0, 0.5], [0.5, 1.0]], "transforms": ["identity", "exp"], "n": 2000}))
    probit = tmp_path / "probit.json"
    probit.write_text(json.dumps(
        {"sigma_z": [[1.0, 0.5], [0.5, 1.0]], "transforms": ["probit_uniform", "exp"],
         "n": 2000}))
    src = str(Path(nlcorr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, str(matrix), str(sandwich),
         str(lattice), str(line), str(samples), str(copula), str(probit)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["stages"] == {
        "import nlcorr": [], "nested": [], "eig": [], "hermite": [], "stationary ar1": [],
        "kernel": [], "stationary lattice": [], "stationary line": [], "ace": [],
        "sinlimit": [], "copula-check": [], "copula-check probit": [],
        "nested_sums_joint": [], "group_sums_joint": [],
    }
    # 2 * integral of the hat 1 - t/2 over [0, 2]
    assert result["line_density"] == pytest.approx(2.0, abs=1e-10)
    assert result["sandwich"] == [0, "holds"]
    assert result["loaded"] == []
