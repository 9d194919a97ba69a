"""Command line contract: exit codes, deterministic reports, CSV projections."""

import argparse
import json

import numpy as np
import pytest

from hermicone import cli, errors
from hermicone.cli import main
from hermicone.metric import HermitianMetric
from hermicone.model import catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_metric(tmp_path, h, name="metric.json"):
    path = tmp_path / name
    path.write_text(json.dumps(HermitianMetric(np.asarray(h, dtype=complex)).to_json_obj()))
    return str(path)


def test_catalog_listing(capsys):
    doc = run_json(capsys, "catalog")
    names = {entry["name"] for entry in doc["catalog"]}
    assert names == {"torus2", "torus3", "kodaira_thurston", "iwasawa"}
    iw = next(e for e in doc["catalog"] if e["name"] == "iwasawa")
    assert iw["n"] == 3 and iw["structure_terms"] == 1


def test_verify_passes_on_catalog_model(capsys):
    doc = run_json(capsys, "verify", "--catalog", "kodaira_thurston", "--metrics", "2")
    assert doc["subcommand"] == "verify"
    assert doc["report"]["pass"] is True
    assert doc["report"]["validation"]["integrable"] is True
    assert doc["report"]["metrics_checked"] == 3
    assert max(doc["report"]["identity_residuals"].values()) <= 1e-10
    assert len(doc["model_hash"]) == 64


def test_eval_frozen_value_and_predicates(capsys):
    doc = run_json(capsys, "eval", "--catalog", "kodaira_thurston",
                   "--functional", "F")
    assert doc["report"]["value"] == pytest.approx(0.25, abs=1e-12)
    assert doc["report"]["predicates"]["is_kahler"] is False
    assert doc["report"]["predicates"]["is_skt"] is True


def test_eval_reads_metric_file(tmp_path, capsys):
    path = write_metric(tmp_path, [[2.0, 0.0], [0.0, 2.0]])
    doc = run_json(capsys, "eval", "--catalog", "kodaira_thurston",
                   "--functional", "F", "--metric", path)
    # F is homogeneous of degree n = 2
    assert doc["report"]["value"] == pytest.approx(1.0, abs=1e-11)


def test_torsion_payload(capsys):
    doc = run_json(capsys, "torsion", "--catalog", "iwasawa")
    rep = doc["report"]["torsion"]
    assert set(rep) == {"gamma"}  # rho is gated off this model
    assert rep["gamma"]["norm_sq"] == pytest.approx(1.0, abs=1e-12)
    assert rep["gamma"]["residual_equation"] <= 1e-9
    assert rep["gamma"]["torsion"], "serialized torsion form should be nonempty"


def test_reports_are_byte_identical(capsys):
    _, first, _ = run(capsys, "eval", "--catalog", "iwasawa", "--functional", "G")
    _, second, _ = run(capsys, "eval", "--catalog", "iwasawa", "--functional", "G")
    assert first == second


def test_varcheck_json_and_determinism_across_threads(capsys):
    # the battery runs on one thread; each tuple is seeded on its own, so a
    # repeated run reproduces the report byte for byte
    args = ("varcheck", "--catalog", "torus2", "--tuples", "3")
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["report"]["pass"] is True
    assert doc["report"]["failures"] == 0
    assert max(doc["report"]["worst_rel_err"].values()) <= 1e-5


def test_varcheck_csv_projection(capsys):
    code, out, _ = run(capsys, "varcheck", "--catalog", "torus2",
                       "--tuples", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,detail,analytic,fd,abs_err,rel_err"
    assert len(lines) > 2
    assert all(line.count(",") >= 5 for line in lines[1:])


def test_descend_json_trace(capsys):
    doc = run_json(capsys, "descend", "--catalog", "kodaira_thurston",
                   "--functional", "F", "--steps", "3", "--normalize", "off")
    rep = doc["report"]
    assert rep["functional"] == "F"
    assert rep["monotone"] is True
    assert rep["initial_value"] == pytest.approx(0.25, abs=1e-12)
    assert len(rep["iterations"]) >= 2
    assert rep["iterations"][0]["value"] >= rep["iterations"][-1]["value"]


def test_descend_csv_trace(capsys):
    code, out, _ = run(capsys, "descend", "--catalog", "kodaira_thurston",
                       "--functional", "F", "--steps", "2", "--normalize", "off",
                       "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:4] == ["index", "value", "gradient_norm", "step_size"]
    assert "c0" in header and "c3" in header


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "eval", "--catalog", "torus2",
                       "--functional", "F", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["report"]["value"] == 0.0


def test_catalog_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "catalog.json"
    code, out, _ = run(capsys, "catalog", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == run(capsys, "catalog")[1]


def test_nu_file_errors(tmp_path, capsys):
    code, out, err = run(capsys, "eval", "--catalog", "kodaira_thurston",
                         "--functional", "Ftilde", "--nu", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert "cannot read nu file" in err
    nu = write_metric(tmp_path, np.eye(3), "nu.json")
    code, out, err = run(capsys, "descend", "--catalog", "kodaira_thurston",
                         "--functional", "Ftilde", "--nu", nu, "--steps", "1")
    assert code == 3 and out == ""
    assert "nu is 3 x 3 but the model has n = 2" in err


def test_exit_code_schema_errors(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "--functional", "F")
    assert code == 2 and "exactly one" in err
    code, _, _ = run(capsys, "eval", "--catalog", "torus2", "--model", "x.json",
                     "--functional", "F")
    assert code == 2
    code, _, _ = run(capsys, "eval", "--catalog", "torus2", "--functional", "F",
                     "--metric", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "eval", "--model", str(bad), "--functional", "F")
    assert code == 2
    code, _, err = run(capsys, "eval", "--catalog", "torus2", "--functional", "F",
                       "--format", "csv")
    assert code == 2 and "CSV" in err


def test_exit_code_validation_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "verify", "--catalog", "nope")
    assert code == 3
    # integrable but not unimodular: d(theta^1) = theta^1 ^ thetabar^1
    doc = {"name": "halfdensity", "n": 2,
           "terms": [{"i": 1, "kind": "mixed", "j": 1, "k": 1,
                      "re": 1.0, "im": 0.0}]}
    path = tmp_path / "hd.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--model", str(path))
    assert code == 3 and "does not vanish" in err
    # metric dimension mismatch is a validation failure too
    metric = write_metric(tmp_path, np.eye(3))
    code, _, _ = run(capsys, "eval", "--catalog", "torus2", "--functional", "F",
                     "--metric", metric)
    assert code == 3


@pytest.mark.parametrize("c,want_code,want_err", [
    (1.0, 3, "error: d*d has max residual 1.000e+00; "
             "d does not vanish on degree 5: max entry 1.000e+00\n"),
    (1e-13, 0, ""),
    (1.3e-12, 3, "error: d*d has max residual 1.300e-12; "
                 "d does not vanish on degree 5: max entry 1.300e-12\n"),
])
def test_d_squared_gate_exit_code(tmp_path, capsys, c, want_code, want_err):
    # d theta^3 = theta^1 ^ theta^2 and d theta^1 = c theta^1 ^ theta^3: d*d has entries c
    doc = {"name": "dd", "n": 3,
           "terms": [{"i": 3, "kind": "holo", "j": 1, "k": 2, "re": 1.0, "im": 0.0},
                     {"i": 1, "kind": "holo", "j": 1, "k": 3, "re": c, "im": 0.0}]}
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "eval", "--model", str(path), "--functional", "H")
    assert (code, err) == (want_code, want_err)


def test_exit_code_predicate_errors(capsys):
    code, _, _ = run(capsys, "eval", "--catalog", "iwasawa", "--functional", "F")
    assert code == 4
    code, _, _ = run(capsys, "torsion", "--catalog", "kodaira_thurston",
                     "--which", "gamma")
    assert code == 4
    code, _, _ = run(capsys, "eval", "--catalog", "kodaira_thurston",
                     "--functional", "G")
    assert code == 4


def test_exit_code_infeasible(capsys):
    code, _, err = run(capsys, "descend", "--catalog", "iwasawa",
                       "--functional", "F", "--steps", "1")
    assert code == 6
    assert "positive" in err


def test_descend_random_start_seeded(capsys):
    a = run_json(capsys, "descend", "--catalog", "torus2", "--functional", "F",
                 "--metric", "random", "--seed", "3", "--steps", "1",
                 "--normalize", "off")
    b = run_json(capsys, "descend", "--catalog", "torus2", "--functional", "F",
                 "--metric", "random", "--seed", "3", "--steps", "1",
                 "--normalize", "off")
    assert a == b
    assert a["report"]["termination"] == "GradientSmall"
    assert a["report"]["final_value"] == 0.0


@pytest.mark.parametrize("tuples", ["0", "-3"])
def test_varcheck_refuses_zero_tuples(capsys, tuples):
    code, out, err = run(capsys, "varcheck", "--catalog", "torus2", "--tuples", tuples)
    assert code == 2 and "--tuples" in err
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_or_overflowing_metric_exits_schema(tmp_path, capsys):
    nan_metric = write_metric(tmp_path, [[np.nan, 0.0], [0.0, 1.0]], "nan.json")
    code, _, err = run(capsys, "eval", "--catalog", "kodaira_thurston",
                       "--functional", "F", "--metric", nan_metric)
    assert code == 2 and "finite" in err
    big_metric = write_metric(tmp_path, [[1e308, 0.0], [0.0, 1.0]], "big.json")
    code, _, err = run(capsys, "eval", "--catalog", "kodaira_thurston",
                       "--functional", "F", "--metric", big_metric)
    assert code == 2 and "overflows" in err


@pytest.mark.parametrize("coeff", ["NaN", "Infinity", "1e400"])
def test_non_finite_model_coefficient_exits_schema(tmp_path, capsys, coeff):
    path = tmp_path / "model.json"
    path.write_text('{"name": "kt", "n": 2, "terms": [{"i": 2, "kind": "mixed", '
                    f'"j": 1, "k": 1, "re": {coeff}, "im": 0.0}}]}}')
    code, _, err = run(capsys, "eval", "--model", str(path), "--functional", "F")
    assert code == 2 and "finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_structure_coefficients_overflowing_the_gate_exit_schema(tmp_path, capsys):
    # Iwasawa with d theta^3 = 1e300 theta^1 ^ theta^2: the d*d products overflow
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "iwasawa_big", "n": 3, "terms": [
        {"i": 3, "kind": "holo", "j": 1, "k": 2, "re": 1e300, "im": 0.0}]}))
    code, out, err = run(capsys, "torsion", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == "error: structure coefficients up to |c| = 1.000e+300 overflow the products " \
        "of d*d\n"


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
@pytest.mark.parametrize("name,functional", [("kodaira_thurston", "F"), ("iwasawa", "G")])
@pytest.mark.parametrize("subcommand", ["eval", "torsion", "descend"])
def test_badly_scaled_metric_exits_schema(tmp_path, capsys, subcommand, name, functional,
                                          scale):
    # finite and positive, but lambda^(2n) or lambda^(-2n) leaves the floats, so a
    # Gram block (up to det(H)^-2) would overflow or underflow: refused up front
    path = write_metric(tmp_path, scale * np.eye(catalog(name).n), "scaled.json")
    extra = () if subcommand == "torsion" else ("--functional", functional)
    code, out, err = run(capsys, subcommand, "--catalog", name, *extra, "--metric", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Gram blocks" in err


def _refused_as_schema(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and argv[-2] in err
    assert out == ""


@pytest.mark.parametrize("metrics", ["0", "-3"])
def test_verify_refuses_no_random_metrics(capsys, metrics):
    # only the identity would be checked, yet reported as a pass
    _refused_as_schema(capsys, "verify", "--catalog", "torus2", "--metrics", metrics)


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_descend_refuses_no_steps(capsys, steps):
    _refused_as_schema(capsys, "descend", "--catalog", "torus2", "--functional", "F",
                       "--steps", steps)


@pytest.mark.parametrize("max_step", ["0", "-1", "nan"])
def test_descend_refuses_nonpositive_max_step(capsys, max_step):
    # no trial step would be tried, reported as a PositivityBoundary stop
    _refused_as_schema(capsys, "descend", "--catalog", "kodaira_thurston",
                       "--functional", "F", "--max-step", max_step)


@pytest.mark.parametrize("argv", [
    # eval would report F = 0.0 on Kodaira-Thurston (the true value is 0.25),
    # verify and varcheck a pass, descend a traceback
    ("eval", "--catalog", "kodaira_thurston", "--functional", "F", "--tol", "inf"),
    ("torsion", "--catalog", "kodaira_thurston", "--tol", "0"),
    ("verify", "--catalog", "torus2", "--tol", "inf"),
    ("varcheck", "--catalog", "torus2", "--tol", "nan"),
    ("descend", "--catalog", "kodaira_thurston", "--functional", "F", "--tol", "-1"),
])
def test_refuses_tol_not_finite_and_positive(capsys, argv):
    _refused_as_schema(capsys, *argv)


@pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
def test_descend_refuses_gradient_tol_out_of_range(capsys, value):
    # --gradient-tol inf stops at GradientSmall before the first step
    _refused_as_schema(capsys, "descend", "--catalog", "kodaira_thurston",
                       "--functional", "F", "--gradient-tol", value)


@pytest.mark.parametrize("argv", [
    ("verify", "--catalog", "torus2"),
    ("varcheck", "--catalog", "torus2"),
    ("descend", "--catalog", "kodaira_thurston", "--functional", "F", "--metric", "random"),
])
def test_refuses_negative_seed(capsys, argv):
    _refused_as_schema(capsys, *argv, "--seed", "-1")


def test_descend_accepts_zero_gradient_tol(capsys):
    code, _, err = run(capsys, "descend", "--catalog", "kodaira_thurston", "--functional",
                       "F", "--steps", "1", "--gradient-tol", "0")
    assert code == 0, err


def test_every_package_error_has_an_exit_code():
    # every HermiconeError the package raises leaves the CLI with a documented code
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.HermiconeError)
               and c is not errors.HermiconeError]
    assert classes
    codes = {c.__name__: cli._exit_code(c("probe")) for c in classes}
    assert all(code in range(2, 7) for code in codes.values()), codes


@pytest.mark.parametrize("name,functional", [("kodaira_thurston", "F"), ("iwasawa", "G")])
@pytest.mark.parametrize("subcommand,want", [
    ("eval", 5), ("torsion", 5), ("varcheck", 5), ("descend", 6)])
def test_tol_reaches_the_kernel_cut(capsys, subcommand, want, name, functional):
    # at --tol 0.2 Laplacian eigenvalues of these metrics sit in the kernel-ambiguity
    # window, so a tolerance dropped on its way to the bundles would exit 0 instead
    extra = {"eval": ["--functional", functional], "torsion": [],
             "varcheck": ["--tuples", "1"],
             "descend": ["--functional", functional, "--steps", "1"]}[subcommand]
    code, out, err = run(capsys, subcommand, "--catalog", name, *extra, "--tol", "0.2")
    assert code == want, err
    assert out == "" and err.startswith("error:")


# ----- one parser per process ------------------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name, functional in (("torus2", "F"), ("kodaira_thurston", "F"), ("iwasawa", "G")):
        run_json(capsys, "eval", "--catalog", name, "--functional", functional)
    run_json(capsys, "catalog")
    assert built.count("hermicone") == 1
    assert len(built) == len(set(built))  # and each subcommand parser once


def _eval_argv(*extra):
    return ("eval", "--catalog", "kodaira_thurston", "--functional", "F") + extra


def _first_calls(tmp_path):
    """(first call, second call) pairs: the second must not see the first."""
    varcheck = ("varcheck", "--catalog", "torus2", "--tuples", "1")
    return [
        (("eval", "--catalog", "kodaira_thurston"), _eval_argv()),  # argparse exits 2
        (_eval_argv("--out", str(tmp_path / "report.json")), _eval_argv()),
        (varcheck + ("--format", "csv"), varcheck),
        (_eval_argv("--tol", "1e-6"), _eval_argv()),
    ]


def test_no_state_leaks_between_main_calls(tmp_path, capsys):
    for first, second in _first_calls(tmp_path):
        cli._build_parser.cache_clear()
        alone = run(capsys, *second)
        cli._build_parser.cache_clear()
        try:
            main(list(first))
        except SystemExit as exc:
            assert exc.code == 2
        capsys.readouterr()
        after = run(capsys, *second)
        assert alone[0] == 0 and alone[1], (first, alone)
        assert after == alone, first
