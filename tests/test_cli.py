"""Command line contract: exit codes, deterministic reports, CSV projections."""

import argparse
import json
import math

import numpy as np
import pytest

from hermicone import cli, errors, hodge
from hermicone.cli import main
from hermicone.metric import HermitianMetric, OperatorBundle, random_metric
from hermicone.model import algebra_for, catalog, make_model, serialize_model
from hermicone.variation import BATTERY_THRESHOLD, ORACLE_THRESHOLD, VariationCheck


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
    # the ValidationReport fields but the flag d_squared_vanishes, which pass reads as the residual
    assert set(doc["report"]["validation"]) == {
        "integrable", "unimodular", "d_squared_max_residual", "integrability_residual",
        "unimodularity_residual", "messages"}
    assert doc["report"]["metrics_checked"] == 3
    assert max(doc["report"]["identity_residuals"].values()) <= 1e-10
    assert sorted(doc["report"]["three_space_residuals"], key=int) == [str(k) for k in range(5)]
    assert max(doc["report"]["three_space_residuals"].values()) <= 1e-10
    assert sorted(doc["report"]["basis_residuals"]) == ["image_closed", "kernel_closed",
                                                        "orthonormal", "rank_nullity"]
    assert max(doc["report"]["basis_residuals"].values()) <= 1e-10
    assert len(doc["model_hash"]) == 64


def test_verify_draws_at_most_one_chunk_before_its_first_audit(capsys, monkeypatch, tmp_path):
    # the seeded draws keep their order, so the report is that of drawing them all
    # first; each chunk is drawn when it is audited, so memory stays bounded in --metrics
    log = []

    def logged(name, func):
        return lambda *args, **kwargs: log.append(name) or func(*args, **kwargs)

    path = tmp_path / "iwasawa_x_t1.json"  # n = 4: 13 metrics a chunk
    path.write_text(serialize_model(make_model("iwasawa_x_t1", 4, [(3, "holo", 1, 2, -1.25)])))
    argv = ("verify", "--model", str(path), "--metrics", "20", "--seed", "4")
    before = run(capsys, *argv)
    monkeypatch.setattr(cli, "random_metric", logged("draw", cli.random_metric))
    monkeypatch.setattr(cli, "identity_suite", logged("audit", cli.identity_suite))
    assert run(capsys, *argv) == before
    chunk = cli.metrics_per_stack(4)
    assert log.index("audit") <= chunk
    assert log == ["draw"] * (chunk - 1) + ["audit"] + ["draw"] * (21 - chunk) + ["audit"]


def test_verify_chunk_rule():
    # every metric of a default job (--metrics 20) fits in one chunk up to n = 3; from
    # n = 5 on a second bundle would raise the job's peak memory past its bound
    chunks = {n: cli.metrics_per_stack(n) for n in range(1, 7)}
    assert all(chunks[n] >= 21 for n in (1, 2, 3))
    assert (chunks[3], chunks[4], chunks[5]) == (163, 13, 1)
    assert chunks[6] == 1
    for n, chunk in chunks.items():
        assert chunk == 1 or 64 * chunk * math.comb(2 * n, n) ** 2 <= cli.DENSE_BUDGET


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


@pytest.mark.parametrize("oracle_err,code,failures", [(2e-6, cli.EXIT_TOLERANCE, 1),
                                                       (5e-7, cli.EXIT_OK, 0)])
def test_varcheck_fails_each_row_at_its_own_threshold(capsys, monkeypatch, oracle_err, code,
                                                      failures):
    # a difference row at 2e-6 is within its 1e-5; an oracle row there is over its 1e-6
    rows = [VariationCheck("star", "tuple 0", 0.5, 0.5, 2e-6, BATTERY_THRESHOLD),
            VariationCheck("projector_oracle", "tuple 0", 0.5, 0.5, oracle_err,
                           ORACLE_THRESHOLD)]
    monkeypatch.setattr(cli, "variation_battery", lambda *a, **k: rows)
    got, out, _ = run(capsys, "varcheck", "--catalog", "torus2", "--tuples", "1")
    report = json.loads(out)["report"]
    assert (got, report["failures"], report["pass"]) == (code, failures, not failures)


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


def test_descend_weights_h_by_nu_as_eval_does(tmp_path, capsys):
    nu = write_metric(tmp_path, random_metric(2, np.random.default_rng(7)).h, "nu.json")
    src = ("--catalog", "kodaira_thurston", "--functional", "H", "--nu", nu)
    value = run_json(capsys, "eval", *src)["report"]["value"]
    rep = run_json(capsys, "descend", *src, "--steps", "1")["report"]
    assert value == pytest.approx(0.7854958528419484, rel=1e-12)
    assert rep["initial_value"] == value


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


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("content", [
    b"{", bytes(range(256))[::-1][:200], b"[" * 100000 + b"]" * 100000,
    b'[[{"re": ' + b"1" * 5000 + b', "im": 0}]]'],
    ids=("truncated", "not_utf8", "nested", "digits"))
@pytest.mark.parametrize("option", ["--metric", "--nu", "--model"])
def test_unreadable_input_files_exit_schema(tmp_path, capsys, option, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    source = () if option == "--model" else ("--catalog", "torus2")
    code, out, err = run(capsys, "eval", "--functional", "F", *source, option, str(path))
    assert (code, out) == (2, ""), err
    assert _one_error_line(err), err


@pytest.mark.parametrize("argv", [("eval", "--catalog", "torus2", "--functional", "F"),
                                  ("catalog",)], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_unwritable_out_exits_schema(tmp_path, capsys, argv, where):
    target = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, ""), err
    assert _one_error_line(err) and err.startswith("error: cannot write report: "), err


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


def test_metric_with_rounding_skew_at_a_large_scale_is_accepted(tmp_path, capsys):
    # inverting twice leaves a skew of 3.9e-12 on entries up to 9.8e3: 4e-16 of the
    # largest entry, rounding, not a non-Hermitian input
    h = np.linalg.inv(np.linalg.inv(random_metric(3, np.random.default_rng(0)).h)) * 1e3
    skew = np.max(np.abs(h - h.conj().T))
    assert 1e-12 < skew < 1e-15 * np.max(np.abs(h))
    values = [run_json(capsys, "eval", "--catalog", "iwasawa", "--functional", "G", "--metric",
                       write_metric(tmp_path, m, name))["report"]["value"]
              for m, name in ((h, "raw.json"), (0.5 * (h + h.conj().T), "sym.json"))]
    assert values[0] == pytest.approx(values[1], rel=1e-12)


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
    # a tolerance that is not finite and positive would pass every gate (--tol inf:
    # verify a pass, eval F even on the non-SKT Iwasawa) or none (--tol -1: descend
    # refuses its first real direction)
    ("eval", "--catalog", "kodaira_thurston", "--functional", "F", "--tol", "inf"),
    ("torsion", "--catalog", "kodaira_thurston", "--tol", "0"),
    ("verify", "--catalog", "torus2", "--tol", "inf"),
    ("descend", "--catalog", "kodaira_thurston", "--functional", "F", "--tol", "-1"),
])
def test_refuses_tol_not_finite_and_positive(capsys, argv):
    _refused_as_schema(capsys, *argv)


def test_varcheck_takes_no_tol(capsys):
    # nothing in the battery reads a tolerance, so the option is refused, not ignored
    with pytest.raises(SystemExit) as info:
        main(["varcheck", "--catalog", "torus2", "--tol", "nan"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol nan" in capsys.readouterr().err


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


def _random_metric_file(tmp_path, name):
    return write_metric(tmp_path, random_metric(catalog(name).n, np.random.default_rng(5)).h)


@pytest.mark.parametrize("name,functional", [("kodaira_thurston", "F"), ("iwasawa", "G")])
@pytest.mark.parametrize("subcommand,want,gate", [
    ("eval", 5, "residuals"), ("torsion", 5, "residuals"),
    ("descend", 6, "outside the constraint slice")])
def test_tol_reaches_the_residual_gates(tmp_path, capsys, subcommand, want, gate, name,
                                        functional):
    # at --tol 1e-30 the rounding residuals of the potential and of the start's slice
    # constraint fail their gates, so a tolerance dropped on its way would exit 0
    extra = {"eval": ["--functional", functional], "torsion": [],
             "descend": ["--functional", functional, "--steps", "1"]}[subcommand]
    code, out, err = run(capsys, subcommand, "--catalog", name, "--metric",
                         _random_metric_file(tmp_path, name), *extra, "--tol", "1e-30")
    assert code == want, err
    assert out == "" and err.startswith("error:") and gate in err


@pytest.mark.parametrize("name,functional", [("kodaira_thurston", "F"), ("iwasawa", "G")])
def test_tol_leaves_the_kernel_alone(tmp_path, capsys, name, functional):
    # the kernel's dimension is metric- and tolerance-free: where the gates pass, the
    # value is the same bits at every --tol (an eigenvalue cut at 0.2 would refuse)
    metric = _random_metric_file(tmp_path, name)
    values = {tol: run_json(capsys, "eval", "--catalog", name, "--functional", functional,
                            "--metric", metric, "--tol", tol)["report"]["value"]
              for tol in ("1e-6", "1e-9", "0.2")}
    assert len(set(values.values())) == 1, values


@pytest.mark.parametrize("eps", [1e-11, 1e-10, 1e-9])
@pytest.mark.parametrize("argv", [("eval", "--functional", "F"), ("torsion",),
                                  ("verify", "--metrics", "1")])
def test_rank_near_the_cut_exits_validation(tmp_path, capsys, eps, argv):
    # d theta^3 = theta^1 ^ thetabar^1, d theta^4 = eps theta^2 ^ thetabar^2: d's singular
    # values 1 and eps straddle the rank cut, where rounding would pick the cohomology
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "straddle", "n": 4, "terms": [
        {"i": 3, "kind": "mixed", "j": 1, "k": 1, "re": 1.0, "im": 0.0},
        {"i": 4, "kind": "mixed", "j": 2, "k": 2, "re": eps, "im": 0.0}]}))
    code, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith("error: d on degree ") and "rank cut 1e-10" in err


def _straddle_model(tmp_path, eps):
    path = tmp_path / f"straddle_{eps:g}.json"
    path.write_text(json.dumps({"name": "straddle", "n": 4, "terms": [
        {"i": 3, "kind": "mixed", "j": 1, "k": 1, "re": 1.0, "im": 0.0},
        {"i": 4, "kind": "mixed", "j": 2, "k": 2, "re": eps, "im": 0.0}]}))
    return str(path)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
def test_small_singular_values_above_the_cut_verify(tmp_path, capsys, eps):
    # the projectors come from d's bases, not from the Laplacian's eigenvalue eps^2
    code, out, err = run(capsys, "verify", "--model", _straddle_model(tmp_path, eps),
                         "--metrics", "1")
    assert code == 0, err
    assert json.loads(out)["report"]["pass"]


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_small_singular_values_above_the_cut_evaluate(tmp_path, capsys, eps):
    path = _straddle_model(tmp_path, eps)
    report = run_json(capsys, "eval", "--model", path, "--functional", "F")["report"]
    assert abs(report["value"] - 0.5) <= 1e-9
    # the projector variation P C (I - P) comes from d's bases too: no 1 / eps^2
    code, out, err = run(capsys, "varcheck", "--model", path, "--tuples", "2")
    assert code == 0, err
    assert max(row["rel_err"] for row in json.loads(out)["report"]["rows"]) <= 1e-9


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
        (_eval_argv(), _eval_argv("--tol", "1e-6")),
        (_eval_argv(), ("torsion", "--catalog", "kodaira_thurston")),
    ]


def test_no_state_leaks_between_main_calls(tmp_path, capsys):
    for first, second in _first_calls(tmp_path):
        cli._build_parser.cache_clear()
        cli._KEPT.clear()
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


# ----- the kept eval/torsion bundle ----------------------------------------------------------


def _count_bundles(monkeypatch):
    """The bundles the CLI builds from here on, one entry each."""
    built = []
    real = cli.bundle_for_algebra
    monkeypatch.setattr(cli, "bundle_for_algebra",
                        lambda *args: built.append(args) or real(*args))
    return built


def _kt_job(metric, *job):
    return job + ("--catalog", "kodaira_thurston", "--metric", metric)


def test_jobs_at_the_kept_key_reuse_its_bundle(tmp_path, capsys, monkeypatch):
    metric = _random_metric_file(tmp_path, "kodaira_thurston")
    jobs = [_kt_job(metric, "eval", "--functional", "F"),
            _kt_job(metric, "eval", "--functional", "Ftilde"),
            _kt_job(metric, "torsion")]
    fresh = []
    for argv in jobs:
        algebra_for.cache_clear()  # a new algebra: the job cannot find a kept bundle
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0], fresh
    algebra_for.cache_clear()
    built = _count_bundles(monkeypatch)
    assert [run(capsys, *argv) for argv in jobs] == fresh
    assert len(built) == 1 and len(cli._KEPT) == 1


@pytest.mark.parametrize("change", ["metric_ulp", "tol", "model", "verify", "algebra_cache"])
def test_a_job_off_the_kept_key_builds_its_own_bundle(tmp_path, capsys, monkeypatch, change):
    h = random_metric(2, np.random.default_rng(5)).h
    metric = write_metric(tmp_path, h)
    first = _kt_job(metric, "eval", "--functional", "F")
    second = {
        "metric_ulp": _kt_job(write_metric(tmp_path, h * (1 + 2 ** -52), "ulp.json"),
                              "eval", "--functional", "F"),
        "tol": first + ("--tol", "1e-6"),
        "model": ("eval", "--functional", "F", "--catalog", "torus2", "--metric", metric),
    }.get(change, first)
    assert run(capsys, *first)[0] == 0
    if change == "verify":
        assert run(capsys, "verify", "--catalog", "kodaira_thurston", "--metrics", "1")[0] == 0
        assert not cli._KEPT
    elif change == "algebra_cache":
        algebra_for.cache_clear()
    built = _count_bundles(monkeypatch)
    code, _, err = run(capsys, *second)
    assert code == 0, err
    assert len(built) == 1 and len(cli._KEPT) == 1


def test_a_refusal_repeats_on_the_kept_bundle(tmp_path, capsys, monkeypatch):
    argv = _kt_job(_random_metric_file(tmp_path, "kodaira_thurston"),
                   "torsion", "--which", "gamma")
    first = run(capsys, *argv)
    assert first[:2] == (cli.EXIT_PREDICATE, "") and _one_error_line(first[2]), first
    built = _count_bundles(monkeypatch)
    assert run(capsys, *argv) == first
    assert built == []


def test_an_eval_then_a_torsion_job_compute_the_pure_type_norms_once(tmp_path, capsys,
                                                                       monkeypatch):
    # eval --functional F reports rho's pure-type norms among its ingredients and torsion
    # reports them again: both read the entry hodge.pure_norm_sq keeps on the kept bundle
    stored = []

    class Recording(dict):
        def __setitem__(self, key, value):
            stored.append(key)
            super().__setitem__(key, value)

    init = OperatorBundle.__init__
    monkeypatch.setattr(OperatorBundle, "__init__", lambda self, *args: setattr(
        self, "_memo", Recording()) or init(self, *args))
    cli._KEPT.clear()
    metric = _random_metric_file(tmp_path, "kodaira_thurston")
    evaluated = run_json(capsys, *_kt_job(metric, "eval", "--functional", "F"))
    reported = run_json(capsys, *_kt_job(metric, "torsion"))["report"]["torsion"]["rho"]
    assert len(cli._KEPT) == 1
    assert [key for fn, key in stored if fn is hodge.pure_norm_sq.__wrapped__] == [("rho",)]
    pure = {key[len("norm_sq_"):]: v for key, v in evaluated["report"]["ingredients"].items()
            if key.startswith("norm_sq_")}
    assert reported["pure_part_norm_sq"] and reported["pure_part_norm_sq"].items() <= pure.items()


@pytest.mark.parametrize("argv,hook", [
    (("verify", "--catalog", "torus2", "--metrics", "1"), "validate_model"),
    (("varcheck", "--catalog", "torus2", "--tuples", "1"), "variation_battery"),
    (("descend", "--catalog", "kodaira_thurston", "--functional", "F", "--steps", "1"),
     "descend"),
    (("catalog",), "catalog_names"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v)
def test_other_subcommands_drop_the_kept_bundle_when_they_start(capsys, monkeypatch, argv,
                                                                hook):
    run_json(capsys, *_eval_argv())
    assert len(cli._KEPT) == 1
    seen = []
    real = getattr(cli, hook)
    monkeypatch.setattr(cli, hook, lambda *a, **k: seen.append(dict(cli._KEPT)) or real(*a, **k))
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert seen and seen[0] == {} and not cli._KEPT


# ----- verify's audits in turn; no job reads the spectral diagnostic ------------------------


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_the_suite_error_surfaces_before_the_walk_error(capsys, monkeypatch):
    argv = ("verify", "--catalog", "iwasawa", "--metrics", "1")
    monkeypatch.setattr(cli, "three_space_residuals",
                        _raise(errors.ToleranceFailure("walk failed")))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_TOLERANCE, "")
    assert "walk failed" in err
    monkeypatch.setattr(cli, "identity_suite", _raise(errors.DimensionMismatch("suite failed")))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert "suite failed" in err and "walk failed" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--catalog", "iwasawa", "--metrics", "1"),
    ("torsion", "--catalog", "iwasawa"),
    ("eval", "--catalog", "kodaira_thurston", "--functional", "Ftilde"),
    ("eval", "--catalog", "iwasawa", "--functional", "G"),
    ("varcheck", "--catalog", "iwasawa", "--tuples", "2"),
    ("descend", "--catalog", "iwasawa", "--functional", "G", "--steps", "2"),
], ids=lambda argv: argv[0])
def test_no_job_reads_the_spectral_diagnostic(argv, capsys, monkeypatch):
    called = []

    def spectral(bundle, which, key):
        called.append((which, key))
        raise AssertionError("spectral called")

    monkeypatch.setattr(OperatorBundle, "spectral", spectral)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert called == []
