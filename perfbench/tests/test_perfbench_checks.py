"""The job checker and the run verdict."""

import json

import checks
import run
from workloads import WORKLOADS, Job


def _envelope(report):
    return json.dumps({"subcommand": "x", "report": report})


def _descent(values, residual=0.0, termination="MaxIters", consistent=True):
    return {
        "iterations": [{"value": v, "constraint_residual": residual} for v in values],
        "monotone": all(b <= a for a, b in zip(values, values[1:])),
        "kahler_consistent": consistent,
        "termination": termination,
    }


def test_eval_matches_reference_within_relative_tolerance():
    text = _envelope({"value": 2.0 * (1 + 5e-9)})
    assert checks.check("eval", {"value": 2.0}, 0, text).ok


def test_eval_flags_perturbed_value_as_wrong():
    text = _envelope({"value": 2.0 * (1 + 1e-6)})
    verdict = checks.check("eval", {"value": 2.0}, 0, text)
    assert not verdict.ok and verdict.wrong


def test_torsion_flags_perturbed_norm_and_missing_kind():
    want = {"norm_sq": {"rho": 1.5, "gamma": 0.25}}
    good = _envelope({"torsion": {"rho": {"norm_sq": 1.5}, "gamma": {"norm_sq": 0.25}}})
    assert checks.check("torsion", want, 0, good).ok
    bent = _envelope({"torsion": {"rho": {"norm_sq": 1.5 + 1e-5}, "gamma": {"norm_sq": 0.25}}})
    assert checks.check("torsion", want, 0, bent).wrong
    short = _envelope({"torsion": {"rho": {"norm_sq": 1.5}}})
    assert checks.check("torsion", want, 0, short).wrong


def test_nonzero_exit_is_a_wrong_output():
    for kind in ("eval", "torsion", "descend", "verify", "varcheck"):
        for code in (1, 2, 3, 4):
            verdict = checks.check(kind, {"value": 1.0, "norm_sq": {}}, code, "")
            assert not verdict.ok and verdict.wrong and f"exit {code}" in verdict.reason


def test_gate_exit_is_only_a_failed_job_where_the_job_allows_it():
    allowed = {"gate_may_fail": True}
    verdict = checks.check("verify", allowed, 5, _envelope({"pass": False}))
    assert not verdict.ok and not verdict.wrong
    assert checks.check("verify", allowed, 0, _envelope({"pass": True})).ok
    assert checks.check("verify", allowed, 5, _envelope({"pass": True})).wrong
    assert checks.check("verify", allowed, 0, _envelope({"pass": False})).wrong
    for kind in ("verify", "varcheck", "eval"):
        assert checks.check(kind, {}, 5, _envelope({"pass": False})).wrong


def test_descent_invariants():
    assert checks.check("descend", {}, 0, _envelope(_descent([3.0, 2.0, 1.0]))).ok
    for report in (_descent([3.0, 2.0, 2.5]),
                   _descent([3.0, 2.0], residual=1e-6),
                   _descent([3.0, 2.0], termination="Gave up"),
                   _descent([3.0, 2.0], consistent=False),
                   _descent([])):
        verdict = checks.check("descend", {}, 0, _envelope(report))
        assert not verdict.ok and verdict.wrong, report


def test_unreadable_report_is_wrong():
    assert checks.check("eval", {"value": 1.0}, 0, "not json").wrong


def test_zero_jobs_is_never_correct():
    class Empty:
        def jobs(self, index):
            return []

    cli, caches = run.import_program()
    passes, _ = run.measure(cli, caches, Empty(), count=1, seconds=1.0)
    _, attempted, failed, wrong = run.judge(passes)
    assert attempted == 0 and failed == 0 and wrong == 0
    assert not run.is_correct(attempted, wrong)
    assert run.is_correct(1, 0) and not run.is_correct(1, 1)


def test_a_run_does_a_fixed_number_of_passes():
    class Empty:
        PASS_S = 4.0

        def jobs(self, index):
            return []

    assert [run.pass_count(Empty(), s) for s in (0.5, 30.0)] == [1, 8]
    cli, caches = run.import_program()
    passes, _ = run.measure(cli, caches, Empty(), count=3, seconds=1.0)
    assert [p.index for p in passes] == [0, 1, 2]


def test_wrong_value_and_refused_argv_are_both_wrong():
    cli, caches = run.import_program()

    class One:
        def jobs(self, index):
            return [Job("eval", "kt", ["eval", "--catalog", "kodaira_thurston",
                                       "--functional", "H"], {"value": 123.25}),
                    Job("eval", "bad", ["eval", "--catalog", "no_such_model",
                                        "--functional", "H"], {"value": 1.0})]

    passes, _ = run.measure(cli, caches, One(), count=1, seconds=1.0)
    table, attempted, failed, wrong = run.judge(passes)
    assert attempted == 2 and failed == 2 and wrong == 2
    # H of the identity on Kodaira-Thurston is not 123.25
    assert table[0]["code"] == 0 and table[0]["wrong"]
    # an unknown catalog model is refused by validation
    assert table[1]["code"] == 3 and table[1]["wrong"]


def test_only_the_synthetic_verify_jobs_may_exit_at_the_gate():
    reference = json.loads(run.REFERENCE.read_text())
    for name, cls in WORKLOADS.items():
        for job in cls(1, reference, "unused").jobs(0):
            allowed = job.expect.get("gate_may_fail", False)
            assert allowed == (name == "highdim-models" and job.kind == "verify"), job.label
