"""Per-job correctness checks on the CLI's exit code and JSON report.

A job *fails* when it exits with another code than 0, when ``verify`` or
``varcheck`` report ``"pass": false``, when an ``eval`` or ``torsion`` value
differs from its recorded reference, or when a descent breaks one of its
invariants.  Every failure is also a *wrong output*, and a run that has one
is not correct, with one exception: a job whose expectation sets
``gate_may_fail`` may exit 5 with ``"pass": false``.  That is the program's
own tolerance gate reporting a residual above its threshold, a known defect
of ``verify`` on the synthetic n >= 4 models; it is counted in ``failed``
but leaves the run correct.  Everywhere else the baseline never exits 5.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

REL_TOL = 1e-8
CONSTRAINT_TOL = 1e-9
GATE_EXIT = 5  # the CLI's exit code for a failed tolerance gate
STOP_REASONS = ("GradientSmall", "PositivityBoundary", "MaxIters", "NumericalStall")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool
    reason: str


PASS = Verdict(True, False, "")


def close(got, want, tol=REL_TOL):
    """Relative agreement with the battery's convention: divide by max(1, |want|)."""
    return abs(got - want) <= tol * max(1.0, abs(want))


def _wrong(reason):
    return Verdict(False, True, reason)


def _check_eval(report, expect):
    if not close(report["value"], expect["value"]):
        return _wrong(f"value {report['value']!r} != reference {expect['value']!r}")
    return PASS


def _check_torsion(report, expect):
    got = {kind: part["norm_sq"] for kind, part in report["torsion"].items()}
    want = expect["norm_sq"]
    if sorted(got) != sorted(want):
        return _wrong(f"torsion kinds {sorted(got)} != reference {sorted(want)}")
    for kind, value in want.items():
        if not close(got[kind], value):
            return _wrong(f"{kind} norm_sq {got[kind]!r} != reference {value!r}")
    return PASS


def _check_pass(report, expect):
    if report.get("pass") is not True:
        return _wrong('"pass" is not true')
    return PASS


def _check_descend(report, expect):
    values = [it["value"] for it in report["iterations"]]
    if not values:
        return _wrong("descent recorded no iterations")
    if not report["monotone"] or any(b > a + 1e-15 for a, b in zip(values, values[1:])):
        return _wrong("descent trace is not monotone")
    residual = max(it["constraint_residual"] for it in report["iterations"])
    if residual > CONSTRAINT_TOL:
        return _wrong(f"constraint residual {residual:.3e} > {CONSTRAINT_TOL:.0e}")
    if report["kahler_consistent"] is not True:
        return _wrong("kahler_consistent is false")
    if report["termination"] not in STOP_REASONS:
        return _wrong(f"undocumented termination {report['termination']!r}")
    return PASS


_CHECKS = {
    "eval": _check_eval,
    "torsion": _check_torsion,
    "verify": _check_pass,
    "varcheck": _check_pass,
    "descend": _check_descend,
}


def check(kind, expect, code, text):
    """Verdict for one job from its exit code and stdout."""
    gated = code == GATE_EXIT and expect.get("gate_may_fail", False)
    if code != 0 and not gated:
        return _wrong(f"exit {code}")
    try:
        report = json.loads(text)["report"]
        verdict = _CHECKS[kind](report, expect)
    except (ValueError, KeyError, TypeError) as exc:
        return _wrong(f"unreadable report: {exc!r}")
    if not gated:
        return verdict
    if verdict.ok:
        return _wrong(f'exit {GATE_EXIT} with "pass": true')
    return Verdict(False, False, f"exit {GATE_EXIT}, {verdict.reason}")
