"""Batch command line: model verification, torsion and energy reports, descent runs.

Reports are deterministic JSON (sorted keys, no timestamps); CSV is a
projection offered for the variation battery and descent traces.  Exit
codes separate failure classes: 2 malformed or unreadable input documents and
unwritable reports, 3 model validation, 4 metric predicate failures, 5 tolerance
trouble or failed verification thresholds, 6 infeasible descents.

In one process, an eval or torsion job at the algebra, metric bits and --tol of the
last such job reuses that job's operator bundle, with everything memoized on it; its
report is byte-identical to a fresh process's.  A job of any other subcommand drops
the kept bundle when it starts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .errors import (DegreeOutOfRange, DimensionMismatch, DirectionNotAdmissible,
                     EmptyCone, InfeasibleStart, ModelInvalid, ModelNotUnimodular,
                     NotBalanced, NotPositive, NotSKT, SchemaError, StepTooLarge,
                     ToleranceFailure, UnknownCatalogName)
from .exterior import DENSE_BUDGET, metrics_per_stack
from .functionals import energy, evaluate
from .hodge import (TORSIONS, basis_residuals, predicates, pure_norm_sq, three_space_residuals,
                    torsion)
from .metric import (DEFAULT_TOL, HermitianMetric, bundle_for_algebra, identity_suite,
                     random_metric)
from .model import (algebra_for, catalog, catalog_names, parse_model,
                    require_valid, serialize_model, validate_model)
from .optimizer import descend
from .variation import BATTERY_THRESHOLD, ORACLE_THRESHOLD, variation_battery

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_PREDICATE = 4
EXIT_TOLERANCE = 5
EXIT_INFEASIBLE = 6

IDENTITY_THRESHOLD = 1e-10

_FUNCTIONALS = {"F": "F", "G": "G", "H": "H", "Ftilde": "F_tilde"}


class _CliFailure(Exception):
    """Carries an exit code and a message for the top-level handler."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# The size budget DENSE_BUDGET (exterior.py) admits every job at n <= 6, descend to
# n = 7, eval and torsion to n = 8 (eval G and H to n = 9), and refuses verify and
# varcheck from n = 7 on.  Both reach the middle total degree, N = C(2n, n), 3432 at
# n = 7.  varcheck holds the N x N projectors of its projector derivative.  verify,
# one degree at a time, forms no N x N projector, Gram or codifferential, but it keeps
# the N x r basis of ker d(n) and forms its r x N factor B^H G, r up to N (r = N on the
# flat torus), and the SVD of d(n) behind the basis, whose right factor is up to N x N.
# Both jobs stack metrics on one bundle, at most c = exterior.metrics_per_stack(n) =
# max(1, DENSE_BUDGET // (64 N^2)) of them, so that c times 64 N^2 entries, a bound on
# what a job keeps and forms per metric, stays within the budget: 163 metrics at n = 3,
# 13 at n = 4 and one from n = 5 on, where a second bundle would raise the job's peak
# memory.  verify audits its metrics in chunks of c.  Per metric its stack keeps the
# Gram blocks, their inverses, the star, trace and d^* blocks, about 5 N^2 entries
# (n = 5: 5.2 MB, with 0.8 MB more for the powers of omega), and the walk forms r x N
# factors and N x r columns per degree.  varcheck differences a tuple on one bundle over
# min(4, c) of its four stencil metrics (variation.stencil_stack): per metric the
# blocks of the tuple's bidegree and degree, the total-degree Gram, the three N x N
# projectors of its Decomposition and the values it reads, the "d" codifferential and
# Laplacian and the harmonic projector.  A tuple's differences at the middle degree
# peaked at 19-20 N^2 entries with one metric per bundle and 40-43 N^2 with four
# (tracemalloc; n = 4: 1.5 -> 3.2 MiB), within 64 N^2 per metric; from n = 5 on the
# stencil keeps one metric per bundle, so an n = 5 or 6 varcheck holds what it held.


def dense_side(subcommand, n, functional=None):
    """Side of the largest dense matrix a subcommand forms at dimension n, from n and
    the subcommand (with its --functional) alone.

    The metric predicates read bidegrees (1,1) to (2,2) and (n-1, n-1); torsion
    rho the total degrees 1..4; torsion Gamma the bidegrees (n-1, q), q >= n-4.
    verify runs every total degree and varcheck draws them at random; descent
    variations reach the mirrored bidegrees, at most the widest one.
    """
    def bideg(p, q):
        return math.comb(n, p) * math.comb(n, q)

    if subcommand in ("verify", "varcheck"):
        return math.comb(2 * n, n)
    reads = energy(_FUNCTIONALS[functional]).torsion if functional else None
    rho = math.comb(2 * n, min(4, n))
    if subcommand == "descend":
        widest = bideg(n // 2, (n + 1) // 2)
        return max(widest, rho) if reads == "rho" else widest
    predicates = max(bideg(1, 1), bideg(2, 2))
    gamma = max(bideg(n - 1, q) for q in range(max(0, n - 4), n + 1))
    if subcommand == "torsion":
        return max(predicates, rho, gamma)
    return max(predicates, {"rho": rho, "gamma": gamma, None: 0}[reads])


def _require_budget(args, n):
    """Refuse (exit 2), before any algebra is built, a job over DENSE_BUDGET."""
    functional = getattr(args, "functional", None)
    what = f"{args.subcommand} {functional}" if functional else args.subcommand
    if 4 ** min(n, 32) > DENSE_BUDGET:  # the form vector alone; no big numbers for a huge n
        raise _CliFailure(EXIT_SCHEMA, f"{what} at n = {n} needs the 4^{n}-entry coefficient "
                                       f"vector of a form; the budget is {DENSE_BUDGET} entries")
    side = dense_side(args.subcommand, n, functional)
    if side * side > DENSE_BUDGET:
        raise _CliFailure(EXIT_SCHEMA, f"{what} at n = {n} needs a dense {side} x {side} "
                                       f"matrix, {side * side} entries; the budget is "
                                       f"{DENSE_BUDGET} entries")


def _load_model(args):
    if bool(args.model) == bool(args.catalog):
        raise _CliFailure(EXIT_SCHEMA,
                          "exactly one of --model FILE or --catalog NAME is required")
    if args.catalog:
        model = catalog(args.catalog)
        source = args.catalog
    else:
        try:
            with open(args.model, "r", encoding="utf-8") as fh:
                model = parse_model(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliFailure(EXIT_SCHEMA, f"cannot read model file: {exc}") from exc
        source = model.name
    _require_budget(args, model.n)
    require_valid(model)
    return model, source


def _load_metric(args, n, option="metric"):
    """The metric named by --metric or --nu: "identity" or a JSON file."""
    spec = getattr(args, option, None) or "identity"
    if spec == "identity":
        return HermitianMetric.identity(n)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            metric = HermitianMetric.from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliFailure(EXIT_SCHEMA, f"cannot read {option} file: {exc}") from exc
    if metric.n != n:
        raise DimensionMismatch(
            f"{option} is {metric.n} x {metric.n} but the model has n = {n}")
    return metric.check()


# option -> (its range, a test); zero requested work is never a pass, and --tol inf
# would pass every predicate and every residual gate
_RANGES = {
    "metrics": ("at least 1", lambda v: v >= 1),
    "tuples": ("at least 1", lambda v: v >= 1),
    "steps": ("at least 1", lambda v: v >= 1),
    "tol": ("finite and positive", lambda v: math.isfinite(v) and v > 0),
    "gradient_tol": ("finite and non-negative", lambda v: math.isfinite(v) and v >= 0),
    "max_step": ("positive", lambda v: v > 0),
    "seed": ("non-negative", lambda v: v >= 0),
}


def _require_ranges(args):
    """Refuse, naming the option, a numeric option of this subcommand out of its range."""
    for name, (want, ok) in _RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            option = "--" + name.replace("_", "-")
            raise _CliFailure(EXIT_SCHEMA, f"{option} must be {want}, got {value}")


def _model_hash(model):
    return hashlib.sha256(serialize_model(model).encode("utf-8")).hexdigest()


def _envelope(subcommand, model, source, seed, tolerances, payload):
    return {
        "subcommand": subcommand,
        "model": source,
        "model_hash": _model_hash(model),
        "seed": seed,
        "tolerances": tolerances,
        "report": payload,
    }


def _write(args, text):
    """Write a report to the --out file, or to stdout without one."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliFailure(EXIT_SCHEMA, f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _write(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_csv(args, fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write(args, buf.getvalue())


# The last eval or torsion job's bundle under (algebra, metric bits, --tol): one slot,
# emptied when a job of any other subcommand starts.  The key holds the algebra, not
# the model, so dropping algebra_for's cache ends reuse as a new process would.
_KEPT = {}


def _metric_job(args):
    """What eval and torsion share: the model and its source, the bundle at --metric
    and --tol (the kept one at the same key), and the report's metric and predicates."""
    model, source = _load_model(args)
    alg = algebra_for(model)
    metric = _load_metric(args, alg.n)
    key = (alg, metric.h.tobytes(), args.tol)
    if key not in _KEPT:
        _KEPT.clear()
        _KEPT[key] = bundle_for_algebra(alg, metric, args.tol)
    bundle = _KEPT[key]
    predicates_payload = {k: v for k, v in asdict(predicates(bundle)).items() if k != "tol"}
    return model, source, bundle, {"metric": metric.to_json_obj(),
                                   "predicates": predicates_payload}


# ----- subcommands ---------------------------------------------------------------------


def _three_space_walk(bundle):
    """The worst three-space residual of each total degree 0..2n."""
    return [max(three_space_residuals(bundle, k).values()) for k in range(2 * bundle.n + 1)]


def _cmd_verify(args):
    model, source = _load_model(args)
    alg = algebra_for(model)
    n = alg.n
    report = validate_model(model)
    rng = np.random.default_rng(args.seed)
    count, chunk = args.metrics + 1, metrics_per_stack(n)

    families = {}
    three_space = {}
    for start in range(0, count, chunk):
        # each chunk of metrics is drawn when it is audited, in the seeded order; a
        # chunk of one is a bundle over that metric alone
        hs = [random_metric(n, rng).h if i else HermitianMetric.identity(n).h
              for i in range(start, min(start + chunk, count))]
        bundle = bundle_for_algebra(alg, HermitianMetric(np.stack(hs) if hs[1:] else hs[0]))
        suite, walk = identity_suite(bundle, seed=args.seed + start), _three_space_walk(bundle)
        for key, val in suite.items():
            families[key] = max(families.get(key, 0.0), val)
        for k, worst in enumerate(walk):
            three_space[str(k)] = max(three_space.get(str(k), 0.0), worst)

    bases = basis_residuals(alg)
    passed = (report.integrable and report.unimodular
              and report.d_squared_max_residual <= args.tol
              and all(v <= args.tol for v in families.values())
              and all(v <= args.tol for v in three_space.values())
              and all(v <= args.tol for v in bases.values()))
    payload = {
        "validation": {k: v for k, v in asdict(report).items() if k != "d_squared_vanishes"},
        "metrics_checked": args.metrics + 1,
        "identity_residuals": families,
        "three_space_residuals": three_space,
        "basis_residuals": bases,
        "threshold": args.tol,
        "pass": passed,
    }
    _emit_json(args, _envelope("verify", model, source, args.seed,
                               {"residual_threshold": args.tol}, payload))
    return EXIT_OK if passed else EXIT_TOLERANCE


def _torsion_payload(bundle, report):
    payload = {
        "kind": report.kind,
        "norm_sq": report.norm_sq,
        "residual_equation": report.residual_equation,
        "residual_kernel": report.residual_kernel,
        "source_norm_sq": float(bundle.l2_inner(report.source, report.source).real),
        "harmonic_source_norm_sq": float(
            bundle.l2_inner(report.harmonic_source, report.harmonic_source).real),
        "torsion": report.torsion.to_entries(),
    }
    pure = pure_norm_sq(bundle, report.kind)
    if pure:
        support = report.torsion.bidegrees()
        payload["pure_part_norm_sq"] = {f"{p}{q}": v for (p, q), v in pure.items()
                                        if (p, q) in support}
    return payload


def _cmd_torsion(args):
    model, source, bundle, payload = _metric_job(args)
    want = args.which
    reports = {}
    for kind, cone in TORSIONS.items():
        if want in (kind, "both"):
            try:
                reports[kind] = _torsion_payload(bundle, torsion(bundle, kind))
            except cone.error:
                if want == kind:
                    raise
    if not reports:
        raise _CliFailure(EXIT_PREDICATE,
                          "metric is neither pluriclosed nor balanced at this tolerance")
    payload["torsion"] = reports
    _emit_json(args, _envelope("torsion", model, source, args.seed,
                               {"tol": args.tol}, payload))
    return EXIT_OK


def _cmd_eval(args):
    model, source, bundle, payload = _metric_job(args)
    # H's weight is the bundle of --nu at --tol, evaluate's default
    result = evaluate(bundle, _FUNCTIONALS[args.functional], _load_metric(args, bundle.n, "nu"))
    payload.update({
        "functional": args.functional,
        "value": result.value,
        "ingredients": {k: float(v) for k, v in result.ingredients.items()},
    })
    _emit_json(args, _envelope("eval", model, source, args.seed,
                               {"tol": args.tol}, payload))
    return EXIT_OK


def _cmd_varcheck(args):
    model, source = _load_model(args)
    rows = variation_battery(model, seed=args.seed, tuples=args.tuples)
    failures = [r for r in rows if r.rel_err > r.threshold]
    worst = {}
    for r in rows:
        worst[r.name] = max(worst.get(r.name, 0.0), r.rel_err)
    table = [r.to_row() for r in rows]
    if args.format == "csv":
        _emit_csv(args, list(table[0]), table)
    else:
        payload = {
            "tuples": args.tuples,
            "rows": table,
            "worst_rel_err": worst,
            "failures": len(failures),
            "pass": not failures,
        }
        _emit_json(args, _envelope("varcheck", model, source, args.seed,
                                   {"battery_threshold": BATTERY_THRESHOLD,
                                    "oracle_threshold": ORACLE_THRESHOLD}, payload))
    return EXIT_OK if not failures else EXIT_TOLERANCE


def _cmd_descend(args):
    model, source = _load_model(args)
    alg = algebra_for(model)
    functional = _FUNCTIONALS[args.functional]
    start = "random" if args.metric == "random" else _load_metric(args, alg.n)
    normalize = {"auto": None, "on": True, "off": False}[args.normalize]
    nu = _load_metric(args, alg.n, "nu")
    trace = descend(model, functional=functional, start=start, nu=nu,
                    steps=args.steps, seed=args.seed, tol=args.tol,
                    gradient_tol=args.gradient_tol, normalize=normalize,
                    max_step=args.max_step)
    if args.format == "csv":
        rows = trace.csv_rows()
        fieldnames = list(rows[0].keys()) if rows else []
        _emit_csv(args, fieldnames, rows)
    else:
        _emit_json(args, _envelope("descend", model, source, args.seed,
                                   {"tol": args.tol, "gradient_tol": args.gradient_tol},
                                   trace.to_jsonable()))
    return EXIT_OK


def _cmd_catalog(args):
    payload = []
    for name in catalog_names():
        model = catalog(name)
        payload.append({
            "name": name,
            "n": model.n,
            "structure_terms": len(model.terms),
        })
    _emit_json(args, {"catalog": payload})
    return EXIT_OK


# ----- argument parsing ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first call and shared by every later one.

    parse_args returns a fresh namespace each call and every default is
    immutable, so no call sees state left by another.
    """
    parser = argparse.ArgumentParser(
        prog="hermicone",
        description="Torsion energies and metric descent on invariant-form models.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, metric=True, tol=DEFAULT_TOL):
        p.add_argument("--model", help="path to a model JSON document")
        p.add_argument("--catalog", help="name of a built-in model")
        if metric:
            p.add_argument("--metric", default="identity",
                           help='metric JSON file or "identity"')
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol,
                           help="predicate tolerance and the potentials' residual gate; for "
                                "verify the identity residual threshold (default %(default)g)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="model validation plus operator identity residuals")
    add_common(p, metric=False, tol=IDENTITY_THRESHOLD)
    p.add_argument("--metrics", type=int, default=20,
                   help="number of seeded random metrics to audit")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("torsion", help="minimal torsion forms and their residuals")
    add_common(p)
    p.add_argument("--which", choices=("rho", "gamma", "both"), default="both")
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser("eval", help="evaluate one torsion energy")
    add_common(p)
    p.add_argument("--functional", choices=sorted(_FUNCTIONALS), required=True)
    p.add_argument("--nu", default="identity",
                   help='reference metric file or "identity" (Ftilde normalization, H weight)')
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("varcheck", help="finite-difference audit of variation formulas")
    add_common(p, metric=False, tol=None)
    p.add_argument("--tuples", type=int, default=20)
    p.set_defaults(func=_cmd_varcheck)

    p = sub.add_parser("descend", help="projected gradient descent of one energy")
    add_common(p)
    p.add_argument("--functional", choices=sorted(_FUNCTIONALS), default="Ftilde")
    p.add_argument("--nu", default="identity",
                   help='reference metric file or "identity" (normalization, H weight)')
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--gradient-tol", type=float, default=1e-8)
    p.add_argument("--max-step", type=float, default=None)
    p.add_argument("--normalize", choices=("auto", "on", "off"), default="auto")
    p.set_defaults(func=_cmd_descend)

    p = sub.add_parser("catalog", help="list built-in models")
    p.add_argument("--out", help="write the listing to this path instead of stdout")
    p.set_defaults(func=_cmd_catalog)

    return parser


_ERROR_CODES = (
    (SchemaError, EXIT_SCHEMA),
    ((ModelInvalid, ModelNotUnimodular, UnknownCatalogName, DimensionMismatch,
      DegreeOutOfRange), EXIT_VALIDATION),
    ((NotSKT, NotBalanced, NotPositive), EXIT_PREDICATE),
    # a singular solve: a badly scaled metric whose Gram blocks underflow
    ((ToleranceFailure, DirectionNotAdmissible, StepTooLarge, np.linalg.LinAlgError),
     EXIT_TOLERANCE),
    ((InfeasibleStart, EmptyCone), EXIT_INFEASIBLE),
)


def _exit_code(exc):
    """The documented exit code of an exception, None for one the CLI does not map."""
    for classes, code in _ERROR_CODES:
        if isinstance(exc, classes):
            return code
    return None


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.func not in (_cmd_eval, _cmd_torsion):
        _KEPT.clear()
    try:
        if getattr(args, "format", "json") == "csv" \
                and args.subcommand not in ("varcheck", "descend"):
            raise _CliFailure(
                EXIT_SCHEMA, f"subcommand {args.subcommand!r} has no CSV projection")
        _require_ranges(args)
        return args.func(args)
    except _CliFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
