"""Batch command line: model verification, torsion and energy reports, descent runs.

Reports are deterministic JSON (sorted keys, no timestamps); CSV is a
projection offered for the variation battery and descent traces.  Exit
codes separate failure classes: 2 malformed input documents, 3 model
validation, 4 metric predicate failures, 5 tolerance trouble or failed
verification thresholds, 6 infeasible descents.
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

from .errors import (DegenerateDimension, DegreeOutOfRange, DimensionMismatch,
                     DirectionNotAdmissible, EmptyCone, InfeasibleStart, LineSearchFailure,
                     ModelInvalid, ModelNotUnimodular, NotBalanced, NotPositive,
                     NotPositiveDefinite, NotSKT, SchemaError, StepTooLarge,
                     ToleranceFailure, UnknownCatalogName)
from .exterior import DENSE_BUDGET
from .functionals import energy, evaluate
from .hodge import basis_residuals, predicates, three_space_residuals, torsion
from .metric import (DEFAULT_TOL, HermitianMetric, bundle_for_algebra, identity_suite,
                     random_metric)
from .model import (algebra_for, catalog, catalog_names, parse_model,
                    require_valid, serialize_model, validate_model)
from .optimizer import descend
from .variation import variation_battery

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_VALIDATION = 3
EXIT_PREDICATE = 4
EXIT_TOLERANCE = 5
EXIT_INFEASIBLE = 6

IDENTITY_THRESHOLD = 1e-10
BATTERY_THRESHOLD = 1e-5
ORACLE_THRESHOLD = 1e-6

_FUNCTIONALS = {"F": "F", "G": "G", "H": "H", "Ftilde": "F_tilde"}


class _CliFailure(Exception):
    """Carries an exit code and a message for the top-level handler."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# The size budget DENSE_BUDGET (exterior.py) admits every job at n <= 6, descend to
# n = 7, eval and torsion to n = 8 (eval G and H to n = 9), and refuses verify and
# varcheck from n = 7 on.  Both hold N x N matrices of the middle total degree, N =
# C(2n, n), 3432 at n = 7: verify the total-degree Gram (gram_total), the assembled
# codiff("d") and the projectors of its three-space walk; varcheck its projector
# derivative.


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
    rho = math.comb(2 * n, min(4, n))
    if subcommand == "descend":
        widest = bideg(n // 2, (n + 1) // 2)
        return max(widest, rho) if functional in ("F", "Ftilde") else widest
    predicates = max(bideg(1, 1), bideg(2, 2))
    gamma = max(bideg(n - 1, q) for q in range(max(0, n - 4), n + 1))
    if subcommand == "torsion":
        return max(predicates, rho, gamma)
    return max(predicates, {"F": rho, "Ftilde": rho, "G": gamma, "H": 0}[functional])


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
        except OSError as exc:
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
    except OSError as exc:
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


def _emit_json(args, obj):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(args, fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _predicates_payload(bundle):
    return {k: v for k, v in asdict(predicates(bundle)).items() if k != "tol"}


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

    families = {}
    three_space = {}
    metrics = [HermitianMetric.identity(n)] + \
        [random_metric(n, rng) for _ in range(args.metrics)]
    for i, met in enumerate(metrics):
        bundle = bundle_for_algebra(alg, met)
        suite, walk = identity_suite(bundle, seed=args.seed + i), _three_space_walk(bundle)
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
        "validation": {
            "integrable": report.integrable,
            "unimodular": report.unimodular,
            "d_squared_max_residual": report.d_squared_max_residual,
            "integrability_residual": report.integrability_residual,
            "unimodularity_residual": report.unimodularity_residual,
            "messages": report.messages,
        },
        "metrics_checked": len(metrics),
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
    if report.pure_norm_sq:
        support = report.torsion.bidegrees()
        payload["pure_part_norm_sq"] = {f"{p}{q}": v for (p, q), v in report.pure_norm_sq.items()
                                        if (p, q) in support}
    return payload


def _cmd_torsion(args):
    model, source = _load_model(args)
    alg = algebra_for(model)
    metric = _load_metric(args, alg.n)
    bundle = bundle_for_algebra(alg, metric, args.tol)
    payload = {"metric": metric.to_json_obj(),
               "predicates": _predicates_payload(bundle)}

    want = args.which
    reports = {}
    for kind, refusal in (("rho", NotSKT), ("gamma", NotBalanced)):
        if want in (kind, "both"):
            try:
                reports[kind] = _torsion_payload(bundle, torsion(bundle, kind))
            except refusal:
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
    model, source = _load_model(args)
    alg = algebra_for(model)
    metric = _load_metric(args, alg.n)
    bundle = bundle_for_algebra(alg, metric, args.tol)
    functional = _FUNCTIONALS[args.functional]
    nu = _load_metric(args, alg.n, "nu")
    weight = bundle_for_algebra(alg, nu, args.tol) if energy(functional).weighted else None
    result = evaluate(bundle, functional, nu, weight)
    payload = {
        "functional": args.functional,
        "value": result.value,
        "ingredients": {k: float(v) for k, v in result.ingredients.items()},
        "metric": metric.to_json_obj(),
        "predicates": _predicates_payload(bundle),
    }
    _emit_json(args, _envelope("eval", model, source, args.seed,
                               {"tol": args.tol}, payload))
    return EXIT_OK


def _cmd_varcheck(args):
    model, source = _load_model(args)
    rows = variation_battery(model, seed=args.seed, tuples=args.tuples)

    def threshold_for(name):
        return ORACLE_THRESHOLD if name in ("projector_oracle",
                                            "omega_scaling_projector") \
            else BATTERY_THRESHOLD

    failures = [r for r in rows if r.rel_err > threshold_for(r.name)]
    worst = {}
    for r in rows:
        worst[r.name] = max(worst.get(r.name, 0.0), r.rel_err)
    if args.format == "csv":
        _emit_csv(args, ["name", "detail", "analytic", "fd", "abs_err", "rel_err"],
                  [r.to_row() for r in rows])
    else:
        payload = {
            "tuples": args.tuples,
            "rows": [r.to_row() for r in rows],
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
    spec = args.metric or "identity"
    if spec == "identity":
        start = None
    elif spec == "random":
        start = "random"
    else:
        start = _load_metric(args, alg.n)
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
      DegreeOutOfRange, DegenerateDimension), EXIT_VALIDATION),
    ((NotSKT, NotBalanced, NotPositive, NotPositiveDefinite), EXIT_PREDICATE),
    # a singular solve: a badly scaled metric whose Gram blocks underflow
    ((ToleranceFailure, DirectionNotAdmissible, StepTooLarge, np.linalg.LinAlgError),
     EXIT_TOLERANCE),
    ((InfeasibleStart, EmptyCone, LineSearchFailure), EXIT_INFEASIBLE),
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
