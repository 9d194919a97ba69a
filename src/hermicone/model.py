"""Invariant-form models: schema, normalization, validation and built-ins.

A model is a complex dimension n plus structure terms describing
d(theta^i).  Terms are normalized on entry: ordered index pairs inside
"holo"/"anti" kinds, duplicates merged, zero coefficients dropped, sorted by
(i, kind, j, k).  Validation reads d once, as the sparse entries its algebra
keeps (ExteriorAlgebra.d_sparse): d*d = 0 is decided from their products
relative to their magnitudes, with no total-degree matrix.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModelInvalid, ModelNotUnimodular, SchemaError, UnknownCatalogName
from .exterior import ExteriorAlgebra

KINDS = ("holo", "mixed", "anti")

VALIDATION_TOL = 1e-12


@dataclass(frozen=True)
class StructureTerm:
    i: int
    kind: str
    j: int
    k: int
    coeff: complex


@dataclass(frozen=True)
class ComplexLieModel:
    name: str
    n: int
    terms: tuple


@dataclass
class ValidationReport:
    """Outcome of validate_model.

    d_squared_vanishes and d_squared_max_residual are the decision and the largest
    |S| of certified_d_squared, made from d's sparse entries (verify reports the
    latter).
    """

    integrable: bool
    d_squared_vanishes: bool
    d_squared_max_residual: float
    unimodular: bool
    messages: list
    integrability_residual: float
    unimodularity_residual: float

    @property
    def all_passed(self):
        return self.integrable and self.unimodular and self.d_squared_vanishes


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _normalize_terms(n, raw):
    merged = {}
    for t in raw:
        i, kind, j, k, coeff = t
        i = _as_int(i, "term index i")
        j = _as_int(j, "term index j")
        k = _as_int(k, "term index k")
        if kind not in KINDS:
            raise SchemaError(f"unknown term kind {kind!r}")
        for idx in (i, j, k):
            if not 1 <= idx <= n:
                raise SchemaError(f"index {idx} outside 1..{n}")
        coeff = complex(coeff)
        if not cmath.isfinite(coeff):
            raise SchemaError(f"term coefficient {coeff} is not finite")
        if kind in ("holo", "anti"):
            if j == k:
                raise SchemaError(f"term d(theta^{i}) uses repeated index {j} in kind {kind}")
            if j > k:
                j, k, coeff = k, j, -coeff
        key = (i, kind, j, k)
        merged[key] = merged.get(key, 0.0) + coeff
    out = []
    for (i, kind, j, k), coeff in merged.items():
        if coeff == 0:
            continue
        out.append(StructureTerm(i, kind, j, k, coeff))
    out.sort(key=lambda t: (t.i, t.kind, t.j, t.k))
    return tuple(out)


def make_model(name, n, terms=()):
    """Build a normalized model from (i, kind, j, k, coeff) tuples, 1-based."""
    n = _as_int(n, "n")
    if n < 2:
        raise SchemaError(f"n must be >= 2, got {n}")
    return ComplexLieModel(str(name), n, _normalize_terms(n, terms))


def parse_model(text):
    """Parse the JSON model schema into a normalized ComplexLieModel."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a digit or nesting limit, too
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("model document must be a JSON object")
    if "name" not in obj or "n" not in obj:
        raise SchemaError("model document requires 'name' and 'n'")
    if not isinstance(obj["name"], str):
        raise SchemaError("'name' must be a string")
    raw_terms = obj.get("terms", [])
    if not isinstance(raw_terms, list):
        raise SchemaError("'terms' must be a list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict):
            raise SchemaError("each term must be an object")
        missing = {"i", "kind", "j", "k", "re", "im"} - set(entry)
        if missing:
            raise SchemaError(f"term missing fields {sorted(missing)}")
        if not all(isinstance(entry[f], (int, float)) and not isinstance(entry[f], bool)
                   for f in ("re", "im")):
            raise SchemaError("term coefficients 're'/'im' must be numbers")
        try:
            coeff = complex(entry["re"], entry["im"])
        except OverflowError as exc:
            raise SchemaError(f"term coefficient does not fit a float: {exc}") from None
        terms.append((entry["i"], entry["kind"], entry["j"], entry["k"], coeff))
    return make_model(obj["name"], obj["n"], terms)


def serialize_model(model):
    """Canonical JSON for a model; inverse of parse_model on normalized input."""
    doc = {
        "name": model.name,
        "n": model.n,
        "terms": [
            {"i": t.i, "kind": t.kind, "j": t.j, "k": t.k,
             "re": float(t.coeff.real), "im": float(t.coeff.imag)}
            for t in model.terms
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


@lru_cache(maxsize=None)
def algebra_for(model):
    return ExteriorAlgebra(model.n, [(t.i, t.kind, t.j, t.k, t.coeff) for t in model.terms])


def certified_d_squared(alg):
    """Whether d*d = 0, and the largest |S|, from d's sparse entries.

    d is joined with itself on the middle index; every entry of d*d gets the sum
    S of its products a*b and their magnitude sum M = sum |a||b|.  d*d = 0 when
    every |S| <= VALIDATION_TOL * max(1, M): a sum that cancels keeps a rounding
    error of relative size ~eps against M at any scale (the backward-error view
    of Higham, Accuracy and Stability of Numerical Algorithms, ch. 3), and below
    M = 1 the test is absolute.  Structure coefficients whose products overflow
    (S or M not finite) raise SchemaError.
    """
    # each entry (m, c, a) of d meets the entries (r, m, b) of its row's column
    rows, cols, vals = alg.d_sparse  # sorted by column
    lo = np.searchsorted(cols, rows, "left")
    counts = np.searchsorted(cols, rows, "right") - lo
    first = np.repeat(np.arange(rows.size), counts)
    second = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    _, slot = np.unique(rows[second] * 4 ** alg.n + cols[first], return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = vals[second] * vals[first]
        s = np.bincount(slot, prod.real) + 1j * np.bincount(slot, prod.imag)
        mag = np.bincount(slot, np.abs(prod))
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(mag))):
        raise SchemaError(f"structure coefficients up to |c| = {np.abs(vals).max():.3e} "
                          "overflow the products of d*d")
    size = np.abs(s)
    return (bool(np.all(size <= VALIDATION_TOL * np.maximum(1.0, mag))),
            float(size.max(initial=0.0)))


@lru_cache(maxsize=None)
def validate_model(model):
    """Check integrability, d*d = 0 and unimodularity from d's sparse entries, with
    no total-degree matrix; cached per model."""
    alg = algebra_for(model)
    messages = []

    anti_res = 0.0
    for t in model.terms:
        if t.kind == "anti":
            anti_res = max(anti_res, abs(t.coeff))
            messages.append(
                f"d(theta^{t.i}) keeps an antiholomorphic term "
                f"thetabar^{t.j}^thetabar^{t.k} with |coeff| = {abs(t.coeff):.3e}")
    integrable = anti_res <= VALIDATION_TOL

    dd_ok, dd_res = certified_d_squared(alg)
    if not dd_ok:
        messages.append(f"d*d has max residual {dd_res:.3e}")

    # d on degree 2n - 1 lands on the top monomial, the last coefficient of the layout
    rows, _, vals = alg.d_sparse
    uni_res = float(np.abs(vals[rows == 4 ** model.n - 1]).max(initial=0.0))
    unimodular = uni_res <= VALIDATION_TOL
    if not unimodular:
        messages.append(f"d does not vanish on degree {2 * model.n - 1}: max entry {uni_res:.3e}")

    return ValidationReport(
        integrable=integrable,
        d_squared_vanishes=dd_ok,
        d_squared_max_residual=dd_res,
        unimodular=unimodular,
        messages=messages,
        integrability_residual=anti_res,
        unimodularity_residual=uni_res,
    )


def require_valid(model):
    """The validation report of a model that is integrable, unimodular and has
    d*d = 0; ModelInvalid or ModelNotUnimodular otherwise."""
    report = validate_model(model)
    if not report.integrable or not report.d_squared_vanishes:
        raise ModelInvalid("; ".join(report.messages) or "model failed validation")
    if not report.unimodular:
        raise ModelNotUnimodular("; ".join(report.messages))
    return report


def valid_algebra(obj):
    """The algebra of a model that require_valid passes; an ExteriorAlgebra as given."""
    if isinstance(obj, ExteriorAlgebra):
        return obj
    require_valid(obj)
    return algebra_for(obj)


_CATALOG = {
    "torus2": ("torus2", 2, ()),
    "torus3": ("torus3", 3, ()),
    "iwasawa": ("iwasawa", 3, ((3, "holo", 1, 2, -1.0),)),
    "kodaira_thurston": ("kodaira_thurston", 2, ((2, "mixed", 1, 1, 1.0),)),
}


def catalog_names():
    return sorted(_CATALOG)


def catalog(name):
    """Built-in models: torus2, torus3, iwasawa, kodaira_thurston."""
    try:
        nm, n, terms = _CATALOG[name]
    except KeyError:
        raise UnknownCatalogName(f"no catalog model named {name!r}; "
                                 f"known: {', '.join(catalog_names())}") from None
    return make_model(nm, n, terms)
