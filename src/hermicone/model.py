"""Invariant-form models: schema, normalization, validation and built-ins.

A model is a complex dimension n plus structure terms describing
d(theta^i).  Terms are normalized on entry: ordered index pairs inside
"holo"/"anti" kinds, duplicates merged, zero coefficients dropped, sorted by
(i, kind, j, k).
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
    integrable: bool
    d_squared_max_residual: float
    unimodular: bool
    messages: list
    integrability_residual: float = 0.0
    unimodularity_residual: float = 0.0

    @property
    def all_passed(self):
        return self.integrable and self.unimodular and self.d_squared_max_residual <= VALIDATION_TOL


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
    except json.JSONDecodeError as exc:
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


@lru_cache(maxsize=None)
def validate_model(model):
    """Check integrability, d*d = 0 and unimodularity; cached per model."""
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

    dd_res = 0.0
    for k in range(0, 2 * model.n - 1):
        comp = alg.d_total(k + 1) @ alg.d_total(k)
        if comp.size:
            dd_res = max(dd_res, float(np.max(np.abs(comp))))
    if dd_res > VALIDATION_TOL:
        messages.append(f"d*d has max residual {dd_res:.3e}")

    top = alg.d_total(2 * model.n - 1)
    uni_res = float(np.max(np.abs(top))) if top.size else 0.0
    unimodular = uni_res <= VALIDATION_TOL
    if not unimodular:
        messages.append(f"d does not vanish on degree {2 * model.n - 1}: max entry {uni_res:.3e}")

    return ValidationReport(
        integrable=integrable,
        d_squared_max_residual=dd_res,
        unimodular=unimodular,
        messages=messages,
        integrability_residual=anti_res,
        unimodularity_residual=uni_res,
    )


def require_valid(model, need_unimodular=True):
    report = validate_model(model)
    if not report.integrable or report.d_squared_max_residual > VALIDATION_TOL:
        raise ModelInvalid("; ".join(report.messages) or "model failed validation")
    if need_unimodular and not report.unimodular:
        raise ModelNotUnimodular("; ".join(report.messages))
    return report


def differential_matrices(model):
    """All bigraded differential blocks of a validated model.

    Returns {"del": {(p,q): M}, "dbar": {(p,q): M}, "d": {k: M}} where the
    "del"/"dbar" matrices map Lambda^{p,q} into (p+1,q) / (p,q+1) and "d"
    maps total degree k to k + 1.
    """
    require_valid(model, need_unimodular=False)
    alg = algebra_for(model)
    n = model.n
    out = {"del": {}, "dbar": {}, "d": {}}
    for p in range(n + 1):
        for q in range(n + 1):
            if p + 1 <= n:
                out["del"][(p, q)] = alg.del_block(p, q)
            if q + 1 <= n:
                out["dbar"][(p, q)] = alg.dbar_block(p, q)
    for k in range(2 * n):
        out["d"][k] = alg.d_total(k)
    return out


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
