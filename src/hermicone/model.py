"""Invariant-form models: schema, normalization, validation and built-ins.

A model is a complex dimension n plus structure terms describing
d(theta^i).  Terms are normalized on entry: ordered index pairs inside
"holo"/"anti" kinds, duplicates merged, zero coefficients dropped, sorted by
(i, kind, j, k).
"""

from __future__ import annotations

import cmath
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ModelInvalid, ModelNotUnimodular, SchemaError, UnknownCatalogName
from .exterior import ExteriorAlgebra, _layout

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

    d_squared_vanishes is the decision max |d_total(k+1) @ d_total(k)| <= VALIDATION_TOL;
    d_squared_max_residual is that dense maximum, computed on its first read.
    """

    integrable: bool
    d_squared_vanishes: bool
    unimodular: bool
    messages: list
    integrability_residual: float
    unimodularity_residual: float
    algebra: ExteriorAlgebra = field(repr=False, compare=False)

    @cached_property
    def d_squared_max_residual(self):
        return d_squared_residual(self.algebra)

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


# The d*d gate bounds rounding with the inner-product bound (Higham, Accuracy and
# Stability of Numerical Algorithms, 3.1 and 3.6).  An entry of d_{k+1} d_k with m
# nonzero products a*b is, in each of its real and imaginary parts, a real sum of at
# most 2m nonzero real products; zero products add exactly in any order, with or
# without FMA.  So any summation of it, the dense BLAS one or the sparse one below,
# lies within sqrt(2) gamma_{2m} M <= beta = _BETA_C (m + 2) u M of the exact value,
# M = sum |a||b|.  _BETA_C = 4 > 2 sqrt(2) leaves room for rounding in |S|, M and the
# comparison, since M >= |S|.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_BETA_C = 4.0


def _d_entries(alg):
    """Nonzero entries of d on the whole algebra as (row, col, value) arrays, indexed
    in the coefficient layout of a Form."""
    lay = _layout(alg.n)
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))]
    for pq in itertools.product(range(alg.n + 1), repeat=2):
        for tgt, blk in alg.d_blocks(*pq).items():
            r, c = np.nonzero(blk != 0)
            parts.append((r + lay[tgt].start, c + lay[pq].start, blk[r, c]))
    return tuple(map(np.concatenate, zip(*parts)))


def certified_d_squared(alg):
    """The decision max |d_total(k+1) @ d_total(k)| <= VALIDATION_TOL from sparse
    sums: True or False when every rounding of the dense products gives that
    answer, None when some entry lies within 2 beta of the tolerance.

    d is joined with itself on the middle index; for every entry of d*d this
    gives the sum S, the magnitude sum M and the count m of its nonzero products.
    Structure coefficients whose products overflow (S or M not finite) raise
    SchemaError.
    """
    rows, cols, vals = _d_entries(alg)
    order = np.argsort(cols, kind="stable")
    by_col = cols[order]
    lo = np.searchsorted(by_col, rows, "left")
    counts = np.searchsorted(by_col, rows, "right") - lo
    first = np.repeat(np.arange(rows.size), counts)
    second = order[np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    _, slot, m = np.unique(rows[second] * 4 ** alg.n + cols[first],
                           return_inverse=True, return_counts=True)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = vals[second] * vals[first]
        s = np.bincount(slot, prod.real, m.size) + 1j * np.bincount(slot, prod.imag, m.size)
        mag = np.bincount(slot, np.abs(prod), m.size)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(mag))):
        raise SchemaError(f"structure coefficients up to |c| = {np.abs(vals).max():.3e} "
                          "overflow the products of d*d")
    size = np.abs(s)
    spread = 2 * _BETA_C * (m + 2) * _UNIT_ROUNDOFF * mag
    if np.any(size - spread > VALIDATION_TOL):
        return False
    return True if np.all(size + spread <= VALIDATION_TOL) else None


def d_squared_residual(alg):
    """max |d_total(k+1) @ d_total(k)| over k, from the dense products."""
    dd_res = 0.0
    for k in range(0, 2 * alg.n - 1):
        comp = alg.d_total(k + 1) @ alg.d_total(k)
        if comp.size:
            dd_res = max(dd_res, float(np.max(np.abs(comp))))
    return dd_res


@lru_cache(maxsize=None)
def validate_model(model):
    """Check integrability, d*d = 0 and unimodularity; cached per model.

    d*d = 0 is decided by certified_d_squared without a total-degree matrix;
    only an undecided or refused model computes the dense residual here.
    """
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

    dd_ok, dd_res = certified_d_squared(alg), None
    if dd_ok is not True:
        dd_res = d_squared_residual(alg)
        if dd_ok is None:
            dd_ok = dd_res <= VALIDATION_TOL
        if not dd_ok:
            messages.append(f"d*d has max residual {dd_res:.3e}")

    top = [blk.ravel() for pq in alg.bidegrees(2 * model.n - 1)
           for blk in alg.d_blocks(*pq).values()]
    uni_res = float(np.max(np.abs(np.concatenate(top)))) if top else 0.0
    unimodular = uni_res <= VALIDATION_TOL
    if not unimodular:
        messages.append(f"d does not vanish on degree {2 * model.n - 1}: max entry {uni_res:.3e}")

    report = ValidationReport(
        integrable=integrable,
        d_squared_vanishes=dd_ok,
        unimodular=unimodular,
        messages=messages,
        integrability_residual=anti_res,
        unimodularity_residual=uni_res,
        algebra=alg,
    )
    if dd_res is not None:
        report.d_squared_max_residual = dd_res
    return report


def require_valid(model, need_unimodular=True):
    report = validate_model(model)
    if not report.integrable or not report.d_squared_vanishes:
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
                out["del"][(p, q)] = alg.diff("del", (p, q))
            if q + 1 <= n:
                out["dbar"][(p, q)] = alg.diff("dbar", (p, q))
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
