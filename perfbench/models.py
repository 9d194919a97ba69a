"""Seeded benchmark inputs: synthetic model families and catalog metrics.

Three synthetic families extend the catalog to n = 4..6:

- ``iwasawa_x_torus``: Iwasawa x T^k, d(theta^3) = -c theta^1 ^ theta^2, n = 3 + k;
- ``kt_x_torus``: Kodaira-Thurston x T^k, d(theta^2) = c theta^1 ^ thetabar^1, n = 2 + k;
- ``heisenberg``: complex Heisenberg, d(theta^n) = sum_i c_i theta^(2i-1) ^ theta^(2i),
  n odd.

Each model is built with ``make_model`` and gated with ``validate_model``.
Catalog metrics are H = B^H B + 0.5 I with B complex Gaussian, the same law
as ``hermicone.metric.random_metric``, drawn by the benchmark's own RNG.
"""

from __future__ import annotations

import json

import numpy as np

FAMILIES = ("iwasawa_x_torus", "kt_x_torus", "heisenberg")

COEFF_MIN = 0.5
COEFF_MAX = 2.0


def structure_terms(family, n, coeffs):
    """(i, kind, j, k, coeff) tuples, 1-based, for one family member."""
    if family == "iwasawa_x_torus":
        if n < 3 or len(coeffs) != 1:
            raise ValueError("iwasawa_x_torus needs n >= 3 and one coefficient")
        return [(3, "holo", 1, 2, -coeffs[0])]
    if family == "kt_x_torus":
        if n < 2 or len(coeffs) != 1:
            raise ValueError("kt_x_torus needs n >= 2 and one coefficient")
        return [(2, "mixed", 1, 1, coeffs[0])]
    if family == "heisenberg":
        if n < 3 or n % 2 == 0 or len(coeffs) != (n - 1) // 2:
            raise ValueError("heisenberg needs odd n >= 3 and (n - 1) / 2 coefficients")
        return [(n, "holo", 2 * i + 1, 2 * i + 2, c) for i, c in enumerate(coeffs)]
    raise ValueError(f"unknown family {family!r}")


def coefficient_count(family, n):
    return (n - 1) // 2 if family == "heisenberg" else 1


def draw_coeffs(rng, family, n):
    """Nonzero structure coefficients: magnitude in [0.5, 2], random sign."""
    count = coefficient_count(family, n)
    mags = rng.uniform(COEFF_MIN, COEFF_MAX, size=count)
    signs = rng.choice((-1.0, 1.0), size=count)
    return [float(m * s) for m, s in zip(mags, signs)]


def synthetic_model(family, n, coeffs, name=None, gate=True):
    """Build one family member; with gate=True it must pass ``validate_model``."""
    from hermicone.model import make_model, validate_model

    model = make_model(name or f"{family}_n{n}", n, structure_terms(family, n, coeffs))
    if gate:
        report = validate_model(model)
        if not report.all_passed:
            raise ValueError(f"{model.name} failed validation: {report.messages}")
    return model


def model_document(name, n, terms):
    """The ``--model`` JSON document for (i, kind, j, k, coeff) terms."""
    return json.dumps({
        "name": name,
        "n": n,
        "terms": [{"i": i, "kind": kind, "j": j, "k": k,
                   "re": float(complex(c).real), "im": float(complex(c).imag)}
                  for (i, kind, j, k, c) in terms],
    }, indent=2, sort_keys=True)


def random_hermitian(rng, n):
    """H = B^H B + 0.5 I with B complex Gaussian: comfortably positive definite."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b.conj().T @ b + 0.5 * np.eye(n)


def metric_to_pairs(h):
    """n x n complex matrix as nested [re, im] pairs (exact in JSON)."""
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(h)]


def metric_document(pairs):
    """The ``--metric`` JSON document for nested [re, im] pairs."""
    return json.dumps([[{"re": re, "im": im} for re, im in row] for row in pairs])
