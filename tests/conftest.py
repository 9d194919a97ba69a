# hermicone first: it defaults BLAS to one thread only if numpy is not loaded yet, and
# the thread count is read once, when numpy loads
import hermicone  # noqa: F401  isort: skip
import numpy as np
import pytest

from hermicone import cli
from hermicone.metric import HermitianMetric, bundle_for_algebra, random_metric
from hermicone.model import algebra_for, catalog, catalog_names, make_model, validate_model

CATALOG_NAMES = tuple(catalog_names())


@pytest.fixture(params=CATALOG_NAMES)
def model_name(request):
    return request.param


@pytest.fixture
def model(model_name):
    return catalog(model_name)


@pytest.fixture
def algebra(model):
    return algebra_for(model)


@pytest.fixture(autouse=True)
def no_kept_bundle():
    """Empty the CLI's kept eval/torsion bundle before and after each test, so a test
    that patches the job path builds its own bundle and none outlives its test."""
    cli._KEPT.clear()
    yield
    cli._KEPT.clear()


@pytest.fixture
def fresh_caches():
    """Drop the per-model caches before and after the test: the job builds its own
    algebra, and an n = 6 algebra holds tens of MB."""
    validate_model.cache_clear()
    algebra_for.cache_clear()
    yield
    validate_model.cache_clear()
    algebra_for.cache_clear()


def kept_keys(obj, method):
    """The argument tuples under which obj keeps results of a memo method."""
    return [key for fn, key in getattr(obj, "_memo", {}) if fn is method.__wrapped__]


def seeded_bundle(name, seed=None):
    """Bundle on a catalog model: identity metric, or a seeded random one."""
    alg = algebra_for(catalog(name))
    if seed is None:
        metric = HermitianMetric.identity(alg.n)
    else:
        metric = random_metric(alg.n, np.random.default_rng(seed))
    return bundle_for_algebra(alg, metric)


def non_unimodular_model():
    """Integrable n = 2 model with d(theta^1) = theta^1 ^ thetabar^1.

    d squared vanishes but d is nonzero on degree 3, so integration by
    parts fails; used to exercise the unimodularity gate.
    """
    return make_model("halfdensity", 2, [(1, "mixed", 1, 1, 1.0)])


def twin_12bar():
    """The n = 4 model d theta^3 = d theta^4 = i theta^1 ^ thetabar^2.

    Its pluriclosed cone is empty, yet its reference metric projected onto the SKT
    slice has lambda_min ~ 6e-17 > 0, so the feasibility probe passes it; a seeded
    random metric is neither pluriclosed nor balanced.
    """
    return make_model("twin_12bar", 4, [(3, "mixed", 1, 2, 1j), (4, "mixed", 1, 2, 1j)])
