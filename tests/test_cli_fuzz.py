"""Fuzzed input documents through the in-process CLI: every outcome is exit 0 or a
documented code 2-6, never a traceback.  Raw text that is no JSON document at all
(cut short, not UTF-8, nested or numbered past the reader's limits) exits 2."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermicone.cli import main
from hermicone.metric import HermitianMetric
from hermicone.model import KINDS, catalog, serialize_model

DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# the catalog model each metric dimension is fed to; other sizes mismatch (exit 3)
_MODEL_OF_N = {2: "kodaira_thurston", 3: "iwasawa"}

_JOBS = (
    ("eval", "--functional", "F"),
    ("eval", "--functional", "G"),
    ("eval", "--functional", "H"),
    ("eval", "--functional", "Ftilde"),
    ("torsion",),
    ("descend", "--functional", "Ftilde", "--steps", "2"),
    ("descend", "--functional", "G", "--steps", "2"),
)

_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([0, 1, -1, 1e-300, 1e300, 5e-324]),
)
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}), st.just([]))


@st.composite
def _hermitian_positive(draw):
    """A positive definite metric document, at a scale from tiny to huge."""
    n = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
    entries = st.floats(min_value=-3.0, max_value=3.0)
    re = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    b = re + 1j * im
    scale = 10.0 ** draw(st.one_of(st.integers(min_value=-2, max_value=2),
                                   st.integers(min_value=-160, max_value=160)))
    h = scale * (b.conj().T @ b + draw(st.sampled_from([0.0, 1e-12, 0.5])) * np.eye(n))
    return HermitianMetric(h).to_json_obj()


@st.composite
def _wild_metric(draw):
    """A square-ish array of cells, each a {re, im} object of any number, or junk."""
    n = draw(st.integers(min_value=0, max_value=4))
    cell = st.one_of(st.fixed_dictionaries({"re": _numbers, "im": _numbers}),
                     st.fixed_dictionaries({"re": _junk, "im": _numbers}),
                     st.dictionaries(st.sampled_from(["re", "im", "x"]), _numbers),
                     _junk)
    rows = st.lists(cell, min_size=n, max_size=n + draw(st.integers(0, 1)))
    return draw(st.lists(rows, min_size=n, max_size=n))


_metric_docs = st.one_of(_hermitian_positive(), _hermitian_positive(), _wild_metric(),
                         _junk, _numbers)


@st.composite
def _catalog_variant(draw):
    """A catalog model with terms dropped, rescaled or re-indexed."""
    doc = json.loads(serialize_model(catalog(draw(st.sampled_from(sorted(_CATALOG))))))
    terms = []
    for term in doc["terms"]:
        action = draw(st.sampled_from(["keep"] * 6 + ["drop", "scale", "index", "kind"]))
        if action == "drop":
            continue
        if action == "scale":
            term["re"] = draw(_numbers)
        elif action == "index":
            term[draw(st.sampled_from("ijk"))] = draw(st.integers(min_value=-1, max_value=5))
        elif action == "kind":
            term["kind"] = draw(st.sampled_from(KINDS + ("bogus",)))
        terms.append(term)
    doc["terms"] = terms
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        doc["n"] = draw(st.one_of(st.integers(min_value=-1, max_value=4), _junk))
    return doc


_CATALOG = ("torus2", "torus3", "kodaira_thurston", "iwasawa")

_index = st.one_of(st.integers(min_value=-1, max_value=5), _junk, st.floats())
_random_terms = st.lists(st.one_of(
    st.fixed_dictionaries({"i": _index, "kind": st.sampled_from(KINDS + ("bogus",)),
                           "j": _index, "k": _index, "re": _numbers, "im": _numbers}),
    st.dictionaries(st.sampled_from(["i", "kind", "j", "k", "re", "im"]), _index),
    _junk), max_size=5)
_random_model = st.fixed_dictionaries(
    {"name": st.one_of(st.text(max_size=4), _junk),
     "n": st.one_of(st.integers(min_value=-1, max_value=4), _junk),
     "terms": st.one_of(_random_terms, _junk)})
_model_docs = st.one_of(_catalog_variant(), _catalog_variant(), _random_model, _junk,
                        st.text(max_size=8).map(lambda t: {"raw": t}))

_MODEL_JOBS = _JOBS[:5] + (("verify", "--metrics", "1"),
                           ("descend", "--functional", "Ftilde", "--steps", "2"))


def _run(argv):
    """(exit code, stderr) of one in-process call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue()
        except SystemExit as exc:  # argparse's own refusal
            return exc.code, err.getvalue()


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc["raw"] if isinstance(doc, dict) and set(doc) == {"raw"}
                 else json.dumps(doc))
    return path


@FUZZ
@given(doc=_metric_docs, job=st.sampled_from(_JOBS), as_nu=st.booleans())
def test_fuzzed_metric_documents_exit_with_a_documented_code(doc, job, as_nu):
    n = len(doc) if isinstance(doc, list) else 2
    name = _MODEL_OF_N.get(n, "torus2")
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "metric.json", doc)
        option = "--nu" if as_nu and "--functional" in job else "--metric"
        code, _ = _run(list(job) + ["--catalog", name, option, path])
    assert code in DOCUMENTED_EXITS, (code, job, doc)


@FUZZ
@given(doc=_model_docs, job=st.sampled_from(_MODEL_JOBS))
def test_fuzzed_model_documents_exit_with_a_documented_code(doc, job):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "model.json", doc)
        code, _ = _run(list(job) + ["--model", path])
    assert code in DOCUMENTED_EXITS, (code, job, doc)


@st.composite
def _raw_documents(draw):
    """Bytes that no JSON reader accepts whole: a document cut short, random bytes with
    a byte that is not UTF-8, nesting past the reader's depth, or an integer past
    Python's digit limit."""
    kind = draw(st.sampled_from(["truncated", "bytes", "nested", "digits"]))
    if kind == "truncated":  # a proper prefix of an array or object is never complete
        text = json.dumps(draw(st.one_of(_hermitian_positive(), _wild_metric(),
                                         _catalog_variant())))
        return text[:draw(st.integers(min_value=0, max_value=len(text) - 1))].encode()
    if kind == "bytes":
        raw = draw(st.binary(max_size=200))
        cut = draw(st.integers(min_value=0, max_value=len(raw)))
        return raw[:cut] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[cut:]
    if kind == "nested":
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"n":', "}")]))
        depth = draw(st.integers(min_value=2_000, max_value=100_000))
        return (opener * depth + "0" + closer * depth).encode()
    digits = "1" * draw(st.integers(min_value=4_301, max_value=6_000))
    return ('[[{"re": ' + digits + ', "im": 0}]]').encode()


_RAW_CASES = ([("--model", job) for job in _MODEL_JOBS]
              + [("--metric", job) for job in _JOBS]
              + [("--nu", job) for job in _JOBS if "--functional" in job])


@FUZZ
@given(raw=_raw_documents(), case=st.sampled_from(_RAW_CASES))
def test_raw_text_documents_exit_schema_with_one_error_line(raw, case):
    option, job = case
    source = [] if option == "--model" else ["--catalog", "kodaira_thurston"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        code, err = _run(list(job) + source + [option, path])
    assert code == 2, (code, err, case, raw[:80])
    assert err.startswith("error: ") and err.count("\n") == 1, (err, case)
