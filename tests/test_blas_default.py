"""The package defaults BLAS to one thread before numpy loads, each case in a child
process (the thread count is read once, when numpy loads)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(argv, env=None):
    """Run python with argv, the BLAS variables unset unless env sets them."""
    base = {k: v for k, v in os.environ.items() if k not in VARS}
    base["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          check=True, env={**base, **(env or {})})


def _variables_after(imports, env=None):
    code = f"import os\n{imports}\nprint([os.environ.get(v) for v in {VARS!r}])"
    return _child(["-c", code], env).stdout.strip()


def test_a_clean_environment_gets_one_thread():
    assert _variables_after("import hermicone") == "['1', '1', '1']"


def test_a_set_variable_is_kept():
    assert _variables_after("import hermicone", {"OPENBLAS_NUM_THREADS": "2"}) \
        == "['2', '1', '1']"


def test_numpy_loaded_first_leaves_the_variables_alone():
    assert _variables_after("import numpy\nimport hermicone") == "[None, None, None]"


def test_verify_with_the_variables_unset_prints_the_corpus_report(tmp_path):
    # the "verify iwasawa_x_t1" job of scripts/report_corpus.py, with its model file
    doc = {"name": "iwasawa_x_t1", "n": 4,
           "terms": [{"i": 3, "kind": "holo", "j": 1, "k": 2, "re": -1.25, "im": 0.0}]}
    path = tmp_path / "iwasawa_x_t1.json"
    path.write_text(json.dumps(doc))
    run = _child(["-m", "hermicone.cli", "verify", "--model", str(path),
                  "--metrics", "1", "--seed", "5"])
    expected = (ROOT / "scripts" / "report_corpus.expected").read_text().splitlines()
    want = next(line for line in expected if line.endswith("\tverify iwasawa_x_t1"))
    assert want.split("\t")[:2] == ["0", hashlib.sha256(run.stdout.encode()).hexdigest()]
