"""Put the benchmark modules and the package sources on the import path."""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HERMICONE_THREADS"):
    os.environ.setdefault(var, "1")

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
