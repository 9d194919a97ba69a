"""The function-body lines of ``src/hermicone`` that the report corpus never runs.

Runs the jobs of ``report_corpus.py`` in-process under a stdlib line tracer
(``sys.settrace``) that watches only frames of ``src/hermicone``, and prints
each function-body line they never run, as ranges of a file with the function
that holds them, then each function they never enter, then a count:

    python3 scripts/coverage.py

A function's body lines are the lines its code object (and the comprehensions
inside it) attribute instructions to, the ``def`` line left out; a lambda's one
line is its body.  Module and class bodies are not counted.
``coverage.expected`` next to this script holds the committed output;
``tests/test_coverage.py`` checks that the functions the corpus never enters
are exactly the ones it lists.  A change that makes the corpus reach one more,
or deletes one, rewrites it with

    python3 scripts/coverage.py > scripts/coverage.expected

A change may only shrink that list: a new function belongs on the job path or
in the corpus.  ``hermicone`` is imported from this checkout's ``src/`` and BLAS
runs on one thread, unless the caller set the variables.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hermicone"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

def _functions(code, outer=None):
    """(code, qualname of the function it belongs to) for every function code object
    under code; a comprehension belongs to the function it sits in."""
    for const in code.co_consts:
        if inspect.iscode(const) and const.co_flags & inspect.CO_OPTIMIZED:
            owner = outer if const.co_name.startswith("<") and \
                const.co_name != "<lambda>" else const.co_qualname
            yield const, owner
            yield from _functions(const, owner)
        elif inspect.iscode(const):  # a class body
            yield from _functions(const, outer)


def body_lines(path):
    """{line: qualname} over the function-body lines of a source file, and the
    (qualname, first line) of each named function."""
    code = compile(path.read_text(), str(path), "exec")
    lines, functions = {}, []
    for fn, owner in _functions(code):
        own = {line for _, _, line in fn.co_lines() if line is not None}
        if fn.co_name != "<lambda>":  # a lambda's one line is its body
            own.discard(fn.co_firstlineno)
        if owner == fn.co_qualname and fn.co_name != "<lambda>":
            functions.append((owner, fn.co_firstlineno))
        for line in own:
            lines.setdefault(line, owner)
    return lines, functions


class LineTracer:
    """The lines run and the functions entered in files under one directory."""

    def __init__(self, root):
        self.root = str(root) + os.sep
        self.run = defaultdict(set)  # file -> lines
        self.entered = defaultdict(set)  # file -> first lines of the code objects called

    def _local(self, frame, event, arg):
        if event == "line":
            self.run[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def __call__(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.root):
            return None
        self.entered[path].add(frame.f_code.co_firstlineno)
        return self._local


def _ranges(lines):
    """Sorted line numbers as "a-b" and "a" ranges of consecutive numbers."""
    out = []
    for _, group in itertools.groupby(enumerate(sorted(lines)), lambda t: t[1] - t[0]):
        nums = [line for _, line in group]
        out.append(f"{nums[0]}-{nums[-1]}" if len(nums) > 1 else str(nums[0]))
    return out


def report(tracer):
    """The output lines: unreached body lines by function, then the functions never
    entered, then the count."""
    unreached, never, total, missed = [], [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, functions = body_lines(path)
        ran, entered = tracer.run[str(path)], tracer.entered[str(path)]
        for name, first in functions:
            if first not in entered:
                never.append(f"never entered\t{path.name}\t{name}")
        by_owner = defaultdict(list)
        for line, owner in lines.items():
            if line not in ran:
                by_owner[owner].append(line)
        for owner, missing in sorted(by_owner.items(), key=lambda item: min(item[1])):
            unreached.append(f"unreached\t{path.name}:{','.join(_ranges(missing))}\t{owner}")
        total += len(lines)
        missed += sum(map(len, by_owner.values()))
    summary = f"summary\t{total - missed} of {total} function-body lines run\t" \
              f"{len(never)} functions never entered"
    return unreached + never + [summary]


def main():
    tracer = LineTracer(PACKAGE)
    sys.settrace(tracer)
    try:
        # imported under the tracer: hermicone's import-time calls (memo) count too
        import report_corpus

        with tempfile.TemporaryDirectory() as tmp:
            for _, argv in report_corpus.jobs(report_corpus._write_inputs(Path(tmp))):
                report_corpus.run_job(argv)
    finally:
        sys.settrace(None)
    print("\n".join(report(tracer)))


if __name__ == "__main__":
    main()
