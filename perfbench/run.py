"""hermicone benchmark: seeded CLI job lists, timed end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog-jobs --seed 1 --seconds 20 --trace 0

Each job is one in-process ``hermicone.cli.main(argv)`` call; its report is
checked (see ``checks.py``).  Jobs run in passes, a pass being the
workload's fixed job mix.  A run does a fixed number of passes, sized so
that they take about ``--seconds`` on the reference host; a seed thus always
runs the same jobs, with the same outcomes.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  A run
record with every job's exit code, latency and report sha256 is written
under ``.perfbench_out/``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with a non-zero code and prints no result.
"""

import os

# BLAS threads: unset, eval_G at n = 4 measured ~20x slower and erratic
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "HERMICONE_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
CALIB_REPEATS = 5
# no new pass starts once a measurement has taken this many times --seconds,
# so that a much slower host or program still ends in time
SLOWDOWN_CAP = 3.0

# end-to-end latency metric, job kind, unit
LATENCIES = (
    ("eval_ms", "eval", "ms"),
    ("torsion_ms", "torsion", "ms"),
    ("verify_s", "verify", "s"),
    ("varcheck_s", "varcheck", "s"),
    ("descend_s", "descend", "s"),
)


# ----- the program ------------------------------------------------------------------


def import_program():
    """(hermicone.cli, model caches) from ``src/``; exits non-zero without the sources."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hermicone.cli as cli
        import hermicone.model as model
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hermicone from {src}: {exc}")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: hermicone was imported from {cli.__file__}, not {src}")
    # captured before any tracing wraps them
    caches = [f for f in (model.algebra_for, model.validate_model) if hasattr(f, "cache_clear")]
    return cli, caches


def run_job(cli, argv):
    """(exit code, seconds, stdout, stderr) of one in-process ``cli.main`` call.

    ``main`` is looked up at call time, so a traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refused the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - the CLI would exit 1 with a traceback
        code = 1
        err.write(repr(exc))
    seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def fresh_session(caches):
    """Drop hermicone's per-model caches, as a new process would, and collect garbage."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()


# ----- measurement --------------------------------------------------------------------


def calibrate():
    """Fixed host-speed kernel, recorded as run metadata (never a divisor).

    One repeat is a pure-Python loop plus one 400 x 400 matrix product;
    calib_s is the median of CALIB_REPEATS repeats.
    """
    a = np.arange(400 * 400, dtype=float).reshape(400, 400) / 1e5
    loops, blas = [], []
    for _ in range(CALIB_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        mid = time.perf_counter()
        float((a @ a).sum())
        end = time.perf_counter()
        loops.append(mid - start)
        blas.append(end - mid)
    total = sorted(x + y for x, y in zip(loops, blas))
    return {"calib_s": total[len(total) // 2], "python_s": sorted(loops)[len(loops) // 2],
            "blas_s": sorted(blas)[len(blas) // 2]}


def measure_setup(args, tag):
    """Seconds for a fresh interpreter to import hermicone and write the inputs."""
    samples = []
    for i in range(SETUP_SAMPLES):
        target = OUT_DIR / f"setup-{tag}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(target),
               "--workload", args.workload, "--seed", str(args.seed)]
        try:
            start = time.perf_counter()
            subprocess.run(cmd, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
            samples.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(target, ignore_errors=True)
    return samples


@dataclass
class Pass:
    """One timed job list: wall time and (job, code, seconds, stdout, stderr) rows."""

    index: int
    traced: bool
    wall: float
    rows: list


def run_pass(cli, caches, workload, index, tracer=None):
    jobs = workload.jobs(index)
    fresh_session(caches)
    if tracer is not None:
        tracer.install()
    rows = []
    try:
        start = time.perf_counter()
        for n, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{index}:{n}"
            rows.append((job,) + run_job(cli, job.argv))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return Pass(index, tracer is not None, wall, rows)


def pass_count(workload, seconds):
    """Passes that take about ``seconds`` on the reference host, at least one."""
    return max(1, round(seconds / workload.PASS_S))


def _in_time(start, seconds):
    return time.perf_counter() - start < SLOWDOWN_CAP * seconds


def measure(cli, caches, workload, count, seconds):
    """``count`` untraced passes; peak RSS is read after the last, so memory
    that grows from pass to pass shows."""
    start = time.perf_counter()
    passes = [run_pass(cli, caches, workload, 0)]
    while len(passes) < count and _in_time(start, seconds):
        passes.append(run_pass(cli, caches, workload, len(passes)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, peak_rss_mb


def measure_traced(cli, caches, workload, count, tracer, seconds):
    """A warm-up pass, then ``count`` pairs of a traced and an untraced pass
    on the same job list; returns (pairs, warm-up pass)."""
    start = time.perf_counter()
    warmup = run_pass(cli, caches, workload, 0)
    pairs = []
    while not pairs or (len(pairs) < count and _in_time(start, seconds)):
        index = len(pairs) + 1
        pairs.append((run_pass(cli, caches, workload, index, tracer),
                      run_pass(cli, caches, workload, index)))
    return pairs, warmup


# ----- results ----------------------------------------------------------------------------


def judge(passes):
    """Check every job; returns (rows for the record, attempted, failed, wrong)."""
    table = []
    for p in passes:
        for position, (job, code, seconds, text, err) in enumerate(p.rows):
            verdict = checks.check(job.kind, job.expect, code, text)
            iterations = None
            if job.kind == "descend" and code == 0 and not verdict.wrong:
                iterations = len(json.loads(text)["report"]["iterations"])
            table.append({
                "pass": p.index, "position": position, "traced": p.traced,
                "kind": job.kind, "label": job.label,
                "argv": job.argv, "code": code, "seconds": seconds,
                "ok": verdict.ok, "wrong": verdict.wrong, "reason": verdict.reason,
                "iterations": iterations,
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "stderr": err.strip()[-300:],
            })
    attempted = len(table)
    failed = sum(1 for r in table if not r["ok"])
    wrong = sum(1 for r in table if r["wrong"])
    return table, attempted, failed, wrong


def is_correct(attempted, wrong):
    """A run is correct when it attempted work and no output was wrong."""
    return attempted > 0 and wrong == 0


def end_to_end(table, passes, setup_samples, peak_rss_mb):
    """{name: (value, unit, note)} of the untraced measurement.

    Latencies are means over the whole run: a job kind's total time over its
    job count, ``wall_s`` the measured time over the passes.  The host
    alternates between a fast and a slow state that last ~10-20 s each; a
    median over passes reports whichever state held most of a run and jumps
    between the two from run to run, while a mean moves with the share of
    time spent in each.  The note gives the per-job median and tail as well.
    """
    walls = [p.wall for p in passes]
    out = {
        "setup_s": (stats.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh set-ups"),
        "wall_s": (sum(walls) / len(walls), "s",
                   f"mean of {len(walls)} job lists; median {stats.median(walls):.4g} s"),
    }
    for name, kind, unit in LATENCIES:
        scale = 1e3 if unit == "ms" else 1.0
        samples = [r["seconds"] * scale for r in table if r["kind"] == kind]
        if samples:
            out[name] = (sum(samples) / len(samples), unit,
                         _note(stats.summary(samples), unit))
    rows = [r for r in table if r["iterations"]]
    if rows:
        iterations = sum(r["iterations"] for r in rows)
        out["descend_iter_ms"] = (
            1e3 * sum(r["seconds"] for r in rows) / iterations, "ms",
            f"descent time over {iterations} iterations; "
            + _note(stats.summary([1e3 * r["seconds"] / r["iterations"] for r in rows]), "ms"))
    out["peak_rss_mb"] = (peak_rss_mb, "MB", "after the last job list")
    return out


def _note(summary, unit):
    text = f"mean of {summary['count']} jobs; per job: median {summary['median']:.4g} {unit}"
    if summary["tail_p"] is not None:
        text += f", p{summary['tail_p']:g} {summary['tail']:.4g} {unit}"
    return text


def git_sha():
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment():
    import scipy

    return {
        "pinned": {k: os.environ.get(k) for k in PINNED_ENV},
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ----- entry point --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import hermicone, write the inputs to DIR and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cli, caches = import_program()
    reference = json.loads(REFERENCE.read_text())
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, reference, args.setup_only).write_inputs()
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = f"{tag}-{os.getpid()}"
    input_dir = OUT_DIR / f"inputs-{scratch}"
    env = environment()
    try:
        setup_samples = measure_setup(args, scratch)
        calib = calibrate()
        workload = WORKLOADS[args.workload](args.seed, reference, str(input_dir))
        workload.write_inputs()
        count = pass_count(workload, args.seconds)
        if args.trace:
            tracer = tracing.Tracer()
            count = max(1, count // 2)  # a pair takes about two passes
            pairs, warmup = measure_traced(cli, caches, workload, count, tracer,
                                           args.seconds)
            checked = [warmup] + [p for pair in pairs for p in pair]
            done = len(pairs)
        else:
            passes, peak_rss_mb = measure(cli, caches, workload, count, args.seconds)
            checked = passes
            done = len(passes)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    calib_after = calibrate()
    table, attempted, failed, wrong = judge(checked)
    correct = is_correct(attempted, wrong)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env["pinned"].items())
          + f" git={env['git_sha'][:12]} python={env['python']} numpy={env['numpy']}"
          f" scipy={env['scipy']} nproc={env['nproc']}")
    print(f"calib_s {calib['calib_s']:.4f} s (python loop {calib['python_s']:.4f} s, "
          f"blas {calib['blas_s']:.4f} s)")
    if done < count:
        print(f"WARNING: stopped after {done} of {count} passes, past "
              f"{SLOWDOWN_CAP:g} x {args.seconds:g} s")
    print(f"jobs attempted={attempted} failed={failed} wrong_outputs={wrong} "
          f"jobs_failed_ratio={failed / attempted if attempted else 1.0:.4f} ratio")
    for r in [r for r in table if not r["ok"]][:20]:
        print(f"  FAIL {r['kind']} {r['label']}: {r['reason']}")

    if args.trace:
        overhead = stats.median([t.wall - u.wall for t, u in pairs])
        metrics = tracing.layer_metrics(tracer, len(pairs), overhead)
        print(f"pass pairs={len(pairs)} spans={len(tracer.spans)} dropped={tracer.dropped} "
              f"self_sum_s={sum(tracer.self_s.values()):.4f} "
              f"traced_wall_s={sum(t.wall for t, _ in pairs):.4f}")
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value:.6g} {unit}")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        tracer.write_spans(OUT_DIR / f"spans-{tag}.tsv")
    else:
        metrics = end_to_end(table, passes, setup_samples, peak_rss_mb)
        for name, (value, unit, note) in metrics.items():
            print(f"{name:18s} {value:.6g} {unit:3s} {note}")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "calib": calib, "calib_after": calib_after,
        "setup_samples": setup_samples,
        "pass_walls": [(p.index, p.traced, p.wall) for p in checked],
        "correct": correct, "attempted": attempted, "failed": failed, "wrong": wrong,
        "metrics": result_metrics, "jobs": table,
    }
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
