"""cuspbase benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload certify|basis|expand --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it print every metric with its unit.  The
run record (environment, seed, generated inputs, per-pass figures, the first
failures) goes to ``perfbench/results/``.  Exit status: 0 when every output
is correct, 1 when one is wrong, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"   # written by record_reference.py

# setup_s: a fresh interpreter imports the package and its CLI, builds every
# level's catalogue and prints a dimension table; the median of these runs
SETUP_RUNS = 15
SETUP_CODE = ("import sys; from cuspbase import cli, get_catalog; "
              "[get_catalog(n) for n in range(1, 11)]; "
              "sys.exit(cli.main(sys.argv[1:]))")
SETUP_ARGS = ["dims", "--level", "all", "--weights", "2..12"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(expected_digest):
    """Seconds of each setup run, and one error per run whose output is wrong."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE] + SETUP_ARGS
    times, errors = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or hashlib.sha256(proc.stdout).hexdigest() != expected_digest:
            errors.append(f"setup: exit {proc.returncode}, output differs from the reference")
    return times, errors


def run_passes(run_pass, seconds, tracer=None):
    """Whole passes until the next one would end after ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()   # every pass starts with the same garbage: none
        if tracer is not None:
            tracer.begin_pass()
        wall, outcomes = run_pass(tracer)
        layers = tracer.pass_metrics() if tracer is not None else None
        passes.append((wall, outcomes, layers))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return passes


def best_tasks(passes):
    """Each task's least time and coefficients over the passes, by task key.

    Every pass runs the same tasks in the same order, so the least time of a
    task is its cost with the least interference from the rest of a shared
    host, which only ever adds time."""
    best = {}
    for _, outcomes, _ in passes:
        for o in outcomes:
            seconds, coeffs = best.get(o.key, (o.seconds, o.coeffs))
            best[o.key] = (min(seconds, o.seconds), min(coeffs, o.coeffs))
    return best


def best_wall(passes):
    """One pass at each task's best time."""
    return sum(seconds for seconds, _ in best_tasks(passes).values())


def end_to_end(passes, setup_times):
    best = best_tasks(passes)
    latencies = sorted(seconds for seconds, _ in best.values())
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    wall = sum(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "task_p50_ms": 1000 * statistics.median(latencies),
        "task_p90_ms": 1000 * deciles[8],
        "coeffs_per_s": sum(coeffs for _, coeffs in best.values()) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(latencies)


def per_layer(traced, untraced):
    names = traced[0][2]
    out = {n: statistics.median(p[2][n] for p in traced) for n in names}
    out["trace.overhead_s"] = best_wall(traced) - best_wall(untraced)
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cuspbase").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cuspbase" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cuspbase
    if Path(cuspbase.__file__).resolve().parent != SRC / "cuspbase":
        print(f"perfbench: imported cuspbase from {cuspbase.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads(REFERENCE.read_text())

    setup_times, setup_errors = measure_setup(reference["setup"])
    inputs, run_pass = workloads.make_workload(args.workload, args.seed, reference)

    tracer = None
    if args.trace:
        import tracing
        measured = run_passes(run_pass, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(run_pass, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = measured + traced
    else:
        passes = measured = run_passes(run_pass, args.seconds)
    e2e, samples = end_to_end(measured, setup_times)
    metrics = per_layer(traced, measured) if args.trace else e2e

    outcomes = [o for _, outs, _ in passes for o in outs]
    errors = setup_errors + [o.error for o in outcomes if o.error]
    attempted = len(outcomes) + SETUP_RUNS
    failed = len(errors)
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}-spans.tsv.gz")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "inputs": inputs, "task_samples": samples,
        "pass_wall_s": [w for w, _, _ in passes], "setup_runs_s": setup_times,
        "failed_frac": failed / attempted, "errors": errors[:50],
        "end_to_end": e2e, "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} tasks; {samples} latency samples, each "
          f"a task's best of {len(measured)} passes)")
    for error in errors[:10]:
        print(f"FAIL {error}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
