"""fso-adapt benchmark: one workload per run, a closed loop with one caller.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics: it runs whole rounds of ops
for at least ``--seconds`` seconds with the package exactly as shipped.
``--trace 1`` runs each of the workload's first ``trace_ops`` ops twice, untraced
and then with every layer's public functions wrapped, and reports
per-layer work counts and self times.  ``--workload all`` runs every
workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric by name and unit, the failure categories, the checks and
the environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("sweep", "invert", "mc", "box")
SETUP_STARTS = 3  # fresh interpreters per run; set-up is their median
CATEGORIES = ("nan", "typed", "untyped", "tolerance")

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Result:
    """One attempted op: its output or exception, latency and outcome."""

    op: object
    out: dict | None
    err: BaseException | None
    latency_s: float
    category: str | None = None  # failure category, None when the op passed
    message: str = ""


# ---------------------------------------------------------------------------
# metric arithmetic


def tail_rank(n: int):
    """Index and percentile of the highest rank with ten ops beyond it.

    Ranks are nearest-rank: the value at sorted index k is the
    100 (k+1)/n percentile.  With fewer than eleven ops no rank has ten
    beyond it; the lowest rank, with the most ops beyond, is used.
    """
    k = max(0, n - 11)
    return k, 100.0 * (k + 1) / n


def latency_metrics(results):
    """Median and tail latency in ms; a failed op misses every target."""
    lat = sorted(r.latency_s * 1e3 if r.category is None else math.inf for r in results)
    k, pct = tail_rank(len(lat))
    return {"p50": statistics.median(lat), "tail": lat[k], "tail_pct": pct, "n": len(lat)}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# running ops


def run_op(workload, op):
    t0 = time.perf_counter()
    try:
        out, err = workload.run(op), None
    except Exception as exc:  # every failure is counted, none ends the run
        out, err = None, exc
    return Result(op, out, err, time.perf_counter() - t0)


def run_for(workload, seconds: float):
    """Closed loop: the next op starts when the previous one returns.

    The loop stops at the first round boundary after ``seconds``, so every
    run measures whole rounds of the workload's mix.
    """
    results = []
    start = time.perf_counter()
    for i, op in enumerate(workload.ops(), 1):
        results.append(run_op(workload, op))
        if i % workload.round_ops == 0 and time.perf_counter() - start >= seconds:
            break
    return results, time.perf_counter() - start


def classify(workload, results):
    """Fill in each result's failure category; checks run here, untimed."""
    import fso_adapt as fa

    typed = (fa.SolverBracketError, fa.SingularOrderError)
    for r in results:
        if r.err is not None:
            r.category = "typed" if isinstance(r.err, typed) else "untyped"
            r.message = f"{type(r.err).__name__}: {r.err}"
        elif not all(math.isfinite(v) for v in r.out.values()):
            r.category = "nan"
            r.message = "non-finite output " + json.dumps(r.out)
        else:
            try:
                miss = workload.check(r.op, r.out)
            except Exception as exc:  # a check that cannot run is a miss
                miss = f"check raised {type(exc).__name__}: {exc}"
            if miss:
                r.category, r.message = "tolerance", miss


# ---------------------------------------------------------------------------
# set-up: fresh interpreters


def probe_setup(args):
    """Child side: import the package, build the models, report readiness."""
    t0 = time.perf_counter()
    import fso_adapt.cli  # noqa: F401  the package import includes the CLI

    t1 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, 1).build()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "models_s": t2 - t1}), flush=True)
    return 0


def fresh_start(args, importtime=False):
    """Parent side: wall time from spawn to ready, plus the child's figures."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "run.py"), "--probe-setup", "--workload", args.workload,
            "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        stderr=subprocess.PIPE if importtime else None,
    ) as proc:
        if importtime:  # read both pipes together so neither can fill up
            out, err = proc.communicate(timeout=150)
            ready = math.nan
        else:
            out = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=150)
            err = ""
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    rec = json.loads(out.splitlines()[0])
    rec["ready_s"] = ready
    if importtime:
        rec["scipy_integrate_s"] = _importtime_of(err, "scipy.integrate")
    return rec


def _importtime_of(log: str, module: str) -> float:
    """Cumulative import time of one module from ``-X importtime`` output."""
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) * 1e-6
    return 0.0


# ---------------------------------------------------------------------------
# environment


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# reporting


def failure_counts(results):
    counts = dict.fromkeys(CATEGORIES, 0)
    for r in results:
        if r.category:
            counts[r.category] += 1
    return counts


def print_report(args, workload, env, results, extra_lines, checks):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for line in extra_lines:
        print("  " + line)
    counts = failure_counts(results)
    failed = sum(counts.values())
    print(f"  fail_ratio    {failed / len(results):.4f}  ({failed}/{len(results)}; "
          + ", ".join(f"{k} {v}" for k, v in counts.items()) + ")")
    passed = sum(1 for r in results if r.category is None)
    print(f"  check per op ({workload.checks}): {passed}/{len(results)} passed")
    for name, ok in checks.items():
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    for i, r in enumerate(results):
        if r.category:
            print(f"  failed op {i} {r.op.kind} {json.dumps(r.op.params)}: "
                  f"{r.category}: {r.message}")


def finish(results, checks, metrics):
    failed = sum(1 for r in results if r.category)
    doc = {
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(args, workload, env):
    """Untraced run: end-to-end metrics over ``--seconds`` of ops."""
    results, elapsed = run_for(workload, args.seconds)
    classify(workload, results)
    checks = workload.final_checks(results)
    starts = [fresh_start(args) for _ in range(SETUP_STARTS)]
    setup = statistics.median(s["ready_s"] for s in starts)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = latency_metrics(results)
    ok = sum(1 for r in results if r.category is None)
    values = {
        "ops_per_s": ok / elapsed,
        "op_p50_ms": lat["p50"],
        "op_tail_ms": lat["tail"],
        "ok_ratio": ok / len(results),
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "ops_per_s": f"{ok} ops completed in {elapsed:.3f} s",
        "op_tail_ms": f"p{lat['tail_pct']:.1f} of {lat['n']} ops",
        "ok_ratio": "1 - fail_ratio",
        "setup_s": "median of fresh starts "
        + ", ".join(f"{s['ready_s']:.3f}" for s in starts),
    }
    lines = [
        f"{k:<13} {v:.6g} {E2E_UNITS[k]}" + (f"  ({notes[k]})" if k in notes else "")
        for k, v in values.items()
    ]
    print_report(args, workload, env, results, lines, checks)
    finish(results, checks, {k: (v, E2E_UNITS[k]) for k, v in values.items()})


def trace(args, workload, env):
    """Traced run: per-layer metrics over the workload's first ``trace_ops`` ops."""
    import fso_adapt as fa
    import spans

    ops = list(itertools.islice(workload.ops(), workload.trace_ops))
    # each op runs untraced and then traced, back to back, so that a change
    # in machine speed during the run does not enter the overhead
    rec = spans.Recorder(fa)
    results = []
    untraced_s = traced_s = 0.0
    for i, op in enumerate(ops):
        untraced_s += run_op(workload, op).latency_s
        rec.install()
        try:
            rec.op_id = i
            results.append(run_op(workload, op))
        finally:
            rec.op_id = None
            rec.uninstall()
        traced_s += results[-1].latency_s
    classify(workload, results)
    checks = workload.final_checks(results)

    starts = [fresh_start(args) for _ in range(SETUP_STARTS)]
    timed_import = fresh_start(args, importtime=True)
    layers = rec.layer_metrics()
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in starts)
    layers["setup.import_scipy_integrate_s"] = timed_import["scipy_integrate_s"]
    layers["setup.models_s"] = statistics.median(s["models_s"] for s in starts)
    layers["trace.overhead_s"] = traced_s - untraced_s

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    rec.write(span_path)

    lines = [f"{k:<48} {v:.6g} {unit_of(k)}" for k, v in layers.items()]
    lines.append(f"{len(rec.spans)} spans written to {span_path.relative_to(ROOT)}")
    print_report(args, workload, env, results, lines, checks)
    finish(results, checks, {k: (v, unit_of(k)) for k, v in layers.items()})


def run_all(args):
    """Every workload in its own process, one after the other."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        print(flush=True)
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fso_adapt" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)

    import workloads

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.WORKLOADS[args.workload](args.seed, nproc)
    workload.build()
    workload.prepare()
    env = environment(nproc)
    (trace if args.trace else measure)(args, workload, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
