#!/usr/bin/env python3
"""strukt benchmark: closed-loop workloads over the certified pipeline.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 36 --trace 0

One caller issues one op at a time; the next op starts when the previous one
has finished.  The measured time is split over CHILDREN worker processes run
one after another, each with STRUKT_NUM_THREADS=1 and one BLAS thread pinned
before numpy is imported; every worker sets up from scratch, so `setup_s` is
the median of CHILDREN set-ups.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` ops are assigned at random to a traced
or an untraced path, and the run reports the per-layer metrics from the
traced ops (spans go to perfbench/out/).  The last line of standard output
is one JSON object; the exit code is 1 when any op fails its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILDREN = 3
MIN_OPS = 100  # at least ten samples beyond p90
RUN_BUDGET_S = 170.0
WORKLOAD_NAMES = ("certify-large", "certify-small", "linearize-verify")
PINNED_ENV = {
    "STRUKT_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Per-layer "_ms" metrics are self time per traced op of one span name.
SPAN_METRICS = {
    "sylvester.fixed_point_ms": "sylvester.quadratic_fixed_point",
    "minbases.dual_complete_ms": "minbases.dual_basis_complete",
    "backward.draw_self_ms": "backward.random_structured_perturbation",
    "backward.congruence_self_ms": "backward.congruence_zero_block",
    "backward.reconstruct_self_ms": "backward.reconstruct_perturbed_polynomial",
    "backward.trial_self_ms": "backward.run_certification",
    "linearize.build_ms": "linearize.build_linearization",
    "linearize.recover_ms": "linearize.recover",
    "polycore.random_structured_ms": "polycore.random_structured",
    "spectra.pencil_eigs_ms": "spectra.pencil_eigs",
    "spectra.reference_polyeigs_ms": "spectra.reference_polyeigs",
    "spectra.compare_ms": "spectra.compare_spectra",
    "spectra.symmetry_ms": "spectra.symmetry_check",
}


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _monotonic() -> float:
    # system-wide clock, comparable between the parent and its workers
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _openblas_call(lib, fn: str, restype):
    for name in (f"scipy_openblas_{fn}64_", f"scipy_openblas_{fn}", f"openblas_{fn}"):
        func = getattr(lib, name, None)
        if func is not None:
            func.restype = restype
            return func()
    return None


def blas_info() -> list[dict]:
    """OpenBLAS builds loaded by numpy and scipy, with their live thread count."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            config = _openblas_call(lib, "get_config", ctypes.c_char_p)
            out.append(
                {
                    "package": pkg.__name__,
                    "config": config.decode() if config else None,
                    "threads": _openblas_call(lib, "get_num_threads", ctypes.c_int),
                }
            )
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "pinned": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def run_child(spec, seed: int, child: int, children: int, seconds: float, trace: bool, min_ops: int) -> dict:
    """Set up one workload, warm it up, and run the timed closed loop.

    The op sequence starts at a different point of the request cycle in each
    worker, so together the workers cover the cycle evenly.
    """
    import workloads
    from tracer import Tracer, layer_table

    requests = spec.requests(seed)
    seeds = workloads.request_seeds(seed, child)
    mask = workloads.trace_mask(seed, child) if trace else None
    tracer = Tracer(workloads.TRACED) if trace else None
    warm = {}
    for req in requests:
        warm.setdefault(req.shape, req)
    for req in warm.values():
        req.run(int(seeds[-1]))

    shapes = list(warm)
    start = child * len(requests) // children
    ms, traced, shape_of = [], [], []
    failed, iters, certified, max_rob = 0, 0, 0, 0.0
    harness_errors: dict[str, int] = defaultdict(int)
    first_op_at = _monotonic()
    begin = time.perf_counter()
    j = 0
    while True:
        req = requests[(start + j) % len(requests)]
        on = trace and bool(mask[j % len(mask)])
        if on:
            tracer.op = j
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = req.run(int(seeds[j % len(seeds)]))
        except Exception as exc:  # counted as a failed op; the loop goes on
            harness_errors[type(exc).__name__] += 1
            out = None
        t1 = time.perf_counter()
        if on:
            tracer.uninstall()
        ms.append((t1 - t0) * 1e3)
        traced.append(on)
        shape_of.append(shapes.index(req.shape))
        if out is None or not out.ok:
            failed += 1
        else:
            iters += out.iters
            if not math.isnan(out.ratio_over_bound):
                certified += 1
                max_rob = max(max_rob, out.ratio_over_bound)
        j += 1
        elapsed = t1 - begin
        if elapsed >= seconds and (j >= min_ops or elapsed >= 2 * seconds + 1.0):
            break
    result = {
        "first_op_at": first_op_at,
        "elapsed_s": elapsed,
        "op_ms": ms,
        "traced": traced,
        "shape": shape_of,
        "attempted": j,
        "failed": failed,
        "iters": iters,
        "certified": certified,
        "max_ratio_over_bound": max_rob,
        "harness_errors": dict(harness_errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["layers"] = layer_table(tracer.spans)
        result["spans"] = [
            [s.name, s.start - begin, s.end - begin, s.parent, s.op, s.error]
            for s in tracer.spans
        ]
    return result


def child_main(args) -> int:
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    result = run_child(
        spec,
        args.seed,
        args.child,
        CHILDREN,
        args.seconds / CHILDREN,
        bool(args.trace),
        math.ceil(MIN_OPS / CHILDREN),
    )
    result["env"] = environment()
    spans = result.pop("spans", None)
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}-child{args.child}.spans.json"
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op", "error"], "spans": spans}, fh)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(results: list[dict], trace: bool) -> tuple[dict, dict]:
    """Metrics of the run (end-to-end or per-layer) and extra figures for people."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    extras = {
        "fail_frac": _metric(failed / attempted, "ratio"),
        "max_ratio_over_bound": _metric(max(r["max_ratio_over_bound"] for r in results), "ratio"),
    }
    if not trace:
        ms = [x for r in results for x in r["op_ms"]]
        p90 = statistics.quantiles(ms, n=10)[8]
        extras["samples"] = _metric(len(ms), "count")
        extras["samples_beyond_p90"] = _metric(sum(x > p90 for x in ms), "count")
        metrics = {
            "setup_s": _metric(statistics.median(r["setup_s"] for r in results), "s"),
            "ops_per_s": _metric(attempted / sum(r["elapsed_s"] for r in results), "ops/s"),
            "op_ms_p50": _metric(statistics.median(ms), "ms"),
            "op_ms_p90": _metric(p90, "ms"),
            "peak_rss_mb": _metric(max(r["peak_rss_mb"] for r in results), "MB"),
        }
        return metrics, extras

    traced_ms = [x for r in results for x, on in zip(r["op_ms"], r["traced"]) if on]
    n_traced = len(traced_ms)
    total_ms = sum(traced_ms)
    layers = merge_layers(results)

    def self_ms(name):
        return layers.get(name, {}).get("self_s", 0.0) * 1e3

    def errors(name):
        return sum(layers.get(name, {}).get("errors", {}).values())

    metrics = {
        name: _metric(self_ms(span) / n_traced, "ms") for name, span in SPAN_METRICS.items()
    }
    spectra_ms = sum(self_ms(name) for name in layers if name.startswith("spectra."))
    metrics.update(
        {
            "sylvester.fixed_point_share": _metric(self_ms("sylvester.quadratic_fixed_point") / total_ms, "ratio"),
            "sylvester.sweeps_per_trial": _metric(sum(r["iters"] for r in results) / attempted, "count"),
            "sylvester.errors": _metric(errors("sylvester.quadratic_fixed_point"), "count"),
            "minbases.dual_complete_share": _metric(self_ms("minbases.dual_basis_complete") / total_ms, "ratio"),
            "minbases.errors": _metric(errors("minbases.dual_basis_complete"), "count"),
            "backward.certified_per_attempt": _metric(sum(r["certified"] for r in results) / attempted, "ratio"),
            "backward.max_ratio_over_bound": extras["max_ratio_over_bound"],
            "spectra.share": _metric(spectra_ms / total_ms, "ratio"),
            "trace.overhead_frac": _metric(trace_overhead(results), "ratio"),
        }
    )
    extras["traced_ops"] = _metric(n_traced, "count")
    return metrics, extras


def merge_layers(results: list[dict]) -> dict:
    merged: dict = {}
    for r in results:
        for name, row in r["layers"].items():
            into = merged.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": {}})
            into["self_s"] += row["self_s"]
            into["calls"] += row["calls"]
            for cls, count in row["errors"].items():
                into["errors"][cls] = into["errors"].get(cls, 0) + count
    return merged


def trace_overhead(results: list[dict]) -> float:
    """Traced over untraced median op time, per request shape, weighted by ops.

    Shapes differ in cost by up to two orders of magnitude, so comparing
    within a shape keeps the random traced/untraced split from adding noise.
    """
    groups = defaultdict(lambda: ([], []))
    for r in results:
        for x, on, shape in zip(r["op_ms"], r["traced"], r["shape"]):
            groups[shape][on].append(x)
    weighted = total = 0
    for plain, traced in groups.values():
        if plain and traced:
            weight = len(plain) + len(traced)
            weighted += weight * statistics.median(traced) / statistics.median(plain)
            total += weight
    return weighted / total - 1.0 if total else math.nan


# ---------------------------------------------------------------------------
# Parent process
# ---------------------------------------------------------------------------

def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")


def _env_line(env: dict) -> str:
    blas = "; ".join(f"{b['package']}: {b['config']} threads={b['threads']}" for b in env["blas"])
    pinned = " ".join(f"{k}={v}" for k, v in env["pinned"].items())
    return (
        f"env nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} {pinned} | {blas}"
    )


def parent_main(args) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = {**os.environ, **PINNED_ENV}
    results = []
    for child in range(CHILDREN):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--child", str(child),
        ]
        spawned_at = _monotonic()
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"worker {child} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode if proc.returncode > 0 else 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["first_op_at"] - spawned_at
        results.append(result)

    metrics, extras = summarize(results, bool(args.trace))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} workers={CHILDREN}")
    print(_env_line(results[0]["env"]))
    _print_table("per-layer metrics" if args.trace else "end-to-end metrics", metrics)
    _print_table("checks and counts", extras)
    layers = merge_layers(results) if args.trace else {}
    harness = defaultdict(int)
    for r in results:
        for cls, count in r["harness_errors"].items():
            harness[cls] += count
    for name, row in sorted(layers.items()):
        for cls, count in row["errors"].items():
            print(f"  error {cls} raised through {name}: {count}")
    for cls, count in harness.items():
        print(f"  error {cls} escaped an op: {count}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}.layers.json", "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "env": results[0]["env"],
                    "metrics": metrics,
                    "layers": layers,
                    "harness_errors": harness,
                },
                fh,
                indent=1,
            )
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
