"""rika-ray layered benchmark: one closed-loop workload per run.

    python3 layerbench/run.py --workload extract_mixed --seed 1 --seconds 10 --trace 0

Inputs come from ``--seed`` (see ``inputs.py``; ``prepare.py`` makes them
ahead of time). Ray starts with one CPU (``harness.NUM_CPUS``). Set-up
(``ray.init`` + one warm-up job on inputs from another seed) is repeated
``SETUP_REPEATS`` times and reported as a median; after each, whole
extraction jobs run in that Ray session for its share of ``--seconds``.
The outputs are then checked against an independent expectation, and the
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes one
set-up, runs one job with a span around it, sends the seed's inputs
through every layer's public entry point (``layers.py``) and reports
per-layer metrics; its spans go to ``.layerbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SETUP_REPEATS = 3
# The whole run after input preparation may take --seconds plus this: three
# set-ups (~5 s each), the job that ends the window, the output checks and,
# in a traced run, the layer probes (~45 s together) fit three times over.
RUN_MARGIN_S = 150


def end_to_end(setups: list[float], jobs: list[float], n_docs: int, peak_rss: float) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "docs_per_s": (statistics.median(n_docs / t for t in jobs), "docs/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}", file=sys.stderr)


def _setup(workload, harness) -> tuple[float, float]:
    t0 = time.perf_counter()
    with harness.deadline("ray.init", 60):
        harness.ray_init()
    t1 = time.perf_counter()
    workload.warmup()
    return t1 - t0, time.perf_counter() - t1


def main() -> int:
    ap = argparse.ArgumentParser(description="rika-ray layered benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "rika_ray", "__init__.py")):
        print(
            f"layerbench: no rika_ray package under {ROOT}; run from the root "
            "of a rika-ray checkout",
            file=sys.stderr,
        )
        return 2
    from layerbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"layerbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out_dir = os.path.join(harness.work_dir(), "out", f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    workload.prepare()
    if args.trace:
        from layerbench import inputs

        inputs.prepare(args.seed)  # the traced run probes every layer
    # import the engine before the clock starts: set-up times Ray, not Python
    import rika_ray.pipelines.extraction  # noqa: F401

    try:
        with harness.deadline(f"{args.workload} run", args.seconds + RUN_MARGIN_S):
            if args.trace:
                result = _traced(args, workload, harness)
            else:
                result = _untraced(args, workload, harness)
    finally:
        harness.stop_all()
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _untraced(args, workload, harness) -> dict:
    # Each set-up starts a Ray session that then runs its share of the
    # window: the jobs of one session ran at much the same speed while two
    # runs' sessions differed by ~13% on a shared host, so the median job
    # of several sessions is steadier than the jobs of one.
    tracer = harness.NoTracer()
    setups, jobs, peaks = [], [], []
    for i in range(SETUP_REPEATS):
        if i:
            harness.ray_shutdown()
        init_s, warm_s = _setup(workload, harness)
        setups.append(init_s + warm_s)
        t_end = time.perf_counter() + args.seconds / SETUP_REPEATS
        jobs.append(workload.job(tracer))
        # a worker's peak grows a little with every job it runs, and how
        # many jobs fit in a session varies: read the peaks after the first.
        # Now and then a session's worker peaks ~25 MB (~10%) higher; the
        # smallest of the sessions' peaks leaves such a session out.
        peaks.append(harness.tree_peak_rss_mb())
        while time.perf_counter() < t_end:
            jobs.append(workload.job(tracer))
    with harness.deadline(f"{args.workload} output check", 120):
        problems = workload.check()
    for p in problems:
        print(f"layerbench: check failed: {p}", file=sys.stderr)
    metrics = end_to_end(setups, jobs, workload.n_docs, min(peaks))
    _print_table(
        f"{args.workload} seed={args.seed} cpus={harness.NUM_CPUS} "
        f"docs={workload.n_docs} jobs={len(jobs)} "
        f"({', '.join(f'{t:.2f}' for t in jobs)} s)",
        metrics,
    )
    return {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _traced(args, workload, harness) -> dict:
    from layerbench import layers

    tracer = harness.Tracer()
    with tracer.span("setup"):
        init_s, warm_s = _setup(workload, harness)
    job_s = workload.job(tracer)
    problems = workload.check()
    n_spans = len(tracer.spans)
    metrics = {
        "setup.ray_init_s": (init_s, "s"),
        "setup.warmup_s": (warm_s, "s"),
        # what the spans of the set-up and the traced job cost, as a share
        # of the job
        "trace.overhead_pct": (
            n_spans * harness.span_cost_s() / job_s * 100.0, "%"
        ),
    }
    layer_metrics, layer_problems = layers.measure_all(
        args.seed, tracer, workload.out_dir
    )
    metrics.update(layer_metrics)
    problems += layer_problems
    for p in problems:
        print(f"layerbench: check failed: {p}", file=sys.stderr)
    path = os.path.join(
        harness.work_dir(), "traces", f"{args.workload}-seed{args.seed}.json"
    )
    tracer.write(path)
    _print_table(
        f"{args.workload} seed={args.seed} per-layer, traced job "
        f"{job_s:.3f} s (spans: {os.path.relpath(path, ROOT)})",
        metrics,
    )
    return {
        "correct": not problems,
        "attempted": 1,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    raise SystemExit(main())
