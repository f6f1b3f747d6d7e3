"""One measured process of the benchmark, started by run.py.

Modes:
  setup  import, warm up on a fixed tiny input, build the first dataset's
         inputs, report the set-up time;
  run    as setup, then time one dataset after another until --seconds of
         timed work have passed, checking each dataset's outputs;
  trace  run the first dataset untraced, then again with every layer
         wrapped, and report the per-layer metrics.

The result is printed as one JSON line on standard output. BLAS thread
counts are pinned by the parent through the environment, before NumPy is
imported here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run(wl, prepared0, args, kappa_cap) -> dict:
    times, outcomes = [], []
    prepared, j = prepared0, 0
    while True:
        t0 = time.perf_counter()
        result = wl.run(prepared)
        times.append(time.perf_counter() - t0)
        outcomes.append(dataclasses.asdict(wl.check(prepared, result, kappa_cap)))
        j += 1
        if sum(times) >= args.seconds:
            break
        prepared = wl.prepare(args.seed, j)
    return {"times": times, "outcomes": outcomes}


def _trace(wl, prepared, args, kappa_cap) -> dict:
    import spans
    import workloads

    t0 = time.perf_counter()
    result = wl.run(prepared)
    untraced_s = time.perf_counter() - t0
    plain = wl.check(prepared, result, kappa_cap)

    tracer = spans.Tracer(kappa_cap, run_id=prepared[0])
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = wl.run(prepared)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    traced = wl.check(prepared, result, kappa_cap)

    expect = spans.EXPECT[wl.name]
    gates = {"traced_equals_untraced": plain.model_hash == traced.model_hash}
    gates["em_ascent_every_fit"] = all(workloads.em_ascends(f.trace) for _, f in tracer.fits)
    gates["params_valid_every_fit"] = all(
        workloads.params_valid(f.params.alpha, f.params.means, f.params.kappas, kappa_cap)
        for _, f in tracer.fits)
    for layer in expect["active"]:
        gates[f"active:{layer}"] = tracer.calls_under(layer) > 0
    for layer in expect["idle"]:
        gates[f"idle:{layer}"] = tracer.calls_under(layer) == 0
    layer = tracer.layer_metrics(traced_s)
    layer["trace.wall_s"] = traced_s
    layer["trace.untraced_wall_s"] = untraced_s
    layer["trace.overhead_s"] = traced_s - untraced_s
    os.makedirs(args.outdir, exist_ok=True)
    tracer.write_spans(os.path.join(args.outdir, f"spans-{wl.name}.csv"))
    return {"outcomes": [dataclasses.asdict(plain), dataclasses.asdict(traced)],
            "trace_gates": gates, "per_layer": layer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy
    import sparsevmf
    from sparsevmf import vmf

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sparsevmf.__file__), src]) != src:
        raise SystemExit(f"sparsevmf imported from {sparsevmf.__file__}, not from {src}")
    import workloads

    workdir = os.path.join(args.outdir, f"work-{os.getpid()}")
    # First-call initialisation (lazy imports inside NumPy, SciPy and the
    # package) is set-up, not solving: a fixed tiny pass of the same workload
    # pays it here, so it counts in setup_s and stays out of wall_s.
    warm = workloads.make(args.workload, "tiny", workdir)
    warm.run(warm.prepare(0, 0))
    wl = workloads.make(args.workload, args.scale, workdir)
    prepared = wl.prepare(args.seed, 0)
    out = {"setup_s": time.monotonic() - args.spawned_at, "kappa_cap": vmf.KAPPA_CAP}
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__,
                       "blas": f"{blas.get('name')} {blas.get('version')}"}
    try:
        if args.mode == "run":
            out.update(_run(wl, prepared, args, vmf.KAPPA_CAP))
        elif args.mode == "trace":
            out.update(_trace(wl, prepared, args, vmf.KAPPA_CAP))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
