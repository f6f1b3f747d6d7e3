"""sparsevmf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload select-d20 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src. Each
run is its own child process (closed loop, one caller) with BLAS pinned to
one thread. With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; set-up time is the median over several fresh processes.
With --trace 1 it runs the first dataset untraced and traced and reports the
per-layer metrics. Every metric is printed by name and unit, then the last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when a
correctness gate fails and 2 when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("select-d20", "path-d200-tight", "cli-simulate-d200")
SETUP_PROCESSES = 2      # set-up-only processes, on top of the measuring one
TIME_LIMIT_S = 170.0     # whole run, children included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale, "--outdir", OUTDIR]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process exceeded the {TIME_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RunError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def _tally(outcomes, extra_gates=None):
    """attempted = operations + gates; failed = failed operations + failed gates."""
    attempted = sum(o["ops"] + len(o["gates"]) for o in outcomes)
    failed = sum(o["failed_ops"] + sum(not ok for ok in o["gates"].values()) for o in outcomes)
    if extra_gates:
        attempted += len(extra_gates)
        failed += sum(not ok for ok in extra_gates.values())
    return attempted, failed


def _untraced(args, deadline) -> tuple[dict, dict]:
    main = _child("run", args, deadline)
    setups = [main["setup_s"]]
    for _ in range(SETUP_PROCESSES):
        setups.append(_child("setup", args, deadline)["setup_s"])
    outcomes, times = main["outcomes"], main["times"]
    attempted, failed = _tally(outcomes)
    values = {
        "wall_s": statistics.fmean(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
        "ari": _mean(o["ari"] for o in outcomes),
        "pll_per_obs": _mean(o["pll_per_obs"] for o in outcomes),
        "support_precision": _mean(o["support_precision"] for o in outcomes),
        "support_recall": _mean(o["support_recall"] for o in outcomes),
        "overlap_rel_err": _mean(o["overlap_rel_err"] for o in outcomes),
        "failed_frac": failed / attempted,
    }
    detail = {"datasets": len(times), "times_s": times, "setup_samples_s": setups,
              "wall_s_median": statistics.median(times), "wall_s_max": max(times),
              "kappa_cap": main["kappa_cap"],
              "versions": main["versions"], "outcomes": outcomes,
              "attempted": attempted, "failed": failed}
    return values, detail


def _traced(args, deadline) -> tuple[dict, dict]:
    res = _child("trace", args, deadline)
    attempted, failed = _tally(res["outcomes"], res["trace_gates"])
    detail = {"trace_gates": res["trace_gates"], "kappa_cap": res["kappa_cap"],
              "versions": res["versions"],
              "outcomes": res["outcomes"], "peak_rss_mb": res["peak_rss_mb"],
              "attempted": attempted, "failed": failed}
    return res["per_layer"], detail


# Reported beside the BENCHMARK.json metrics; "-" where a workload has no such quantity.
EXTRA = (("support_precision", "ratio", "higher"), ("support_recall", "ratio", "higher"),
         ("overlap_rel_err", "ratio", "lower"), ("failed_frac", "ratio", "lower"))


def _fmt(v) -> str:
    return "-" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed work per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the smoke test")
    args = ap.parse_args(argv)
    # A terminated run still stops and reaps its child (see _child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "sparsevmf")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'sparsevmf')}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        values, detail = (_traced if args.trace else _untraced)(args, deadline)
    except RunError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 2
    rows = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [r["name"] for r in rows if values.get(r["name"]) is None]
    metrics = {r["name"]: {"value": values[r["name"]], "unit": r["unit"]}
               for r in rows if r["name"] not in missing}
    correct = detail["failed"] == 0 and not missing

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_commit": _git_commit(),
           "seed": args.seed, "workload": args.workload, "scale": args.scale,
           "kappa_cap": detail["kappa_cap"], **{v: "1" for v in THREAD_VARS}}
    env.update(detail["versions"])
    os.makedirs(OUTDIR, exist_ok=True)
    with open(os.path.join(OUTDIR, f"last-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "values": values, "detail": detail}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256 of dataset 0: {detail['outcomes'][0]['fingerprint'] or '-'}")
    if not args.trace:
        print(f"datasets {detail['datasets']}: wall_s is their mean; median "
              f"{detail['wall_s_median']:.4f} s, slowest {detail['wall_s_max']:.4f} s")
    for r in rows:
        print(f"{r['name']:<42} {_fmt(values.get(r['name'])):>14} {r['unit']:<8} {r['better']}")
    if not args.trace:
        for name, unit, better in EXTRA:
            print(f"{name:<42} {_fmt(values[name]):>14} {unit:<8} {better}")
    gates = dict(detail.get("trace_gates", {}))
    unit = "pass" if args.trace else "dataset"   # a traced run has two passes over dataset 0
    for i, o in enumerate(detail["outcomes"]):
        for g, ok in o["gates"].items():
            if not ok:
                gates[f"{g}[{unit} {i}]"] = False
    failing = [g for g, ok in gates.items() if not ok] + [f"missing metric {m}" for m in missing]
    print("gates " + ("all passed" if not failing else "FAILED: " + ", ".join(failing)))
    print(json.dumps({"correct": correct, "attempted": detail["attempted"] + len(missing),
                      "failed": detail["failed"] + len(missing), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
