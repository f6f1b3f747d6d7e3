"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's contract, runs each of the
three workloads (also `select-d20`, which BENCHMARK.json does not list)
untraced (twice, same seed) and traced at --scale tiny, and checks that the
last output line carries exactly the declared metrics with their units, that
every gate passes, that the two same-seed runs produced identical model
hashes on identical inputs, and that the command refuses to run in a
directory without the package source. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check(1 <= len(spec["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in spec["workloads"]), "workloads: name and one-line why")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
          "run_seconds is a whole number in [1, 60]")
    names = [w["name"] for w in spec["workloads"]]
    check(all(set(r) == {"name", "unit", "better", "bound"} and 0 < r["bound"] <= 0.25
              for r in spec["end_to_end"]), "end_to_end rows: keys, bound in (0, 0.25]")
    check(all(set(r) == {"name", "unit", "better"} for r in spec["per_layer"]),
          "per_layer rows: keys")
    rows = spec["end_to_end"] + spec["per_layer"]
    names += [r["name"] for r in rows]
    check(len(names) == len(set(names)), "every name is used once")
    check(all(NAME.fullmatch(n) for n in names), "every name matches [A-Za-z0-9_.-]+")
    check(all(UNIT.fullmatch(r["unit"]) and r["better"] in ("lower", "higher") for r in rows),
          "every metric has a unit and a direction")
    setup = [r for r in spec["end_to_end"] if r["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(r["bound"] for r in spec["end_to_end"]),
          "setup_s is declared in s, lower, with the largest bound")


def run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines: list[str], rows: list[dict], what: str) -> None:
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{what}: last line is JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct, nothing failed")
    metrics = result["metrics"]
    check(list(metrics) == [r["name"] for r in rows], f"{what}: exactly the declared metrics")
    check(all(isinstance(metrics[r["name"]]["value"], (int, float))
              and metrics[r["name"]]["unit"] == r["unit"] for r in rows if r["name"] in metrics),
          f"{what}: numeric values with the declared units")
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    check(all(r["name"] in printed for r in rows), f"{what}: every metric printed by name")


def hashes(workload: str) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, ".perfbench", f"last-{workload}-trace0.json")) as fh:
        outcomes = json.load(fh)["detail"]["outcomes"]
    return [(o["fingerprint"], o["model_hash"]) for o in outcomes]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "every declared workload is implemented")
    base = ["--seed", str(SEED), "--seconds", "1", "--scale", "tiny"]
    for w in WORKLOADS:
        code, lines = run(["--workload", w, "--trace", "0", *base])
        check(code == 0, f"{w} untraced: exit code 0")
        check_result(lines, spec["end_to_end"], f"{w} untraced")
        first = hashes(w)
        code, lines = run(["--workload", w, "--trace", "0", *base])
        second = hashes(w)
        n = min(len(first), len(second))
        check(code == 0 and n >= 1 and first[:n] == second[:n],
              f"{w}: same seed, same input fingerprints and model hashes")
        code, lines = run(["--workload", w, "--trace", "1", *base])
        check(code == 0, f"{w} traced: exit code 0")
        check_result(lines, spec["per_layer"], f"{w} traced")
        check(any(line.startswith("trace.overhead_s") for line in lines), f"{w}: tracing overhead")

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(["--workload", "select-d20", *base], cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              "without the package source: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
