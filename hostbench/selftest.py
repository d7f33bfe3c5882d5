#!/usr/bin/env python3
"""Self-test of the host-cost benchmark's own files.

From the repository root, `python3 hostbench/selftest.py` checks that

  * BENCHMARK.json and hostbench/layers.json name the same per-layer
    metrics with the same units;
  * BENCHMARK.json gates only workloads the driver knows;
  * every workload, gated or not, run for one second in both modes, exits 0
    and prints as its last line a result whose metrics are exactly the ones
    BENCHMARK.json names, each with its unit and a finite value;
  * each oracle fails the run on a deliberately broken input (--inject);
  * with only BENCHMARK.json and hostbench/ present, the benchmark exits
    non-zero without printing a result.

Exits 0 when every check passes. Takes a few minutes.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload the driver runs; BENCHMARK.json gates a subset.
WORKLOADS = ("inline_geo", "digest_dissem", "streamlet_echo", "churn_audit")

# (workload, --trace, --inject, message the failing run must print)
BROKEN = [
    ("streamlet_echo", "0", "stall", "no in-window commit"),
    ("streamlet_echo", "0", "corrupt", "corrupt drops on clean links"),
    ("churn_audit", "0", "naive", "safety auditor violations"),
    ("streamlet_echo", "1", "trace-drift", "tracing changed"),
]


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join("hostbench", "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout, proc.stderr


def result_problems(result, expected):
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return ["last stdout line is not a result object"]
    problems = []
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(expected))
    missing = sorted(set(expected) - set(metrics))
    if extra or missing:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"extra {extra}, missing {missing}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: malformed entry {entry!r}")
            continue
        if entry["unit"] != unit:
            problems.append(f"{name}: unit {entry['unit']!r}, want {unit!r}")
        value = entry["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
    attempted, failed = result["attempted"], result["failed"]
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted = {attempted!r}")
    if not isinstance(failed, int) or failed < 0:
        problems.append(f"failed = {failed!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    units = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []

    def check(label, problems):
        print(("ok    " if not problems else "FAIL  ") + label, flush=True)
        failures.extend(f"{label}: {p}" for p in problems)

    documented = {m["name"]: m["unit"] for m in layers["per_layer"]}
    check("layers.json matches BENCHMARK.json",
          [] if documented == units["1"] else
          ["per-layer names or units differ"])

    gated = [w["name"] for w in bench["workloads"]]
    check("BENCHMARK.json gates only driver workloads",
          [f"unknown workloads {sorted(set(gated) - set(WORKLOADS))}"]
          if not set(gated) <= set(WORKLOADS) else [])

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result, _, err = run(["--workload", workload, "--seed", "7",
                                        "--seconds", "1", "--trace", trace])
            problems = result_problems(result, units[trace])
            if code != 0 or not isinstance(result, dict) or \
                    result.get("correct") is not True:
                problems.append(f"run failed (exit {code}): "
                                f"{err.strip()[-800:]}")
            check(f"{workload} --trace {trace}", problems)

    for workload, trace, inject, message in BROKEN:
        code, result, _, err = run(["--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", trace,
                                    "--inject", inject])
        fired = (code != 0 and isinstance(result, dict)
                 and result.get("correct") is False
                 and result.get("failed", 0) > 0 and message in err)
        check(f"{workload} --inject {inject} fails the run",
              [] if fired else [f"oracle did not fire (exit {code}): "
                                f"{err.strip()[-800:]}"])

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    code, _, out, _ = run(["--workload", "inline_geo", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check("refuses to run without the library sources",
          [] if code != 0 and '"correct"' not in out else [f"exit {code}"])

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
