#!/usr/bin/env python3
"""Whole-simulator benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `vantage-perfbench` package from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs it, checks its simulated
statistics against the references recorded in `reference.json` when the
seed has one, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. `--record` stores this run's
fingerprint (and, traced, its exact work counts) as the reference for the
seed instead of checking against it. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark and returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "vantage-perfbench")


def spec_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true",
                    help="store this run as the seed's reference")
    args = ap.parse_args()
    trace = args.trace == 1
    expected = spec_metrics(trace)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"benchmark exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    out = json.loads(lines[-1])

    problems = list(out["problems"])
    runs, attempted, failed = out["runs"], out["attempted"], out["failed"]
    metrics = out["metrics"]
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}

    # The recorded references: simulated statistics must match exactly.
    refs = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            refs = json.load(f)
    key = str(args.seed)
    entry = refs.setdefault(args.workload, {}).setdefault(key, {})
    if args.record:
        entry["fingerprint"] = out["fingerprint"]
        if trace:
            entry["counts"] = counts
        with open(REFERENCE, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
    else:
        mismatch = []
        if "fingerprint" in entry and entry["fingerprint"] != out["fingerprint"]:
            mismatch += [k for k, v in entry["fingerprint"].items()
                         if out["fingerprint"].get(k) != v]
        if trace and "counts" in entry:
            mismatch += [k for k, v in entry["counts"].items() if counts.get(k) != v]
        if mismatch:
            problems.append("differs from the recorded reference in: "
                            + ", ".join(sorted(set(mismatch))))
            # Every run reproduces the same statistics, so all of them fail.
            failed += runs

    if not trace:
        metrics["pass_frac"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    result = {}
    for m in expected:
        name, unit = m["name"], m["unit"]
        got = metrics.pop(name, None)
        if got is None:
            if not trace:
                fail(f"end-to-end metric {name} was not measured")
            # A layer the workload does not exercise.
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name} reported in {got['unit']}, BENCHMARK.json says {unit}")
        result[name] = got
    if metrics:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(sorted(metrics)))

    for p in problems:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))


if __name__ == "__main__":
    main()
