#!/usr/bin/env python3
"""Host-time benchmark of the PuDianNao reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source (release, offline, into
$CARGO_TARGET_DIR, default `.bench_build`), runs the one workload in a process
of its own, prints every metric by name and unit with the host fingerprint,
and prints as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, printing no result, if the build or the run fails.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["repro", "serve-heavy", "serve-chaos", "accel-exec"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, **kwargs):
    """Runs `cmd` to completion (killing it on timeout) and returns its exit code."""
    with subprocess.Popen(cmd, cwd=ROOT, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{cmd[0]} did not finish within {timeout} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        fail(f"--seed {args.seed} is not a u64")
    if not 1 <= args.seconds <= 600:
        fail(f"--seconds {args.seconds} is outside 1..600")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    code = run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed (exit {code})")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, f"{stem}.result.json")
    spans_path = os.path.join(out_dir, f"{stem}.spans.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    binary = os.path.join(target, "release", "pudiannao-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", result_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    # The experiments print their figures on stdout; only the result matters here.
    code = run_child(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.DEVNULL)
    if code != 0:
        fail(f"workload {args.workload} failed (exit {code})")
    with open(result_path) as f:
        result = json.load(f)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = spec["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    if [m["name"] for m in expected] != list(metrics):
        fail("emitted metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} is malformed: {got}")

    host = result["host"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']} nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"target-cpu={host['target_cpu']} REPRO_THREADS={host['repro_threads']}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    if result["raw"]:
        print("  as measured, before rescaling to the nominal host: "
              + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    for name, values in result["samples"].items():
        print(f"  {name} samples: " + " ".join(f"{v:.4f}" for v in values))
    ratio = result["failed"] / max(result["attempted"], 1)
    print(f"  checks: {result['failed']} failed of {result['attempted']} (failed_ratio {ratio:g})")
    if args.trace:
        print(f"  spans: {os.path.relpath(spans_path, ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
