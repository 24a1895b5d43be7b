#!/usr/bin/env python3
"""The lemra benchmark: one closed-loop workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package
(`perfbench/Cargo.toml`) and the `lemra-server` binary in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and prints
a fingerprint line, an inputs line and, last, one JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json;
with `--trace 1` the per-layer ones. A traced run first makes an untraced
reference run of half the length, so it can report the tracing overhead
(`trace.overhead_ratio`, traced over untraced `latency_p50_ms`).

Exits non-zero without a result if the build fails, the run fails or the
printed metrics differ from those BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("alloc-static", "program", "server")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["-p", "lemra-server", "--bin", "lemra-server"],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def output(cmd, default="unknown"):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return default
    return done.stdout.strip() if done.returncode == 0 else default


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for directory, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(directory, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def fingerprint():
    top = output(["git", "rev-parse", "--show-toplevel"], default="")
    revision = "none"
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        revision = output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "rustc": output(["rustc", "-V"]),
        "revision": revision,
        "source_sha256": source_digest(),
    }


def run_once(args, seconds, trace):
    """Runs the benchmark binary once; returns its info lines and result."""
    release = os.path.join(target_dir(), "release")
    cmd = [
        os.path.join(release, "lemra-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--server-bin", os.path.join(release, "lemra-server"),
    ]
    # Its own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    print("# fingerprint " + json.dumps(fingerprint()))
    if args.trace:
        ref_info, reference = run_once(args, args.seconds / 2, 0)
        info, result = run_once(args, args.seconds, 1)
        for line in ref_info:
            print(line.replace("# inputs", "# reference inputs", 1))
        untraced = reference["metrics"].get("latency_p50_ms", {}).get("value")
        traced = result["metrics"].get("trace.traced_p50_ms", {}).get("value")
        if not untraced or not traced:
            fail("tracing overhead needs both latency medians")
        result["metrics"]["trace.untraced_p50_ms"] = {"value": untraced, "unit": "ms"}
        result["metrics"]["trace.overhead_ratio"] = {"value": traced / untraced,
                                                     "unit": "ratio"}
        result["correct"] = result["correct"] and reference["correct"]
        result["attempted"] += reference["attempted"]
        result["failed"] += reference["failed"]
    else:
        info, result = run_once(args, args.seconds, 0)
    for line in info:
        print(line)

    names = declared(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    result["metrics"] = {name: result["metrics"][name] for name in names}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
