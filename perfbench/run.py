#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the C++ benchmark (perfbench/ plus
the library sources under src/) into the build directory on first use,
runs one workload in its own process, and relays its output. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it (`record: {...}`) carries the
provenance and every metric of the run. The exit status is non-zero when a
build, run or output check fails.

Workloads: paper_offline, exact_offline, serve_open, shard_open (see
perfbench/README.md). Development seeds are 1..10; seed 20180813 is held
out for confirming a claimed gain.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_offline", "exact_offline", "serve_open", "shard_open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_id():
    """Git commit of the checkout, or a digest of the sources it builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return "tree:" + digest.hexdigest()[:16]


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "embedder.hpp")):
        raise RuntimeError("library sources (src/) not found beside perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise RuntimeError(f"{tool} not found on PATH")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        log("configuring " + build_dir)
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        raise RuntimeError("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        log(f"build failed: {exc}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
        return 2

    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 2
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"{args.workload} failed its output checks")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
