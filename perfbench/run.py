#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program and run one workload.

    python3 perfbench/run.py --workload <kernels-1t|kernels-4t|service-mixed>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--corrupt-every <n>]

Run from the repository root. Builds perfbench/ (which builds the SySTeC
library from the repository's own CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build), runs the program with a fresh native-kernel cache
directory that is deleted afterwards, and forwards its output. The last
line of standard output is the result JSON. --corrupt-every n corrupts
every nth checked output, to show that verification catches it (the run
then reports correct: false and a nonzero failed count).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root, env):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-every", type=int, default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "Compiler.h")):
        log("perfbench: the SySTeC sources (src/) are not in this checkout")
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compilers (the build and the native engine's JIT) keep their
    # temporary files inside the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        exe = build(build_root, env)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    # The native engine's kernel cache: every executor with an empty
    # ExecOptions::NativeCacheDir (all of them, since the workloads keep
    # the default options) uses this fresh directory.
    jit_dir = tempfile.mkdtemp(prefix="jit-", dir=build_root)
    env["SYSTEC_JIT_CACHE_DIR"] = jit_dir
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_every:
        cmd += ["--corrupt-every", str(args.corrupt_every)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)

    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines) + "\n")
        log(f"perfbench: benchmark program exited with {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: benchmark program printed no result line")
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
