#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the pgperf
binary) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset, then runs pgperf pinned to one CPU, with OpenMP on one
thread and every PARAGRAPH_* variable removed from its environment. Artifacts of the run (checkpoints, corpus, spans,
results.json) go to .bench_runs/<workload>-seed<n>-trace<t>/.

The last line of standard output is the result object of pgperf. The exit
code is pgperf's: 0 ok, 1 an output check failed, 3 the traced run's spans
covered too little of the wall time. A missing source tree, a failed build or
a crash exits 2 without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_uniform", "serve_zipf_cache", "advise", "train_stream")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SOURCE_DIRS = ("src", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the root build file and every file under SOURCE_DIRS."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pgperf",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "pgperf")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench_cpu():
    """The one CPU every run is pinned to: the last one this process may use.

    On the 4-vCPU virtual machine the benchmark was built on, the host at
    times runs all four vCPUs on one core for seconds (a fixed 4-thread loop
    then takes 4x as long, with no steal time reported). Multi-threaded
    throughput, and the in-process server's cross-vCPU wake-ups, swung by
    20-50% between runs; pinned to one vCPU the same workloads held within
    about 5-8%. OpenMP is set to one thread to match."""
    return max(os.sched_getaffinity(0))


def child_env():
    """The caller's environment without PARAGRAPH_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARAGRAPH_")}
    env["OMP_NUM_THREADS"] = "1"
    return env


def run(binary, args, env, cpu, env_block):
    run_dir = os.path.join(ROOT, ".bench_runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--env-json", json.dumps(env_block)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=run_dir,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode == 2 or proc.returncode < 0:
        sys.stdout.write(out)
        fail(f"pgperf exited with {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("pgperf printed no result line")
    names = expected_metrics(args.trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        fail("pgperf's metrics differ from BENCHMARK.json")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no ParaGraph source tree at {ROOT}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    env = child_env()
    cpu = bench_cpu()
    env_block = {
        "cpu_affinity": [cpu],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "paragraph_env_removed": {k: v for k, v in os.environ.items()
                                  if k.startswith("PARAGRAPH_")},
        "omp_env": {k: v for k, v in env.items()
                    if k.startswith(("OMP_", "GOMP_"))},
    }
    sys.exit(run(binary, args, env, cpu, env_block))


if __name__ == "__main__":
    main()
