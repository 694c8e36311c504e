#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload joblight|live-dram|fleet \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build (CMake, Release) goes to the
directory named by CARGO_TARGET_DIR, default .bench_build; build output goes
to stderr so the last line of stdout is the benchmark's JSON result. With
--trace 1 the spans are written to <build dir>/traces/ and their summary
(spans.py) is printed before the result line. Every result line is also kept
in <build dir>/results/, where spans.py finds the untraced query_s to price
the tracing overhead.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(d)


def build(out_dir):
    """Configures and builds ccf_perfbench; returns its path or None."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", cmake_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(cmake_dir, "ccf_perfbench")


def arg_value(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    workload = arg_value(args, "--workload", "unknown")
    seed = arg_value(args, "--seed", "1")
    trace = arg_value(args, "--trace", "0")
    tag = "%s-seed%s-trace%s" % (workload, seed, trace)
    for sub in ("scratch", "traces", "results"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    cmd = [binary] + args + [
        "--scratch", os.path.join(out_dir, "scratch"),
        "--trace-out", os.path.join(out_dir, "traces", tag + ".jsonl")]
    if trace != "0":  # a stale trace must not be summarized as this run's
        try:
            os.remove(cmd[-1])
        except OSError:
            pass
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        sys.stdout.write(out.decode() if isinstance(out, bytes) else out)
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    trace_file = os.path.join(out_dir, "traces", tag + ".jsonl")
    if trace != "0" and proc.returncode == 0 and os.path.exists(trace_file):
        # The span summary and tracing overhead go before the result line.
        sys.dont_write_bytecode = True
        sys.path.insert(0, HERE)
        import spans
        lines[-1:-1] = ["", spans.report(trace_file)]
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode == 0 and lines:
        with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
            f.write(lines[-1] + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
