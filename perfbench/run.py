#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the monge
library from this checkout's src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only re-check the build. Build output goes
to stderr, the workload's report to stdout; the last stdout line is the
result JSON. The exit code is non-zero when the build fails, an answer is
wrong or the run does not finish in time.

--trace 1 runs the traced variant and writes a Chrome trace-event JSON under
<build dir>/traces/ (open it at ui.perfetto.dev). --self-test checks the
harness arithmetic, BENCHMARK.json against the program's metric list, the
compare script, and a seconds-long smoke run of every workload, traced and
untraced.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lis-random", "lis-nearsorted", "service-mixed", "mpc-lis"]
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 150  # a run's time limit is --seconds plus this
SMOKE_SECONDS = 2


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"the repository sources (CMakeLists.txt, src/) are missing "
             f"under {ROOT}; perfbench builds the library from them")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd)} exited with {rc}")
    binary = os.path.join(bdir, "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def source_digest():
    """sha256 over the sources the benchmark builds, so runs of different
    code are told apart even outside a git checkout."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "cmake", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace, capture=False):
    trace_out = os.path.join(build_dir(), "traces",
                             f"{workload}-seed{seed}.json")
    if trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_out, "--commit", git_commit(),
           "--source-digest", source_digest()]
    limit = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(
            cmd, timeout=limit, text=True,
            stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {limit:g} s", 1)
    return proc.returncode, proc.stdout, trace_out


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    binary = build()
    problems = []

    rc = subprocess.run([binary, "--self-test"]).returncode
    if rc != 0:
        problems.append("harness arithmetic self-test failed")

    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True).stdout.split("\n")
    e2e = [l.split()[1] for l in listed if l.startswith("end_to_end ")]
    layers = {l.split()[1]: l.split()[2] for l in listed
              if l.startswith("per_layer ")}
    bench = load_benchmark()
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py's")
    if sorted(m["name"] for m in bench["end_to_end"]) != sorted(e2e):
        problems.append("BENCHMARK.json end_to_end differs from the program")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != layers:
        problems.append("BENCHMARK.json per_layer differs from the program")

    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import compare  # noqa: E402  (stdlib-only sibling script)
    if not compare.self_test():
        problems.append("compare.py self-test failed")

    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out, trace_out = run_workload(binary, workload, 1,
                                              SMOKE_SECONDS, trace, True)
            what = f"smoke {workload} trace={trace}"
            lines = [l for l in out.split("\n") if l.strip()]
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{what}: last line is not JSON")
                continue
            want = ([m["name"] for m in bench["per_layer"]] if trace
                    else [m["name"] for m in bench["end_to_end"]])
            ok = (rc == 0 and res.get("correct") is True
                  and set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["attempted"] >= 1 and res["failed"] == 0
                  and sorted(res["metrics"]) == sorted(want))
            if ok and not trace:
                ok = all(isinstance(v["value"], (int, float))
                         and math.isfinite(v["value"]) and v["value"] > 0
                         for v in res["metrics"].values())
            if ok and trace:
                try:
                    with open(trace_out) as f:
                        ok = len(json.load(f)["traceEvents"]) > 1
                except (OSError, ValueError, KeyError):
                    ok = False
            print(f"{what}: {'ok' if ok else 'FAILED'}", file=sys.stderr)
            if not ok:
                problems.append(f"{what}: rc={rc} result={lines[-1][:300]}")

    for p in problems:
        print(f"self-test problem: {p}", file=sys.stderr)
    print(f"perfbench self-test: {'ok' if not problems else 'FAILED'}",
          file=sys.stderr)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    binary = build()
    sys.stdout.flush()
    rc, _, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
