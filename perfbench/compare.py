#!/usr/bin/env python3
"""Compare two sets of benchmark runs (standard library only).

    python3 perfbench/compare.py --base RUN... --new RUN...

Each RUN is a file holding the stdout of one `perfbench/run.py` run, or a
directory of such files. Runs are grouped by the workload named in their
REPORT line. For every workload x end-to-end metric of BENCHMARK.json the
script prints each side's median and quartiles, the metric's bound and a
verdict:

  improved    the new median is better by more than either side's spread
              (and, when both sides ran the same seeds, the new run wins at
              least 9 of 10 same-seed pairs)
  unchanged   the new median is not worse than the base by more than the bound
  worse       the new median is worse than the base by more than the bound
  unresolved  a side's spread (interquartile range / median) is wider than
              the bound, so the bound cannot be checked; unless every new
              run beats (or loses to) every base run

The REPORT lines' metrics that BENCHMARK.json does not bound (latencies,
max_rate_rps, the mpc_* counts, error_rate, ...) follow without a verdict.
Traced runs are left out: their metrics are per-layer diagnostics.

Collect runs with, e.g.:
    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload lis-random --seed $s --seconds 20 \\
          --trace 0 > runs/base/lis-random-$s.txt
    done
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_run(text):
    """Returns the run's REPORT record, or None when the text holds none."""
    report = None
    for line in text.splitlines():
        if line.startswith("REPORT "):
            try:
                report = json.loads(line[len("REPORT "):])
            except ValueError:
                report = None
    return report


def load_runs(paths):
    runs = []
    for path in paths:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for f in files:
            if not os.path.isfile(f):
                continue
            with open(f, errors="replace") as fh:
                report = parse_run(fh.read())
            if report is not None:
                runs.append(report)
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better, pairs=()):
    """base, new: lists of values; pairs: (base, new) values of same-seed
    runs. Returns the verdict and the change of the median relative to the
    base, signed so that > 0 is better."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = summary(base)[0], summary(new)[0]
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    all_worse = all(sign * (n - b) < 0 for n in new for b in base)
    noise = max(spread(base), spread(new))
    if noise > bound:
        if all_better:
            return "improved", change
        if all_worse:
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if change > noise and (not pairs or wins >= 0.9 * len(pairs)):
        return "improved", change
    return "unchanged", change


def fmt(v):
    return f"{v:.6g}"


def compare(base_runs, new_runs, bench, out=sys.stdout):
    """Prints the comparison table; returns the number of 'worse' verdicts."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    worse = 0
    workloads = [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        b = [r for r in base_runs if r["context"]["workload"] == wl
             and r["context"]["trace"] == 0]
        n = [r for r in new_runs if r["context"]["workload"] == wl
             and r["context"]["trace"] == 0]
        if not b or not n:
            continue
        names = [m for m in b[0]["metrics"] if m in n[0]["metrics"]]
        print(f"\n{wl}: {len(b)} base runs, {len(n)} new runs", file=out)
        print(f"  {'metric':<38} {'base median [q1, q3]':<34} "
              f"{'new median [q1, q3]':<34} {'change':>8} {'bound':>6}  "
              f"verdict", file=out)
        for name in names:
            bv = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]
                  and r["metrics"][name]["value"] is not None]
            nv = [r["metrics"][name]["value"] for r in n
                  if name in r["metrics"]
                  and r["metrics"][name]["value"] is not None]
            if not bv or not nv:
                continue
            bs, ns = summary(bv), summary(nv)
            cols = (f"  {name:<38} "
                    f"{fmt(bs[0]) + ' [' + fmt(bs[1]) + ', ' + fmt(bs[2]) + ']':<34} "
                    f"{fmt(ns[0]) + ' [' + fmt(ns[1]) + ', ' + fmt(ns[2]) + ']':<34}")
            rel = (ns[0] - bs[0]) / abs(bs[0]) if bs[0] else 0.0
            if name in e2e:
                seeds_b = {r["context"]["seed"]: r["metrics"][name]["value"]
                           for r in b}
                pairs = [(seeds_b[r["context"]["seed"]],
                          r["metrics"][name]["value"])
                         for r in n if r["context"]["seed"] in seeds_b]
                v, _ = verdict(bv, nv, e2e[name]["bound"],
                               e2e[name]["better"], pairs)
                worse += v == "worse"
                print(f"{cols} {rel:>+8.1%} {e2e[name]['bound']:>6.2f}  "
                      f"{v} ({e2e[name]['better']} is better)", file=out)
            else:
                print(f"{cols} {rel:>+8.1%} {'-':>6}  -", file=out)
    return worse


def self_test():
    """Verdicts on synthetic run sets with known answers."""
    bench = {"end_to_end": [{"name": "tput", "unit": "ops/s",
                             "better": "higher", "bound": 0.1}],
             "workloads": [{"name": "w"}]}
    checks = [
        # (base, new, pairs?, expected)
        ([100, 101, 99, 100, 102], [100, 99, 101, 100, 101], False,
         "unchanged"),
        ([100, 101, 99, 100, 102], [130, 131, 129, 130, 132], True,
         "improved"),
        ([100, 101, 99, 100, 102], [70, 71, 69, 70, 72], False, "worse"),
        ([100, 101, 99, 100, 102], [95, 96, 94, 95, 97], False, "unchanged"),
        ([100, 150, 60, 120, 80], [110, 70, 140, 90, 100], False,
         "unresolved"),
        # wide spread, but every new run beats every base run
        ([60, 100, 80, 70, 90], [200, 300, 250, 220, 280], False, "improved"),
    ]
    ok = True
    for base, new, paired, want in checks:
        pairs = list(zip(base, new)) if paired else []
        got, _ = verdict(base, new, 0.1, "higher", pairs)
        if got != want:
            print(f"compare self-test: {base} -> {new}: got {got}, want {want}",
                  file=sys.stderr)
            ok = False
    # Lower-is-better flips the direction.
    if verdict([10, 10.1, 9.9], [13, 13.1, 12.9], 0.1, "lower")[0] != "worse":
        print("compare self-test: lower-is-better not honoured", file=sys.stderr)
        ok = False

    # End to end through the REPORT parser and the table.
    def run(seed, value):
        report = {"context": {"workload": "w", "seed": seed, "trace": 0},
                  "metrics": {"tput": {"value": value, "unit": "ops/s"}}}
        return parse_run("noise\nREPORT " + json.dumps(report) + "\n{}\n")
    base = [run(s, 100 + s % 3) for s in range(10)]
    new = [run(s, 70 + s % 3) for s in range(10)]

    class Null:
        def write(self, _):
            pass
    if compare(base, new, bench, out=Null()) != 1:
        print("compare self-test: table did not flag the regression",
              file=sys.stderr)
        ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--new", nargs="+", default=[])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        ok = self_test()
        print(f"compare self-test: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    if not args.base or not args.new:
        ap.error("--base and --new are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load_runs(args.base), load_runs(args.new)
    if not base or not new:
        ap.error("no REPORT lines found in the --base or --new runs")
    worse = compare(base, new, bench)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
