#!/usr/bin/env python3
"""Build and run the iPregel benchmark; summarise and compare recorded runs.

One run (the form BENCHMARK.json names):
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--record FILE]

    Builds the benchmark package (perfbench/Cargo.toml) from source into
    $CARGO_TARGET_DIR (default .bench_build): the untraced build for
    --trace 0, the build with the `trace` feature (profile `traced`) for
    --trace 1. Then runs one workload and passes its output through; the
    last line is the result object. --record appends the run's detail
    line to FILE as JSON.

Many runs:
    python3 perfbench/run.py sweep --seeds 1-10 --seconds S --trace 0|1 --out FILE [--workloads a,b]

Summary of one record file, or comparison of two:
    python3 perfbench/run.py compare A.jsonl [B.jsonl]

    Per workload and metric: both medians, their quartiles, sample
    counts and the spread (quartile distance over median). With two
    files, one verdict per row: better, worse, within bound, or
    unresolved (a spread wider than the metric's bound). Comparing an
    untraced file with a traced one gives the tracing overhead.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = "ipregel-perfbench"


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(traced):
    cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    cmd += ["--profile", "traced", "--features", "trace"] if traced else ["--release"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Cargo's own output goes to stderr: stdout carries the result only.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed ({done.returncode})")
    return os.path.join(target_dir(), "traced" if traced else "release", BIN)


def flag_values(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            sys.exit(f"run.py: unexpected argument {flag}")
        value = next(it, None)
        if value is None:
            sys.exit(f"run.py: {flag} needs a value")
        opts[flag[2:]] = value
    return opts


def run_once(argv):
    opts = flag_values(argv)
    for need in ("workload", "seed", "seconds", "trace"):
        if need not in opts:
            sys.exit(f"run.py: --{need} is required")
    if opts["trace"] not in ("0", "1"):
        sys.exit("run.py: --trace takes 0 or 1")
    binary = build(opts["trace"] == "1")
    work = os.path.join(target_dir(), "perfbench-work")
    cmd = [binary, "--workload", opts["workload"], "--seed", opts["seed"], "--seconds", opts["seconds"],
           "--trace", opts["trace"], "--work-dir", work]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(done.returncode)
    if "record" in opts:
        lines = [l for l in done.stdout.splitlines() if l.startswith('{"detail"')]
        with open(opts["record"], "a") as f:
            f.write(json.dumps(json.loads(lines[-1])["detail"]) + "\n")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def sweep(argv):
    opts = flag_values(argv)
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = opts.get("workloads")
    names = names.split(",") if names else [w["name"] for w in config["workloads"]]
    seconds = opts.get("seconds", str(config["run_seconds"]))
    for seed in seed_range(opts.get("seeds", "1-10")):
        for name in names:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", seconds, "--trace", opts.get("trace", "0"), "--record", opts["out"]]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{name} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            if done.returncode != 0:
                sys.exit(done.returncode)


def load(path):
    runs = {}
    for line in open(path):
        if line.strip():
            d = json.loads(line)
            runs.setdefault(d["workload"], []).append(d)
    return runs


def describe(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(a, b, better, bound):
    """B against A: better, worse, within bound, or unresolved."""
    (ma, _, _, sa), (mb, _, _, sb) = describe(a), describe(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0: B is worse
    if bound is None:
        return "no bound"
    if max(sa, sb) > bound:
        if all(sign * x < sign * y for x in b for y in a):
            return "better"
        if all(sign * x > sign * y for x in b for y in a):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def compare(argv):
    if not 1 <= len(argv) <= 2:
        sys.exit("usage: run.py compare A.jsonl [B.jsonl]")
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    spec = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    files = [load(p) for p in argv]
    for d in [d for runs in files for ds in runs.values() for d in ds][:1]:
        print(f"machine: {json.dumps(d['machine'])}")
    for workload in sorted(set().union(*files)):
        print(f"\n== {workload}")
        sets = [runs.get(workload, []) for runs in files]
        for d in sets:
            seeds = sorted(x["seed"] for x in d)
            attempted = sum(x["attempted"] for x in d)
            failed = sum(x["failed"] for x in d)
            print(f"   {len(d)} runs, seeds {seeds}, attempted {attempted}, failed {failed}")
        print(f"   {'metric':28} {'unit':6} " + " ".join(f"{'median':>11} {'q1':>11} {'q3':>11} {'n':>3} {'spread':>7}" for _ in sets) + ("  B-A    verdict" if len(sets) == 2 else "  bound"))
        for kind in ("end_to_end", "per_layer"):
            names = [m for m in spec if all(any(m in x[kind] for x in d) for d in sets if d)]
            for name in names:
                cols, values = [], []
                for d in sets:
                    v = [x[kind][name]["value"] for x in d if x[kind].get(name, {}).get("value") is not None]
                    values.append(v)
                    med, q1, q3, spread = describe(v) if v else (float("nan"),) * 4
                    cols.append(f"{med:11.5g} {q1:11.5g} {q3:11.5g} {len(v):3d} {spread:7.1%}")
                m = spec[name]
                bound = m.get("bound")
                tail = ""
                if len(sets) == 2 and all(values):
                    ma, mb = statistics.median(values[0]), statistics.median(values[1])
                    delta = (mb - ma) / abs(ma) if ma else 0.0
                    tail = f"{delta:+7.1%}  {verdict(values[0], values[1], m['better'], bound)}"
                elif bound is not None and values[0]:
                    tail = f"{bound:.0%}"
                print(f"   {name:28} {m['unit']:6} " + " ".join(cols) + f"  {tail}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        compare(argv[1:])
    elif argv[:1] == ["sweep"]:
        sweep(argv[1:])
    else:
        run_once(argv)


if __name__ == "__main__":
    main()
