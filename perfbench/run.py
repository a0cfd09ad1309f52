#!/usr/bin/env python3
"""Benchmark driver: builds perfbench/suite.exe from this checkout and runs
one workload in fresh processes.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size bench|test] [--out FILE.jsonl]
    python3 perfbench/run.py --compare A.jsonl B.jsonl

A run starts one suite.exe process after another, each a single-domain
process doing one sample of the workload, until --seconds have passed and at
least MIN_SAMPLES samples were taken. It prints one JSON line: whether every
output was correct, the operations attempted and failed, and the metrics
BENCHMARK.json names (its end_to_end metrics with --trace 0, its per_layer
metrics with --trace 1), each the median over the samples. A traced run also
writes one Chrome trace per sample under .perfbench/traces/. With --out the
line is also appended to a JSONL file, and --compare reads two such files.

Everything the run writes stays inside the checkout: the dune build in
_build/, scratch caches in .perfbench/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SUITE = ROOT / "_build" / "default" / "perfbench" / "suite.exe"
MIN_SAMPLES = {0: 3, 1: 1}  # by --trace: traced samples are long
DEADLINE_S = 170  # once built, a run must end within 180 s


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def environment():
    env = dict(os.environ)
    env.update(
        DUNE_CACHE="disabled",
        TMPDIR=str(SCRATCH / "tmp"),
        XDG_CACHE_HOME=str(SCRATCH / "xdg"),
        XDG_CONFIG_HOME=str(SCRATCH / "xdg"),
    )
    return env


def build(env):
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/suite.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")


def sample(args, env, index, timeout):
    """One fresh suite.exe process; returns its parsed JSON line."""
    cmd = [str(SUITE), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--golden", "perfbench/golden"]
    if args.trace:
        traces = SCRATCH / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / f"{args.workload}-seed{args.seed}-{index}.json")]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"sample {index} timed out after {timeout:.0f} s"
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode in (0, 1) and lines:
            return json.loads(lines[-1]), None
    except ValueError:
        pass
    return None, f"sample {index} exited with code {done.returncode}"


def run(args, spec):
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail(f"{ROOT} is not a jade-repro checkout (no dune-project or lib/)")
    env = environment()
    shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)
    (SCRATCH / "tmp").mkdir(parents=True)
    build(env)
    names = spec["per_layer" if args.trace else "end_to_end"]
    samples, errors, longest = [], [], 0.0
    started = time.monotonic()
    while (len(samples) < MIN_SAMPLES[args.trace]
           or time.monotonic() - started < args.seconds):
        left = DEADLINE_S - (time.monotonic() - started)
        if samples and left < 1.5 * longest:
            break
        t0 = time.monotonic()
        s, err = sample(args, env, len(samples), max(left, 10))
        if err:
            errors.append(err)
            break
        longest = max(longest, time.monotonic() - t0)
        samples.append(s)
    shutil.rmtree(SCRATCH / "tmp", ignore_errors=True)

    attempted = sum(s["ops"] for s in samples) + len(errors)
    failed = sum(s["failed_ops"] for s in samples) + len(errors)
    for s in samples:
        errors += s["errors"]
    if len({s["digest"] for s in samples}) > 1:
        errors.append("samples of one seed produced different outputs")
    metrics = {}
    for m in names:
        values = [s["metrics"][m["name"]] for s in samples if m["name"] in s["metrics"]]
        if samples and len(values) < len(samples):
            errors.append(f"metric {m['name']} missing")
        if values:
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {"correct": failed == 0 and not errors and bool(samples),
              "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    if args.out:
        row = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "trace": args.trace, "samples": len(samples), **result}
        with open(args.out, "a") as f:
            f.write(json.dumps(row) + "\n")
    return 0 if result["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(path_a, path_b, spec):
    """Per (workload, metric): each side's median and quartiles, the
    change of B against A, the end-to-end verdict against the metric's
    bound, and, over runs paired by seed, which side won at least 9 of 10
    pairs with a median gap wider than A's quartile spread."""
    def load(path):
        rows = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                rows.setdefault(r["workload"], []).append(r)
        return rows

    a_rows, b_rows = load(path_a), load(path_b)
    metrics = [(m, True) for m in spec["end_to_end"]] + [(m, False) for m in spec["per_layer"]]
    outside = 0
    print(f"{'workload':<14} {'metric':<26} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for w in sorted(set(a_rows) & set(b_rows)):
        for m, gated in metrics:
            name = m["name"]
            a = {r["seed"]: r["metrics"][name]["value"] for r in a_rows[w] if name in r["metrics"]}
            b = {r["seed"]: r["metrics"][name]["value"] for r in b_rows[w] if name in r["metrics"]}
            if not a or not b:
                continue
            va, vb = list(a.values()), list(b.values())
            ma, mb = statistics.median(va), statistics.median(vb)
            (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = []
            if gated:
                if worse <= m["bound"]:
                    verdict.append("within bound")
                else:
                    verdict.append(f"OUTSIDE bound {m['bound']}")
                    outside += 1
            pairs = [(a[s], b[s]) for s in a if s in b]
            if pairs:
                lower = m["better"] == "lower"
                b_wins = sum((y < x) if lower else (y > x) for x, y in pairs)
                a_wins = sum((x < y) if lower else (x > y) for x, y in pairs)
                gap_ok = abs(mb - ma) > a3 - a1
                winner = ("B" if b_wins >= 0.9 * len(pairs) and gap_ok else
                          "A" if a_wins >= 0.9 * len(pairs) and gap_ok else "none")
                verdict.append(f"pairs A/B won {a_wins}/{b_wins} of {len(pairs)}, winner {winner}")
            print(f"{w:<14} {name:<26} {ma:>12.6g} [{a1:.6g}, {a3:.6g}] "
                  f"{mb:>12.6g} [{b1:.6g}, {b3:.6g}] {change:>+8.2%}  {'; '.join(verdict)}")
    return 1 if outside else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["bench", "test"], default="bench")
    p.add_argument("--out", help="append the result line to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
