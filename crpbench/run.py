#!/usr/bin/env python3
"""Build and run the CRProbe benchmark (see crpbench/README.md).

One run:
    python3 crpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the harness from the checkout's sources into .bench_build/, runs
one workload, and prints the harness's report followed, as the last line,
by one JSON object with the keys correct, attempted, failed and metrics.
Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
its per-layer metrics (and write a Chrome trace and a self-time table to
.bench_out/). The exit code is nonzero when an output check failed.

Steadiness:
    python3 crpbench/run.py --workload NAME --steady K [--seconds S] [--trace 0|1]

repeats the workload with seeds 1..K and prints, per metric, the median,
the quartiles and their distance as a share of the median, next to the
metric's bound.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "crpbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "crpbench"

# Knobs that change which code path the program takes: a run under any of
# them would measure something else, so the benchmark refuses to start.
REFUSED = ("CRP_JIT", "CRP_PROF", "CRP_CHAOS", "CRP_LEDGER", "CRP_JOBS")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"crpbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """The environment minus every CRP_* knob (each run starts from an
    empty in-memory store, never CRP_CACHE_DIR); refuses path knobs."""
    bad = [k for k in REFUSED if k in os.environ]
    if bad:
        fail("refusing to run with " + ", ".join(bad) + " set: unset them")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRP_")}
    dropped = sorted(k for k in os.environ if k.startswith("CRP_"))
    return env, dropped


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "crpbench"]]
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail(f"build failed: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git SHA when the checkout is a repository, else a digest of the
    sources the harness builds from."""
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "crpbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace, env, source, echo):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(OUT),
           "--source", source]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(r.stdout[-8000:])
        fail(f"harness exited {r.returncode} without a result")
    if echo:
        print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    # The harness and BENCHMARK.json must declare the same metrics.
    want = declared(trace)
    got = result["metrics"]
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"undeclared {n}" for n in got if n not in want]
    problems += [f"{n} unit {got[n]['unit']} != {want[n]['unit']}"
                 for n in want if n in got and got[n]["unit"] != want[n]["unit"]]
    if problems or result["attempted"] < 1:
        print("crpbench: result does not match BENCHMARK.json: " + "; ".join(problems),
              file=sys.stderr)
        result["correct"] = False
    return result


def steady(args, env, source):
    want = declared(args.trace)
    values = {n: [] for n in want}
    for seed in range(1, args.steady + 1):
        res = run_once(args.workload, seed, args.seconds, args.trace, env, source, False)
        if not res["correct"] or res["failed"]:
            fail(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for n in want:
            values[n].append(res["metrics"][n]["value"])
        print(f"  seed {seed}: " + " ".join(f"{n}={res['metrics'][n]['value']:.6g}"
                                          for n in want), flush=True)
    print(f"{args.workload}: {args.steady} runs, seeds 1..{args.steady}, "
          f"{args.seconds} s each, trace={args.trace}, nproc={os.cpu_count()}, source={source}")
    print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for n, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = want[n].get("bound")
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else "WITHIN" if spread <= bound else "OVER")
        print(f"  {n:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["syscall-funnel", "windows-funnel", "serve-mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    env, dropped = child_env()
    build()
    source = source_id()
    if args.steady:
        steady(args, env, source)
        return
    res = run_once(args.workload, args.seed, args.seconds, args.trace, env, source, True)
    if dropped:
        print("  ignored environment: " + " ".join(dropped))
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
