"""Write BENCH_<pr>.json: the benchmark's workloads, untraced and traced, the
Tier-1 wall time and the benchmark's own tests, with the git sha they ran at.

    python3 scripts/write_bench.py --pr 8
    python3 scripts/write_bench.py --pr 8 --baseline HEAD~2

Each untraced run is `perfbench/run.py --workload W --seed S --trace 0`, for
seeds 1..10, each as long as `run_seconds` in BENCHMARK.json; one traced run
(`--trace 1`, seed 1) follows for each workload.  `layer_spans` then holds,
for each side, the per-round calls, total and self seconds of every traced
function of every layer in `tracing.LAYERS` (perfbench reports only those
BENCHMARK.json declares), from TRACE_ROUNDS traced rounds of seed 1.  With `--baseline REV`, the
revision is unpacked with `git archive` into a temporary directory and runs
the same untraced workloads and Tier-1; the two checkouts alternate seed by
seed, and which goes first alternates too, so that both meet the same
machine.  Each side's metrics are summarised by their median and quartiles
over the seeds, and `faster_pairs` counts the seeds at which this checkout
was lower.  `src_lines` holds each side's `wc -l src/tschur/*.py` total,
the line count that the ROADMAP's design aim reads, and `perfbench_tests` the
summary line of `perfbench/test_perfbench.py` on each side.  Run it on a committed
tree: the file records the sha and whether the work tree was clean."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dist_sample", "converge_tw")
PAIRS = 10
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
TRACE_ROUNDS = 10
LAYER_TRACE = """
import json, sys
sys.path[:0] = ["perfbench", "src"]
import run
run._one_blas_thread()
import tracing, workloads as W
ops = W.build(sys.argv[1], 1, W.References())
rounds = [run.run_isolated(ops, tracing.Tracer())[1] for _ in range(int(sys.argv[2]))]
spans, _ = run.merge_summaries(rounds)
print(json.dumps({k: {f: v / len(rounds) for f, v in rec.items()} for k, rec in spans.items()
                  if k.split(".")[0] in tracing.LAYERS}, sort_keys=True))
"""
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
PERFBENCH_TESTS = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "perfbench/test_perfbench.py"]


def _env(checkout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _git(*args):
    res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else None


def perfbench(checkout, workload, seed, trace):
    """The last JSON line of one `perfbench/run.py` run, with its `env` line."""
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(SECONDS),
                          "--trace", str(trace)],
                         cwd=checkout, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {res.returncode}\n"
                           f"{res.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["seed"] = seed
    out["env"] = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    out["metrics"] = {k: m["value"] for k, m in out["metrics"].items()}
    return out


def layer_spans(checkout, workload):
    """Per-round span totals of the traced functions of every layer in
    `tracing.LAYERS`, in `checkout`."""
    res = subprocess.run([sys.executable, "-c", LAYER_TRACE, workload, str(TRACE_ROUNDS)],
                         cwd=checkout, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{checkout}: layer trace of {workload} exited {res.returncode}\n"
                           f"{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def src_lines(checkout):
    """`wc -l src/tschur/*.py` in `checkout`: the newlines of its modules."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "tschur").glob("*.py"))


def timed(checkout, argv):
    """Wall seconds, exit code and last line of stdout of one command run in `checkout`."""
    t0 = perf_counter()
    res = subprocess.run(argv, cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    elapsed = perf_counter() - t0
    last = (res.stdout.strip().splitlines() or [""])[-1]
    return {"wall_s": round(elapsed, 3), "returncode": res.returncode, "summary": last}


def summarise(runs):
    """Median and quartiles of each metric over the runs, and the failed share."""
    out = {}
    for name in runs[0]["metrics"]:
        vals = sorted(r["metrics"][name] for r in runs)
        q = statistics.quantiles(vals, n=4)
        out[name] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2]}
    out["failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--baseline", help="a git revision to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"change": ROOT}
        if args.baseline:
            sides["baseline"] = Path(tmp)
            archive = subprocess.run(["git", "archive", args.baseline], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        doc = bench(args, sides)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


def bench(args, sides):
    """The BENCH document for `sides`, a map from side name to source checkout."""
    doc = {
        "pr": args.pr,
        "git_sha": _git("rev-parse", "HEAD"),
        "work_tree_clean": _git("status", "--porcelain") == "",
        "baseline_sha": args.baseline and _git("rev-parse", args.baseline),
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "command": " ".join([Path(sys.argv[0]).name] + sys.argv[1:]),
        "seconds": SECONDS,
        "src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for seed in range(1, PAIRS + 1):
            order = list(sides.items())
            for side, checkout in order if seed % 2 else order[::-1]:
                print(f"{side} {workload} seed {seed}", file=sys.stderr)
                runs[side].append(perfbench(checkout, workload, seed, 0))
        entry = {side: {"summary": summarise(rs), "runs": rs} for side, rs in runs.items()}
        if args.baseline:
            entry["faster_pairs"] = {
                name: sum(c["metrics"][name] < b["metrics"][name]
                          for c, b in zip(runs["change"], runs["baseline"]))
                for name in runs["change"][0]["metrics"]}
        print(f"change {workload} traced", file=sys.stderr)
        entry["traced"] = perfbench(ROOT, workload, 1, 1)
        entry["layer_spans"] = {side: layer_spans(checkout, workload)
                                for side, checkout in sides.items()}
        doc["workloads"][workload] = entry
    doc["tier1"] = {side: timed(checkout, TIER1) for side, checkout in sides.items()}
    doc["perfbench_tests"] = {side: timed(checkout, PERFBENCH_TESTS)
                              for side, checkout in sides.items()}
    return doc


if __name__ == "__main__":
    sys.exit(main())
