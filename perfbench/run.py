"""Benchmark of the tschur library: one workload per run, or all of them.

    python3 perfbench/run.py --workload dist_sample --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from a source checkout; the library is imported from its `src/`.  Whole
rounds of the workload's operations, each in a forked child, run until they
have taken `--seconds`.  Set-up is timed by fresh `python -m tschur.cli`
processes, one before the rounds and the others after rounds.  Every output is
checked against `references.json`.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dist_sample", "converge_tw")
SETUP_RUNS = 3
MIN_ROUNDS = 3
CLI_TIMEOUT = 120


def _one_blas_thread():
    """One BLAS thread unless the caller set one, before numpy loads; child
    processes inherit it.  With two threads on two cores, a core busy with
    other work stalls every BLAS call: tw_f2(check=True) then takes 1 s
    instead of 0.06 s."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def cold_cli(args):
    """Wall time of one fresh `python -m tschur.cli <args>`, and its stdout."""
    t0 = perf_counter()
    res = subprocess.run([sys.executable, "-m", "tschur.cli", *args], cwd=ROOT, env=_cli_env(),
                         capture_output=True, text=True, timeout=CLI_TIMEOUT)
    elapsed = perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"tschur {' '.join(args)} exited {res.returncode}: {res.stderr[-500:]}")
    return elapsed, res.stdout


def _csv_rows(text):
    """Data rows of the CLI's CSV output: lines whose first field is a number."""
    rows = []
    for line in text.splitlines():
        fields = line.split(",")
        try:
            float(fields[0])
        except ValueError:  # `#` metadata and header lines
            continue
        rows.append(fields)
    return rows


def check_cli(name, out, refs):
    """None if the output of CLI command `name` on its set-up input is right."""
    import workloads as W

    rows = _csv_rows(out)
    if name == "dist":
        params = W.ORACLE_CASES[0][0]
        bad = [h for h, v in rows if abs(float(v) - float(refs.cdf(params, int(h)))) > W.FLOAT_TOL]
        return f"dist CLI wrong at h={bad}" if bad or len(rows) != 5 else None
    if name == "sample":
        return None if sum(int(r[1]) for r in rows) == 10 else "sample CLI counts do not sum to 10"
    if name == "tw":
        return None if abs(float(rows[0][1]) - refs.f2(0.0)) <= W.FLOAT_TOL else "tw CLI F2(0) wrong"
    config = W.CONVERGE_CONFIGS[0][0]
    consts = refs.constants(config)
    h = W.converge_h(float(consts["c"]), float(consts["g"]), 20, 0.0)
    _, _, cdf, f2, _ = rows[0]
    params = W.MeasureParams(20, 20, config[0], config[2])
    ok = abs(float(cdf) - float(refs.cdf(params, h))) <= W.FLOAT_TOL and \
        abs(float(f2) - refs.f2(0.0)) <= W.FLOAT_TOL
    return None if ok else "converge CLI row wrong"


def run_round(ops):
    """(wall seconds, per-operation seconds, [(label, message)] of failed ops).

    A call that stands for several operations (`Op.points`) gives each of
    them an equal share of its time."""
    lat, fails = [], []
    start = perf_counter()
    for op in ops:
        labels = op.points or (op.label,)
        t0 = perf_counter()
        try:
            out = op.call()
            missed = None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            missed = {label: f"{type(exc).__name__}: {exc}" for label in labels}
        elapsed = perf_counter() - t0
        lat += [elapsed / len(labels)] * len(labels)
        if missed is None:
            msg = op.check(out)
            missed = msg if isinstance(msg, dict) else {op.label: msg} if msg else {}
        fails += sorted(missed.items())
    return perf_counter() - start, lat, fails


def run_isolated(ops, tracer=None):
    """`run_round` in a forked child: every round starts from the state left
    by set-up and warm-up, so nothing an earlier round cached survives.

    Returns (round, tracer summary or None, wrappers found in an untraced
    round, peak RSS of the child in KiB)."""
    import tracing

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.install()
            result = run_round(ops)
            found = [] if tracer is not None else tracing.installed()
            summary = tracer.summary() if tracer is not None else None
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump((result, summary, found, rss), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"round process exited with status {status}")
    return pickle.loads(data)


def run_rounds(ops, seconds, after_round):
    """At least MIN_ROUNDS rounds, then more while another round of the mean
    length fits in `seconds`; `after_round` runs after each, outside that
    time."""
    rounds = []
    spent = 0.0
    while len(rounds) < MIN_ROUNDS or spent * (len(rounds) + 1) / len(rounds) <= seconds:
        t0 = perf_counter()
        rounds.append(run_isolated(ops))
        spent += perf_counter() - t0
        after_round()
    return rounds


def run_traced(ops, seconds, tracer):
    """Untraced and traced rounds alternate, so that a drift in machine speed
    hits both alike."""
    plain, traced = [], []
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        plain.append(run_isolated(ops))
        traced.append(run_isolated(ops, tracer))
    return plain, traced


def merge_summaries(summaries):
    """Sum the tracer summaries of several rounds."""
    spans, counts = {}, {}
    for round_spans, round_counts in summaries:
        for name, rec in round_spans.items():
            total = spans.setdefault(name, dict.fromkeys(rec, 0))
            for field, value in rec.items():
                total[field] += value
        for name, value in round_counts.items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def op_latencies(rounds):
    """Each operation's median time over the rounds.

    On a machine shared with other work an operation's time mostly sits on
    one level, with rare bursts well below it and slow spells above it.  The
    fastest repeat depends on whether a run met such a burst (one of nine
    `sample_lambda1` batches ran in 0.041 s against 0.072-0.079 s for the
    others); the median does not, nor on a slow spell shorter than half the
    run."""
    return [statistics.median(r[1][i] for r in rounds) for i in range(len(rounds[0][1]))]


def latency_stats(per_op):
    """Median operation, and the highest percentile with 10 operations beyond it."""
    per_op = sorted(per_op)
    n = len(per_op)
    beyond = 10 if n > 10 else n - 1
    return statistics.median(per_op), per_op[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def environment():
    import mpmath
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(), "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(), "machine": platform.machine(),
    }


def _git_sha():
    """HEAD of the checkout if it is a git work tree.  The ceiling keeps git
    from searching the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), sym, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name, seed, seconds, trace):
    import tracing
    import workloads as W

    refs = W.References()
    known = W.known_defects(name)
    problems = set()  # failures outside KNOWN_DEFECTS, and CLI errors
    setup, cold = [], {}

    def cold_start(cmd):
        elapsed, out = cold_cli(W.CLI_ARGS[cmd])
        if cmd == W.SETUP_CMD[name]:
            setup.append(elapsed)
        cold[cmd] = elapsed
        msg = check_cli(cmd, out, refs)
        if msg:
            problems.add(("cli " + cmd, msg))

    for cmd in W.CLI_ARGS if trace else (W.SETUP_CMD[name],):
        cold_start(cmd)

    ops = W.build(name, seed, refs)
    if W.WARM_UP[name]:
        W.WARM_UP[name]()
    gc.freeze()  # a collection in a round's child would otherwise copy every page it scans
    if trace:
        tracer = tracing.Tracer()
        plain, traced = run_traced(ops, seconds, tracer)
        results = plain + traced
        spans, counts = merge_summaries(r[1] for r in traced)
    else:
        def after_round():
            # the other cold starts follow rounds, so that they sample the
            # machine's slow and quiet spells across the run
            if len(setup) < SETUP_RUNS:
                cold_start(W.SETUP_CMD[name])

        results = run_rounds(ops, seconds, after_round)
        while len(setup) < SETUP_RUNS:
            cold_start(W.SETUP_CMD[name])
    wrapped = sorted({w for r in results for w in r[2]} | set(tracing.installed()))
    if wrapped:
        raise RuntimeError(f"untraced round found tracing wrappers: {wrapped[:5]}")
    rounds = [r[0] for r in results]
    peak_kib = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss] + [r[3] for r in results])

    attempted = len(rounds[0][1]) * len(rounds)
    failures = [f for r in rounds for f in r[2]]
    problems |= {f for f in failures if f[0] not in known}
    per_op = op_latencies(rounds)
    p50, tail, pct, n_ops = latency_stats(per_op)

    print(f"perfbench {name}: seed={seed} rounds={len(rounds)} ops/round={n_ops}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("rounds_s " + " ".join(f"{r[0]:.4f}" for r in rounds))
    if not trace:
        print("setup_runs_s " + " ".join(f"{t:.4f}" for t in setup))
    fail_lines = sorted(set(failures))
    if trace:
        overhead = (sum(op_latencies([r[0] for r in traced]))
                    / sum(op_latencies([r[0] for r in plain])) - 1.0)
        metrics = layer_metrics(spans, counts, len(traced), cold, overhead)
        for k in sorted(metrics):
            print(f"  {k:48s} {metrics[k]['value']:.6g} {metrics[k]['unit']}")
    else:
        metrics = {
            "setup_s": _metric(min(setup), "s"),
            "wall_s": _metric(sum(per_op), "s"),
            "op_p50_s": _metric(p50, "s"),
            "op_tail_s": _metric(tail, "s"),
            "peak_rss_mb": _metric(peak_kib / 1024, "MB"),
        }
        notes = {
            "setup_s": f"fastest of {SETUP_RUNS} cold `tschur {W.SETUP_CMD[name]}`",
            "wall_s": f"sum of {n_ops} per-op latencies (median of {len(rounds)} rounds)",
            "op_p50_s": f"median of {n_ops} per-op latencies",
            "op_tail_s": f"p{pct:.1f} of {n_ops} per-op latencies",
        }
        for k, m in metrics.items():
            print(f"  {k:12s} {m['value']:.6g} {m['unit']}  {notes.get(k, '')}")
    print(f"  {'fail_frac':12s} {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} of {attempted} ops failed)")
    for label, msg in fail_lines:
        kind = "known defect" if label in known else "UNEXPECTED"
        print(f"  failed [{kind}] {label}: {msg}")
    for label, msg in sorted(problems):
        if label.startswith("cli "):
            print(f"  failed [UNEXPECTED] {label}: {msg}")
    return {"correct": not problems, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def layer_metrics(spans, counts, rounds, cold, overhead):
    """Per-round means of the traced layer functions, and the derived counts."""
    out = {}
    for name, rec in spans.items():
        for field in ("calls", "total_s", "self_s"):
            unit = "count" if field == "calls" else "s"
            out[f"{name}.{field}"] = _metric(rec[field] / rounds, unit)
    for name, value in counts.items():
        out[name] = _metric(value / rounds, "count")
    bo = spans.get("numerics.bo_cdf", {}).get("calls", 0)
    mp = spans.get("numerics.hankel_symbols_mp", {}).get("calls", 0)
    out["numerics.bo_cdf.mp_share"] = _metric(mp / bo if bo else 0.0, "ratio")
    for cmd, elapsed in cold.items():
        out[f"cli.{cmd}.cold_s"] = _metric(elapsed, "s")
    out["trace.overhead_frac"] = _metric(overhead, "ratio")
    return out


def declared_layer_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def run_all(seed, seconds):
    """Each workload in its own process (peak memory is per process); a table."""
    results = {}
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             capture_output=True, text=True, timeout=600)
        sys.stdout.write(res.stdout[: res.stdout.rstrip().rfind("\n") + 1])
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return None
        results[name] = json.loads(res.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':14s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for k in names:
        unit = results[WORKLOADS[0]]["metrics"][k]["unit"]
        print(f"{k + ' [' + unit + ']':14s}"
              + "".join(f"{results[w]['metrics'][k]['value']:14.6g}" for w in WORKLOADS))
    print(f"{'fail_frac':14s}"
          + "".join(f"{results[w]['failed'] / results[w]['attempted']:14.6g}" for w in WORKLOADS))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tschur" / "__init__.py").is_file():
        print(f"error: no tschur sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _one_blas_thread()
    sys.path.insert(0, str(SRC))
    import tschur

    if Path(tschur.__file__).resolve().parent != SRC / "tschur":
        print(f"error: tschur imported from {tschur.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = run_all(args.seed, args.seconds)
        if results is None:
            return 1
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        measured = result["metrics"]
        result["metrics"] = {name: measured.get(name, _metric(0, unit))
                             for name, unit in declared_layer_metrics()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
