"""Command-line driver: RSK exploration, exact/sampled first-row
distributions, saddle-point constants, Tracy-Widom values, the convergence
experiment, and the verification suite.

Outputs are plain CSV (decimal point, 17 significant digits, LF endings)
with a `#`-prefixed metadata header echoing the resolved configuration, or
JSON where a single record is more natural.  Identical configuration and
seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .measure import (
    MeasureParams,
    empirical_cdf,
    lambda1_cdf_exact,
    sample_lambda1,
)
from .rsk import PMatrix, biword_from_matrix, longest_increasing, rsk


def _fmt(x):
    """One CSV cell: floats at 17 significant digits, everything else str."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@contextlib.contextmanager
def _output(path):
    """Standard output for None or "-", else the file at `path`, LF endings."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="\n") as stream:
            yield stream


def _emit(path, meta, header, rows):
    """CSV with a `#` header: the version, then `meta` by sorted key."""
    with _output(path) as stream:
        stream.write(f"# tschur {__version__}\n")
        for key in sorted(meta):
            stream.write(f"# {key} = {meta[key]}\n")
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_json(path, record):
    with _output(path) as stream:
        json.dump(record, stream, indent=2)
        stream.write("\n")


def _parse_grid(text, cast=float):
    return [cast(tok) for tok in text.replace(",", " ").split()]


def _exact(*texts):
    """Flag texts as Fractions: '2/5', '0.4' and '-1' all parse exactly."""
    return [Fraction(text) for text in texts]


def _measure_params(args):
    return MeasureParams(args.m, args.n, *_exact(args.alpha, args.t))


def cmd_rsk(args):
    if args.matrix is not None:
        text = args.matrix
    elif args.matrix_file is not None:
        with open(args.matrix_file) as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    a = PMatrix.from_text(text)
    w = biword_from_matrix(a)
    s, u = rsk(a)
    lam = s.shape()
    ell = longest_increasing(w)
    print("matrix:")
    print(a.to_text())
    print("biword:")
    print("  " + " ".join(str(x) for x in w.uppers()))
    print("  " + " ".join(str(x) for x in w.lowers()))
    print("insertion tableau S:")
    for row in s.rows:
        print("  " + " ".join(str(e) for e in row))
    print("recording tableau U:")
    for row in u.rows:
        print("  " + " ".join(str(v) for v in row))
    print(f"shape: {tuple(lam.parts)}")
    print(f"lambda_1 = {lam.first_row()}   lis(w) = {ell}")
    if ell != lam.first_row():
        print("error: longest increasing subsequence != lambda_1", file=sys.stderr)
        return 1
    return 0


def cmd_dist(args):
    params = _measure_params(args)
    if args.h_max < 0:
        raise ValueError("h-max must be nonnegative")
    meta = {
        "command": "dist", "m": args.m, "n": args.n, "alpha": args.alpha,
        "t": args.t, "h_max": args.h_max, "mode": args.mode,
    }
    hs = range(args.h_max + 1)
    rows = [(h, float(v)) for h, v in zip(hs, lambda1_cdf_exact(params, hs, mode=args.mode))]
    if args.format == "json":
        _emit_json(args.out, {"meta": meta, "cdf": dict(rows)})
    else:
        _emit(args.out, meta, ("h", "cdf"), rows)
    return 0


def cmd_sample(args):
    if args.seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    vals = sample_lambda1(_measure_params(args), args.samples, args.seed)
    h_max = int(vals.max()) + 1
    grid = np.arange(h_max + 1)
    counts = np.bincount(vals, minlength=h_max + 1)
    ecdf = empirical_cdf(vals, grid)
    meta = {
        "command": "sample", "m": args.m, "n": args.n, "alpha": args.alpha,
        "t": args.t, "samples": args.samples, "seed": args.seed,
    }
    rows = [(int(h), int(counts[h]), float(ecdf[i])) for i, h in enumerate(grid)]
    _emit(args.out, meta, ("h", "count", "empirical_cdf"), rows)
    return 0


def cmd_constants(args):
    from .asymptotics import constants

    alpha, tau, t = map(float, _exact(args.alpha, args.tau, args.t))
    data = constants(alpha, tau, t)
    record = {
        "alpha": alpha, "tau": tau, "t": t,
        "z0": data.z0, "c": data.c, "sigma3": data.sigma3, "g": data.g,
        "c1": data.c1, "c2": data.c2,
    }
    _emit_json(args.out, record)
    return 0


def cmd_tw(args):
    from .tracy_widom import tw_f2

    grid = sorted(_parse_grid(args.s_grid))
    meta = {"command": "tw", "s_grid": " ".join(_fmt(float(s)) for s in grid)}
    rows = [(float(s), tw_f2(float(s))) for s in grid]
    _emit(args.out, meta, ("s", "f2"), rows)
    return 0


def cmd_converge(args):
    from .asymptotics import convergence_experiment

    alpha, tau, t = _exact(args.alpha, args.tau, args.t)
    n_list = sorted(_parse_grid(args.n_list, cast=int))
    s_grid = sorted(_parse_grid(args.s_grid))
    rows, summary = convergence_experiment(
        alpha, tau, t, n_list, s_grid, shift=args.shift
    )
    meta = {
        "command": "converge", "alpha": args.alpha, "tau": args.tau, "t": args.t,
        "n_list": " ".join(map(str, n_list)),
        "s_grid": " ".join(_fmt(float(s)) for s in s_grid),
        "shift": args.shift,
    }
    table = [
        (r["n"], r["s"], r.get("empirical_cdf", ""), r.get("f2", ""), r.get("abs_diff", ""))
        for r in sorted(rows, key=lambda r: (r["n"], r["s"]))
    ]
    prefix = None if args.out in (None, "", "-") else args.out  # None: standard output
    _emit(prefix and prefix + "_rows.csv", meta,
          ("n", "s", "empirical_cdf", "f2", "abs_diff"), table)
    _emit(prefix and prefix + "_summary.csv", meta, ("n", "sup_distance"),
          [(s["n"], s["sup_distance"]) for s in summary])
    return 0


def cmd_verify(args):
    """Acceptance criteria 3-6, or all ten at `--level full`, with times."""
    from . import acceptance

    nums = acceptance.QUICK if args.level == "quick" else range(1, 11)
    failures = 0
    for num in nums:
        start = time.perf_counter()
        ok, label = getattr(acceptance, f"criterion_{num:02d}")()
        seconds = time.perf_counter() - start
        print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}  ({seconds:.2f} s)")
        failures += not ok
    if failures:
        print(f"{failures} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tschur", description="t-Schur measure toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rsk", help="run marked RSK on a matrix")
    p.add_argument("--matrix", help="matrix text, rows on lines, tokens like 0 2 3'")
    p.add_argument("--matrix-file")
    p.set_defaults(func=cmd_rsk)

    def measure_flags(p):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", required=True, help="rational or decimal in (0,1)")
        p.add_argument("--t", default="0", help="nonpositive rational or decimal")

    p = sub.add_parser("dist", help="exact CDF of lambda_1")
    measure_flags(p)
    p.add_argument("--h-max", type=int, required=True)
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("sample", help="sample lambda_1 and report its histogram")
    measure_flags(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("constants", help="saddle-point constants as JSON")
    p.add_argument("--alpha", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--t", default="0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("tw", help="Tracy-Widom F2 values on a grid")
    p.add_argument("--s-grid", required=True, help="comma/space separated values")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tw)

    p = sub.add_parser("converge", help="scaled-CDF vs F2 convergence experiment")
    p.add_argument("--alpha", required=True)
    p.add_argument("--tau", default="1")
    p.add_argument("--t", default="0")
    p.add_argument("--n-list", required=True)
    p.add_argument("--s-grid", default="-4 -3 -2 -1 0 1 2 3")
    p.add_argument("--shift", type=int, default=-1)
    p.add_argument("--out", help="prefix for _rows.csv and _summary.csv; - for stdout")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input or an unusable file: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
