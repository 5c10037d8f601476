"""The two benchmark workloads: their inputs, operations and output checks.

A workload is a fixed list of operations (one CDF value, oracle call,
identity check, F2 value, sampling batch or RSK round trip), drawn from two
of the four parts below.  `dist_sample` holds the finite-n routes: exact,
oracle, float and sampled.  `converge_tw` holds the asymptotic route:
convergence to F2, and F2 itself.  One round runs every operation of the
workload once, in an order drawn from the seed.  Every output is
checked against the committed references in ``references.json``, which
``make_references.py`` regenerates from the exact Toeplitz route.

The tschur modules are imported as module objects and their functions are
looked up at call time, so that the tracer's wrappers (``tracing.py``) see
every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import numpy as np

asymptotics = importlib.import_module("tschur.asymptotics")
measure = importlib.import_module("tschur.measure")
numerics = importlib.import_module("tschur.numerics")
rsk = importlib.import_module("tschur.rsk")
symfunc = importlib.import_module("tschur.symfunc")
tracy_widom = importlib.import_module("tschur.tracy_widom")

MeasureParams = measure.MeasureParams

REFERENCES = Path(__file__).with_name("references.json")
FLOAT_TOL = 1e-8  # absolute tolerance of a float CDF or F2 value (acceptance criterion 6)
KS_FALSE_ALARM = 1e-9  # DKW false-alarm probability of one sampling-batch check

# --- dist: exact tables, the float route, the partition-sum oracle, identities
DIST_SMALL = MeasureParams(5, 5, F(2, 5), F(-1, 2))
DIST_SMALL_H = tuple(range(11))
DIST_HARD = MeasureParams(10, 10, F(4, 5), F(-1))
DIST_HARD_EXACT_H = (10, 20, 30, 40)
DIST_HARD_AUTO_H = tuple(range(20, 101, 10))
DIST_MID = MeasureParams(25, 25, F(1, 2), F(-1, 2))
DIST_MID_AUTO_H = tuple(range(40, 59, 2))
ORACLE_CASES = (
    (MeasureParams(2, 2, F(1, 2), F(-1, 2)), (4, 6, 8, 10, 12)),
    (MeasureParams(3, 3, F(1, 2), F(-1)), (2, 3, 4, 5)),
)
CAUCHY_CASES = tuple(
    (m, n, t) for m in (1, 2, 3) for n in (1, 2, 3) for t in (F(0), F(-1, 2), F(-1))
)
CAUCHY_DEGREE = 8
GESSEL_CASES = tuple((m, n, F(-1), h) for (m, n) in ((2, 2), (3, 2), (3, 3)) for h in (1, 2, 3))
GESSEL_DEGREE = 16

# --- converge: the two configurations of acceptance criterion 9
# The large n are about the smallest at which all 8 points take the mp route
# (at n = 56 and 40 three points take the float route, and miss).
CONVERGE_CONFIGS = (
    ((F(1, 2), 1, F(0)), (20, 25, 64)),
    ((F(2, 5), 1, F(-1)), (20, 25, 50)),
)
CONVERGE_S_GRID = (-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)

# --- sample: few letters per cell at alpha=2/5, many at 4/5, and a non-square shape
SAMPLE_PARAMS = (
    MeasureParams(10, 10, F(2, 5), F(0)),
    MeasureParams(10, 10, F(2, 5), F(-1)),
    MeasureParams(10, 10, F(4, 5), F(-1)),
    MeasureParams(3, 30, F(1, 2), F(-1, 2)),
)
SAMPLE_BATCHES = 4
SAMPLE_BATCH_SIZE = 500
RSK_MATRICES = 25

# --- tw: F2 on a grid with the refinement check, and the F2 mean.  The 25
# grid points hold the median operation of `converge_tw` (74 operations):
# with fewer, it falls on the slowest of the four small-n convergence calls,
# which spread 0.2 (IQR / median) over ten runs.  Order 40 (80 F2 values)
# gives the mean to 1e-13 in a third of the default order's time, so that a
# run fits one more round.
TW_GRID = tuple(round(-8.0 + 0.5 * i, 1) for i in range(25))
TW_MEAN_ORDER = 40

# The parts each workload runs, and the CLI command whose cold start is its
# set-up time.
WORKLOADS = {"dist_sample": ("dist", "sample"), "converge_tw": ("converge", "tw")}
SETUP_CMD = {"dist_sample": "dist", "converge_tw": "converge"}

# The smallest input of each CLI command: what set-up time measures.
CLI_ARGS = {
    "dist": ["dist", "--m", "2", "--n", "2", "--alpha", "1/2", "--t=-1/2", "--h-max", "4"],
    "converge": ["converge", "--alpha", "1/2", "--tau", "1", "--t", "0", "--n-list", "20",
                 "--s-grid=0"],
    "sample": ["sample", "--m", "3", "--n", "3", "--alpha", "1/2", "--t=-1/2", "--samples",
               "10", "--seed", "1"],
    "tw": ["tw", "--s-grid=0"],
}

# Operations that miss their reference at the seed commit.  They are counted
# in `failed` on every run; an op failing outside this list makes the run
# incorrect.  A fix removes entries.
#  - dist/converge: the float CDF route (`bo_cdf`) is wrong at moderate n
#    (ROADMAP item 1).
#  - sample: at m != n `sample_lambda1` draws from the law with m and n
#    exchanged (KS 0.01 against the exact CDF of (30,3,1/2,-1/2), 0.3 against
#    that of (3,30,1/2,-1/2)).
KNOWN_DEFECTS = {
    "dist": {f"auto 10,10,4/5,-1 h={h}" for h in range(20, 101, 10)}
    | {f"auto 25,25,1/2,-1/2 h={h}" for h in range(40, 59, 2)},
    "converge": {f"converge 0.4,1.0,-1.0 n={n} s={s} h={h}" for n, s, h in (
        (20, -4.0, 17), (20, -3.0, 21), (20, -2.0, 24), (25, -4.0, 24), (25, -3.0, 28),
        (25, -2.0, 32), (25, -1.0, 36), (25, 0.0, 40), (25, 1.0, 44))}
    | {f"converge 0.5,1.0,0.0 n=25 s={s} h={h}" for s, h in ((-4.0, 28), (-3.0, 34), (-2.0, 39))},
    "sample": {f"sample_lambda1 3,30,1/2,-1/2 batch={b}" for b in range(SAMPLE_BATCHES)},
    "tw": set(),
}

# Layer functions each part is predicted to exercise (README table).  The
# benchmark's test asserts that a traced round records calls to each.
PREDICTED_LAYERS = {
    "dist": ("partitions.partitions", "symfunc.gen_e_coeffs", "symfunc.schur_S_t",
             "series.det_gauss", "series.TruncatedSeries.__mul__", "numerics.symbol_phi",
             "numerics.toeplitz_det", "measure.lambda1_cdf_exact_oracle"),
    "converge": ("numerics.hankel_symbols_mp", "numerics.bo_cdf", "numerics.hankel_symbols",
                 "asymptotics.convergence_experiment", "asymptotics.scaled_cdf",
                 "asymptotics.constants", "tracy_widom.tw_f2", "airy.airy_ai"),
    "sample": ("measure.sample_lambda1", "rsk.rsk", "rsk.inverse_rsk"),
    "tw": ("tracy_widom.tw_f2", "tracy_widom.tw_f2_mean", "airy.airy_ai"),
}


def key(params):
    """Reference key of a parameter set, e.g. '10,10,4/5,-1'."""
    return f"{params.m},{params.n},{F(params.alpha)},{F(params.t)}"


def converge_h(c, g, n, s):
    """Lattice point of `scaled_cdf` for the default shift -1."""
    return math.ceil(c * n + n ** (1.0 / 3.0) * s / g) - 1


def dkw_epsilon(samples, false_alarm=KS_FALSE_ALARM):
    """KS radius exceeded with probability at most `false_alarm` (DKW-Massart)."""
    return math.sqrt(math.log(2.0 / false_alarm) / (2.0 * samples))


@dataclass
class Op:
    """One call.  If it stands for several operations, `points` names them,
    and `check` returns {point label: message} for those that missed."""
    label: str
    call: object  # () -> output
    check: object  # output -> None, or a message saying how it missed
    points: tuple = ()


class References:
    """The committed reference values, parsed on demand."""

    def __init__(self, path=REFERENCES):
        with open(path) as fh:
            self.raw = json.load(fh)

    def cdf(self, params, h):
        return F(self.raw["cdf"][key(params)]["values"][str(h)])

    def cdf_table(self, params):
        """(exact CDF as floats for h = 0..H, tail mass 1 - F(H) as a bound)."""
        entry = self.raw["cdf"][key(params)]
        values = entry["values"]
        table = np.array([float(F(values[str(h)])) for h in range(len(values))])
        return table, float(F(entry["tail_bound"]))

    def series(self, m, n, t, h, degree):
        return [F(c) for c in self.raw["gessel"][f"{m},{n},{t},{h},{degree}"]]

    def f2(self, s):
        return float(self.raw["f2"][repr(float(s))])

    def constants(self, config):
        return self.raw["constants"][",".join(str(F(x)) for x in config)]


def _exact(ref):
    return lambda out: None if out == ref else f"{out} != exact {ref}"


def _close(ref, tol=FLOAT_TOL):
    def check(out):
        err = abs(float(out) - float(ref))
        return None if err <= tol else f"{float(out):.10g} vs {float(ref):.10g} (|err| {err:.2e})"
    return check


def _auto_check(ref):
    exact, close = _exact(ref), _close(ref)
    return lambda out: exact(out) if isinstance(out, F) else close(out)


def dist_ops(refs, rng):
    ops = []
    for params, hs in ((DIST_SMALL, DIST_SMALL_H), (DIST_HARD, DIST_HARD_EXACT_H)):
        for h in hs:
            ops.append(Op(f"exact {key(params)} h={h}",
                          lambda p=params, h=h: measure.lambda1_cdf_exact(p, h, mode="exact"),
                          _exact(refs.cdf(params, h))))
    for params, hs in ((DIST_SMALL, DIST_SMALL_H), (DIST_HARD, DIST_HARD_AUTO_H),
                       (DIST_MID, DIST_MID_AUTO_H)):
        for h in hs:
            ops.append(Op(f"auto {key(params)} h={h}",
                          lambda p=params, h=h: measure.lambda1_cdf_exact(p, h),
                          _auto_check(refs.cdf(params, h))))
    for params, hs in ORACLE_CASES:
        for h in hs:
            ops.append(Op(f"oracle {key(params)} h={h}",
                          lambda p=params, h=h: measure.lambda1_cdf_exact_oracle(p, h),
                          _exact(refs.cdf(params, h))))
    for m, n, t in CAUCHY_CASES:
        ops.append(Op(f"cauchy {m},{n},{t} degree={CAUCHY_DEGREE}",
                      lambda m=m, n=n, t=t: symfunc.cauchy_check(m, n, t, CAUCHY_DEGREE),
                      lambda out: None if out == (True, None) else f"mismatch {out[1]}"))
    for m, n, t, h in GESSEL_CASES:
        ref = refs.series(m, n, t, h, GESSEL_DEGREE)
        ops.append(Op(f"gessel {m},{n},{t} h={h} degree={GESSEL_DEGREE}",
                      lambda m=m, n=n, t=t, h=h: numerics.gessel_lhs_alpha_series(
                          m, n, t, h, GESSEL_DEGREE),
                      lambda out, ref=ref: None if [out.coeff(k) for k in range(len(ref))] == ref
                      else "partition sum differs from the Toeplitz series"))
    return ops


def converge_ops(refs, rng):
    """One `convergence_experiment` call per (configuration, n), as `tschur
    converge` makes it; each of its s-points is one operation."""
    ops = []
    for config, n_list in CONVERGE_CONFIGS:
        consts = refs.constants(config)
        c, g = float(F(consts["c"])), float(F(consts["g"]))
        alpha, tau, t = (float(x) for x in config)
        for n in n_list:
            exact = MeasureParams(int(tau * n), n, config[0], config[2])
            points = {s: f"converge {alpha},{tau},{t} n={n} s={s} h={converge_h(c, g, n, s)}"
                      for s in CONVERGE_S_GRID}

            def check(out, exact=exact, points=points, n=n):
                rows = {row["s"]: row for row in out[0] if row["n"] == n}
                missed = {}
                for s, label in points.items():
                    row = rows.get(s, {"error": "no row"})
                    if "error" in row:
                        missed[label] = row["error"]
                        continue
                    h = int(label.rsplit("=", 1)[1])
                    msg = _close(refs.cdf(exact, h))(row["empirical_cdf"]) or \
                        _close(refs.f2(s))(row["f2"])
                    if msg:
                        missed[label] = msg
                return missed

            ops.append(Op(f"convergence_experiment {alpha},{tau},{t} n={n}",
                          lambda a=alpha, tau=tau, t=t, n=n: asymptotics.convergence_experiment(
                              a, tau, t, [n], CONVERGE_S_GRID),
                          check, tuple(points.values())))
    return ops


def _rsk_round_trip(a, m, n):
    s, u = rsk.rsk(a)
    back = rsk.inverse_rsk(s, u, m, n)
    return a, back, rsk.longest_increasing(rsk.biword_from_matrix(a)), s.shape().first_row()


def _check_round_trip(out):
    a, back, lis, first_row = out
    if back != a:
        return "inverse_rsk did not return the matrix"
    if lis != first_row:
        return f"longest_increasing {lis} != first row {first_row}"
    return None


def _check_batches(table, tail, labels, out):
    """KS distance of the pooled batches to the exact CDF, against the DKW
    radius of the pooled sample size."""
    bad = {label: f"bad sample array {np.shape(x)}" for label, x in zip(labels, out)
           if np.shape(x) != (SAMPLE_BATCH_SIZE,) or np.min(x) < 0}
    if bad:
        return bad
    pooled = np.sort(np.concatenate(out))
    emp = np.searchsorted(pooled, np.arange(len(table)), side="right") / pooled.size
    # beyond the table F is within `tail` of 1, so this bounds the KS distance
    ks = max(float(np.max(np.abs(emp - table))), 1.0 - emp[-1]) + tail
    eps = dkw_epsilon(pooled.size)
    return {} if ks <= eps else dict.fromkeys(labels, f"KS {ks:.4f} above DKW bound {eps:.4f}")


class _PooledCheck:
    """Checks the batches of one parameter set together.  Each batch's
    output is held until the last of them arrives; then the pooled draws
    get one KS check, and a miss is reported for every batch."""

    def __init__(self, table, tail, labels):
        self.table, self.tail, self.labels = table, tail, labels
        self.held = {}

    def batch(self, b):
        def check(out):
            self.held[b] = out
            if len(self.held) < len(self.labels):
                return None
            outs = [self.held.pop(i) for i in range(len(self.labels))]
            return _check_batches(self.table, self.tail, self.labels, outs)
        return check


def sample_ops(refs, rng):
    ops = []
    for params in SAMPLE_PARAMS:
        labels = tuple(f"sample_lambda1 {key(params)} batch={b}" for b in range(SAMPLE_BATCHES))
        pooled = _PooledCheck(*refs.cdf_table(params), labels)
        for b, label in enumerate(labels):
            seed = int(rng.integers(2**63))
            ops.append(Op(label, lambda p=params, seed=seed: measure.sample_lambda1(
                p, SAMPLE_BATCH_SIZE, seed), pooled.batch(b)))
        for i in range(RSK_MATRICES):
            a = measure.sample_matrix(params, int(rng.integers(2**63)))
            ops.append(Op(f"rsk round trip {key(params)} matrix={i}",
                          lambda a=a, p=params: _rsk_round_trip(a, p.m, p.n),
                          _check_round_trip))
    return ops


def tw_ops(refs, rng):
    ops = [Op(f"tw_f2 check s={s}", lambda s=s: tracy_widom.tw_f2(s, check=True),
              _close(refs.f2(s))) for s in TW_GRID]
    ops.append(Op(f"tw_f2_mean order={TW_MEAN_ORDER}",
                  lambda: tracy_widom.tw_f2_mean(TW_MEAN_ORDER),
                  _close(refs.raw["f2_mean"])))
    return ops


def _warm_airy():
    """Build the lazily tabulated Airy function before timing (set-up measures it)."""
    tracy_widom.tw_f2(0.0)


OP_LISTS = {"dist": dist_ops, "converge": converge_ops, "sample": sample_ops, "tw": tw_ops}
WARM_UP = {"dist_sample": None, "converge_tw": _warm_airy}


def known_defects(name):
    """Labels of the workload's operations that miss at the seed commit."""
    return set().union(*(KNOWN_DEFECTS[part] for part in WORKLOADS[name]))


def predicted_layers(name):
    return tuple(f for part in WORKLOADS[name] for f in PREDICTED_LAYERS[part])


def build(name, seed, refs):
    """The workload's operations, in an order drawn from `seed`."""
    rng = np.random.default_rng(seed)
    ops = [op for part in WORKLOADS[name] for op in OP_LISTS[part](refs, rng)]
    return [ops[i] for i in rng.permutation(len(ops))]
