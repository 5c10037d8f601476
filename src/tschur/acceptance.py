"""The ten end-to-end acceptance criteria, each at its stated tolerance.

Each `criterion_NN()` runs one check and returns (ok, label).  The
acceptance tests and `tschur verify` call these same functions:
`tschur verify` runs `QUICK` by default and all ten at `--level full`.
Criteria 7-9 import the asymptotic modules themselves, so that `QUICK`
loads no scipy.
"""

import itertools
import subprocess
import sys
from fractions import Fraction as F

import numpy as np

from . import numerics
from .measure import MeasureParams, ks_distance, lambda1_cdf_exact, sample_lambda1
from .partitions import partitions
from .rsk import Entry, PMatrix, biword_from_matrix, inverse_rsk, longest_increasing, rsk
from .symfunc import SpecializedVars, cauchy_check, schur_S_t, schur_S_t_oracle

T_VALUES = (F(0), F(-1, 2), F(-1))
QUICK = (3, 4, 5, 6)  # the exact identities, RSK and the float route: a few seconds


def criterion_01():
    res = subprocess.run(
        [sys.executable, "-m", "tschur.cli", "rsk", "--matrix", "1' 0 2\n2 1 2'\n1' 1' 0"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    out = res.stdout
    ok = (
        res.returncode == 0
        and "1 1 1 2 2 2 2 2 3 3" in out
        and "1' 3 3 1 1 2 3' 3 1' 2'" in out
        and "1' 1 1 2' 3' 3\n  1' 2\n  3 3" in out
        and "1 1 1 2 2 2\n  2 2\n  3 3" in out
        and "shape: (6, 2, 2)" in out
        and "lambda_1 = 6   lis(w) = 6" in out
    )
    return ok, "worked-example biword, tableaux, shape and lis reproduced"


def criterion_02():
    a = F(1, 2)
    ok = True
    for lam in partitions(6):
        for m in (1, 2, 3):
            for t in T_VALUES:
                det_val = schur_S_t(lam, SpecializedVars(m, a), t)
                if det_val != schur_S_t_oracle(lam, m, t, a):
                    ok = False
    return ok, "determinant route equals marked-tableau sum (|lambda|<=6, m<=3)"


def criterion_03():
    ok = all(cauchy_check(m, n, t, 8)[0] for m in (1, 2, 3) for n in (1, 2, 3) for t in T_VALUES)
    return ok, "Cauchy identity degreewise to alpha^8 on {1,2,3}^2"


def criterion_04():
    # one pass per (m, n, t) checks every h <= 4
    ok = all(numerics.gessel_check(m, n, t, 4, 40)[0]
             for m in (1, 2, 3) for n in (1, 2, 3) for t in T_VALUES)
    return ok, "Gessel partition sum equals Toeplitz det to alpha^40 (h<=4)"


def criterion_05():
    ok = True
    letters = [None] + [Entry(v, mk) for v in (1, 2) for mk in (False, True)]
    count = 0
    for picks in itertools.product(letters, repeat=4):
        a = PMatrix([[picks[0], picks[1]], [picks[2], picks[3]]])
        count += 1
        s, u = rsk(a)
        if inverse_rsk(s, u, 2, 2) != a:
            ok = False
        if longest_increasing(biword_from_matrix(a)) != s.shape().first_row():
            ok = False
    ok = ok and count == 625
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        vals = rng.integers(0, 4, size=9)
        marks = rng.integers(0, 2, size=9)
        rows = [
            [
                Entry(int(vals[3 * i + j]), bool(marks[3 * i + j]))
                if vals[3 * i + j]
                else None
                for j in range(3)
            ]
            for i in range(3)
        ]
        a = PMatrix(rows)
        s, u = rsk(a)
        if inverse_rsk(s, u, 3, 3) != a:
            ok = False
        if longest_increasing(biword_from_matrix(a)) != s.shape().first_row():
            ok = False
    return ok, "RSK round-trip + lis theorem, 625 exhaustive + 10^4 random"


def criterion_06():
    p = MeasureParams(5, 5, F(2, 5), F(-1, 2))
    hs = range(3, 11)
    exact = lambda1_cdf_exact(p, hs, mode="exact")
    worst = max(abs(v - float(e)) for v, e in zip(numerics.bo_cdf(p, hs), exact))
    return worst < 1e-8, f"|bo_cdf - exact Toeplitz CDF| = {worst:.2e} < 1e-8"


def criterion_07():
    from .asymptotics import constants, t0_closed_forms

    worst = 0.0
    for a in (0.2, 0.35, 0.5, 0.65, 0.8):
        for tau in (0.5, 0.8, 1.0, 1.5, 2.0):
            z0c, c1c, c2c = t0_closed_forms(a, tau)
            data = constants(a, tau, 0.0)
            worst = max(worst, abs(data.z0 - z0c), abs(data.c1 - c1c), abs(data.c2 - c2c))
    special = abs(constants(0.5, 1.0, 0.0).c1 - 2.0)
    ok = worst < 1e-12 and special < 1e-12
    return ok, f"t=0 closed forms on 5x5 grid, max err {worst:.2e} < 1e-12"


def criterion_08():
    from .tracy_widom import tw_f2, tw_f2_mean

    worst = 0.0
    for s in np.linspace(-6.0, 4.0, 11):
        base = tw_f2(float(s))
        refined = tw_f2(float(s), check=True)
        worst = max(worst, abs(base - refined))
    mean = tw_f2_mean()
    ok = worst < 1e-8 and abs(mean - (-1.7711)) < 1e-3
    return (
        ok,
        f"F2 doubling-stable ({worst:.1e} < 1e-8), mean {mean:.5f} within 1e-3 of -1.7711",
    )


def criterion_09():
    from .asymptotics import convergence_experiment

    s_grid = [-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    ok = True
    report = []
    for (a, tau, t) in ((F(1, 2), 1, F(0)), (F(2, 5), 1, F(-1))):
        _, summary = convergence_experiment(a, tau, t, [20, 200], s_grid)
        d20 = summary[0]["sup_distance"]
        d200 = summary[1]["sup_distance"]
        ok = ok and d200 < 0.1 and d200 < d20
        report.append(f"t={float(t)}: {d20:.3f} -> {d200:.3f}")
    return ok, "scaled CDF sup-distance to F2 (" + "; ".join(report) + ")"


def criterion_10():
    ok = True
    report = []
    for t in (F(0), F(-1)):
        p = MeasureParams(10, 10, F(2, 5), t)
        draws = sample_lambda1(p, 100_000, seed=20240814)
        ks = ks_distance(draws, p)
        ok = ok and ks < 0.01
        report.append(f"t={t}: KS={ks:.4f}")
    return ok, "10^5-sample KS vs exact CDF (" + "; ".join(report) + ") < 0.01"
