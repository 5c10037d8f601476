"""Command-line interface: artifacts, determinism, and exit codes."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

PAPER_MATRIX = "1' 0 2\n2 1 2'\n1' 1' 0"
REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "tschur.cli", *args],
        capture_output=True,
        text=True,
        input=input_text,
    )


def test_rsk_worked_example():
    res = run_cli("rsk", "--matrix", PAPER_MATRIX)
    assert res.returncode == 0
    out = res.stdout
    assert "1 1 1 2 2 2 2 2 3 3" in out
    assert "1' 3 3 1 1 2 3' 3 1' 2'" in out
    assert "1' 1 1 2' 3' 3" in out
    assert "shape: (6, 2, 2)" in out
    assert "lambda_1 = 6   lis(w) = 6" in out


def test_rsk_reads_stdin_and_rejects_garbage():
    res = run_cli("rsk", input_text="0")
    assert res.returncode == 0
    bad = run_cli("rsk", "--matrix", "1 q")
    assert bad.returncode == 2
    assert "bad token" in bad.stderr


@pytest.mark.parametrize("argv, message", [
    ("sample --m 2 --n 2 --alpha 1/2 --samples 0 --seed 1", "samples >= 1"),
    ("sample --m 2 --n 2 --alpha 1/2 --samples 5 --seed -1", "seed must be a nonnegative"),
    ("dist --m 0 --n 2 --alpha 1/2 --h-max 3", "m and n must be positive"),
    ("dist --m 2 --n 2 --alpha 3/2 --h-max 3", "alpha must lie in (0, 1)"),
    ("dist --m 2 --n 2 --alpha 1/2 --h-max -1", "h-max must be nonnegative"),
    ("constants --alpha 2 --tau 1", "alpha must lie in (0, 1)"),
    ("tw --s-grid=11", "s outside supported range"),
    ("tw --s-grid=abc", "could not convert string to float"),
    ("converge --alpha 1/2 --tau 1/2 --n-list 3", "tau * n must be an integer"),
    ("converge --alpha 3/2 --n-list 10", "alpha must lie in (0, 1)"),
    ("converge --alpha 1/2 --tau 1 --n-list 20 --s-grid=", "must be nonempty"),
])
def test_bad_measure_input_is_a_usage_error(argv, message, capsys):
    from tschur.cli import main

    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "rsk --matrix-file missing.txt",
    "dist --m 2 --n 2 --alpha 1/2 --h-max 3 --out missing/cdf.csv",
])
def test_unusable_file_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    from tschur.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "No such file" in err
    assert err.count("\n") == 1 and not list(tmp_path.iterdir())


def _dist_rows(capsys, args):
    from tschur.cli import main

    assert main(args.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return [[float(x) for x in l.split(",")] for l in out.splitlines() if l[0].isdigit()]


def test_dist_exact_route_beyond_bo_domain(capsys):
    """|t alpha| >= 1: `auto` prints the exact route's rows at h <= 6, and
    the float route's rows equal the exact ones within 1e-12, also at
    n = 25 out to h = 70."""
    args = "dist --m 2 --n 2 --alpha 1/2 --t=-3 --h-max 8 --mode {}"
    exact, auto = (_dist_rows(capsys, args.format(mode)) for mode in ("exact", "auto"))
    assert [row[0] for row in exact] == list(range(9))
    assert auto[:7] == exact[:7]
    args = "dist --m 25 --n 25 --alpha 1/2 --t=-3 --h-max 70 --mode {}"
    exact, flt = (_dist_rows(capsys, args.format(mode)) for mode in ("exact", "float"))
    assert [row[0] for row in flt] == list(range(71))
    assert all(abs(x[1] - y[1]) < 1e-12 for x, y in zip(exact, flt))
    assert exact[30][1] < 1e-16 and exact[70][1] > 0.99  # the whole law


def test_dist_alpha_near_one(capsys):
    """alpha = 9999/10000: the float rows (h = 7) match the exact route
    within 1e-10; the determinant has no size that grows with 1/(1-alpha)."""
    args = "dist --m 2 --n 2 --alpha 9999/10000 --h-max 7 --mode {}"
    exact, auto = (_dist_rows(capsys, args.format(mode)) for mode in ("exact", "auto"))
    assert [row[0] for row in auto] == list(range(8))
    assert all(abs(x[1] - y[1]) < 1e-10 for x, y in zip(exact, auto))


def test_dist_csv_and_metadata():
    res = run_cli(
        "dist", "--m", "2", "--n", "2", "--alpha", "1/2", "--t=-1", "--h-max", "3"
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("alpha = 1/2" in l for l in meta)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "h,cdf"
    # h=0 row is P(empty) = (81/625)... at t=-1, alpha=1/2: (3/4 * 3/5)^... check value
    h0 = float(data[1].split(",")[1])
    assert abs(h0 - 81 / 625) < 1e-15


def test_dist_json_format():
    res = run_cli(
        "dist", "--m", "2", "--n", "2", "--alpha", "0.5", "--h-max", "2",
        "--format", "json",
    )
    doc = json.loads(res.stdout)
    assert doc["meta"]["command"] == "dist"
    assert len(doc["cdf"]) == 3


def test_sample_deterministic_bytes():
    args = (
        "sample", "--m", "2", "--n", "2", "--alpha", "0.4", "--t=-1",
        "--samples", "200", "--seed", "11",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    total = sum(int(l.split(",")[1]) for l in a.stdout.splitlines() if l[:1].isdigit())
    assert total == 200


# sha256 of `tschur sample` stdout; a change of sampler must keep these bytes
SAMPLE_SHA256 = {
    "--m 10 --n 10 --alpha 2/5 --t -1 --samples 1000 --seed 7":
        "dbfd05f16b31c82fd44cf769673901bbe247ad1114098be2aaadf4d237437e10",
    "--m 10 --n 10 --alpha 4/5 --t=-1 --samples 2000 --seed 3":
        "add950c3ef37c478d6d85564ccb994bb435919359c1febae7ac30fccbb8aedff",
}


def test_sample_output_bytes_pinned():
    for args, digest in SAMPLE_SHA256.items():
        res = run_cli("sample", *args.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest, args


# sha256 of `tschur dist` stdout; the exact route must keep every rational
DIST_SHA256 = {
    "--m 10 --n 10 --alpha 4/5 --t=-1 --h-max 40 --mode exact":
        "8ee6e8121a76213854d22b7316f3952e0da10caa570c5bdb334800b1bd769501",
    "--m 5 --n 5 --alpha 2/5 --t=-1/2 --h-max 12":
        "af30f8e3be219303371f434013d9afcdee38e82986d75c12f35dcb2246da7fa4",
}


def test_dist_output_bytes_pinned():
    for args, digest in DIST_SHA256.items():
        res = run_cli("dist", *args.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest, args


# sha256 of `tschur converge` stdout at the two configurations of acceptance
# criterion 9, on the benchmark's s-grid and at its largest n of each; the
# flags parse exactly, so `--alpha 0.4` computes at 2/5
CONVERGE_SHA256 = {
    "--alpha 0.5 --t 0 --n-list 64 --s-grid=-4,-3,-2,-1,0,1,2,3":
        "3d98ce097f90862a9f732d9f3d10b95c79b59ce77630fbc71472a7be1da47666",
    "--alpha 0.4 --t=-1 --n-list 50 --s-grid=-4,-3,-2,-1,0,1,2,3":
        "373d27140ec76630f65a05ac382209c949d8ec2092a7554ef80b8c409a564da6",
}


def test_converge_output_bytes_pinned():
    for args, digest in CONVERGE_SHA256.items():
        res = run_cli("converge", *args.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest, args


def test_converge_reads_alpha_exactly_as_dist_does():
    # '0.4' is 2/5, not the double 0.4: the data rows match '2/5' and the
    # float route at F(2, 5) on each row's lattice point
    from fractions import Fraction as F

    from tschur.asymptotics import constants
    from tschur.measure import MeasureParams, lambda1_cdf_exact

    grid = "--s-grid=-4,-3,-2,-1,0,1,2,3"
    outs = [run_cli("converge", "--alpha", a, "--t=-1", "--n-list", "50", grid)
            for a in ("0.4", "2/5")]
    rows = [[line for line in out.stdout.splitlines() if not line.startswith("# alpha")]
            for out in outs]
    assert rows[0] == rows[1]
    data = constants(0.4, 1.0, -1.0)
    params = MeasureParams(50, 50, F(2, 5), F(-1))
    cells = [line.split(",") for line in rows[0] if line.startswith("50,")]
    assert len(cells) == 9  # eight data rows, then the summary row
    for s, cdf in ((float(c[1]), float(c[2])) for c in cells[:8]):
        h = math.ceil(data.c * 50 + 50 ** (1 / 3) * s / data.g) - 1
        assert cdf == lambda1_cdf_exact(params, h, mode="float"), s


# sha256 of `tschur tw` stdout on the README's grid and the benchmark's
# (-8 to 4 in steps of 1/2); caching the quadrature rule must keep every bit
TW_SHA256 = {
    "--s-grid=-4,-2,0,2":
        "804fc1e902fe5b7255deef4c1166e028efc2818057840f910ed06e8d79fa46f9",
    "--s-grid=" + ",".join(str(-8 + 0.5 * i) for i in range(25)):
        "2b0538d69927e32d75189d1a51acf352403f0c38850de064f1f6ceefad49617c",
}


def test_tw_output_bytes_pinned():
    for args, digest in TW_SHA256.items():
        res = run_cli("tw", args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest, args


def test_constants_json():
    res = run_cli("constants", "--alpha", "0.5", "--tau", "1", "--t", "0")
    doc = json.loads(res.stdout)
    assert abs(doc["c1"] - 2.0) < 1e-12
    assert set(doc) == {"alpha", "tau", "t", "z0", "c", "sigma3", "g", "c1", "c2"}


def test_tw_rows_monotone():
    res = run_cli("tw", "--s-grid=-2,0,2")
    rows = [l for l in res.stdout.splitlines() if not l.startswith("#")][1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert len(vals) == 3
    assert vals[0] < vals[1] < vals[2]


def test_converge_writes_files(tmp_path):
    prefix = str(tmp_path / "exp")
    res = run_cli(
        "converge", "--alpha", "0.5", "--tau", "1", "--t", "0",
        "--n-list", "6", "--s-grid=-1,1", "--out", prefix,
    )
    assert res.returncode == 0
    rows = (tmp_path / "exp_rows.csv").read_text()
    summary = (tmp_path / "exp_summary.csv").read_text()
    assert rows.splitlines()[-1].startswith("6,")
    assert "sup_distance" in summary


def test_converge_dash_writes_standard_output(monkeypatch, tmp_path, capsys):
    # `--out -` means standard output here as in every other command
    from tschur import cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["converge", "--alpha", "0.5", "--tau", "1", "--t", "0",
                     "--n-list", "6", "--s-grid=-1,1", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert "sup_distance" in out and out.splitlines()[-1].startswith("6,")
    assert not list(tmp_path.iterdir())


def test_verify_quick_passes():
    res = run_cli("verify")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "all suites passed" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_reports_a_failing_criterion(monkeypatch, capsys):
    from tschur import acceptance, cli

    for num in acceptance.QUICK:
        monkeypatch.setattr(acceptance, f"criterion_{num:02d}", lambda: (True, "stub"))
    monkeypatch.setattr(acceptance, "criterion_04", lambda: (False, "forced"))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  criterion 4: forced" in out
    assert out.count("PASS") == len(acceptance.QUICK) - 1
    assert out.splitlines()[-1] == "1 suite(s) failed"


# The benchmark times the first two cold commands as its set-up (`CLI_ARGS`
# in perfbench/workloads.py); `tw` needs F2 alone, and `verify` runs
# criteria 3-6, which need no F2.
# None needs the modules listed with it.
@pytest.mark.parametrize("args, unneeded", [
    ("dist --m 2 --n 2 --alpha 1/2 --t=-1/2 --h-max 4",
     "scipy mpmath numpy.random tschur.asymptotics tschur.tracy_widom tschur.airy "
     "tschur.acceptance"),
    ("converge --alpha 1/2 --tau 1 --t 0 --n-list 20 --s-grid=0",
     "scipy mpmath tschur.acceptance"),
    ("tw --s-grid=0", "scipy mpmath tschur.acceptance"),
    ("verify", "scipy tschur.airy tschur.tracy_widom tschur.asymptotics"),
], ids=["dist", "converge", "tw", "verify"])
def test_cold_command_imports(args, unneeded):
    res = subprocess.run([sys.executable, "-X", "importtime", "-m", "tschur.cli", *args.split()],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
    assert "tschur.measure" in loaded  # the parse sees the package's own modules
    assert not loaded & set(unneeded.split())


def test_usage_error_exit_code():
    res = run_cli("dist", "--m", "2")
    assert res.returncode == 2


def test_readme_commands_run_as_written(tmp_path):
    """Each `tschur` line of the README's sh blocks runs in the shell, pipes
    included, with `tschur` standing for `python -m tschur.cli`; the library
    example runs as Python."""
    readme = (REPO / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if re.match(r"(tschur |.*\| tschur )", line) and line not in lines:
                lines.append(line)
    assert any(line.startswith("printf") for line in lines)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), path])))
    alias = f'tschur() {{ {shlex.quote(sys.executable)} -m tschur.cli "$@"; }}\n'
    for line in lines:
        res = subprocess.run(["sh", "-c", alias + line], cwd=tmp_path, env=env,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert res.returncode == 0, f"{line}\n{res.stderr}"
        if "| tschur rsk" in line:
            assert "lambda_1 = 6   lis(w) = 6" in res.stdout
    assert (tmp_path / "samples.csv").exists() and (tmp_path / "conv_rows.csv").exists()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
