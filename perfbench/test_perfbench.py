"""Tests of the benchmark itself: tracer coverage and seeded inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

REFS = W.References()
COUNTED = {"dist_sample": ("partitions.partitions.items", "measure.sample_lambda1.samples",
                           "rsk.rsk.letters"),
           "converge_tw": ("airy.airy_ai.points",)}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_predicted_layers_record_calls(name):
    ops = W.build(name, 1, REFS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, fails = run.run_round(ops)
    finally:
        tracer.uninstall()
    assert not tracing.installed()
    assert {label for label, _ in fails} <= W.known_defects(name)
    spans, counts = tracer.summary()
    missing = [f for f in W.predicted_layers(name) if spans.get(f, {}).get("calls", 0) == 0]
    assert not missing, f"{name}: no calls recorded for {missing}"
    assert all(counts.get(c, 0) > 0 for c in COUNTED[name])


def test_tracer_rebinds_names_imported_across_modules():
    mods = {m: sys.modules[f"tschur.{m}"] for m in tracing.LAYERS}
    imported = [("symfunc", "det_gauss"), ("numerics", "det_gauss"), ("measure", "schur_s"),
                ("measure", "schur_S_t"), ("asymptotics", "lambda1_cdf_exact"),
                ("asymptotics", "tw_f2"), ("tracy_widom", "airy_ai"),
                ("numerics", "gen_e_coeffs"), ("measure", "partitions_in_box")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, attr in imported:
            assert hasattr(getattr(mods[mod], attr), tracing.MARK), f"{mod}.{attr}"
        # a generator function is timed per next() and counts its items
        list(mods["partitions"].partitions_in_box(2, 2))
        spans, counts = tracer.summary()
        assert spans["partitions.partitions"]["calls"] == counts["partitions.partitions.items"] + 1
    finally:
        tracer.uninstall()
    assert not tracing.installed()
    assert not any(hasattr(getattr(mods[m], a), tracing.MARK) for m, a in imported)


def test_untraced_round_installs_no_wrapper():
    _, _, fails = run.run_round(W.build("dist_sample", 1, REFS))
    assert {label for label, _ in fails} <= W.known_defects("dist_sample")
    assert not tracing.installed()


def test_seed_fixes_inputs_and_order():
    a, b, c = (W.build("dist_sample", seed, REFS) for seed in (7, 7, 8))
    assert [op.label for op in a] == [op.label for op in b] != [op.label for op in c]
    batch = next(i for i, op in enumerate(a) if op.label.startswith("sample_lambda1"))
    assert np.array_equal(a[batch].call(), b[batch].call())


def test_rounds_start_from_the_same_state():
    seen = []
    probe = W.Op("probe", lambda: seen.append(1) or len(seen),
                 lambda out: None if out == 1 else f"state of an earlier round survived: {out}")
    for _ in range(2):
        (_, lat, fails), _, found, _ = run.run_isolated([probe])
        assert len(lat) == 1 and not fails and not found
    assert seen == []


def test_multi_point_op_reports_each_point():
    op = W.Op("pair", lambda: (1, 2), lambda out: {"pair b": "missed"}, ("pair a", "pair b"))
    _, lat, fails = run.run_round([op])
    assert len(lat) == 2 and lat[0] == lat[1] and fails == [("pair b", "missed")]
