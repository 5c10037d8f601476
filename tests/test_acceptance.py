"""Acceptance gate: one test and one PASS/FAIL line per `tschur.acceptance` criterion."""

from tschur import acceptance


def _report(num, ok, label):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}", flush=True)
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_worked_example_reproduction():
    _report(1, *acceptance.criterion_01())


def test_criterion_02_tableau_determinant_equivalence():
    _report(2, *acceptance.criterion_02())


def test_criterion_03_cauchy_identity():
    _report(3, *acceptance.criterion_03())


def test_criterion_04_gessel_identity():
    _report(4, *acceptance.criterion_04())


def test_criterion_05_rsk_bijection_sweeps():
    _report(5, *acceptance.criterion_05())


def test_criterion_06_borodin_okounkov_crosscheck():
    _report(6, *acceptance.criterion_06())


def test_criterion_07_t0_closed_forms():
    _report(7, *acceptance.criterion_07())


def test_criterion_08_tracy_widom_stability_and_mean():
    _report(8, *acceptance.criterion_08())


def test_criterion_09_convergence_to_tracy_widom():
    _report(9, *acceptance.criterion_09())


def test_criterion_10_monte_carlo_consistency():
    _report(10, *acceptance.criterion_10())
