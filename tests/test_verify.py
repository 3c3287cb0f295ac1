"""The certification suite runner and its individual checks."""

import sys
from collections import Counter

import pytest

from cuspbase import basis, catalog
from cuspbase.basis import DecompositionReport
from cuspbase.catalog import clear_caches, get_catalog
from cuspbase.verify import (
    check_decompositions, check_delta_multiplication, check_identity,
    check_ladder_dims, check_ladder_offsets, check_printed_series,
    check_seed_alt_reading, reference_checks, run_suite,
)
from cuspbase.expr import Delta, eta
from cuspbase.series import QSeries


def test_reference_suite_all_levels_green():
    results, ok = run_suite(suite="paper")
    assert ok, [r.check_id for r in results if not r.ok]
    # one dimension table, profile, generator and seed check per level
    ids = {r.check_id for r in results}
    for n in range(1, 11):
        assert f"dims:table:N={n}" in ids
        assert f"catalog:profile:N={n}" in ids


def test_check_ids_are_stable():
    results = reference_checks(2)
    assert [r.check_id for r in results] == [
        "dims:table:N=2", "dims:codim:N=2", "catalog:profile:N=2",
        "catalog:generators:N=2", "catalog:seeds:N=2", "printed:E4_2_0",
        "printed:F8_2_1", "printed:delta_2", "identity:E2_2_0:lambert_combo",
        "identity:F8_2_1:eta_product",
    ]


def test_printed_check_reports_first_mismatch_exponent():
    result = check_printed_series("printed:delta_6")
    assert result.ok
    # a wrong identity reports where it breaks
    bad = check_identity("identity:test", 2, Delta(2), eta((1, 8), (2, 8)), 4)
    assert not bad.ok
    assert "exponent 2" in bad.detail


def test_alt_reading_is_informational():
    result = check_seed_alt_reading()
    assert result.ok
    assert "diverges" in result.detail


def test_level7_offset_check():
    result = check_ladder_offsets(7)
    assert result.ok
    assert "start 3" in result.detail and "start 2" in result.detail


def test_ladder_dims_check_reads_the_catalogue_start(monkeypatch):
    # level 7 with its weight-4 base seed as the only seed starts at k0=2,
    # where the ladder difference is not constant: the check must fail
    cat = get_catalog(7)
    doctored = cat.replace(seeds=(cat.base_seed,), base_seed=None)
    assert doctored.k0 == 2
    monkeypatch.setitem(catalog._CATALOGS, 7, doctored)
    result = check_ladder_dims(7)
    assert not result.ok
    assert result.detail.startswith("start 2, rows ")


def test_delta_multiplication_check():
    result = check_delta_multiplication(5, k_max=6)
    assert result.ok, result.detail


def test_structure_suite_sampled():
    results, ok = run_suite(levels=[4], suite="structure")
    assert ok, [r.detail for r in results if not r.ok]


def test_suite_builds_each_basis_once(monkeypatch):
    # each (space, N, k) is first asked for at its highest precision, so
    # the memo serves every later request by truncation
    builds = Counter()
    for name in ("_m_basis_build", "_s_basis_build"):
        def counted(N, k, prec, _build=getattr(basis, name), _name=name):
            builds[_name, N, k] += 1
            return _build(N, k, prec)
        monkeypatch.setattr(basis, name, counted)
    clear_caches()
    _, ok = run_suite([10])
    assert ok
    assert len(builds) == 25 and set(builds.values()) == {1}


@pytest.mark.parametrize("level", [1, 7, 10])
def test_suite_takes_every_power_of_a_form_from_the_memo(monkeypatch, level):
    # a form's power is a memo entry made by halving, so a series power of
    # exponent 2 or more is left only inside eta_expand, whose Euler
    # factors are not forms
    calls = []

    def counted(self, n, _pow=QSeries.__pow__):
        calls.append((sys._getframe(1).f_globals["__name__"], n))
        return _pow(self, n)

    monkeypatch.setattr(QSeries, "__pow__", counted)
    clear_caches()
    _, ok = run_suite([level], "all")
    assert ok
    assert {module for module, n in calls if n >= 2} <= {"cuspbase.eta"}


def test_decomposition_failures_are_listed_by_ascending_k(monkeypatch):
    def decompose(N, k):
        return DecompositionReport(N, k, 0, k, (), k, k, k not in (3, 7))
    monkeypatch.setattr("cuspbase.verify.structure_decompose", decompose)
    result = check_decompositions(4)
    assert not result.ok
    assert result.detail == "failures: [(3, 3, 3, False), (7, 7, 7, False)]"
