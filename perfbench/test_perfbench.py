"""Tests of the benchmark itself: smoke runs, the negative control, exact counts.

    python -m pytest perfbench -q

Every run here is tiny: a few cheap tasks per workload, the level-1 part of
the certification suite, two setup runs and one pass.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads as W  # noqa: E402
from cuspbase import verify  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
LEVEL1_CHECKS = {r.check_id for r in verify.run_suite([1], "all")[0]}
ONE_ETA = "eta:1:8,2:-4"


def tiny_workload(name, seed, reference):
    """The workload cut to a few cheap tasks, with the same gate."""
    if name == "certify":
        ref = {k: v for k, v in reference["certify"].items() if k in LEVEL1_CHECKS}
        return [1], lambda tracer: W.run_certify([1], ref, tracer)
    if name == "basis":
        inputs = [x for x in W.basis_inputs(seed) if x[0] <= 3][:4]
        tasks = [W.basis_task(N, k, s, reference["basis"]) for N, k, s in inputs]
    else:
        inputs = [ONE_ETA] + [k for k in W.expand_inputs(seed) if k.startswith("wpa:")][:3]
        tasks = [expand_task(key, reference) for key in inputs]
    return inputs, lambda tracer: W.run_tasks(tasks, tracer)


def expand_task(key, reference, expected_terms=None):
    call, orc = W.expand_pool()[key]
    if expected_terms is None:
        expected_terms = orc(W.ORACLE_DEPTH)
    return W.expand_task(key, call, expected_terms, reference["expand"])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(W, "make_workload", tiny_workload)
    monkeypatch.setattr(run, "SETUP_RUNS", 2)


def run_main(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_every_metric_and_unit(tiny, capsys, workload, trace):
    code, lines, result = run_main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    record = json.loads((HERE / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    for key in ("python", "nproc", "cpu_model", "git_commit", "seed", "inputs"):
        assert key in record


def test_negative_control_corrupted_digest(tiny, capsys, monkeypatch, tmp_path):
    """A corrupted reference digest fails the run: nonzero failed_frac, exit 1."""
    ref = json.loads(json.dumps(REFERENCE))
    key = W.basis_key(*[x for x in W.basis_inputs(3) if x[0] <= 3][0])
    ref["basis"][key] = "0" * 64
    (tmp_path / "reference.json").write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    code, lines, result = run_main(capsys, "basis", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    frac = next(line for line in lines if line.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0
    assert any(key in line for line in lines if line.startswith("FAIL"))


def test_negative_control_corrupted_oracle_coefficient():
    terms = W.expand_pool()[ONE_ETA][1](W.ORACLE_DEPTH)
    exponent = sorted(terms)[5]
    broken = dict(terms)
    broken[exponent] += 1
    _, outcomes = W.run_tasks([expand_task(ONE_ETA, REFERENCE, broken)])
    assert outcomes[0].error == f"{ONE_ETA}: differs from the naive oracle at q^{exponent}"
    _, outcomes = W.run_tasks([expand_task(ONE_ETA, REFERENCE)])
    assert outcomes[0].error is None


def test_negative_control_corrupted_check_detail():
    ref = {k: v for k, v in REFERENCE["certify"].items() if k in LEVEL1_CHECKS}
    victim = sorted(ref)[0]
    ref[victim] = W.digest("True something else")
    _, outcomes = W.run_certify([1], ref)
    failed = [o for o in outcomes if o.error]
    assert [o.key for o in failed] == [victim]


def test_exact_counts_identical_across_traced_runs(tiny, capsys):
    counts = []
    for _ in range(2):
        for workload in W.WORKLOADS:
            code, _, result = run_main(capsys, workload, 1)
            assert code == 0
            counts.append({n: m["value"] for n, m in result["metrics"].items()
                           if not n.endswith("_s")})
    assert counts[:3] == counts[3:]
    certify, basis, expand = counts[:3]
    assert expand["series.invert.terms"] > 0
    assert basis["series.mul.term_products"] > 0
    assert basis["basis.echelonize.rows_in"] >= basis["basis.echelonize.pivots"] > 0
    assert certify["verify.check_basis_validity.calls"] == 1


def test_term_products_counts_pairs_below_the_frontier():
    import tracing
    from cuspbase.series import QSeries
    a = QSeries.make(0, [1, 0, 2, 3], prec=4)       # terms at 0, 2, 3
    b = QSeries.make(1, [1, 1], prec=None)          # exact, terms at 1, 2
    # frontier min(4 + 1, none) = 5: pairs (0,1) (0,2) (2,1) (2,2) (3,1)
    assert tracing.term_products(a, b) == 5
    assert tracing.term_products(a, Fraction(3)) == 0


def test_certify_counts_every_check_when_the_suite_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "run_suite", broken)
    _, outcomes = W.run_certify([1], REFERENCE["certify"])
    assert len(outcomes) == len(REFERENCE["certify"])
    assert all("run_suite raised ValueError: boom" in o.error for o in outcomes)
