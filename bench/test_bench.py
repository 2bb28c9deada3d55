"""Tests of the benchmark itself: checker, generators and tracer.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import configparser
import copy
import json

import numpy as np
import pytest

import checker
import tracer as tracing
import worker
import workloads
from spinvibronic import analysis, cli, hamiltonian, oscillator


@pytest.fixture(scope="module")
def small_spectrum(tmp_path_factory):
    """A real `spinvib solve` at a small cutoff with explicit spin-orbit."""
    tmp = tmp_path_factory.mktemp("solve")
    cp = configparser.ConfigParser()
    cp.read_string(next(p for p in workloads.bundled_configs()
                        if p.stem == "snv0").read_text())
    cp["solver"]["converge"] = "false"
    cp["solver"]["cutoff"] = "10"
    cp["soc"] = {"mode": "explicit", "lambda_u0_mev": "80.0", "lambda_g0_mev": "20.0"}
    conf = tmp / "snv0.conf"
    with open(conf, "w") as fh:
        cp.write(fh)
    assert workloads._quiet(["solve", str(conf), "--out", str(tmp / "out")]) == 0
    return checker.read_spectrum(tmp / "out")


def _swap_first_a2u_and_eu(spectrum):
    bad = copy.deepcopy(spectrum)
    ms0 = [lv for lv in bad["levels"] if lv["m_s"] == 0]
    labels = [lv["label"] for lv in ms0]
    i, j = labels.index("A2u"), labels.index("Eu")
    ms0[i]["label"], ms0[j]["label"] = ms0[j]["label"], ms0[i]["label"]
    return bad


def test_invariants_accept_real_output(small_spectrum):
    assert checker.check_spectrum(small_spectrum) == []


def test_invariants_reject_swapped_label(small_spectrum):
    assert checker.check_spectrum(_swap_first_a2u_and_eu(small_spectrum))


def test_invariants_reject_gamma_moved_one_percent(small_spectrum):
    bad = copy.deepcopy(small_spectrum)
    bad["report"]["gamma2_mev"] *= 1.01
    assert checker.check_spectrum(bad)


def test_invariants_reject_broken_kramers_pair(small_spectrum):
    bad = copy.deepcopy(small_spectrum)
    next(lv for lv in bad["levels"] if lv["m_s"] == -1)["energy_mev"] += 1e-3
    assert checker.check_spectrum(bad)


def _pinned_spectrum(defect):
    pinned = checker.pins()["large-sector"][defect]
    levels = [{"m_s": 0, "index": i, "energy_mev": e, "label": lab}
              for i, (lab, e) in enumerate(zip(pinned["labels"], pinned["energies"]))]
    return pinned, {"report": dict(pinned["report"]), "levels": levels}


@pytest.mark.parametrize("defect", workloads.LARGE_SECTOR_DEFECTS)
def test_pinned_check_rejects_perturbations(defect):
    pinned, spectrum = _pinned_spectrum(defect)
    assert checker.check_pinned(spectrum, pinned, calibrated=False) == []
    moved = copy.deepcopy(spectrum)
    moved["report"]["gamma2_mev"] *= 1.01
    assert checker.check_pinned(moved, pinned, calibrated=False)
    assert checker.check_pinned(_swap_first_a2u_and_eu(spectrum), pinned, calibrated=False)


def test_pinned_tolerance_admits_solver_noise():
    pinned, spectrum = _pinned_spectrum("PbV0")
    spectrum["report"]["gamma2_mev"] += 1e-7
    spectrum["report"]["p_g"] += 1e-8
    for lv in spectrum["levels"]:
        lv["energy_mev"] += 1e-7
    assert checker.check_pinned(spectrum, pinned, calibrated=False) == []


def test_table1_check_rejects_moved_gamma():
    pinned = checker.pins()["table1-bundled"]["SnV0"]
    rep = dict(pinned["report"])
    assert checker.check_pinned({"report": rep, "levels": []},
                                {"report": pinned["report"]}, calibrated=True) == []
    rep["gamma2_mev"] *= 1.01
    assert checker.check_pinned({"report": rep, "levels": []},
                                {"report": pinned["report"]}, calibrated=True)


def _inputs(tmp_path, name, seed, sub):
    wl = workloads.WORKLOADS[name](seed, tmp_path / sub)
    files = {p.relative_to(tmp_path / sub): p.read_bytes()
             for p in sorted((tmp_path / sub).rglob("*")) if p.is_file()}
    return wl, files


@pytest.mark.parametrize("name", ["table1-bundled", "large-sector"])
def test_config_generators_are_seeded(tmp_path, name):
    _, a = _inputs(tmp_path, name, 3, "a")
    _, b = _inputs(tmp_path, name, 3, "b")
    _, c = _inputs(tmp_path, name, 4, "c")
    assert a and a == b
    assert a != c


def test_sweep_and_fit_generators_are_seeded(tmp_path):
    s1, s2, s3 = (workloads.SocSweep(seed, tmp_path) for seed in (7, 7, 8))
    for (_, g1), (_, g2), (_, g3) in zip(s1.cases, s2.cases, s3.cases):
        assert np.array_equal(g1, g2) and not np.array_equal(g1, g3)
        assert np.all(np.diff(g1) > 0)
    f1, f2 = workloads.PesFit(7, tmp_path), workloads.PesFit(7, tmp_path)
    for a, b in zip(f1.cases, f2.cases):
        assert a[1] == b[1] and np.array_equal(a[2], b[2])


def test_fit_op_recovers_parameters(tmp_path):
    op = workloads.PesFit(2, tmp_path).ops()[0]
    assert op.check(op.run()) == []


@pytest.fixture
def small_sweep(monkeypatch):
    """soc-sweep at cutoff 6 with three points; its pins hold for cutoff 12 only."""
    monkeypatch.setattr(workloads, "SWEEP_CUTOFF", 6)
    monkeypatch.setattr(workloads, "SWEEP_POINTS", 3)
    monkeypatch.setattr(checker, "_pins", {})


def _traced_sweep(tmp_path, passes=2):
    ops = workloads.SocSweep(1, tmp_path).ops()
    tally = worker.Tally({}, "test")
    tr = tracing.Tracer()
    tr.install()
    try:
        walls = [worker.run_pass(ops, tally, tr, op_base=i * len(ops))[0] for i in range(passes)]
    finally:
        tr.uninstall()
    return tr, walls, tally


def test_traced_self_times_sum_to_wall(tmp_path, small_sweep):
    tr, walls, tally = _traced_sweep(tmp_path)
    assert tally.failed == 0 and tally.attempted == 2 * 4 * 3
    selfs = tr.self_times()
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(sum(walls), rel=1e-2, abs=1e-3)
    m = tracing.layer_metrics(tr, len(walls))
    assert m["eigensolver.solve_lowest.calls.dense"] == 4 * (1 + 3)
    assert m["analysis.soc_levels.solves"] == 4 * 3
    assert m["analysis.redundant_solves"] == 0
    assert m["symmetry.labelled_ratio"] == 1.0
    assert m["trace.self_s_sum"] == pytest.approx(sum(walls) / 2, rel=1e-2, abs=1e-3)


def test_uninstall_restores_package(tmp_path, small_sweep):
    before = (analysis.solve_lowest, cli.run_report, hamiltonian.assemble,
              oscillator.build_operators)
    _traced_sweep(tmp_path, passes=1)
    after = (analysis.solve_lowest, cli.run_report, hamiltonian.assemble,
             oscillator.build_operators)
    assert before == after


def test_missing_target_reports_zero_calls(tmp_path, monkeypatch, small_sweep):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("spinvibronic.analysis", "no_such_layer"),))
    tr, walls, _ = _traced_sweep(tmp_path, passes=1)
    assert "analysis.no_such_layer" not in {s.name for s in tr.spans}
    assert tracing.layer_metrics(tr, 1)["pes.fit_pes.calls"] == 0


def test_repeated_and_conjugate_solves_are_redundant():
    from spinvibronic import DEFECTS, SolverOptions, pes_to_couplings, solve_sector, soc_levels

    d = DEFECTS["SnV0"]
    opts = SolverOptions(k=6)
    tr = tracing.Tracer()
    tr.install()
    try:
        with tr.operation(0, "x"):
            sol = solve_sector(pes_to_couplings(d), d.lambda_corr, 4, opts=opts)
            soc_levels(sol, 40.0, 10.0, opts, solve_both_sectors=True)
            soc_levels(sol, 40.0, 10.0, opts)
    finally:
        tr.uninstall()
    m = tracing.layer_metrics(tr, 1)
    # m_s = -1 is the conjugate of +1, and the second sweep point repeats +1
    assert m["eigensolver.solve_lowest.calls.dense"] == 4
    assert m["analysis.redundant_solves"] == 2


def test_digest_mismatch_fails_the_operation():
    op = workloads.Op("k", 3, run=lambda: None, check=lambda out: [],
                      digest=lambda out: json.dumps(out))
    tally = worker.Tally({"p:k": "other"}, "p")
    tally.record(op, 1, None)
    assert (tally.attempted, tally.failed) == (3, 3)


def test_digests_are_compared_only_within_one_output_key():
    env = {k: "x" for k in worker.OUTPUT_KEYS}
    for k in ("bench_sha256", "blas_threads", "numpy"):
        assert worker.output_key(env) != worker.output_key(dict(env, **{k: "y"}))
