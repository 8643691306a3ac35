"""Tests of the benchmark harness itself (generator, spans, pass/fail judging).

    python3 -m pytest -q perfbench
"""

import sys
import time
import types

import pytest

import gen
import run
import spans


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generator_gives_identical_bytes_for_a_seed(workload, tmp_path):
    gen.write(workload, 5, tmp_path / "a")
    gen.write(workload, 5, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", ["certify-trajectory", "closure-waypoints"])
def test_generator_draws_new_inputs_for_another_seed(workload):
    assert gen.documents(workload, 5) != gen.documents(workload, 6)


def test_generated_systems_meet_the_theorem_hypotheses():
    import json

    import numpy as np

    for seed in range(4):
        for workload in sorted(run.WORKLOADS):
            doc = json.loads(gen.documents(workload, seed)["system.json"])
            h0, mu = np.array(doc["h0"]), np.array(doc["mu"])
            off = ~np.eye(doc["n"], dtype=bool)
            assert np.all(h0[off] == 0.0)
            assert np.all(np.diff(np.diag(h0)) > 0.0) and np.trace(h0) > 0.0
            assert np.all(np.abs(mu[off]) >= 0.1)
            assert np.array_equal(mu, mu.T)
            assert abs(np.trace(mu)) < 1e-12


def test_self_time_subtracts_nested_children():
    rows = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
    ]
    assert spans.self_times(rows) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_children():
    rows = [("p", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 7.0, 0), ("z", 4.0, 6.0, 0)]
    assert spans.self_times(rows)[0] == 4.0


def test_layer_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        tracer.call("inner", inner)
        tracer.call("inner", inner)

    tracer.call(spans.ROOT, outer)
    totals = spans.layer_totals(tracer.spans, ["inner"])
    assert totals["inner"]["calls"] == 2
    assert totals[spans.ROOT]["self_s"] > 0.0
    whole = totals[spans.ROOT]["total_s"]
    assert totals[spans.ROOT]["self_s"] + totals["inner"]["self_s"] == pytest.approx(whole, rel=1e-12)


def test_install_wraps_from_imports_and_records_absent_layers(monkeypatch):
    package = types.ModuleType("fakepkg")
    alpha = types.ModuleType("fakepkg.alpha")
    beta = types.ModuleType("fakepkg.beta")
    exec("def f(x):\n    return x + 1\n", alpha.__dict__)
    beta.f = alpha.f  # as `from .alpha import f` binds it
    exec("def g(x):\n    return f(x) * 2\n", beta.__dict__)
    for module in (package, alpha, beta):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(spans, "PACKAGE", "fakepkg")

    tracer = spans.Tracer()
    tracer.install(("alpha.f", "beta.g", "alpha.gone", "missing.h"))
    assert beta.g(1) == 4
    assert tracer.absent == ["alpha.gone", "missing.h"]
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [("beta.g", -1), ("alpha.f", 0)]


DEFICIENT = run.certify_trajectory(0)[1]
GOOD_STDOUT = "independence verdict: DEFICIENT rank=41 (41 samples, dim 8)\n"


def test_judge_accepts_the_expected_result(tmp_path):
    plain = run.Command(DEFICIENT.argv, DEFICIENT.exit_code, DEFICIENT.lines)
    assert run.judge(plain, 1, GOOD_STDOUT, tmp_path) == ([], {})


def test_judge_counts_a_wrong_exit_code_as_a_failure(tmp_path):
    plain = run.Command(DEFICIENT.argv, DEFICIENT.exit_code, DEFICIENT.lines)
    errors, _ = run.judge(plain, 0, GOOD_STDOUT, tmp_path)
    assert errors == ["exit code 0, expected 1"]


def test_judge_counts_a_wrong_verdict_as_a_failure(tmp_path):
    plain = run.Command(DEFICIENT.argv, DEFICIENT.exit_code, DEFICIENT.lines)
    errors, _ = run.judge(plain, 1, "independence verdict: FULL (4001 samples, dim 8)\n", tmp_path)
    assert len(errors) == 1 and "no output line matches" in errors[0]


def test_judge_counts_missing_or_wrong_files_as_a_failure(tmp_path):
    errors, _ = run.judge(DEFICIENT, 1, GOOD_STDOUT, tmp_path)
    assert len(errors) == 1 and "FileNotFoundError" in errors[0]
    (tmp_path / "span.txt").write_text("singular_value\n1.0\nDEFICIENT rank=41\ncomplement\n[[]]\n")
    errors, _ = run.judge(DEFICIENT, 1, GOOD_STDOUT, tmp_path)
    assert len(errors) == 1 and "complement holds 1 matrices, expected 22" in errors[0]
