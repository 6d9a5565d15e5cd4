"""Tests of the benchmark itself: tiny runs of every workload, and every
correctness gate failing on a corrupted input.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gates  # noqa: E402
import tensorfm as tfm  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _check_metrics(result: dict, wanted: list[dict]) -> None:
    got = result["metrics"]
    for metric in wanted:
        assert metric["name"] in got, metric["name"]
        value = got[metric["name"]]
        assert value["unit"] == metric["unit"], metric["name"]
        assert isinstance(value["value"], float) and math.isfinite(value["value"]), metric["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric_and_passes_every_gate(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny")
    result = _result(proc)
    _check_metrics(result, SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert "gate FAIL" not in proc.stdout
    assert any(line.startswith("manifest ") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "tiny")
    _check_metrics(_result(proc), SPEC["per_layer"])


def test_run_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each gate fails on a corrupted input
# ---------------------------------------------------------------------------


def test_rel_close_fails_on_one_score_perturbed_by_1e_6():
    scores = np.linspace(-2.0, 3.0, 50)
    assert gates.rel_close("g", scores, scores.copy(), 1e-12).ok
    bad = scores.copy()
    bad[17] *= 1.0 + 1e-6
    assert not gates.rel_close("g", bad, scores, 1e-12).ok
    assert not gates.rel_close("g", bad, scores, 1e-9).ok
    assert not gates.rel_close("g", scores[:-1], scores, 1e-9).ok


def test_all_identical_fails_on_a_differing_output():
    assert gates.all_identical("g", ["a", "a", "a"]).ok
    assert not gates.all_identical("g", ["a", "b", "a"]).ok
    assert not gates.all_identical("g", []).ok


def test_all_finite_fails_on_nan_or_inf():
    assert gates.all_finite("g", [0.6, 0.5]).ok
    assert not gates.all_finite("g", [0.6, math.nan]).ok
    assert not gates.all_finite("g", [math.inf]).ok


def test_at_least_fails_below_the_floor():
    assert gates.at_least("g", 0.66, 0.6).ok
    assert not gates.at_least("g", 0.59, 0.6).ok


def test_eval_output_check_fails_when_a_printed_digit_differs():
    assert gates.eval_output_matches("g", "test_logloss,test_auc\n0.693420,50.0791\n", 0.6934204, 0.500791).ok
    assert not gates.eval_output_matches("g", "test_logloss,test_auc\n0.693420,50.0792\n", 0.6934204, 0.500791).ok
    assert not gates.eval_output_matches("g", "error: truncated\n", 0.6934204, 0.500791).ok


def test_param_digest_changes_with_one_parameter_ulp():
    bundle = tfm.init("tensorfm", tfm.build_schema([4, 5, 6]), k=3, d=3, r_vec=2, seed=0)
    before = workloads.param_digest(bundle)
    assert workloads.param_digest(bundle) == before
    bundle.cp_sets[1].factors[2][0, 1] = np.nextafter(bundle.cp_sets[1].factors[2][0, 1], 1.0)
    assert workloads.param_digest(bundle) != before


def test_serve_job_fails_on_a_truncated_model_file(tmp_path):
    w = workloads.Serve(3, workloads.SIZES["tiny"], tmp_path)
    w.setup()
    assert w.job().digest
    path = w.model_path
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    report = workloads.Report()
    assert report.call(w.job) is None
    assert report.failed == 1 and report.attempted == 1


def _boom(*args, **kwargs):
    raise RuntimeError("forced failure")


@pytest.mark.parametrize("target", ["job", "score"])
def test_run_ends_and_exits_1_when_an_operation_always_fails(target, monkeypatch, capsys):
    import run

    if target == "job":
        monkeypatch.setattr(workloads.TrainWide, "job", _boom)
    else:
        monkeypatch.setattr(tfm, "score", _boom)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    argv = ["--workload", "train-wide", "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]


def test_training_gates_fail_on_a_diverged_or_unlearned_run(tmp_path):
    w = workloads.TrainWide(3, workloads.SIZES["tiny"], tmp_path)
    w.setup()
    job = w.job()
    assert all(g.ok for g in w.gates([job, job]))
    diverged = workloads.JobResult(job.seconds, job.digest, loss=math.nan)
    assert not all(g.ok for g in w.gates([job, diverged]))
    w.test_auc = 0.5
    assert not all(g.ok for g in w.gates([job]))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_tracer_wraps_from_import_bindings_and_restores_them():
    from tensorfm import scoring, training

    original = scoring.forward_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert training.forward_batch is scoring.forward_batch is not original
        assert tfm.train is training.train
        bundle = tfm.init("tensorfm", tfm.build_schema([3, 4, 5]), k=2, d=3, r_vec=2, seed=0)
        ds = tfm.Dataset(bundle.schema, np.zeros((10, 3), dtype=np.int32), labels=np.arange(10) % 2)
        tfm.train(bundle, ds, None, tfm.TrainConfig(epochs=1, batch_size=4))
    finally:
        tracer.uninstall()
    assert scoring.forward_batch is original and training.forward_batch is original
    train, forward = tracer.stats["training.train"], tracer.stats["scoring.forward_batch"]
    assert train.calls == 1 and forward.calls == 3
    assert 0.0 <= train.self_s <= train.total_s
    assert forward.total_s <= train.total_s - train.self_s + 1e-9


def test_tracer_skips_a_name_that_no_longer_exists(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "LAYERS", (("scoring", "no_such_function"), ("scoring", "score")))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracer.stats) == {"scoring.score"}
