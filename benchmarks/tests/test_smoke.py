"""Tiny-size runs of every workload through the command-line entry point."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)

TINY_SPEC = dict(n_classes=4, head_count=24, imbalance_ratio=4.0, flip_prob=0.3,
                 feature_dim=4, test_per_class=5)
TINY_TRAIN = dict(pre_epochs=1, epochs=2, batch_size=16, timing=False)


def _tiny(workload):
    plan = workload.plan
    if isinstance(plan, workloads.TrainPlan):
        plan = workloads.TrainPlan(TINY_SPEC, TINY_TRAIN, n_seeds=2)
    else:
        # The cell grid stays: its cells are metric names in BENCHMARK.json.
        plan = dataclasses.replace(plan, instances=1, accuracy_rows=512, setup_reps=2)
    return dataclasses.replace(workload, plan=plan)


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {name: _tiny(w) for name, w in workloads.WORKLOADS.items()})
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(tiny_workloads, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "7", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    facts = json.loads(lines[-2])["facts"]
    assert facts["seed"] == 7 and facts["blas_threads_env"] == "1"


def test_declared_workloads_match_the_workload_table():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *DECLARED["command"][1:], "--workload",
                           "kernel-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_missing_wrapped_name_is_reported_absent(tiny_workloads, monkeypatch, capsys):
    # As if sgd_momentum_step were merged away: its wrapper finds no attribute.
    names = dict(workloads.TRAINER_NAMES)
    names["sgd_momentum_step_merged"] = names.pop("sgd_momentum_step")
    monkeypatch.setattr(workloads, "TRAINER_NAMES", names)
    assert run.main(["--workload", "train-c10", "--seed", "7", "--seconds", "0.01",
                     "--trace", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["trainer.steps"]["value"] == 0
    notes = json.loads(lines[-2])["notes"]
    assert notes["absent_layers"] == ["trainer.sgd_momentum_step"]
    assert notes["step_check"].startswith("skipped")
