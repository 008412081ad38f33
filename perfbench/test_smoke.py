"""Smoke test of the benchmark itself, on a cohort shrunk a hundredfold.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import cohort  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, bench: Path = BENCH) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.01"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in workloads.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_run_passes_its_checks(tmp_path, workload):
    result = last_json(run_bench(tmp_path, workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 5
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((tmp_path / ".perfbench" / "results" / f"{workload}-seed5-trace0.json").read_text())
    # Even a one-second run sets up more than once and makes a second round,
    # each checked against the first.
    assert len(record["rounds"]) == 2 and len(record["setup_s_each"]) > 2
    assert any(c["check"] == "round 1 artifacts identical to round 0" for c in record["checks"])
    assert any(c["check"] == "set-up 1 inputs identical to set-up 0" for c in record["checks"])
    assert result["metrics"]["setup_s"]["value"] == statistics.median(record["setup_s_each"])
    assert result["metrics"]["split_s"]["value"] == statistics.median(
        sum(s["seconds"] for s in r["steps"] if s["argv"] and s["argv"][0] == "split") for r in record["rounds"])


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = last_json(run_bench(tmp_path, "paper_wide", 1))
    assert result["correct"], result
    assert set(result["metrics"]) == set(workloads.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["fusion.steps"] > 0 and m["hashing.digest_bytes"] > 0
    assert 1.0 < m["cli.bytes_read_ratio"] < 2.5


def test_changed_artifact_on_rerun_is_a_failure(tmp_path):
    assert last_json(run_bench(tmp_path, "paper_meta", 0))["failed"] == 0
    (state,) = (tmp_path / ".perfbench" / "state").iterdir()
    digests = json.loads(state.read_text())
    digests["folds.csv"] = "0" * 64
    state.write_text(json.dumps(digests))
    result = last_json(run_bench(tmp_path, "paper_meta", 0))
    assert result["failed"] == 1 and not result["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "paper_meta", 0, bench=tmp_path / "perfbench")
    assert proc.returncode != 0 and proc.stdout == ""


def test_paper_scale_cohort_counts():
    c = cohort.make_cohort(seed=9)  # make_cohort asserts the counts itself
    assert len(c) == cohort.N_2020 + cohort.N_2019 == 58_457
    assert 12 < len(c) / len(c.by_patient) < 18


def test_pair_count_auc_equals_brute_force():
    rng = np.random.default_rng(0)
    scores = np.round(rng.random(300), 1)  # heavy ties
    labels = (rng.random(300) < 0.2).astype(np.int64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    brute = (np.sum(pos[:, None] > neg) + 0.5 * np.sum(pos[:, None] == neg)) / (pos.size * neg.size)
    assert abs(checks.pair_count_auc(scores, labels) - brute) < 1e-15
