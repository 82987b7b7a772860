"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run small slices of the real workloads against this checkout's nilflow.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
import workloads
import worker
from tracer import Tracer, parent_rows

NF = worker.import_nilflow()


class Tampered:
    """A job whose output is altered after the program wrote it."""

    def __init__(self, job, tamper):
        self.job, self.tamper, self.label = job, tamper, "tampered " + job.label

    def run(self, nf, out):
        result = self.job.run(nf, out)
        self.tamper(out)
        return result

    def check(self, nf, out, output):
        return self.job.check(nf, out, output)


def perturb_csv_value(out: Path) -> None:
    path = out / "H1_rho-0.25.csv"
    lines = path.read_text().split("\n")
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * (1.0 + 1e-5))
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines))


def nan_json_field(out: Path) -> None:
    path = out / "verify.json"
    doc = json.loads(path.read_text())
    value = doc["result"]["checks"][1]["value"]
    path.write_text(path.read_text().replace(repr(value), "nan", 1))


def test_perturbed_csv_and_nan_json_count_as_failed(tmp_path):
    sweep = workloads.jobs("flow_sweep", 0)[0]
    verify = workloads.jobs("verify_small", 0)[0]
    jobs = [sweep, Tampered(sweep, perturb_csv_value), verify, Tampered(verify, nan_json_field)]
    records = worker.run_pass(jobs, NF, tmp_path)
    assert [r["ok"] for r in records] == [True, False, True, False]
    assert "closed form" in records[1]["error"]
    assert "invalid JSON" in records[3]["error"]

    metrics, _ = run.end_to_end({"warmup": records[0], "passes": [records], "tail_passes": 1,
                                 "setup_s": [0.1], "peak_rss_mb": 1.0})
    assert metrics["failed_frac"] == 2 / 5
    assert metrics["pass_s"] == math.inf  # a pass with a failed job is never timed
    assert metrics["job_tail_s"] == math.inf  # a failed job misses every latency


@pytest.mark.parametrize("text", ['{"a": nan}', '{"a": NaN}', '{"a": Infinity}',
                                  '{"a": -Infinity}', '{"a": 1, "a": 2}', '{"a": 1'])
def test_strict_json_rejects(text):
    with pytest.raises(oracles.OracleFailure):
        oracles.strict_json(text)


@pytest.mark.parametrize("text", ["t,g_1\n0,1\n", "t,g_1,g_2\n0,1\n", "t,g_1,g_2\n0,1,2,3\n",
                                  "t,g_1,g_2\n0,1,nan\n", "t,g_1,g_2\n0,1,x\n",
                                  "t,g_1,g_2\n0,1,2"])
def test_strict_csv_rejects(text):
    with pytest.raises(oracles.OracleFailure):
        oracles.strict_csv(text, 2)


def test_strict_csv_accepts_exact_rows():
    rows = oracles.strict_csv("t,g_1,g_2\n0,1,2\n0.5,1.25,3\n", 2)
    assert rows.tolist() == [[0.0, 1.0, 2.0], [0.5, 1.25, 3.0]]


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        jobs = workloads.jobs(name, 3)
        assert len({job.label for job in jobs}) == len(jobs)
        assert jobs == workloads.jobs(name, 3)
        assert workloads.jobs(name, 3) != workloads.jobs(name, 4)


def traced(jobs, workdir: Path) -> tuple:
    tracer = Tracer()
    tracer.install()
    try:
        records = worker.run_pass(jobs, NF, workdir, tracer)
    finally:
        tracer.uninstall()
    assert all(r["ok"] for r in records), [r["error"] for r in records]
    return tracer, layers.per_layer(tracer, records, records, layers.listed("per_layer"))


SLICES = {"flow_sweep": 2, "curvature_ladder": 3, "verify_small": 2, "spectral_ladder": 8}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    jobs = workloads.jobs(name, 0)[:SLICES[name]]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    tracer, first = traced(jobs, tmp_path / "a")
    _, second = traced(jobs, tmp_path / "b")
    counts = [key for key, unit in layers.listed("per_layer").items() if unit in ("count", "B")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    if name in ("flow_sweep", "verify_small"):
        assert first["flow.rhs_per_step"] == 4.0
    if name == "curvature_ladder":
        assert first["curvature.riemann.per_metric"] == 4.0
    if name == "verify_small":
        assert first["curvature.riemann.per_metric"] == 2.0


def test_pool_thread_spans_take_the_job_threads_open_span_as_parent(tmp_path):
    tracer, _ = traced(workloads.jobs("flow_sweep", 0)[:1], tmp_path)
    spans = tracer.spans()
    names = np.array(tracer.names)
    integrate = names[spans["name"]] == "flow.integrate"
    parents = parent_rows(spans)[integrate]
    assert integrate.sum() == 4
    assert set(names[spans["name"][parents]]) == {"cli.dispatch"}
    assert (spans["thread"][integrate] != spans["thread"][parents]).all()


def test_untraced_outside_jobs_and_restored_after(tmp_path):
    original = NF.flow.rhs_diagonal
    tracer = Tracer()
    tracer.install()
    try:
        assert NF.flow.rhs_diagonal is not original
        NF.flow.rhs_diagonal("heisenberg", np.ones(3), 1, 0.0)
        assert len(tracer.spans()["sid"]) == 0
    finally:
        tracer.uninstall()
    assert NF.flow.rhs_diagonal is original
    assert NF.cli.integrate is NF.flow.integrate


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(40))) == (29, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def synthetic_record(passes: int, tail_passes: int) -> dict:
    costs = [0.1 * (k + 1) for k in range(12)]  # one pass: 12 jobs
    jobs = [[{"job": f"j{k}", "s": c, "ok": True} for k, c in enumerate(costs)]
            for _ in range(passes)]
    return {"warmup": jobs[0][0], "passes": jobs, "tail_passes": tail_passes,
            "setup_s": [0.1], "peak_rss_mb": 1.0}


def test_tail_does_not_depend_on_how_many_passes_fit():
    slow, slow_notes = run.end_to_end(synthetic_record(passes=2, tail_passes=2))
    fast, fast_notes = run.end_to_end(synthetic_record(passes=5, tail_passes=2))
    assert slow["job_tail_s"] == fast["job_tail_s"] == pytest.approx(0.7)  # p58: 10 of 24 beyond
    assert slow_notes["job_tail_s"] == fast_notes["job_tail_s"]


def test_fill_rounds_add_job_samples_but_not_passes_or_tail():
    record = synthetic_record(passes=1, tail_passes=1)
    record["fill"] = [{"job": "j5", "s": 0.2, "ok": True, "index": 5} for _ in range(4)]
    metrics, notes = run.end_to_end(record)
    assert run.job_samples(record)["j5"] == pytest.approx([0.6, 0.2, 0.2, 0.2, 0.2])
    assert metrics["job_p50_s"] == pytest.approx(0.6)  # 0.65 without the fill samples
    assert metrics["pass_s"] == pytest.approx(7.8)
    assert metrics["job_tail_s"] == pytest.approx(1.2)
    assert "4 fill samples" in notes["job_p50_s"]


def test_fill_rounds_run_only_the_jobs_that_fit(tmp_path):
    jobs = workloads.jobs("curvature_ladder", 3)[:2]
    last_pass = [{"s": 0.0, "ok": True}, {"s": 1e9, "ok": True}]
    samples = worker.fill_rounds(jobs, NF, tmp_path, last_pass, left=0.05)
    assert samples and {s["index"] for s in samples} == {0}
    assert all(s["ok"] and s["job"] == jobs[0].label for s in samples)


def test_benchmark_file_lists_reported_metrics():
    bench = json.loads(layers.BENCHMARK.read_text())
    metrics, _ = run.end_to_end(synthetic_record(passes=1, tail_passes=1))
    assert set(layers.listed("end_to_end")) <= set(metrics)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert set(workloads.TAIL_PASSES) == set(workloads.WORKLOADS)
    # every listed per-layer name resolves: see test_counts_repeat_exactly
