"""Tests of the benchmark itself, on a tiny workload: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import run
import spans
import workloads
from synself import analysis

TINY = workloads.Workload(
    "tiny", "two 8^3 train steps on a 12-synapse phantom", patch_side=8, batch_pairs=2,
    gen={"dims": (64, 64, 32), "n_supervoxels": 4, "synapses_per_supervoxel": 3},
)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tracer = spans.Tracer("tiny-test")
    out = tmp_path_factory.mktemp("traced")
    return workloads.run(TINY, 0, 2, out, tracer=tracer), tracer, out


def test_every_end_to_end_metric_is_emitted_with_its_unit(tmp_path, capsys):
    r = workloads.run(TINY, 0, 2, tmp_path)
    assert (r["steps"], r["passes"], r["timed_steps"]) == (2, workloads.PASSES, 1)
    assert r["failed"] == 0 and r["failures"] == []
    metrics = run.report_end_to_end(r)
    printed = capsys.readouterr().out
    for name, unit, _ in workloads.END_TO_END:
        assert math.isfinite(r["metrics"][name])
        assert f"{name} " in printed and f" {unit}" in printed
        if name not in workloads.PRINTED_ONLY:
            assert metrics[name]["unit"] == unit
    assert r["metrics"]["failed_ops_frac"] == 0.0
    # every timing is printed as measured too, next to the run's slowdown
    assert set(r["measured"]) == set(workloads.TIMINGS) and r["slowdown"] > 0
    assert "(measured " in printed and "slowdown " in printed
    assert {"nproc", "blas", "thread_env", "numpy", "python", "seed", "commit"} <= set(r["provenance"])


def test_every_per_layer_metric_is_emitted_with_its_unit(traced, capsys):
    r, _, _ = traced
    assert r["failed"] == 0
    metrics = run.report_per_layer(r, r)
    printed = capsys.readouterr().out
    for name, unit, _, _ in spans.PER_LAYER:
        assert metrics[name]["unit"] == unit and math.isfinite(metrics[name]["value"])
        assert f"{name} " in printed
    assert metrics["trace.overhead_s"]["value"] == 0.0
    assert "tracing overhead" in printed
    for name in ("numcore.conv3d.flops", "numcore.conv3d_forward.calls", "trainer.train_step.s",
                 "analysis.concordance.s", "volume_io.bytes", "sampler.pairs_materialized"):
        assert metrics[name]["value"] > 0, name
    assert 0 < metrics["numcore.conv3d_backward.useful_frac"]["value"] < 1
    # 4 supervoxels of 3 synapses: C(3,2) pairs each, 2 used per step
    assert metrics["sampler.pairs_materialized"]["value"] == 12
    assert metrics["sampler.pairs_used"]["value"] == 2


def test_spans_nest_and_self_times_fit_their_parents(traced):
    _, tracer, out = traced
    recorded = tracer.spans
    assert recorded and any(s[spans.PARENT] >= 0 for s in recorded)
    for (name, start, end, parent, _), own in zip(recorded, spans.self_times(recorded)):
        assert start <= end and own >= -1e-9
        if parent >= 0:
            _, p_start, p_end, _, _ = recorded[parent]
            assert p_start <= start and end <= p_end
            assert own <= p_end - p_start
            # numcore is the leaf layer: its internal calls open no span
            assert not recorded[parent][spans.NAME].startswith("numcore.")
    names = {s[spans.NAME] for s in recorded}
    assert {"trainer.train_step", "sampler.eligible_supervoxels", "numcore.conv3d_backward"} <= names
    lines = (out / "tiny-seed0-spans.jsonl").read_text().splitlines()
    assert len(lines) == len(recorded)
    assert set(json.loads(lines[0])) == {"name", "start", "end", "parent", "run"}


def test_injected_nan_embedding_counts_as_failure(tmp_path, monkeypatch):
    real = analysis.embed_with_params

    def nan_row(*args, **kwargs):
        emb = real(*args, **kwargs)
        emb.values[0, 0] = np.nan
        return emb

    monkeypatch.setattr(analysis, "embed_with_params", nan_row)
    r = workloads.run(TINY, 0, 2, tmp_path)
    assert r["failed"] >= 1
    assert any("non-finite embedding row" in f for f in r["failures"])
    assert r["metrics"]["failed_ops_frac"] == r["failed"] / r["attempted"] > 0
    # a non-finite metric is left out of the JSON result, not reported as a number
    r["metrics"]["final_loss"] = float("nan")
    assert "final_loss" not in run.report_end_to_end(r)


def test_digest_differing_from_an_earlier_run_counts_as_failure(tmp_path, monkeypatch):
    first = workloads.run(TINY, 1, 2, tmp_path)
    again = workloads.run(TINY, 1, 2, tmp_path)
    assert first["failed"] == again["failed"] == 0 and first["digests"] == again["digests"]
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text())
    for key in known:
        known[key]["params"] = "0" * 64
    store.write_text(json.dumps(known))
    r = workloads.run(TINY, 1, 2, tmp_path)
    assert r["failed"] == 1 and any(f.startswith("1/1 digest") for f in r["failures"])
    # digests stored in another environment are not compared with this one's
    real = workloads.provenance
    monkeypatch.setattr(workloads, "provenance", lambda seed: {**real(seed), "blas": "other 0.0"})
    assert workloads.run(TINY, 1, 2, tmp_path)["failed"] == 0
    assert len(json.loads(store.read_text())) == 2


def test_benchmark_json_matches_the_code():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert all(w["name"] in workloads.WORKLOADS for w in bench["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        m for m in workloads.END_TO_END if m[0] not in workloads.PRINTED_ONLY]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in spans.PER_LAYER]
