"""Smoke test of the benchmark harness itself, at a tiny size.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run   # first: it puts the repository's src/ on the import path

TINY = run.Scale(speakers=8, utts_per_speaker=3, utt_s=0.5, train_s=4.0, valid_s=1.0,
                 test_s=1.0, arch=run.ArchSpec(input_dim=129, num_layers=1,
                                               hidden_per_direction=8, embed_dim=4),
                 epochs=2, ckpt_epochs=2, setup_repeats=2, scored=2)
BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())

# The metrics each workload prints by name, beside the end-to-end ones.
NAMED = {
    "train": ["train_utt_per_s", "epoch_s_p50", "train_val_loss"],
    "separate": ["sep_gmm_ms_p50", "sep_gmm_ms_tail", "sep_kmeans_ms_p50",
                 "sep_kmeans_ms_tail", "sep_rtf", "sdr_gmm_db", "sdr_kmeans_db"],
    "eval_oracle": ["eval_s_per_mix", "sdr_oracle_db"],
}


def _printed_metrics(lines):
    """name -> unit of every `metric <name> = <value> <unit>  (...)` line."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            out[name] = rest.split()[1]
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_emits_every_metric_with_a_unit(workload, tmp_path):
    lines = []
    result = run.run(workload, seed=0, seconds=0.0, trace=False, scale=TINY,
                     out=tmp_path, say=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
    # The tiny model is too small to separate, so separate's quality check
    # fails there; what must hold is that each failed check is counted.
    if workload == "separate":
        assert result["failed"] == sum(line.startswith("FAILED") for line in lines)
    else:
        assert result["correct"], lines
    printed = _printed_metrics(lines)
    for name in ["setup_s", "peak_rss_mb", "fail_ratio"] + NAMED[workload]:
        assert printed.get(name), f"{name} not printed with a unit: {lines}"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_layers_and_writes_linked_spans(workload, tmp_path):
    lines = []
    result = run.run(workload, seed=0, seconds=0.0, trace=True, scale=TINY,
                     out=tmp_path, say=lines.append)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.layers.METRICS} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    spans = [json.loads(line)
             for line in (tmp_path / f"spans-{workload}-seed0.jsonl").read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    assert any(s["parent"] is not None for s in spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["run"] == s["run"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    assert {s["run"] for s in spans} > {"setup"}


def test_exits_nonzero_without_printing_where_the_program_is_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_refused_recipe_is_a_failed_set_up():
    # 4 speakers give at most 6 distinct test pairs, and 4 s of 0.5-s test
    # mixtures need 8: build_dataset refuses it, and the run must say so.
    refused = run.Scale(speakers=4, utts_per_speaker=6, utt_s=0.5, train_s=4.0,
                        valid_s=1.0, test_s=4.0, arch=TINY.arch, setup_repeats=1)
    lines = []
    result = run.run("eval_oracle", seed=0, seconds=0.0, trace=False, scale=refused,
                     say=lines.append)
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert any(line.startswith("set-up failed") for line in lines)
