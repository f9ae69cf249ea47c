"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks the result schema of every workload in both modes, that a corrupted
output is counted as a failed invocation, and that the traced self times
of an invocation add up to its traced ``cmd_s``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import pytest

import run
import spans

TINY = {
    "ensemble": {"paths": 200, "tau_max": 4},
    "spectrum": {"omega_points": 1024},
    "verify": {},
}
SEED = 1


@pytest.fixture
def tiny(monkeypatch):
    """Swap every workload for its tiny version; returns them by name."""
    workloads = {
        name: dataclasses.replace(w, params=TINY[name]) for name, w in run.WORKLOADS.items()
    }
    for name, w in workloads.items():
        monkeypatch.setitem(run.WORKLOADS, name, w)
    return workloads


def _run(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_result_schema(tiny, capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= run.MIN_INVOCATIONS
    assert result["failed"] == 0
    spec = run.load_spec()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def _scale_first_value(path, factor):
    """Scale column 3 (``re`` of spectrum) of the first row."""
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) * factor)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "ensemble": lambda files: files[0].write_text(
        "\n".join(files[0].read_text().splitlines()[:-1]) + "\n"
    ),
    "spectrum": lambda files: _scale_first_value(files[0], 1 + 1e-9),
    "verify": lambda files: files[0].write_text(
        files[0].read_text().replace(",PASS,", ",FAIL,", 1)
    ),
}


@pytest.mark.parametrize("workload", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(tiny, capsys, monkeypatch, workload):
    judge = run.judge

    def corrupt_then_judge(oracle, w, *rest):
        CORRUPTIONS[w.name](w.outputs)
        judge(oracle, w, *rest)

    monkeypatch.setattr(run, "judge", corrupt_then_judge)
    result = _run(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    stem = run.RESULTS / f"{workload}-seed{SEED}-trace0.json"
    assert json.loads(stem.read_text())["fail_share"] == 1.0


def test_self_times_sum_to_traced_cmd_s(tiny):
    run.load_oracle()
    sample = run.spawn("trace", tiny["verify"].argv(SEED), run.child_env())
    for f in tiny["verify"].outputs:
        f.unlink()
    assert sample["exit"] == 0 and sample["rc"] == 0
    summary = spans.summarize(sample["spans"])
    assert summary[spans.ROOT]["calls"] == 1
    assert {"cli.cmd_verify", "sbm_sim.simulate_paths", "core.sample_points"} <= set(summary)
    resolution = time.get_clock_info("perf_counter").resolution
    total_self = sum(rec["self_s"] for rec in summary.values())
    assert abs(total_self - sample["cmd_s"]) <= len(sample["spans"]) * resolution
