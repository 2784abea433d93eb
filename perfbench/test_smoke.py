"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every workload runs untraced and traced through run.py with ``--scale
tiny``; the tiny trials are too short to pass their checks, so only the
shape of the output is asserted here, plus the known failing trial.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import specs  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    table = run.END_TO_END if trace == 0 else run.PER_LAYER
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], (int, float))
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert set(table) | {"failed_frac"} <= printed
    if trace == 0:
        assert "final_error" in printed


def test_benchmark_json_matches_the_tables():
    bench_json = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench_json["workloads"]] == list(specs.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench_json["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench_json["per_layer"]} \
        == run.PER_LAYER


def test_known_failing_trial_is_counted_not_raised():
    """svrg-sbb0 (eps = 0) diverges on the sensing instance; the run goes on."""
    import workloads

    spec = dict(specs.SPECS["sensing-p100"]["tiny"])
    spec["trials"] = spec["trials"] + [
        ("svrg-sbb0", {"epochs": 30, "schedule": ("sbb", 0.0, 1e-5)}, 1e-6)]
    rnd = workloads.sensing_round(spec, 0, 0, workloads.Layers())
    sbb0 = [t for t in rnd["trials"] if t["algo"] == "svrg-sbb0"]
    assert len(sbb0) == 1 and sbb0[0]["diverged"] and not sbb0[0]["ok"]
    attempted, failed, why = run.trial_checks(rnd["trials"])
    assert attempted == len(spec["trials"])
    assert failed >= 1
    assert any(line.startswith("svrg-sbb0") for line in why)
