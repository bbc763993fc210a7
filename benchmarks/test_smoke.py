"""Smoke test of the benchmark at a tiny length.

    python -m pytest benchmarks

Checks that every declared metric appears with its unit in both trace
modes, that every workload checks clean, and that a perturbed reference
value makes the correctness check fail.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "7", "--seconds", "0.1", "--scale", "0.05"]

# End-to-end figures each workload reports beside the declared ones.
REPORTED = {
    "ensemble": {"steps_per_s": "1/s", "item_ms.p50": "ms"},
    "solo": {"steps_per_s": "1/s", "item_ms.p50": "ms"},
    "atlas": {"points_per_s": "1/s", "item_ms.p50": "ms"},
}


def _bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--trace", str(trace)]
                    + TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _reported_units(lines):
    units = {}
    for line in lines:
        name, sep, rest = line.partition(" = ")
        if sep:
            units[name] = rest.split()[1]
    return units


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_no_failures(capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, result = _bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == declared
        assert all(isinstance(m["value"], float)
                   for m in result["metrics"].values())
        units = _reported_units(report)
        assert units["fail_frac"] == "fraction"
        assert float(next(line for line in report
                          if line.startswith("fail_frac = ")).split()[2]) == 0
        if trace == 0:
            for name, unit in REPORTED[workload].items():
                assert units[name] == unit


@pytest.mark.parametrize("workload, constant, value", [
    ("atlas", "REF_RHO_B", 0.9),
    ("solo", "REF_ASYMPTOTE", 2.0),
])
def test_perturbed_reference_fails_the_check(capsys, monkeypatch, workload,
                                             constant, value):
    monkeypatch.setattr(workloads, constant, value)
    report, result = _bench(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED: ") for line in report)
