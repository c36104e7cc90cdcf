"""Smoke tests of the benchmark itself.

    python3 -m pytest bench

Each workload runs for a fraction of a second, untraced and traced, and must
emit every metric BENCHMARK.json names, with its unit, and no failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(out):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.6", "--trace", trace)
    metrics = result_of(out)["metrics"]
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if trace == "1":
        assert metrics["failed_ratio"]["value"] == 0
        if workload != "cli-mix":
            assert metrics["cli.calls"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_tracer_wraps_only_public_names():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import abacore
    import abacore.quotients
    from tracing import LAYERS, Tracer

    original = abacore.quotients.tau_e
    tracer = Tracer()
    tracer.install(abacore)
    try:
        rebound = tracer.rebound()
        assert rebound and all(not name.startswith("_") for _, name in rebound)
        assert all(key.split(".")[0] in LAYERS and not key.split(".")[1].startswith("_") for key in tracer.stats)
        assert abacore.tau_e is abacore.quotients.tau_e is abacore.blocks.tau_e is not original
        tracer.active = True
        assert abacore.block_id(((3, 1), (2, 1)), (0, 0), 3).weight == 3
        tracer.active = False
        assert tracer.stats["blocks.block_id"][0] == 1
        assert tracer.stats["quotients.tau_e"][0] == 1  # reached through blocks' own binding
    finally:
        tracer.uninstall()
    assert abacore.quotients.tau_e is original and abacore.blocks.tau_e is original


def test_layer_map_names_every_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        for target in entry["moves"] + entry["steady"]:
            workload, metric = target.split(":")
            assert workload in WORKLOADS and metric in end_to_end


def test_without_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
