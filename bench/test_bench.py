"""Tests of the benchmark itself: ``python -m pytest bench -q`` (~30 s).

The end-to-end tests run ``bench/run.py`` at its smoke size (20-unit
passes, 2-second phases) exactly as a user would, and read what it
prints.
"""

import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from bench import compare, run, workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seconds", "2"]
        + list(args),
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    rows = {}
    for line in lines[:-1]:
        workload, name, value, unit = line.split()[:4]
        rows[(workload, name)] = (value, unit)
    return rows, json.loads(lines[-1])


@pytest.fixture(scope="module")
def seed_one():
    return bench("--seed", "1")


@pytest.fixture(scope="module")
def seed_two():
    return bench("--seed", "2")


@pytest.fixture(scope="module")
def traced():
    return bench("--seed", "1", "--workload", "boot-bound", "--trace", "1")


def test_every_end_to_end_metric_is_printed_with_its_unit(seed_one):
    rows, summary = seed_one
    assert summary["correct"] and summary["failed"] == 0
    for workload in run.WORKLOADS:
        printed = summary["workloads"][workload]["metrics"]
        for entry in DECLARED["end_to_end"]:
            value, unit = rows[(workload, entry["name"])]
            assert unit == entry["unit"] and float(value) > 0
            assert printed[entry["name"]]["unit"] == entry["unit"]
            assert printed[entry["name"]]["value"] > 0


def test_traced_pass_reports_every_per_layer_metric(traced):
    rows, summary = traced
    names = [entry["name"] for entry in DECLARED["per_layer"]]
    assert sorted(summary["metrics"]) == sorted(names)
    for entry in DECLARED["per_layer"]:
        assert rows[("boot-bound", entry["name"])][1] == entry["unit"]
        assert summary["metrics"][entry["name"]]["unit"] == entry["unit"]
    # the compute layers of a boot-bound unit were actually observed
    for name in ("machine.boot_ms", "os.linux.kernel_ms", "mmu.map_calls",
                 "cpu.sweep_rows", "attacks.driver_ms",
                 "bench.trace_overhead"):
        assert summary["metrics"][name]["value"] > 0, name


def _digest(result, workload):
    return result[0][(workload, "outcome_digest")][0]


def test_digests_repeat_for_a_seed_and_differ_across_seeds(seed_one,
                                                           seed_two):
    for workload in run.WORKLOADS:
        assert _digest(seed_one, workload) != _digest(seed_two, workload)
    # boot-bound and serve-open of one seed run the same pass, one
    # in-process and one through the service: same outcomes
    assert _digest(seed_one, "boot-bound") \
        == _digest(seed_one, "serve-open")


def test_traced_and_untraced_runs_give_the_same_digest(seed_one, traced):
    assert _digest(traced, "boot-bound") == _digest(seed_one, "boot-bound")


def test_generated_pairs_are_all_supported():
    from repro.cpu.models import CPU_CATALOG

    assert set(workloads.CPUS) == set(CPU_CATALOG)
    for seed in range(10):
        for spec in (workloads.boot_bound(seed, 100)
                     + workloads.sweep_bound(seed, 60)):
            assert workloads.is_supported(spec), (
                workloads.environment_of(spec), workloads.attack_of(spec))
    # the pairs a naive mix gets wrong are not in the table
    assert "cloud/azure" not in workloads.SUPPORTED["kaslr"]
    assert "linux/xeon-e5-2676" not in workloads.SUPPORTED["modules"]


def test_an_aborted_attack_is_a_wrong_unit_not_a_failure():
    from bench import harness
    from repro.errors import AttackError
    from repro.scenarios import run_scenario

    # seed 16's fingerprint unit cannot tell its sentinels apart by size
    spec = workloads.sweep_bound(16, 60)[33]
    with pytest.raises(AttackError) as raised:
        run_scenario(spec)
    result = harness.aborted(spec, raised.value)
    assert not harness.failed(result)
    outcomes = harness.Outcomes()
    outcomes.add(spec, result)
    assert outcomes.exact()["wrong_ratio"] == 1.0


def test_host_correction_scales_only_the_measured_work():
    from bench import harness, hostspeed

    slow = [2.0 * hostspeed.REFERENCE_S] * 4
    assert harness.host_corrected([10.0, 30.0, 50.0, 70.0], slow, 2) \
        == [[5.0, 15.0], [25.0, 35.0]]
    request = harness.Request("t", 0, {}, due=0.0)
    request.status = "done"
    request.started, request.finished, request.done = 0.1, 0.14, 0.15
    # 100 ms waiting for dispatch, 40 ms executing, 10 ms replying
    assert request.latency_ms(host=2.0) == pytest.approx(130.0)


def test_generator_is_a_pure_function_of_the_seed():
    assert workloads.boot_bound(5, 40) == workloads.boot_bound(5, 40)
    assert workloads.boot_bound(5, 40) != workloads.boot_bound(6, 40)
    assert workloads.arrivals(5, "untraced", 25.0, 4.0) \
        == workloads.arrivals(5, "untraced", 25.0, 4.0)


def _record(workload, seed, units_per_s, digest="d1", wrong=0.0):
    return {"schema": compare.SCHEMA, "workload": workload, "seed": seed,
            "trace": 0, "outcome_digest": digest,
            "metrics": {"units_per_s": units_per_s},
            "exact": {"wrong_ratio": wrong, "paper_err_pct": 1.0,
                      "fail_ratio": 0.0}}


def test_compare_flags_regressions_spread_and_outcome_changes():
    declared = {"end_to_end": [{"name": "units_per_s", "unit": "1/s",
                                "better": "higher", "bound": 0.1}],
                "per_layer": []}
    old = [_record("w", seed, 100.0 + seed) for seed in range(5)]

    def flagged(new):
        return compare.report(old, new, declared, out=io.StringIO())

    assert flagged([_record("w", s, 101.0 + s) for s in range(5)]) == 0
    assert flagged([_record("w", s, 80.0 + s) for s in range(5)]) == 1
    noisy = [_record("w", s, v) for s, v in enumerate((50, 80, 100, 140,
                                                       180))]
    assert flagged(noisy) == 1
    assert compare.compare_metric(
        [r["metrics"]["units_per_s"] for r in old], [60.0, 200.0],
        "higher", 0.1)["verdict"] == "unresolved"
    changed = [_record("w", s, 101.0 + s, digest="d2") for s in range(5)]
    assert flagged(changed) == 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "boot-bound",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout
