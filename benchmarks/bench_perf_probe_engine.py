"""Wall-clock speedup of the batched and columnar engines over per-op.

Three workloads, all measured host-side (the simulated clocks of both
paths are identical by construction -- see tests/test_probe_engine.py):

* the Figure-4 512-slot KASLR sweep at distribution quality (16 rounds
  per slot, the kind of sweep the per-slot timing statistics need),
* the Table-I attacks (base break on three CPUs, module detection),
  the batched vs the per-op sweep engine, with the recovered
  outcomes cross-checked,
* the full scenario suite, per-op serial (the pre-engine execution
  model) vs the shipped ``suite --jobs 4`` invocation.

The numbers land in ``BENCH_probe_engine.json`` at the repo root so the
perf trajectory is tracked from this change onward.
"""

import json
import pathlib
import time

from _bench_utils import once, write_result

from repro.analysis.report import format_table
from repro.attacks.kaslr_break import break_kaslr
from repro.attacks.module_detect import detect_modules, region_accuracy
from repro.machine import Machine
from repro.os.linux import layout
from repro.scenarios import run_scenario, run_suite

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_probe_engine.json"
SCENARIO_DIR = REPO_ROOT / "scenarios"

#: rounds per slot for the Fig.-4 distribution sweep
SWEEP_ROUNDS = 16
SUITE_JOBS = 4


def _wall(fn, repeats=3):
    """Best-of-N wall-clock seconds (each call gets a fresh machine)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_slot_vas():
    return [
        layout.kernel_base_of_slot(slot)
        for slot in range(layout.KERNEL_TEXT_SLOTS)
    ]


def _on(machine, engine):
    """``machine``, its core's sweeps pinned to ``engine``."""
    machine.core.sweep_engine = engine
    return machine


def _fig4_sweep(engine):
    machine = _on(Machine.linux(seed=4), engine)
    machine.core.probe_sweep(_kernel_slot_vas(), rounds=SWEEP_ROUNDS,
                             op="load")


def _bench_fig4():
    per_op = _wall(lambda: _fig4_sweep("per-op"))
    # pinned to the row-loop engine: this is the control arm the
    # columnar numbers are compared against
    batched = _wall(lambda: _fig4_sweep("batched"))
    return {
        "slots": layout.KERNEL_TEXT_SLOTS,
        "rounds": SWEEP_ROUNDS,
        "per_op_s": round(per_op, 4),
        "batched_s": round(batched, 4),
        "speedup": round(per_op / batched, 2),
    }


def _bench_table1():
    rows = []
    for cpu, target, seed in (
        ("i5-12400F", "base", 12),
        ("i7-1065G7", "base", 15),
        ("ryzen5-5600X", "base", 13),
        ("i5-12400F", "modules", 12),
    ):
        if target == "base":
            def attack(engine):
                machine = _on(Machine.linux(cpu=cpu, seed=seed), engine)
                result = break_kaslr(machine)
                assert result.base == machine.kernel.base
                return result.base
        else:
            def attack(engine):
                machine = _on(Machine.linux(cpu=cpu, seed=seed), engine)
                result = detect_modules(machine)
                assert region_accuracy(result, machine.kernel) >= 0.98
                return sorted(result.identified.items())
        reference = attack("per-op")
        assert attack("batched") == reference
        per_op = _wall(lambda: attack("per-op"))
        batched = _wall(lambda: attack("batched"))
        rows.append({
            "cpu": cpu,
            "target": target,
            "per_op_s": round(per_op, 4),
            "batched_s": round(batched, 4),
            "speedup": round(per_op / batched, 2),
            "outcome_equal": True,
        })
    return rows


# -- the columnar engine: full-range module / userspace scans -----------------

MODULE_SCAN_SLOTS = layout.MODULE_SLOTS
USER_SCAN_PAGES = 8192
USER_MAPPED_PAGES = 4096


def _module_scan_vas():
    return [
        layout.MODULE_START + slot * 4096
        for slot in range(MODULE_SCAN_SLOTS)
    ]


def _user_scan_machine_and_vas():
    machine = Machine.linux(seed=6)
    base = machine.process.mmap(USER_MAPPED_PAGES)
    vas = [base + page * 4096 for page in range(USER_SCAN_PAGES)]
    return machine, vas


def _scan_arm(vas_of, op, rounds, engine):
    machine, vas = vas_of()
    _on(machine, engine).core.probe_sweep(vas, rounds=rounds, op=op,
                                          warm=False, reduce="min")


def _bench_columnar():
    """Full-range scans: per-op vs batched (control) vs columnar."""
    sections = {}
    for name, vas_of, op, rounds in (
        ("modules_full_range",
         lambda: (Machine.linux(seed=6), _module_scan_vas()), "load", 4),
        ("userspace_rw_scan", _user_scan_machine_and_vas, "store", 2),
    ):
        per_op = _wall(lambda: _scan_arm(vas_of, op, rounds, "per-op"),
                       repeats=2)
        batched = _wall(lambda: _scan_arm(vas_of, op, rounds, "batched"),
                        repeats=2)
        columnar = _wall(lambda: _scan_arm(vas_of, op, rounds, "columnar"),
                         repeats=3)
        sections[name] = {
            "addresses": len(vas_of()[1]),
            "rounds": rounds,
            "op": op,
            "per_op_s": round(per_op, 4),
            "batched_s": round(batched, 4),
            "columnar_s": round(columnar, 4),
            "speedup_vs_per_op": round(per_op / columnar, 2),
            "speedup_vs_batched": round(batched / columnar, 2),
        }
    fig4_columnar = _wall(lambda: _fig4_sweep("columnar"))
    sections["fig4_sweep"] = {
        "slots": layout.KERNEL_TEXT_SLOTS,
        "rounds": SWEEP_ROUNDS,
        "columnar_s": round(fig4_columnar, 4),
    }
    return sections


def _suite_per_op_serial():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        spec = json.loads(path.read_text())
        spec["attack"]["engine"] = "per-op"
        result = run_scenario(spec)
        assert result.passed, (path.name, result.violations)


def _suite_batched_jobs():
    results = run_suite(SCENARIO_DIR, jobs=SUITE_JOBS)
    assert all(r.passed for r in results)


def _bench_suite():
    scenarios = len(list(SCENARIO_DIR.glob("*.json")))
    per_op = _wall(_suite_per_op_serial, repeats=2)
    batched = _wall(_suite_batched_jobs, repeats=2)
    return {
        "scenarios": scenarios,
        "jobs": SUITE_JOBS,
        "per_op_serial_s": round(per_op, 4),
        "batched_jobs_s": round(batched, 4),
        "speedup": round(per_op / batched, 2),
    }


def run_probe_engine():
    fig4 = _bench_fig4()
    table1 = _bench_table1()
    columnar = _bench_columnar()
    suite = _bench_suite()

    # the engine's reason to exist: sweeps >= 5x, the full suite >= 2x
    assert fig4["speedup"] >= 5.0, fig4
    assert suite["speedup"] >= 2.0, suite
    # the columnar core's reason to exist: full-range scans >= 10x per-op
    for section in ("modules_full_range", "userspace_rw_scan"):
        assert columnar[section]["speedup_vs_per_op"] >= 10.0, \
            columnar[section]

    BENCH_JSON.write_text(json.dumps(
        {"fig4_sweep": fig4, "table1": table1, "columnar": columnar,
         "suite": suite}, indent=2,
    ) + "\n")

    rows = [[
        "fig4 512-slot sweep (x{})".format(fig4["rounds"]),
        fig4["per_op_s"], fig4["batched_s"], fig4["speedup"],
    ]]
    for row in table1:
        rows.append([
            "table1 {} {}".format(row["cpu"], row["target"]),
            row["per_op_s"], row["batched_s"], row["speedup"],
        ])
    for name in ("modules_full_range", "userspace_rw_scan"):
        section = columnar[name]
        rows.append([
            "columnar " + name,
            section["per_op_s"], section["columnar_s"],
            section["speedup_vs_per_op"],
        ])
    rows.append([
        "suite ({} scenarios, --jobs {})".format(
            suite["scenarios"], suite["jobs"]),
        suite["per_op_serial_s"], suite["batched_jobs_s"],
        suite["speedup"],
    ])
    return format_table(
        ["workload", "per-op s", "batched s", "speedup"], rows,
    )


def test_perf_probe_engine(benchmark, record_result):
    record_result("perf_probe_engine", once(benchmark, run_probe_engine))
