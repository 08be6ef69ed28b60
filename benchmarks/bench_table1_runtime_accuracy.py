"""Table I: runtime and accuracy of the base/module derandomization.

Paper (n = 10000):

  CPU                  target   probing   total     accuracy
  i5-12400F (desktop)  base     67 us     0.28 ms   99.60 %
                       modules  2.43 ms   2.62 ms   99.84 %
  i7-1065G7 (mobile)   base     0.26 ms   0.57 ms   99.29 %
                       modules  8.42 ms   8.64 ms   99.72 %
  Ryzen 5 5600X        base     1.91 ms   2.90 ms   99.48 %

The two Intel base rows run the paper's n = 10000 boots on the simulator
and are held to the paper's accuracy within 0.006; the module and AMD rows
use smaller n.  Each row reports the wall seconds its trials took.
"""

from time import perf_counter

from _bench_utils import once

from repro.analysis.experiment import AccuracyExperiment
from repro.analysis.report import format_table
from repro.attacks.kaslr_break import break_kaslr
from repro.attacks.module_detect import detect_modules, region_accuracy
from repro.machine import Machine

BASE_TRIALS = 10_000
MODULE_TRIALS = 5

PAPER = {
    ("i5-12400F", "base"): (0.067, 0.28, 0.9960),
    ("i5-12400F", "modules"): (2.43, 2.62, 0.9984),
    ("i7-1065G7", "base"): (0.26, 0.57, 0.9929),
    ("i7-1065G7", "modules"): (8.42, 8.64, 0.9972),
    ("ryzen5-5600X", "base"): (1.91, 2.90, 0.9948),
}


def _base_attack(machine):
    result = break_kaslr(machine)
    return (result.base == machine.kernel.base, result.probing_ms,
            result.total_ms)


def _module_attack(machine):
    result = detect_modules(machine)
    return (region_accuracy(result, machine.kernel), result.probing_ms,
            result.total_ms)


def run_table1():
    rows = []
    for cpu, target, attack, trials in (
        ("i5-12400F", "base", _base_attack, BASE_TRIALS),
        ("i5-12400F", "modules", _module_attack, MODULE_TRIALS),
        ("i7-1065G7", "base", _base_attack, BASE_TRIALS),
        ("i7-1065G7", "modules", _module_attack, max(2, MODULE_TRIALS // 2)),
        ("ryzen5-5600X", "base", _base_attack, 8),
    ):
        start = perf_counter()
        experiment = AccuracyExperiment(
            lambda seed, c=cpu: Machine.linux(cpu=c, seed=seed), attack
        ).run(trials)
        wall_s = perf_counter() - start
        paper_probe, paper_total, paper_acc = PAPER[(cpu, target)]
        rows.append((
            cpu, target, len(experiment.outcomes),
            round(experiment.mean_probing_ms, 3), paper_probe,
            round(experiment.mean_total_ms, 3), paper_total,
            round(experiment.accuracy, 4), paper_acc, round(wall_s, 1),
        ))
        # the reproduction claims: runtimes within ~60%, accuracy >= 98%
        assert experiment.mean_probing_ms < paper_probe * 1.6 + 0.05
        assert experiment.mean_total_ms < paper_total * 1.6 + 0.05
        assert experiment.accuracy >= 0.98
        if trials == BASE_TRIALS:
            # paper-scale accuracy (n = 10000)
            assert abs(experiment.accuracy - paper_acc) < 0.006

    # the paper's orderings
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("i5-12400F", "base")][5] < \
        by_key[("i7-1065G7", "base")][5]        # desktop beats mobile
    assert by_key[("i7-1065G7", "base")][5] < \
        by_key[("ryzen5-5600X", "base")][5]     # Intel P2 beats AMD P3

    return format_table(
        ["CPU", "target", "n", "probing ms", "paper", "total ms", "paper",
         "accuracy", "paper", "wall s"],
        rows,
        title="Table I -- derandomization runtime and accuracy",
    )


def test_table1_runtime_accuracy(benchmark, record_result):
    record_result("table1_runtime_accuracy", once(benchmark, run_table1))
